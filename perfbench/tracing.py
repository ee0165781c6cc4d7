"""Span tracing of lcpmatch from outside the library.

A traced pass replaces, in the namespace of the calling module, the public
functions that each lcpmatch module calls in the next one. Each wrapper
records a span (name, start, end, parent span, operation id) and bumps its
counters. Wrappers are installed for one traced pass and restored after it;
untraced runs install none. A name that no longer exists is skipped, and
every metric that depends on it is reported absent.

Spans are kept in memory. A layer's self time is the time its spans cover
minus the part their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable


def _one(args, result) -> int:
    return 1


def _result_len(args, result) -> int:
    return len(result)


def _first_len(args, result) -> int:
    return len(result[0])


def _arg_len(args, result) -> int:
    return len(args[0])


def _truthy(args, result) -> int:
    return 1 if result else 0


@dataclass(frozen=True)
class Wrap:
    """One name to wrap: `attr` as looked up in `owner` by its callers.

    `span` is "<layer>:<function>", or None to count without a span (for
    calls too small and frequent to time). `counts` pairs a counter name
    with a function of (args, result) giving the amount to add.
    """

    owner: str
    attr: str
    span: str | None
    counts: tuple[tuple[str, Callable], ...] = ()

    @property
    def key(self) -> str:
        return f"{self.owner}.{self.attr}"


WRAPS = (
    # da -> geometry, index, sampling, result
    Wrap("lcpmatch.da", "pair_canonical_motion", "geometry:pair_canonical_motion"),
    Wrap(
        "lcpmatch.da",
        "rotation_distance_coeffs",
        "geometry:rotation_distance_coeffs",
        (("da.bases_scored", _one),),
    ),
    Wrap("lcpmatch.da", "union_intervals", "geometry:union_intervals", (("da.arc_unions", _one),)),
    Wrap(
        "lcpmatch.da",
        "max_overlap_angle",
        "geometry:max_overlap_angle",
        (("da.arcs_voted", _arg_len),),
    ),
    Wrap("lcpmatch.da", "rotation_about_line", "geometry:rotation_about_line"),
    Wrap(
        "lcpmatch.da",
        "least_squares_motion",
        "geometry:least_squares_motion",
        (("geometry.lsq_refits", _one),),
    ),
    Wrap(
        "lcpmatch.da",
        "motion_from_bases",
        "geometry:motion_from_bases",
        (("geometry.motions_from_bases", _one),),
    ),
    Wrap("lcpmatch.da", "build_pair_dict", "index:build_pair_dict"),
    Wrap(
        "lcpmatch.da",
        "build_triplet_index",
        "index:build_triplet_index",
        (("index.triplets", _result_len),),
    ),
    Wrap(
        "lcpmatch.da",
        "materialize_pairs",
        "sampling:materialize_pairs",
        (("da.source_pairs", _result_len),),
    ),
    Wrap(
        "lcpmatch.da",
        "build_match_result",
        "result:build_match_result",
        (("result.verifies", _one),),
    ),
    # exact -> geometry, index, sampling, result; motion_key is exact's own
    Wrap(
        "lcpmatch.exact",
        "motion_from_bases",
        "geometry:motion_from_bases",
        (("geometry.motions_from_bases", _one),),
    ),
    Wrap("lcpmatch.exact", "collinear_mask", "geometry:collinear_mask"),
    Wrap("lcpmatch.exact", "pairwise_distances", "geometry:pairwise_distances"),
    Wrap(
        "lcpmatch.exact",
        "build_triplet_index",
        "index:build_triplet_index",
        (("index.triplets", _result_len),),
    ),
    Wrap(
        "lcpmatch.exact",
        "ordered_triplets_and_keys",
        "index:ordered_triplets_and_keys",
        (("index.triplets", _first_len),),
    ),
    Wrap("lcpmatch.exact", "materialize_pairs", "sampling:materialize_pairs"),
    Wrap(
        "lcpmatch.exact",
        "build_match_result",
        "result:build_match_result",
        (("result.verifies", _one),),
    ),
    Wrap("lcpmatch.exact", "motion_key", None, (("exact.motion_keys", _one),)),
    # methods of index and geometry objects the matchers hold
    Wrap("lcpmatch.index.PairDict", "any_in_range", None, (("da.pairs_passed", _truthy),)),
    Wrap(
        "lcpmatch.index.TripletIndex",
        "slab_rows",
        "index:TripletIndex.slab_rows",
        (("index.slab_rows", _result_len),),
    ),
    Wrap(
        "lcpmatch.index.TripletIndex",
        "query_box_indices",
        "index:TripletIndex.query_box_indices",
        (("index.box_queries", _one), ("index.box_hits", _result_len)),
    ),
    Wrap("lcpmatch.geometry.RigidMotion", "apply", "geometry:RigidMotion.apply"),
    # sampling's spectral check, result -> geometry, oracle -> geometry
    Wrap(
        "lcpmatch.sampling",
        "estimate_lambda",
        "sampling:estimate_lambda",
        (("sampling.lambda_calls", _one),),
    ),
    Wrap("lcpmatch.result", "nearest_matches", "geometry:nearest_matches"),
    Wrap(
        "lcpmatch.oracle",
        "exact_lcp_bruteforce",
        "oracle:exact_lcp_bruteforce",
        (("oracle.bruteforce_calls", _one),),
    ),
    Wrap("lcpmatch.oracle", "motion_from_bases", "geometry:motion_from_bases"),
    Wrap("lcpmatch.oracle", "nearest_matches", "geometry:nearest_matches"),
)


@dataclass(frozen=True)
class Metric:
    """A per-layer metric computed from one phase of a traced pass.

    kind "spans" sums the durations of spans named in `of`; "count" reads
    counter `of[0]`; "self" sums the self time of layer `of[0]`. Phase "op"
    covers the matcher calls, phase "gen" the instance generation.
    """

    name: str
    unit: str
    kind: str
    of: tuple[str, ...]
    phase: str = "op"


def _spans(name, *spans, phase="op"):
    return Metric(name, "s", "spans", spans, phase)


def _count(name, phase="op"):
    return Metric(name, "count", "count", (name,), phase)


PER_LAYER = (
    Metric("da.self_s", "s", "self", ("da",)),
    _count("da.source_pairs"),
    _count("da.pairs_passed"),
    _count("da.bases_scored"),
    _count("da.arcs_voted"),
    _count("da.arc_unions"),
    _spans("da.exact_s", "da:da_exact"),
    Metric("geometry.self_s", "s", "self", ("geometry",)),
    _spans("geometry.canonical_motion_s", "geometry:pair_canonical_motion"),
    _spans("geometry.rotation_coeffs_s", "geometry:rotation_distance_coeffs"),
    _spans("geometry.sweep_s", "geometry:union_intervals", "geometry:max_overlap_angle"),
    _spans("geometry.motion_from_bases_s", "geometry:motion_from_bases"),
    _count("geometry.motions_from_bases"),
    _count("geometry.lsq_refits"),
    Metric("index.self_s", "s", "self", ("index",)),
    _spans(
        "index.build_s",
        "index:build_pair_dict",
        "index:build_triplet_index",
        "index:ordered_triplets_and_keys",
    ),
    _count("index.triplets"),
    _count("index.slab_rows"),
    _count("index.box_queries"),
    _count("index.box_hits"),
    _spans("index.box_query_s", "index:TripletIndex.query_box_indices"),
    Metric("exact.self_s", "s", "self", ("exact",)),
    _count("exact.motion_keys"),
    _spans("exact.pose_s", "exact:pose_clustering"),
    _spans("exact.align_s", "exact:alignment"),
    _spans("exact.ght_s", "exact:ght"),
    _spans("exact.ghash_s", "exact:geometric_hashing"),
    _spans("exact.ght_pair_s", "exact:ght_pair_based"),
    Metric("sampling.self_s", "s", "self", ("sampling",)),
    _spans("sampling.pairs_s", "sampling:materialize_pairs"),
    _spans("sampling.lambda_s", "sampling:estimate_lambda"),
    _count("sampling.lambda_calls"),
    Metric("result.self_s", "s", "self", ("result",)),
    _spans("result.verify_s", "result:build_match_result"),
    _count("result.verifies"),
    Metric("oracle.self_s", "s", "self", ("oracle",), "gen"),
    _spans("oracle.generate_s", "oracle:generate_instance", phase="gen"),
    _spans("oracle.bruteforce_s", "oracle:exact_lcp_bruteforce", phase="gen"),
    _count("oracle.bruteforce_calls", phase="gen"),
)


def resolve(path: str):
    """The module or class at a dotted path, or None when it is gone."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name, None)
            if obj is None:
                return None
        return obj
    return None


@dataclass
class Summary:
    """Aggregates of one traced pass, per phase."""

    span_s: dict  # (phase, span name) -> seconds
    self_s: dict  # (phase, layer) -> seconds
    counts: Counter  # (phase, counter) -> amount
    roots: list  # (op id, root seconds, summed self seconds, min self seconds)
    spans: int


class Tracer:
    """Installs the wrappers, records spans and counts, and restores names."""

    def __init__(self, wraps=WRAPS):
        self.wraps = wraps
        self.spans: list[list] = []  # [name, parent, op id, start ns, end ns, child ns]
        self.counts: Counter = Counter()
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._op = None
        self._phase = None
        self._saved: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self):
        for w in self.wraps:
            owner = resolve(w.owner)
            raw = None if owner is None else vars(owner).get(w.attr)
            if not callable(raw):
                self.missing.add(w.key)
                continue
            self._saved.append((owner, w.attr, raw))
            setattr(owner, w.attr, self._wrapper(raw, w))

    def restore(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def _wrapper(self, fn, w: Wrap):
        tracer = self
        span, counts = w.span, w.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            if span is None:
                result = fn(*args, **kwargs)
            else:
                sid = tracer._begin(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._end(sid)
            for counter, amount in counts:
                tracer.counts[tracer._phase, counter] += amount(args, result)
            return result

        return traced

    # -- recording ---------------------------------------------------------

    def _begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self._op, perf_counter_ns(), 0, 0])
        sid = len(self.spans) - 1
        self._stack.append(sid)
        return sid

    def _end(self, sid: int):
        now = perf_counter_ns()
        rec = self.spans[sid]
        rec[4] = now
        self._stack.pop()
        if rec[1] >= 0:
            self.spans[rec[1]][5] += now - rec[3]

    @contextmanager
    def operation(self, phase: str, j: int, name: str):
        """Root span of one benchmark operation; wrappers record only inside."""
        self._phase, self._op = phase, f"{phase}:{j}"
        sid = self._begin(name)
        try:
            yield
        finally:
            self._end(sid)
            self._op = self._phase = None

    # -- results -----------------------------------------------------------

    def summary(self) -> Summary:
        span_s: dict = defaultdict(float)
        self_s: dict = defaultdict(float)
        per_op: dict = {}
        for name, parent, op, start, end, child in self.spans:
            phase = op.split(":", 1)[0]
            own = end - start - child
            span_s[phase, name] += (end - start) / 1e9
            self_s[phase, name.split(":", 1)[0]] += own / 1e9
            total, low, root = per_op.get(op, (0, own, 0))
            per_op[op] = (total + own, min(low, own), end - start if parent < 0 else root)
        roots = [(op, root / 1e9, total / 1e9, low / 1e9) for op, (total, low, root) in per_op.items()]
        return Summary(dict(span_s), dict(self_s), Counter(self.counts), roots, len(self.spans))

    def absent(self) -> set[str]:
        """Metrics that depend on a wrapped name that no longer exists."""
        gone = [w for w in self.wraps if w.key in self.missing]
        out = set()
        for m in PER_LAYER:
            for w in gone:
                if (m.kind == "spans" and w.span in m.of) or (
                    m.kind == "count" and any(c == m.of[0] for c, _ in w.counts)
                ):
                    out.add(m.name)
        return out

    def write_tsv(self, path):
        with open(path, "w") as fh:
            fh.write("op\tspan\tparent\tname\tstart_ns\tend_ns\tchild_ns\n")
            for sid, (name, parent, op, start, end, child) in enumerate(self.spans):
                fh.write(f"{op}\t{sid}\t{parent}\t{name}\t{start}\t{end}\t{child}\n")


def metric_values(s: Summary, absent: set[str]) -> dict[str, float]:
    """Every per-layer metric of one traced pass, absent ones left out."""
    out = {}
    for m in PER_LAYER:
        if m.name in absent:
            continue
        if m.kind == "spans":
            out[m.name] = sum(s.span_s.get((m.phase, n), 0.0) for n in m.of)
        elif m.kind == "count":
            out[m.name] = s.counts.get((m.phase, m.of[0]), 0)
        else:
            out[m.name] = s.self_s.get((m.phase, m.of[0]), 0.0)
    return out


def self_time_errors(s: Summary, tol_s: float = 1e-9) -> list[str]:
    """Self times must be non-negative and sum to no more than their root span."""
    errors = []
    for op, root, total, low in s.roots:
        if low < 0:
            errors.append(f"{op}: negative self time {low}")
        if total > root + tol_s:
            errors.append(f"{op}: self times sum to {total} > span {root}")
    return errors
