"""The benchmark's workloads: seeded instance pools, operations and checks.

A workload turns a seed into a fixed pool of planted instances and a fixed
sequence of operations over that pool. One operation is one call of a public
lcpmatch matcher, with its default arguments, on one instance. Its check
decides whether the result counts as correct; a matcher that raises fails
the operation the same way.

The pool size is a constant of the workload, never derived from how fast the
matchers run, so set-up time measures the same work on every commit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

import lcpmatch as lm

EPS = 0.3


@dataclass(frozen=True)
class Case:
    """One planted instance of a workload's pool."""

    P: np.ndarray
    Q: np.ndarray
    eps: float
    k: int
    seed: int


@dataclass(frozen=True)
class Matcher:
    """A public matcher call on a case, named for reports and spans."""

    label: str
    fn: Callable  # the public lcpmatch function the call enters through
    call: Callable[[Case], lm.MatchResult]


def _da_all(c):
    return lm.da_match(c.P, c.Q, lm.MatchParams(c.eps))


def _da_pigeonhole(c):
    return lm.da_match(c.P, c.Q, lm.MatchParams(c.eps, pair_source=lm.Pigeonhole(4)))


def _expander_da(c):
    # The report-only regime of acceptance criterion 7: degree 8 at alpha 0.05.
    return lm.expander_da(c.P, c.Q, c.eps, degree=8, alpha=0.05, seed=c.seed)


DA_ALL = Matcher("da_match", lm.da_match, _da_all)
DA_PIGEONHOLE = Matcher("da_match[pigeonhole]", lm.da_match, _da_pigeonhole)
EXPANDER_DA = Matcher("expander_da", lm.expander_da, _expander_da)
EXACT_FAMILY = tuple(
    Matcher(fn.__name__, fn, lambda c, fn=fn: fn(c.P, c.Q))
    for fn in (
        lm.pose_clustering,
        lm.alignment,
        lm.ght,
        lm.geometric_hashing,
        lm.ght_pair_based,
        lm.da_exact,
    )
)


def _certificate_errors(c: Case, r: lm.MatchResult) -> list[str]:
    """The certificate is consistent: re-verification at its radius agrees."""
    errors = []
    if r.max_residual > r.radius:
        errors.append(f"max_residual {r.max_residual} > radius {r.radius}")
    again = lm.verify_motion(c.P, c.Q, r.motion, r.radius)
    if again.matched != r.matched:
        errors.append("verify_motion does not reproduce matched")
    return errors


def _check_da_allpairs(c: Case, r: lm.MatchResult) -> list[str]:
    """Criterion 1: raw and verified size reach k, residuals within 4*eps."""
    errors = _certificate_errors(c, r)
    if r.votes < c.k:
        errors.append(f"votes {r.votes} < k {c.k}")
    if r.size < c.k:
        errors.append(f"size {r.size} < k {c.k}")
    if r.max_residual > 4.0 * c.eps:
        errors.append(f"max_residual {r.max_residual} > 4*eps")
    return errors


def _check_exact(c: Case, r: lm.MatchResult) -> list[str]:
    """The generator's brute-force guard certifies k as the optimum."""
    return [] if r.size == c.k else [f"size {r.size} != certified optimum {c.k}"]


@dataclass(frozen=True)
class Workload:
    """A seeded instance pool and the operations run over it.

    Operation j runs matchers[j % len(matchers)] on pool case
    (j // len(matchers)) % pool_size. The first `cycle` operations form the
    traced pass.
    """

    name: str
    why: str
    spec: Callable[[int, bool], lm.GenSpec]  # (case index, tiny) -> recipe
    matchers: tuple[Matcher, ...]
    check: Callable[[Case, lm.MatchResult], list[str]]
    pool_size: int
    cycle: int

    def make_case(self, seed: int, i: int, tiny: bool = False) -> Case:
        spec = self.spec(i, tiny)
        case_seed = seed * 100_003 + i
        inst = lm.generate_instance(spec, seed=case_seed)
        return Case(inst.P, inst.Q, spec.eps, spec.k, case_seed)

    def make_pool(self, seed: int, size: int, tiny: bool = False) -> list[Case]:
        return [self.make_case(seed, i, tiny) for i in range(size)]

    def cycle_cases(self) -> int:
        """Pool cases the first `cycle` operations use."""
        return -(-self.cycle // len(self.matchers))

    def op(self, j: int, pool_size: int) -> tuple[int, Matcher]:
        per_case = len(self.matchers)
        return (j // per_case) % pool_size, self.matchers[j % per_case]


def _da_allpairs_spec(i: int, tiny: bool) -> lm.GenSpec:
    n = (8, 10, 12)[i % 3] if tiny else (12, 14, 16)[i % 3]
    return lm.GenSpec(m=n, n=n, k=int(0.4 * n), eps=EPS, noise=EPS)


def _da_sampled_spec(i: int, tiny: bool) -> lm.GenSpec:
    if tiny:
        return lm.GenSpec(m=12, n=16, k=8, eps=EPS, noise=EPS)
    return lm.GenSpec(m=16, n=24, k=8, eps=EPS, noise=EPS)


def _exact_family_spec(i: int, tiny: bool) -> lm.GenSpec:
    m, k = ((7, 5), (8, 5))[i % 2] if tiny else ((10, 6), (12, 7))[i % 2]
    return lm.GenSpec(m=m, n=m, k=k, eps=0.0, exact=True)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="da-allpairs",
            why="the headline tolerant guarantee: all-pairs DA voting, many source "
            "pairs with few bases each, so per-pair filtering and per-base arc voting",
            spec=_da_allpairs_spec,
            matchers=(DA_ALL,),
            check=_check_da_allpairs,
            pool_size=300,
            cycle=36,
        ),
        Workload(
            name="da-sampled",
            why="DA over pigeonhole and expander pairs: few source pairs with large "
            "base groups; the only workload that runs the sampling layer",
            spec=_da_sampled_spec,
            matchers=(DA_PIGEONHOLE, EXPANDER_DA),
            check=_certificate_errors,
            pool_size=300,
            cycle=12,
        ),
        Workload(
            name="exact-family",
            why="the six exact voting algorithms on guard-certified instances: the "
            "exact layer, index box queries, motion construction, oracle in set-up",
            spec=_exact_family_spec,
            matchers=EXACT_FAMILY,
            check=_check_exact,
            pool_size=10,
            cycle=24,
        ),
    )
}


class Digest:
    """Hash of every digested operation's outcome, in operation order.

    It covers size, matched pairs and the motion's bytes, so two commits that
    print the same digest returned bit-identical results on those operations.
    """

    def __init__(self):
        self._h = hashlib.sha256()
        self.ops = 0

    def add(self, j: int, label: str, result: lm.MatchResult | None, error: str | None):
        self.ops += 1
        if result is None:
            self._h.update(f"{j}|{label}|error|{error}\n".encode())
            return
        m = result.motion
        self._h.update(f"{j}|{label}|{result.size}|{result.matched!r}|".encode())
        self._h.update(np.ascontiguousarray(m.rotation, dtype=np.float64).tobytes())
        self._h.update(np.ascontiguousarray(m.translation, dtype=np.float64).tobytes())

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]
