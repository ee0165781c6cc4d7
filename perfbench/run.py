#!/usr/bin/env python3
"""lcpmatch benchmark: run one workload timed (--trace 0) or traced (--trace 1).

    python3 perfbench/run.py --workload da-allpairs --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 1

It builds nothing: it imports lcpmatch from the `src` directory next to
this one and exits with status 1, printing no result, when that is missing.

A timed run sets up its instance pool SETUP_REPS times (setup_s is the
median), then calls the workload's operations in order for --seconds,
checking every result outside the timed region. The DA pools hold more
operations than a run reaches, so each call is of a distinct operation;
the exact-family pool is small (its set-up runs the brute-force guard) and
is passed over several times, an operation's time then being the median of
its calls. A traced run alternates untraced and traced
passes over the workload's fixed first `cycle` operations for --seconds and
reports per-layer metrics of the traced passes (medians over passes) and the
tracing overhead. Both print a readable report, then, as the last line of
standard output, one JSON object with the keys correct, attempted, failed
and metrics. `--workload all` runs every workload in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPS = 5

if not (SRC / "lcpmatch" / "__init__.py").is_file():
    sys.exit(f"perfbench: no lcpmatch sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import lcpmatch as lm  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Digest  # noqa: E402

# END_TO_END mirrors BENCHMARK.json; error_rate and residual_ratio are
# printed in the report only (see perfbench/README.md).
END_TO_END = {
    "match_s.p50": "s",
    "match_s.tail": "s",
    "matches_per_s": "1/s",
    "size_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Outcome:
    """Results of a sequence of operations."""

    busy_s: float = 0.0  # every operation, failed ones too
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    size_ratios: list[float] = field(default_factory=list)
    residual_ratios: list[float] = field(default_factory=list)


def _run_op(w, pool, j, out: Outcome, digest: Digest | None, tracer=None) -> float | None:
    """Call operation j once, time it, check it and record the outcome.

    Returns the call's wall time when the operation passed, else None.
    """
    ci, m = w.op(j, len(pool))
    case = pool[ci]
    result = error = None
    t0 = perf_counter()
    try:
        if tracer is None:
            result = m.call(case)
        else:
            layer = m.fn.__module__.rsplit(".", 1)[-1]
            with tracer.operation("op", j, f"{layer}:{m.fn.__name__}"):
                result = m.call(case)
    except lm.LcpMatchError as e:
        error = f"{type(e).__name__}: {e}"
    except Exception as e:  # a bug in the program under test fails the op, not the run
        error = f"{type(e).__name__}: {e}"
        traceback.print_exc(file=sys.stderr)
    dt = perf_counter() - t0
    out.attempted += 1
    out.busy_s += dt
    if result is not None:
        problems = w.check(case, result)
        if problems:
            error = "; ".join(problems)
        else:
            out.size_ratios.append(result.size / case.k)
            if case.eps > 0:
                out.residual_ratios.append(result.max_residual / result.radius)
    if error is not None:
        out.failures.append(f"op {j} {m.label} case {ci}: {error}")
        result = None
    if digest is not None:
        digest.add(j, m.label, result, error)
    return dt if error is None else None


def tail(seconds: list[float]) -> tuple[int, float, int]:
    """Highest integer percentile with at least ten samples beyond it.

    Returns (percentile, value, samples beyond). Below twenty samples no
    percentile above the median qualifies, and the median stands in.
    """
    n = len(seconds)
    if n < 2:
        return 50, seconds[0], 0
    pct = max(50, (100 * (n - 10)) // n)
    value = statistics.quantiles(seconds, n=100, method="inclusive")[pct - 1]
    return pct, value, sum(s > value for s in seconds)


def _warm_up(w, seed):
    """Call each matcher once on a tiny case: first calls pay lazy initialisation."""
    warm = w.make_case(seed, 0, tiny=True)
    for m in w.matchers:
        m.call(warm)


def timed_run(w, seed, seconds, pool_size=None, tiny=False, max_ops=None):
    """Set up SETUP_REPS times, then call operations 0, 1, 2, ... for `seconds`.

    The run checks the clock after each pool case's last matcher, so every
    case it reaches runs every matcher. It starts over at the first case
    when the pool runs out. Returns the set-up times, the outcome, each
    passed operation's wall times, the number of operations called and the
    digest of the first `w.cycle` of them.
    """
    pool_size = pool_size or w.pool_size
    setups = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        pool = w.make_pool(seed, pool_size, tiny)
        _warm_up(w, seed)
        setups.append(perf_counter() - t0)

    n_ops = len(pool) * len(w.matchers)
    times = [[] for _ in range(n_ops)]
    out, digest = Outcome(), Digest()
    start = perf_counter()
    j = 0
    while True:
        dt = _run_op(w, pool, j % n_ops, out, digest if j < w.cycle else None)
        if dt is not None:
            times[j % n_ops].append(dt)
        j += 1
        if j % len(w.matchers):
            continue
        if max_ops is not None:
            if j >= max_ops:
                break
        elif perf_counter() - start >= seconds:
            break
    return setups, out, [t for t in times if t], j, digest


def traced_run(w, seed, seconds, tiny=False, max_pairs=None, spans_path=None):
    """Alternate untraced and traced passes over the first `cycle` operations."""
    ncases = w.cycle_cases()
    pool = w.make_pool(seed, ncases, tiny)
    _warm_up(w, seed)
    pairs, failures, attempted = [], [], 0
    errors, missing, last = [], set(), None
    start = perf_counter()
    while True:
        t_pair = perf_counter()
        plain, plain_digest = Outcome(), Digest()
        tracer = tracing.Tracer()
        traced, traced_digest = Outcome(), Digest()
        # Alternate which pass runs first, so neither always runs colder.
        for traced_pass in (False, True) if len(pairs) % 2 == 0 else (True, False):
            if not traced_pass:
                for j in range(w.cycle):
                    _run_op(w, pool, j, plain, plain_digest)
                continue
            with tracer.installed():
                for i in range(ncases):
                    with tracer.operation("gen", i, "oracle:generate_instance"):
                        w.make_case(seed, i, tiny)
                for j in range(w.cycle):
                    _run_op(w, pool, j, traced, traced_digest, tracer)
        summary = tracer.summary()
        missing |= tracer.missing
        values = tracing.metric_values(summary, tracer.absent())
        values["trace.overhead"] = traced.busy_s / plain.busy_s
        pairs.append(values)
        failures += plain.failures + traced.failures
        attempted += plain.attempted + traced.attempted
        errors += tracing.self_time_errors(summary)
        if plain_digest.hexdigest() != traced_digest.hexdigest():
            errors.append("traced results differ from untraced results")
        last = tracer
        pair_s = perf_counter() - t_pair
        if max_pairs is not None:
            if len(pairs) >= max_pairs:
                break
        elif perf_counter() - start + pair_s > seconds:
            break
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        last.write_tsv(spans_path)
    return pairs, attempted, failures, errors, missing, plain_digest, summary


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _meta(args) -> str:
    return (
        f"  git={_git_sha()} nproc={os.cpu_count()} "
        f"affinity={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"numpy={np.__version__} seed={args.seed} seconds={args.seconds}"
    )


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main_timed(w, args) -> dict:
    setups, out, times, called, digest = timed_run(w, args.seed, args.seconds)
    n = len(times)
    failed = len(out.failures)
    for f in out.failures[:10]:
        print(f"  FAILED {f}")
    if n == 0:
        return {"correct": False, "attempted": out.attempted, "failed": failed, "metrics": {}}
    per_op = [statistics.median(t) for t in times]
    calls = sum(len(t) for t in times)
    pct, tail_s, beyond = tail(per_op)
    metrics = {
        "match_s.p50": statistics.median(per_op),
        "match_s.tail": tail_s,
        "matches_per_s": calls / out.busy_s,
        "size_ratio": statistics.fmean(out.size_ratios),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "match_s.p50": f"median over {n} operations of each one's median time, "
                       f"{calls} calls in {called / (w.pool_size * len(w.matchers)):.2f} pool passes",
        "match_s.tail": f"p{pct} of the same {n} times, {beyond} beyond it",
        "matches_per_s": f"{calls} passed calls over {out.busy_s:.3f} s spent in all {out.attempted} calls",
        "size_ratio": f"mean verified size / planted k over {calls} calls",
        "setup_s": f"median of {len(setups)} set-ups of {w.pool_size} instances",
        "peak_rss_mb": "whole process",
    }
    for name, value in metrics.items():
        print(f"  {name:<16} {value:>12.6g} {END_TO_END[name]:<6} {notes[name]}")
    print(f"  {'error_rate':<16} {failed / out.attempted:>12.6g} {'ratio':<6} "
          f"{failed} failed of {out.attempted} attempted")
    if out.residual_ratios:
        print(f"  {'residual_ratio':<16} {statistics.fmean(out.residual_ratios):>12.6g} "
              f"{'ratio':<6} mean max_residual / radius over {calls} calls")
    print(f"  digest {digest.hexdigest()} over the first {digest.ops} operations")
    return {
        "correct": failed == 0,
        "attempted": out.attempted,
        "failed": failed,
        "metrics": {k: _metric(v, END_TO_END[k]) for k, v in metrics.items()},
    }


def main_traced(w, args) -> dict:
    spans_path = SPANS_DIR / f"{w.name}.spans.tsv"
    pairs, attempted, failures, errors, missing, digest, last = traced_run(
        w, args.seed, args.seconds, spans_path=spans_path
    )
    units = {m.name: m.unit for m in tracing.PER_LAYER}
    units["trace.overhead"] = "ratio"
    metrics = {}
    for name, unit in units.items():
        values = [p[name] for p in pairs if name in p]
        if not values:
            print(f"  {name:<30} absent (a wrapped name no longer exists)")
            continue
        if unit == "count" and len(set(values)) > 1:
            print(f"  WARNING {name} differs between identical passes: {values}")
        metrics[name] = (statistics.median_low if unit == "count" else statistics.median)(values)
        print(f"  {name:<30} {metrics[name]:>14.6g} {unit}")
    for f in failures[:10]:
        print(f"  FAILED {f}")
    for e in errors[:10]:
        print(f"  TRACE ERROR {e}")
    for key in sorted(missing):
        print(f"  missing wrapped name {key}")
    print(f"  per-layer values are totals over {w.cycle} operations on {w.cycle_cases()} "
          f"instances, medians of {len(pairs)} traced passes; {last.spans} spans in the "
          f"last pass, written to {spans_path.relative_to(ROOT)}")
    print("  trace.overhead is traced / untraced busy time over the same operations")
    print(f"  digest {digest.hexdigest()} over the first {digest.ops} operations")
    return {
        "correct": not failures and not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: _metric(v, units[k]) for k, v in metrics.items()},
    }


def main_all(args) -> dict:
    """Each workload in its own process, so peak RSS is per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        try:
            res = json.loads(lines[-1])
        except json.JSONDecodeError:
            res = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        total["correct"] &= res["correct"] and proc.returncode == 0
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{name}/{k}"] = v
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        result = main_all(args)
    else:
        w = WORKLOADS[args.workload]
        print(f"perfbench {w.name} ({'traced' if args.trace else 'timed'}): {w.why}")
        print(_meta(args))
        result = (main_traced if args.trace else main_timed)(w, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
