#!/usr/bin/env python3
"""Fast self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

For each workload it runs one cycle of operations timed and one traced pass,
and checks that no operation fails, that self times are non-negative and sum
to no more than their root span (traced_run reports both), that tracing
leaves results unchanged, that every wrapped name is restored after
tracing, and that the result digest repeats across two invocations in
separate processes. It also checks that a wrapped name that does not exist
makes its metrics absent instead of stopping the run. Exits 0 when all hold.
"""

from __future__ import annotations

import subprocess
import sys

import run
import tracing
from workloads import WORKLOADS

SEED = 3


def _tiny_timed(w):
    return run.timed_run(w, SEED, 0, pool_size=w.cycle_cases(), tiny=True, max_ops=w.cycle)


def _wrapped_names():
    out = []
    for wrap in tracing.WRAPS:
        owner = tracing.resolve(wrap.owner)
        out.append(None if owner is None else vars(owner).get(wrap.attr))
    return out


def check_workload(w) -> list[str]:
    problems = []
    _, timed, _, _, timed_digest = _tiny_timed(w)
    problems += timed.failures
    before = _wrapped_names()
    pairs, _, failures, errors, missing, traced_digest, summary = run.traced_run(
        w, SEED, 0, tiny=True, max_pairs=1
    )
    problems += failures + errors + [f"missing wrapped name {m}" for m in missing]
    if any(a is not b for a, b in zip(before, _wrapped_names())):
        problems.append("a wrapped name was not restored")
    if not summary.roots:
        problems.append("the traced pass recorded no spans")
    if traced_digest.hexdigest() != timed_digest.hexdigest():
        problems.append("traced and timed digests differ")
    children = [
        subprocess.run(
            [sys.executable, __file__, "--digest", w.name], capture_output=True, text=True
        ).stdout.strip()
        for _ in range(2)
    ]
    if children[0] != children[1] or children[0] != timed_digest.hexdigest():
        problems.append(f"digest does not repeat: {children} vs {timed_digest.hexdigest()}")
    print(f"{w.name}: {timed.attempted} timed and {len(pairs)} traced pass(es), "
          f"{summary.spans} spans, digest {timed_digest.hexdigest()}: "
          f"{'ok' if not problems else 'FAILED'}")
    return problems


def check_missing_name() -> list[str]:
    ghost = tracing.Wrap("lcpmatch.da", "no_such_function", "geometry:pair_canonical_motion")
    tracer = tracing.Tracer(tracing.WRAPS + (ghost,))
    with tracer.installed():
        pass
    if tracer.missing != {ghost.key} or "geometry.canonical_motion_s" not in tracer.absent():
        return ["a missing wrapped name does not make its metric absent"]
    return []


def main() -> int:
    if sys.argv[1:2] == ["--digest"]:
        print(_tiny_timed(WORKLOADS[sys.argv[2]])[-1].hexdigest())
        return 0
    problems = check_missing_name()
    for w in WORKLOADS.values():
        problems += check_workload(w)
    for p in problems:
        print(f"  {p}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
