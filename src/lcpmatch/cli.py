"""Command-line surface: instance generation, matching, verification, benches.

Reports are JSON, benches are CSV. Every command is deterministic given
--seed (environment fallback LCP_MATCH_SEED); reports embed a digest of the
instance content so verification can refuse a mismatched pairing.

Exit codes: 0 success, 2 flag/validation error, 3 algorithm error,
4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time

import numpy as np

from . import da as da_mod
from . import exact as exact_mod
from . import oracle as oracle_mod
from .errors import LcpMatchError
from .geometry import RigidMotion, tolerant_precondition
from .result import MatchResult
from .sampling import AllPairs, Expander, Pigeonhole

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ALGORITHM = 3
EXIT_VERIFY = 4

ALGORITHMS = ("da", "da-exact", "expander-da", "pose", "align", "ght", "ghash", "ght-pair")
SAMPLINGS = ("all", "pigeonhole", "expander")


def _default_seed(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("LCP_MATCH_SEED")
    return int(env) if env else 0


def _load_xyz(path: str) -> np.ndarray:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{path}: expected 3 coordinates per line, got {line!r}")
            rows.append([float(x) for x in parts])
    return np.array(rows, dtype=np.float64)


def _load_instance(args) -> oracle_mod.Instance:
    if getattr(args, "instance", None):
        with open(args.instance) as fh:
            return oracle_mod.Instance.from_json(fh.read())
    if getattr(args, "p_file", None) and getattr(args, "q_file", None):
        return oracle_mod.Instance(
            P=_load_xyz(args.p_file),
            Q=_load_xyz(args.q_file),
            eps=float(args.eps if args.eps is not None else 0.0),
        )
    raise ValueError("provide an instance file, or both --p-file and --q-file")


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    spec = oracle_mod.GenSpec(
        m=args.m,
        n=args.n,
        k=args.k,
        eps=args.eps,
        noise=args.noise,
        box=args.box,
        min_sep=args.min_sep,
        exact=args.exact,
    )
    inst = oracle_mod.generate_instance(spec, _default_seed(args.seed))
    _emit(inst.to_json(), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# match
# ---------------------------------------------------------------------------


def _pair_source(args, seed: int):
    if args.sampling == "all":
        return AllPairs()
    if args.sampling == "pigeonhole":
        return Pigeonhole(args.alpha)
    if args.degree is None:
        raise ValueError("--sampling expander requires --degree")
    return Expander(args.degree, seed)


# Matchers that score every congruent triplet and take no pair source.
_TRIPLET_MATCHERS = {
    "pose": exact_mod.pose_clustering,
    "align": exact_mod.alignment,
    "ght": exact_mod.ght,
    "ghash": exact_mod.geometric_hashing,
}


def _dispatch(args, inst: oracle_mod.Instance, seed: int) -> MatchResult:
    eps = float(args.eps) if args.eps is not None else inst.eps
    if args.algo == "da":
        params = da_mod.MatchParams(eps=eps, pair_source=_pair_source(args, seed))
        return da_mod.da_match(inst.P, inst.Q, params)
    if args.algo == "da-exact":
        return da_mod.da_exact(
            inst.P, inst.Q, exact_mod.ExactParams(tau=args.tau), pairs=_pair_source(args, seed)
        )
    if args.algo == "expander-da":
        if args.degree is None:
            raise ValueError("expander-da requires --degree")
        return da_mod.expander_da(
            inst.P, inst.Q, eps, degree=args.degree, alpha=args.alpha, seed=seed
        )
    params = exact_mod.ExactParams(tau=args.tau)
    triplet_matcher = _TRIPLET_MATCHERS.get(args.algo)
    if triplet_matcher is not None:
        if args.sampling != "all":
            raise ValueError(f"--sampling {args.sampling} is not supported by --algo {args.algo}")
        return triplet_matcher(inst.P, inst.Q, params)
    if args.algo == "ght-pair":
        return exact_mod.ght_pair_based(inst.P, inst.Q, params, pairs=_pair_source(args, seed))
    raise ValueError(f"unknown algorithm {args.algo!r}")


def _reverify(inst: oracle_mod.Instance, result: MatchResult) -> bool:
    check = oracle_mod.verify_motion(inst.P, inst.Q, result.motion, result.radius)
    return set(result.matched) == set(check.matched) and check.max_residual <= result.radius


def build_run_report(args, inst: oracle_mod.Instance, result: MatchResult, seed: int, wall_ms: float) -> dict:
    eps = float(args.eps) if args.eps is not None else inst.eps
    return {
        "algorithm": args.algo,
        "params": {
            "eps": eps,
            "tau": args.tau,
            "sampling": args.sampling,
            "alpha": args.alpha,
            "degree": args.degree,
            "tolerant": tolerant_precondition(inst.P, inst.Q, eps),
        },
        "result": {**result.to_dict(), "verified": _reverify(inst, result)},
        "wall_time_ms": wall_ms,
        "instance_digest": inst.digest(),
        "seed": seed,
    }


def cmd_match(args) -> int:
    inst = _load_instance(args)
    seed = _default_seed(args.seed)
    start = time.perf_counter()
    result = _dispatch(args, inst, seed)
    wall_ms = (time.perf_counter() - start) * 1000.0
    report = build_run_report(args, inst, result, seed, wall_ms)
    _emit(json.dumps(report, indent=2), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    inst = _load_instance(args)
    with open(args.report) as fh:
        report = json.load(fh)
    res = report["result"]
    motion = RigidMotion(
        np.array(res["motion"]["rotation"], dtype=np.float64).reshape(3, 3),
        np.array(res["motion"]["translation"], dtype=np.float64),
    )
    radius = float(args.radius) if args.radius is not None else float(res["radius"])
    digest = inst.digest()
    problems = []
    if report.get("instance_digest") not in (None, digest):
        problems.append(
            f"instance digest mismatch: report {report['instance_digest'][:12]}..., file {digest[:12]}..."
        )
    check = oracle_mod.verify_motion(inst.P, inst.Q, motion, radius)
    verified = set(check.matched)
    claimed = [tuple(p) for p in res["matched"]]
    sizes = len(inst.Q), len(inst.P)
    inside = {c for c in claimed if all(type(x) is int and 0 <= x < k for x, k in zip(c, sizes))}
    for q, p in claimed:
        if (q, p) not in inside:
            problems.append(f"claimed pair ({q}, {p}) names no point of Q or P")
        elif (q, p) not in verified:
            problems.append(f"claimed pair ({q}, {p}) not within radius {radius}")
    if check.max_residual > radius:
        problems.append(f"verified residual {check.max_residual} exceeds radius {radius}")
    claimed_res = float(res["max_residual"])
    actual = _claimed_max_residual(inst, motion, inside)
    # Relative to the radius, so the check means the same in any unit.
    if actual > claimed_res + 1e-9 * radius:
        problems.append(
            f"claimed max residual {claimed_res} but matched pairs reach {actual}"
        )
    outcome = {
        "radius": radius,
        "claimed_size": len(claimed),
        "verified_size": check.size,
        "verified_dedup_size": check.dedup_size,
        "max_residual": check.max_residual,
        "problems": problems,
        "ok": not problems,
    }
    _emit(json.dumps(outcome, indent=2), args.out)
    return EXIT_OK if not problems else EXIT_VERIFY


def _claimed_max_residual(inst, motion, claimed) -> float:
    if not claimed:
        return 0.0
    img = motion.apply(inst.Q)
    return max(float(np.linalg.norm(img[q] - inst.P[p])) for q, p in claimed)


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def cmd_bench(args) -> int:
    if args.suite.strip().startswith("{"):
        suite = json.loads(args.suite)
    else:
        with open(args.suite) as fh:
            suite = json.load(fh)
    algos = suite.get("algos", ["da"])
    cases = suite["cases"]
    seeds = suite.get("seeds", [0])
    if isinstance(seeds, int):
        seeds = list(range(seeds))
    sampling = suite.get("sampling", "all")
    samplings = sampling if isinstance(sampling, list) else [sampling]
    alpha = float(suite.get("alpha", 4.0))
    degree = suite.get("degree")

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["algo", "m", "n", "k", "eps", "sampling", "time_ms", "size", "residual", "seed"])
    for case in cases:
        for seed in seeds:
            spec = oracle_mod.GenSpec(
                m=int(case["m"]),
                n=int(case["n"]),
                k=int(case["k"]),
                eps=float(case.get("eps", 0.0)),
                exact=bool(case.get("exact", case.get("eps", 0.0) == 0.0)),
                lcp_guard=False,
            )
            inst = oracle_mod.generate_instance(spec, seed)
            for algo in algos:
                for samp in samplings:
                    ns = argparse.Namespace(
                        algo=algo,
                        sampling=samp,
                        alpha=alpha,
                        degree=degree,
                        eps=None,
                        tau=exact_mod.ExactParams.tau,
                    )
                    start = time.perf_counter()
                    try:
                        result = _dispatch(ns, inst, seed)
                        elapsed = (time.perf_counter() - start) * 1000.0
                        writer.writerow(
                            [
                                algo,
                                spec.m,
                                spec.n,
                                spec.k,
                                spec.eps,
                                samp,
                                f"{elapsed:.3f}",
                                result.size,
                                f"{result.max_residual:.6g}",
                                seed,
                            ]
                        )
                    except LcpMatchError as exc:
                        elapsed = (time.perf_counter() - start) * 1000.0
                        writer.writerow(
                            [algo, spec.m, spec.n, spec.k, spec.eps, samp, f"{elapsed:.3f}", f"error:{exc.code}", "", seed]
                        )
    _emit(buf.getvalue(), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcpmatch",
        description="Largest-common-point-set matching of 3D point sets under rigid motions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a planted instance")
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--eps", type=float, required=True)
    g.add_argument("--noise", type=float, default=None)
    g.add_argument("--box", type=float, default=None)
    g.add_argument("--min-sep", type=float, default=None)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--exact", action="store_true")
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_gen)

    m = sub.add_parser("match", help="run a matching algorithm on an instance")
    m.add_argument("instance", nargs="?", help="instance JSON file")
    m.add_argument("--p-file", default=None, help="whitespace XYZ file for P")
    m.add_argument("--q-file", default=None, help="whitespace XYZ file for Q")
    m.add_argument("--algo", choices=ALGORITHMS, required=True)
    m.add_argument("--sampling", choices=SAMPLINGS, default="all")
    m.add_argument("--alpha", type=float, default=4.0)
    m.add_argument("--degree", type=int, default=None)
    m.add_argument("--eps", type=float, default=None, help="override instance eps")
    m.add_argument("--tau", type=float, default=exact_mod.ExactParams.tau)
    m.add_argument("--seed", type=int, default=None)
    m.add_argument("--out", default=None)
    m.set_defaults(func=cmd_match)

    v = sub.add_parser("verify", help="re-verify a match report against an instance")
    v.add_argument("instance", nargs="?", help="instance JSON file")
    v.add_argument("--p-file", default=None)
    v.add_argument("--q-file", default=None)
    v.add_argument("--eps", type=float, default=None)
    v.add_argument("--report", required=True, help="RunReport JSON from `match`")
    v.add_argument("--radius", type=float, default=None)
    v.add_argument("--out", default=None)
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bench", help="run a benchmark suite, emitting CSV")
    b.add_argument("--suite", required=True, help="suite JSON (path or inline)")
    b.add_argument("--out", default=None)
    b.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except LcpMatchError as exc:
        json.dump({"error": exc.code, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return EXIT_ALGORITHM
    except (ValueError, OSError, KeyError) as exc:
        json.dump({"error": "usage", "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
