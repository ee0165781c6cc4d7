"""Tolerant matching by dihedral-angle interval voting.

For each source pair (q1, q2) that survives the pair-length filter, every
remaining q proposes candidate bases (p1, p2) through one batched join of
triangle keys against the model's triplet index. Per base, a canonical
motion phi takes q1 to p1 and q2 onto the ray p1 -> p2; the residual
freedom is a rotation about that axis, and each matched pair (q, p) admits
a closed arc of rotation angles keeping phi(q) within the report radius of
p. The angle stabbing the most arcs, counting each q once, fixes the
motion; the base pair itself contributes the "+2". Tied winners are re-verified, polished by an iterated least-squares
refit on their injective matches (kept only when it verifies at least as
well), and the best certificate is returned.

Guarantee shape: with all pairs and the tolerant precondition (minimum
interpoint distance above 2*eps), the diameter pair of the optimal matched
set passes the filter and votes the full set at radius 4*eps, so the winner
is at least as large as the optimum. The exact-mode variant (zero noise)
replaces arcs by single angles and votes by sorting them. The expander
variant draws source pairs from a verified expander graph and widens the
radius to 6*eps by default, trading a bounded size slack for fewer pairs.
"""

from __future__ import annotations

from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBasis, DegreeTooSmall, NoCandidatePairs, TooFewPoints
from .exact import ExactParams
from .geometry import (
    TWO_PI,
    AngleInterval,
    RigidMotion,
    as_points,
    least_squares_motion,
    max_overlap_angle,
    motion_from_bases,
    pair_canonical_motion,
    rotation_about_line,
    rotation_distance_coeffs,
    union_intervals,
)
from .index import build_pair_dict, build_triplet_index
from .result import MatchResult, build_match_result
from .sampling import AllPairs, Expander, PairSource, materialize_pairs


@dataclass(frozen=True)
class MatchParams:
    """Tolerance, pair source, and certificate radius factor for da_match.

    The report factor scales eps into the certificate radius (4 for the
    plain matcher, 6 for the expander variant).
    """

    eps: float
    pair_source: PairSource = AllPairs()
    report_factor: float = 4.0

    def __post_init__(self):
        if self.eps < 0:
            raise ValueError("eps must be >= 0")
        if self.report_factor <= 0:
            raise ValueError("report_factor must be positive")


def _longest_first(pairs, qq):
    """Process long source pairs first: a diameter pair of the optimum is the
    pair the guarantee rides on, and finding it early raises the skip floor."""
    return sorted(
        pairs,
        key=lambda ab: (-float(np.linalg.norm(qq[ab[0]] - qq[ab[1]])), ab),
    )


def _numeric_fuzz(pp, qq) -> float:
    """Absolute slack standing in for zero when eps == 0, scaled to the data."""
    span = max(
        float(pp.max() - pp.min()) if len(pp) else 0.0,
        float(qq.max() - qq.min()) if len(qq) else 0.0,
        1.0,
    )
    return 1e-9 * span


@dataclass(frozen=True)
class _Candidate:
    overlap: int  # matched points beyond the base pair
    q_pair: tuple[int, int]
    p_pair: tuple[int, int]
    angle: float
    motion: RigidMotion  # phi for tolerant mode, the full winner for exact mode
    composed: bool = False  # True when `motion` is already the full motion


def _arc_table(c0, c1, c2, radius: float):
    """Vectorized interval solve: masks and arc endpoints per matched pair."""
    amp = np.hypot(c1, c2)
    rr = radius * radius
    scale = np.maximum(np.maximum(c0, rr), 1e-300)
    const = amp <= 1e-14 * scale
    safe_amp = np.where(const, 1.0, amp)
    t = (rr - c0) / safe_amp
    full = (const & (c0 <= rr)) | (~const & (t >= 1.0))
    empty = (const & (c0 > rr)) | (~const & (t < -1.0))
    arc = ~(full | empty)
    phi0 = np.arctan2(c2, c1)
    delta = np.arccos(np.clip(t, -1.0, 1.0))
    starts = (phi0 + delta) % TWO_PI
    ends = (phi0 + TWO_PI - delta) % TWO_PI
    return full, arc, starts, ends


def _base_candidates(pp, qq, a, b, base, qs, ps, radius):
    """Best stabbing angle for one candidate base, counting each q once."""
    i, j = base
    phi = pair_canonical_motion(pp[i], pp[j], qq[a], qq[b])
    img = phi.apply(qq[qs])
    c0, c1, c2 = rotation_distance_coeffs(pp[i], pp[j], img, pp[ps])
    full, arc, starts, ends = _arc_table(
        np.atleast_1d(c0), np.atleast_1d(c1), np.atleast_1d(c2), radius
    )
    per_q: dict[int, list[AngleInterval]] = {}
    for r in range(len(qs)):
        if full[r]:
            per_q.setdefault(int(qs[r]), []).append(AngleInterval.full())
        elif arc[r]:
            per_q.setdefault(int(qs[r]), []).append(
                AngleInterval.arc(float(starts[r]), float(ends[r]))
            )
    merged: list[AngleInterval] = []
    for q in per_q:
        merged.extend(union_intervals(per_q[q]))
    psi, overlap = max_overlap_angle(merged)
    return _Candidate(overlap, (a, b), (i, j), psi, phi)


def _base_groups(pp, qq, a, b, pair_dict, trip_index, slack):
    """Candidate bases for one source pair via a single triplet-index join.

    Returns None when the pair fails the length filter, else the groups
    [(distinct-q bound, (i, j), q-array, p-array)] sorted by descending
    bound then base. Every remaining q queries the key (|q1 q2|, |q1 q|,
    |q2 q|), so all queries share one slab of the first key coordinate.
    """
    length = float(np.linalg.norm(qq[a] - qq[b]))
    if not pair_dict.any_in_range(length, slack):
        return None
    if trip_index is None:
        return []
    qs = np.delete(np.arange(len(qq)), [a, b])
    d_a = np.linalg.norm(qq - qq[a], axis=1)
    d_b = np.linalg.norm(qq - qq[b], axis=1)
    keys = np.column_stack([np.full(len(qs), length), d_a[qs], d_b[qs]])
    qi, rows = trip_index.index.join(keys, slack)
    if len(rows) == 0:
        return []
    qs_cat = qs[qi]
    trips_cat = trip_index.triplets[rows]
    order = np.lexsort((trips_cat[:, 2], qs_cat, trips_cat[:, 1], trips_cat[:, 0]))
    qs_cat = qs_cat[order]
    trips_cat = trips_cat[order]
    base_ids = trips_cat[:, 0] * len(pp) + trips_cat[:, 1]
    cuts = np.flatnonzero(np.diff(base_ids)) + 1
    groups = []
    for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, len(base_ids)]):
        qs_g = qs_cat[lo:hi]
        base = (int(trips_cat[lo, 0]), int(trips_cat[lo, 1]))
        # qs_g is sorted, so distinct count is one plus the step count.
        bound = 1 + int((qs_g[1:] != qs_g[:-1]).sum())
        groups.append((bound, base, qs_g, trips_cat[lo:hi, 2]))
    groups.sort(key=lambda g: (-g[0], g[1]))
    return groups


def _pair_worker(args):
    pp, qq, a, b, pair_dict, trip_index, slack, radius, floor = args
    groups = _base_groups(pp, qq, a, b, pair_dict, trip_index, slack)
    if groups is None:
        return False, []
    if not groups:
        # No voting base exists; fall back to the base pair alone (a 2-match).
        length = float(np.linalg.norm(qq[a] - qq[b]))
        in_range = pair_dict.query_range(length, slack)
        if not in_range:
            return True, []
        i, j = min(in_range)
        best = [
            _Candidate(0, (a, b), (i, j), 0.0, pair_canonical_motion(pp[i], pp[j], qq[a], qq[b])),
            _Candidate(0, (a, b), (j, i), 0.0, pair_canonical_motion(pp[j], pp[i], qq[a], qq[b])),
        ]
        return True, best
    best: list[_Candidate] = []
    # A base's overlap is bounded by its distinct-q vote count, so bases below
    # the best overlap seen anywhere so far can neither win nor tie.
    for bound, base, qs, ps in groups:
        if bound < max(floor[0], best[0].overlap if best else 0):
            break
        cand = _base_candidates(pp, qq, a, b, base, qs, ps, radius)
        if not best or cand.overlap > best[0].overlap:
            best = [cand]
        elif cand.overlap == best[0].overlap:
            best.append(cand)
    if best and best[0].overlap > floor[0]:
        floor[0] = best[0].overlap
    return True, best


def _select_winner(pp, qq, candidates, radius, refine: bool = False) -> MatchResult:
    max_overlap = max(c.overlap for c in candidates)
    tied = [c for c in candidates if c.overlap == max_overlap]
    scored = []
    for c in tied:
        mu = (
            c.motion
            if c.composed
            else rotation_about_line(pp[c.p_pair[0]], pp[c.p_pair[1]], c.angle).compose(
                c.motion
            )
        )
        result = build_match_result(
            pp,
            qq,
            mu,
            radius,
            votes=max_overlap + 2,
            base_pair=(c.q_pair, c.p_pair),
            angle=c.angle,
        )
        if refine:
            result = _refine_result(pp, qq, result, radius)
        key = ((-result.size, result.max_residual), c.q_pair, c.p_pair, c.angle)
        scored.append((key, result))
    scored.sort(key=lambda s: s[0])
    return scored[0][1]


def _refine_result(pp, qq, result: MatchResult, radius: float) -> MatchResult:
    """Polish the winner by refitting on its injective matches.

    The voted angle sits at an arc boundary, so on clean data the raw motion
    certifies residuals near the radius even when an exact alignment exists.
    Iterated refit-and-reverify (each round is kept only when it verifies
    strictly better) walks to the aligned pose; the voted winner's guarantees
    carry over since a worse round is discarded.
    """
    for _ in range(8):
        if result.dedup_size < 3:
            return result
        qs = [q for q, _ in result.dedup_matched]
        ps = [p for _, p in result.dedup_matched]
        try:
            fit = least_squares_motion(qq[qs], pp[ps])
        except DegenerateBasis:
            return result
        polished = build_match_result(
            pp,
            qq,
            fit,
            radius,
            votes=result.votes,
            base_pair=result.base_pair,
            angle=result.angle,
        )
        better = (-polished.size, polished.max_residual) < (
            -result.size,
            result.max_residual - 1e-15,
        )
        if not better:
            return result
        result = polished
    return result


def da_match(P, Q, params: MatchParams, threads: int = 1) -> MatchResult:
    """Dihedral-angle voting matcher with a pluggable pair source.

    With AllPairs and the tolerant precondition the returned raw size
    (votes) is at least the optimal matched-set size and every certified
    residual is at most report_factor * eps.
    """
    pp, qq = as_points(P), as_points(Q)
    if len(pp) < 2 or len(qq) < 2:
        raise TooFewPoints("da_match needs at least 2 points per set")
    fuzz = _numeric_fuzz(pp, qq)
    slack = max(2.0 * params.eps, fuzz)
    radius = max(params.report_factor * params.eps, fuzz)
    pair_dict = build_pair_dict(pp)
    trip_index = build_triplet_index(pp) if len(pp) >= 3 else None
    pairs = _longest_first(materialize_pairs(params.pair_source, len(qq)), qq)

    # Shared lower bound on the winning overlap; stale reads only cost work.
    floor = [0]
    tasks = [
        (pp, qq, a, b, pair_dict, trip_index, slack, radius, floor) for a, b in pairs
    ]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            outcomes = list(ex.map(_pair_worker, tasks))
    else:
        outcomes = [_pair_worker(t) for t in tasks]

    any_passed = any(passed for passed, _ in outcomes)
    candidates = [c for _, cands in outcomes for c in cands]
    if not any_passed:
        raise NoCandidatePairs("no source pair length matches any model pair")
    if not candidates:
        raise NoCandidatePairs("source pairs passed the filter but found no bases")
    return _select_winner(pp, qq, candidates, radius, refine=True)


def da_exact(
    P,
    Q,
    params: ExactParams = ExactParams(),
    pairs: PairSource | list[tuple[int, int]] = AllPairs(),
    angle_tol: float = 1e-7,
) -> MatchResult:
    """Exact-mode dihedral voting: each matched pair casts a single angle.

    The modal angle over the sorted angle list plays the role of the interval
    sweep; with pigeonhole pairs at ratio alpha and a true matched set larger
    than n/alpha, the winner matches the all-pairs run.
    """
    pp, qq = as_points(P), as_points(Q)
    if len(pp) < 3 or len(qq) < 3:
        raise TooFewPoints("da_exact needs at least 3 points per set")
    fuzz = _numeric_fuzz(pp, qq)
    slack = max(params.tau, fuzz)
    radius = slack
    pair_dict = build_pair_dict(pp)
    trip_index = build_triplet_index(pp)
    n = len(qq)
    pair_list = pairs if isinstance(pairs, list) else materialize_pairs(pairs, n)
    pair_list = _longest_first(pair_list, qq)

    any_passed = False
    floor = 0
    candidates: list[_Candidate] = []
    for a, b in pair_list:
        groups = _base_groups(pp, qq, a, b, pair_dict, trip_index, slack)
        if groups is None:
            continue
        any_passed = True
        for bound, base, qs, ps in groups:
            if bound < floor:
                break
            cand = _exact_base_candidate(pp, qq, a, b, base, qs, ps, radius, angle_tol)
            if cand is not None:
                candidates.append(cand)
                floor = max(floor, cand.overlap)
    if not any_passed:
        raise NoCandidatePairs("no source pair length matches any model pair")
    if not candidates:
        raise NoCandidatePairs("source pairs passed the filter but found no bases")
    return _select_winner(pp, qq, candidates, radius)


def _exact_base_candidate(pp, qq, a, b, base, qs, ps, radius, angle_tol):
    i, j = base
    phi = pair_canonical_motion(pp[i], pp[j], qq[a], qq[b])
    img = phi.apply(qq[qs])
    c0, c1, c2 = rotation_distance_coeffs(pp[i], pp[j], img, pp[ps])
    c0 = np.atleast_1d(c0)
    amp = np.hypot(np.atleast_1d(c1), np.atleast_1d(c2))
    const = amp <= 1e-14 * np.maximum(c0, 1e-300)
    rr = radius * radius
    always_q = {int(q) for q in qs[const & (c0 <= rr)]}
    ok = ~const & (c0 - amp <= rr)
    thetas = (np.arctan2(np.atleast_1d(c2)[ok], np.atleast_1d(c1)[ok]) + np.pi) % TWO_PI
    entries = sorted(
        (float(t), int(q), int(p)) for t, q, p in zip(thetas, qs[ok], ps[ok])
    )
    n_always = len(always_q)
    if not entries:
        return _Candidate(n_always, (a, b), (i, j), 0.0, phi)

    angles = [e[0] for e in entries]
    ext = angles + [t + TWO_PI for t in angles]
    best_count, best_lo, best_hi = 0, 0, 0
    for lo in range(len(angles)):
        hi = bisect_right(ext, angles[lo] + angle_tol, lo, lo + len(angles))
        distinct = len({entries[k % len(entries)][1] for k in range(lo, hi)})
        if distinct > best_count:
            best_count, best_lo, best_hi = distinct, lo, hi
    window = [entries[k % len(entries)] for k in range(best_lo, best_hi)]
    psi = window[0][0]
    overlap = best_count + n_always

    # Recompute the winner motion from a matched basis for full precision.
    motion = None
    for _t, q, p in window:
        try:
            motion = motion_from_bases(qq[[a, b, q]], pp[[i, j, p]])
            break
        except DegenerateBasis:
            continue
    if motion is None:
        motion = rotation_about_line(pp[i], pp[j], psi).compose(phi)
    return _Candidate(overlap, (a, b), (i, j), psi, motion, composed=True)


def expander_da(
    P,
    Q,
    eps: float,
    degree: int,
    alpha: float,
    seed: int,
    report_factor: float = 6.0,
    threads: int = 1,
) -> MatchResult:
    """Dihedral matcher over expander-sampled pairs with a widened radius.

    Requires degree > 2500 * alpha^2. When the optimum exceeds n/alpha the
    winner size falls short of it by at most (50 / sqrt(degree)) * n, with
    residuals at most report_factor * eps.
    """
    if degree <= 2500.0 * alpha * alpha:
        raise DegreeTooSmall(
            f"degree {degree} must exceed 2500 * alpha^2 = {2500.0 * alpha * alpha:.1f}"
        )
    params = MatchParams(
        eps=eps, pair_source=Expander(degree, seed), report_factor=report_factor
    )
    return da_match(P, Q, params, threads=threads)
