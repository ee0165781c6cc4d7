"""The classic voting algorithms for exact matching of 3D point sets.

All five share the same skeleton: propose rigid motions from congruent
bases, vote, and verify the winner. Congruent bases are found by one
sorted-key join (index.KeyIndex) of scene keys against model keys; the
algorithms differ in the keys they join and in the voting space:

- pose_clustering: triangle keys, votes per quantized motion.
- alignment: triangle keys, votes by verifying remaining points.
- ght: pose clustering over the model's triangle-key index.
- geometric_hashing: quad keys of (triplet, fourth point), votes per
  triplet pair.
- ght_pair_based: motions voted per common base pair, so a k-matching wins
  k - 2 votes through any pair inside it.

"Exact" is realized in floating point: congruence within an absolute
tolerance tau, and motion votes on a quantization grid. Collinear bases are
skipped since they do not pin down a motion.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import NoCongruentTriplets, TooFewPoints
from .geometry import (
    RigidMotion,
    as_points,
    collinear_mask,
    motion_from_bases,
    pairwise_distances,
)
from .index import KeyIndex, build_triplet_index, ordered_triplets_and_keys
from .result import MatchResult, build_match_result
from .sampling import AllPairs, PairSource, materialize_pairs


@dataclass(frozen=True)
class ExactParams:
    """Floating-point realization of exact matching.

    tau: absolute congruence/match tolerance (a length).
    motion_grid: quantization step for motion votes.
    collinear_rel: relative threshold for skipping degenerate bases.
    """

    tau: float = 1e-9
    motion_grid: float = 1e-6
    collinear_rel: float = 1e-9

    def __post_init__(self):
        if self.tau <= 0 or self.motion_grid <= 0:
            raise ValueError("tau and motion_grid must be positive")


def motion_key(motion: RigidMotion, grid: float) -> tuple[int, ...]:
    """Quantized 12-tuple of the motion; equal for motions that agree on a basis."""
    return tuple(int(round(v / grid)) for v in motion.flatten())


def _require_sizes(P, Q, min_p: int, min_q: int):
    if len(P) < min_p or len(Q) < min_q:
        raise TooFewPoints(f"need at least {min_p} model and {min_q} scene points")


def _noncollinear_ordered_triplets(pts, rel: float):
    trips, keys = ordered_triplets_and_keys(pts)
    keep = ~collinear_mask(pts, trips, rel=rel)
    return trips[keep], keys[keep]


def _congruent_triplets(pp, qq, params: ExactParams):
    """Non-collinear (scene, model) triplet rows with keys within tau, in lex order."""
    q_trips, q_keys = _noncollinear_ordered_triplets(qq, params.collinear_rel)
    p_trips, p_keys = _noncollinear_ordered_triplets(pp, params.collinear_rel)
    qi, pi = KeyIndex(p_keys).join(q_keys, params.tau)
    return q_trips[qi], p_trips[pi]


def _matched_count(P, Q, motion, tau, exclude):
    img = motion.apply(Q)
    diff = img[:, None, :] - P[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=2))
    ok = d.min(axis=1) <= tau
    ok[list(exclude)] = False
    return int(ok.sum())


def _vote_motions(pp, qq, tq, tp, grid: float) -> dict[tuple, list]:
    """Tally each (scene triplet, model triplet) row's motion on the motion grid.

    Returns {motion key: [votes, first row, motion of the first row]}.
    """
    votes: dict[tuple, list] = {}
    for r in range(len(tq)):
        mu = motion_from_bases(qq[tq[r]], pp[tp[r]])
        key = motion_key(mu, grid)
        rec = votes.get(key)
        if rec is None:
            votes[key] = [1, r, mu]
        else:
            rec[0] += 1
    return votes


def _pose_winner(pp, qq, tq, tp, params: ExactParams) -> MatchResult:
    """Most-voted motion over congruent triplet rows in lexicographic order.

    Ties go to the motion first seen, that is the smallest (tq, tp).
    """
    votes = _vote_motions(pp, qq, tq, tp, params.motion_grid)
    if not votes:
        raise NoCongruentTriplets("no congruent triplet pair")
    count, _, mu = min(votes.values(), key=lambda rec: (-rec[0], rec[1]))
    return build_match_result(pp, qq, mu, params.tau, votes=count)


def pose_clustering(P, Q, params: ExactParams = ExactParams()) -> MatchResult:
    """Vote each congruent triplet pair's motion in a quantized motion space."""
    pp, qq = as_points(P), as_points(Q)
    _require_sizes(pp, qq, 3, 3)
    tq, tp = _congruent_triplets(pp, qq, params)
    return _pose_winner(pp, qq, tq, tp, params)


def alignment(P, Q, params: ExactParams = ExactParams()) -> MatchResult:
    """Score each congruent triplet pair's motion by verifying remaining points."""
    pp, qq = as_points(P), as_points(Q)
    _require_sizes(pp, qq, 3, 3)
    best = None
    for tq, tp in zip(*_congruent_triplets(pp, qq, params)):
        mu = motion_from_bases(qq[tq], pp[tp])
        count = _matched_count(pp, qq, mu, params.tau, exclude=tq)
        if best is None or count > best[0]:
            best = (count, mu)
    if best is None:
        raise NoCongruentTriplets("no congruent triplet pair")
    return build_match_result(pp, qq, best[1], params.tau, votes=best[0])


def ght(P, Q, params: ExactParams = ExactParams()) -> MatchResult:
    """Pose clustering with candidates found through the triangle-key index."""
    pp, qq = as_points(P), as_points(Q)
    _require_sizes(pp, qq, 3, 3)
    q_trips, q_keys = _noncollinear_ordered_triplets(qq, params.collinear_rel)
    idx = build_triplet_index(pp)
    qi, hits = idx.index.join(q_keys, params.tau)
    ok = ~collinear_mask(pp, idx.triplets[hits], rel=params.collinear_rel)
    return _pose_winner(pp, qq, q_trips[qi[ok]], idx.triplets[hits[ok]], params)


def _degenerate_triplets(pts, rel: float):
    """Boolean (m, m, m) array, True where (i, j, k) repeats an index or is collinear.

    collinear_mask runs once per sorted triple i < j < k, and its value goes
    to all six orderings.
    """
    m = len(pts)
    idx = np.arange(m)
    trips = np.column_stack(
        np.nonzero((idx[:, None, None] < idx[:, None]) & (idx[:, None] < idx))
    )
    cube = np.ones((m, m, m), dtype=bool)
    if len(trips):
        mask = collinear_mask(pts, trips, rel=rel)
        for order in permutations(range(3)):
            cube[tuple(trips[:, order].T)] = mask
    return cube


def _quad_rows(pts, rel: float):
    """Vectorized quad keys for every (non-collinear ordered triplet, extra point).

    Rows are lexicographic in (triplet, fourth point). Returns the index rows,
    the 6-vector keys (base sides then fourth-point distances), and the
    orientation signs with the rel * scale^3 zero band.
    """
    m = len(pts)
    d = pairwise_distances(pts)
    trips = np.column_stack(np.nonzero(~_degenerate_triplets(pts, rel)))
    rows = np.column_stack([np.repeat(trips, m, axis=0), np.tile(np.arange(m), len(trips))])
    rows = rows[(rows[:, 3:] != rows[:, :3]).all(axis=1)]
    if len(rows) == 0:
        return rows, np.empty((0, 6)), np.empty(0, dtype=np.int64)
    i, j, k, p = rows.T
    keys = np.column_stack([d[i, j], d[i, k], d[j, k], d[p, i], d[p, j], d[p, k]])
    a = pts[i]
    det = np.einsum("ij,ij->i", np.cross(pts[j] - a, pts[k] - a), pts[p] - a)
    scale = keys.max(axis=1)
    signs = np.sign(det).astype(np.int64)
    signs[np.abs(det) < rel * scale**3] = 0
    return rows, keys, signs


def geometric_hashing(P, Q, params: ExactParams = ExactParams()) -> MatchResult:
    """Alignment by quad keys: (tq, tp) wins one vote per congruent fourth point.

    The quad key of (triplet, fourth point) is the triangle key, the fourth
    point's distances to the triplet and the orientation sign.
    """
    pp, qq = as_points(P), as_points(Q)
    _require_sizes(pp, qq, 4, 4)
    p_rows, p_keys, p_signs = _quad_rows(pp, params.collinear_rel)
    if len(p_rows) == 0:
        raise NoCongruentTriplets("no usable model triplet")
    q_rows, q_keys, q_signs = _quad_rows(qq, params.collinear_rel)
    # The orientation sign is a seventh coordinate; spacing the signs 4*tau
    # apart keeps different signs out of each other's slack.
    spacing = 4.0 * params.tau
    table = KeyIndex(np.column_stack([p_keys, spacing * p_signs]))
    qi, pi = table.join(np.column_stack([q_keys, spacing * q_signs]), params.tau)
    if len(qi) == 0:
        raise NoCongruentTriplets("no congruent quad match")
    # One code per (tq, tp), increasing with the pair in lexicographic order.
    m, n = len(pp), len(qq)
    tq_code = (q_rows[qi, 0] * n + q_rows[qi, 1]) * n + q_rows[qi, 2]
    tp_code = (p_rows[pi, 0] * m + p_rows[pi, 1]) * m + p_rows[pi, 2]
    _, first, counts = np.unique(
        tq_code * m**3 + tp_code, return_index=True, return_counts=True
    )
    # argmax keeps the smallest (tq, tp) among the most-voted pairs.
    best = first[np.argmax(counts)]
    tq, tp = q_rows[qi[best], :3], p_rows[pi[best], :3]
    mu = motion_from_bases(qq[tq], pp[tp])
    return build_match_result(pp, qq, mu, params.tau, votes=int(counts.max()))


def ght_pair_based(
    P,
    Q,
    params: ExactParams = ExactParams(),
    pairs: PairSource | list[tuple[int, int]] = AllPairs(),
) -> MatchResult:
    """Pair-based voting: motions are tallied per common base pair.

    A k-matching identified through a pair inside it collects exactly k - 2
    votes, one per further matched point. The best motion over all source
    pairs wins.
    """
    pp, qq = as_points(P), as_points(Q)
    _require_sizes(pp, qq, 3, 3)
    n = len(qq)
    pair_list = pairs if isinstance(pairs, list) else materialize_pairs(pairs, n)
    idx = build_triplet_index(pp)
    p_ok = ~collinear_mask(pp, idx.triplets, rel=params.collinear_rel)
    degenerate_q = _degenerate_triplets(qq, params.collinear_rel)
    dq = pairwise_distances(qq)
    best = None  # (-votes, q_pair, p_pair, key) -> motion
    for a, b in pair_list:
        qs = np.flatnonzero(~degenerate_q[a, b])
        keys = np.column_stack([np.full(len(qs), dq[a, b]), dq[a, qs], dq[b, qs]])
        qi, hits = idx.index.join(keys, params.tau)
        keep = p_ok[hits]
        tp = idx.triplets[hits[keep]]
        tq = np.column_stack([np.full(len(tp), a), np.full(len(tp), b), qs[qi[keep]]])
        for mkey, (count, r, mu) in _vote_motions(pp, qq, tq, tp, params.motion_grid).items():
            cand = (-count, (a, b), (int(tp[r, 0]), int(tp[r, 1])), mkey)
            if best is None or cand < best[0]:
                best = (cand, mu)
    if best is None:
        raise NoCongruentTriplets("no congruent triplet through any source pair")
    (neg_votes, q_pair, p_pair, _), mu = best
    return build_match_result(
        pp, qq, mu, params.tau, votes=-neg_votes, base_pair=(q_pair, p_pair)
    )
