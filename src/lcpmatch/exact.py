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

The motions of all congruent (scene triplet, model triplet) rows are built
in one batch (geometry.motions_from_bases) and voted with array operations:
motion keys tallied by np.unique, alignment's matched points counted in
chunks of a fixed cell budget. Only the winner's motion is rebuilt from its
row by the scalar motion_from_bases, so results do not depend on the last
bits of the batched arithmetic.

"Exact" is realized in floating point: congruence within an absolute
tolerance tau, and motion votes on a quantization grid. Collinear bases are
skipped since they do not pin down a motion.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import NoCongruentTriplets, TooFewPoints
from .geometry import (
    RigidMotion,
    as_points,
    collinear_mask,
    motion_from_bases,
    motions_from_bases,
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


def _motion_keys(flat, grid: float):
    """Quantized (K, 12) motion rows (rotation row-major, then translation).

    np.rint rounds half to even, like round. The keys stay float64, whose
    integral values are exact at any magnitude, where int64 would wrap past
    2**63; adding 0.0 turns -0.0 into 0.0.
    """
    return np.rint(flat / grid) + 0.0


def motion_key(motion: RigidMotion, grid: float) -> tuple[int, ...]:
    """Quantized 12-tuple of the motion; equal for motions that agree on a basis."""
    return tuple(int(v) for v in _motion_keys(motion.flatten()[None], grid)[0])


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


# Cells (rows x scene points x model points) that one broadcast distance test
# of alignment may hold, which bounds its working memory.
_ALIGN_CELLS = 1 << 16


def _row_motions(pp, qq, tq, tp):
    """Rotations and translations of every (scene triplet, model triplet) row."""
    if len(tq) == 0:
        raise NoCongruentTriplets("no congruent triplet pair")
    return motions_from_bases(qq[tq], pp[tp])


def _row_keys(pp, qq, tq, tp, grid: float):
    """Motion key of every (scene triplet, model triplet) row, as (K, 12) floats."""
    rot, tr = _row_motions(pp, qq, tq, tp)
    return _motion_keys(np.concatenate([rot.reshape(-1, 9), tr], axis=1), grid)


def _pose_winner(pp, qq, tq, tp, params: ExactParams) -> MatchResult:
    """Most-voted motion over congruent triplet rows in lexicographic order.

    Ties go to the motion first seen, that is the smallest (tq, tp). The
    winner's motion is rebuilt from its first row by motion_from_bases.
    """
    keys = _row_keys(pp, qq, tq, tp, params.motion_grid)
    _, first, counts = np.unique(keys, axis=0, return_index=True, return_counts=True)
    top = counts.max()
    r = first[counts == top].min()
    mu = motion_from_bases(qq[tq[r]], pp[tp[r]])
    return build_match_result(pp, qq, mu, params.tau, votes=int(top))


def pose_clustering(P, Q, params: ExactParams = ExactParams()) -> MatchResult:
    """Vote each congruent triplet pair's motion in a quantized motion space."""
    pp, qq = as_points(P), as_points(Q)
    _require_sizes(pp, qq, 3, 3)
    tq, tp = _congruent_triplets(pp, qq, params)
    return _pose_winner(pp, qq, tq, tp, params)


def alignment(P, Q, params: ExactParams = ExactParams()) -> MatchResult:
    """Score each congruent triplet pair's motion by verifying remaining points.

    A row scores the scene points outside its triplet that its motion brings
    within tau of some model point. The first row at the top score wins.
    """
    pp, qq = as_points(P), as_points(Q)
    _require_sizes(pp, qq, 3, 3)
    tq, tp = _congruent_triplets(pp, qq, params)
    rot, tr = _row_motions(pp, qq, tq, tp)
    counts = np.empty(len(tq), dtype=np.int64)
    step = max(1, _ALIGN_CELLS // (len(qq) * len(pp)))
    for s in range(0, len(tq), step):
        img = qq @ rot[s : s + step].transpose(0, 2, 1) + tr[s : s + step, None, :]
        diff = img[:, :, None, :] - pp
        ok = np.sqrt((diff * diff).sum(axis=3)).min(axis=2) <= params.tau
        ok[np.arange(len(ok))[:, None], tq[s : s + step]] = False
        counts[s : s + step] = ok.sum(axis=1)
    r = int(np.argmax(counts))
    mu = motion_from_bases(qq[tq[r]], pp[tp[r]])
    return build_match_result(pp, qq, mu, params.tau, votes=int(counts[r]))


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
    pairs: PairSource | Sequence[tuple[int, int]] = AllPairs(),
) -> MatchResult:
    """Pair-based voting: motions are tallied per common base pair.

    A k-matching identified through a pair inside it collects exactly k - 2
    votes, one per further matched point. The best motion over all source
    pairs wins: the most votes, then the smallest scene pair, model pair of
    the group's first row, and motion key.
    """
    pp, qq = as_points(P), as_points(Q)
    _require_sizes(pp, qq, 3, 3)
    ab = np.array(materialize_pairs(pairs, len(qq)), dtype=np.int64).reshape(-1, 2)
    idx = build_triplet_index(pp)
    p_ok = ~collinear_mask(pp, idx.triplets, rel=params.collinear_rel)
    dq = pairwise_distances(qq)
    # One query per (source pair, third point), by position in the pair list
    # and then by third point, so each pair's rows keep their own join order.
    degenerate_q = _degenerate_triplets(qq, params.collinear_rel)
    pos, third = np.nonzero(~degenerate_q[ab[:, 0], ab[:, 1]])
    a, b = ab[pos, 0], ab[pos, 1]
    queries = np.column_stack([dq[a, b], dq[a, third], dq[b, third]])
    qi, hits = idx.index.join(queries, params.tau)
    keep = p_ok[hits]
    qi, tp = qi[keep], idx.triplets[hits[keep]]
    tq = np.column_stack([a[qi], b[qi], third[qi]])
    if len(tq) == 0:
        raise NoCongruentTriplets("no congruent triplet through any source pair")
    # Tally per (position in the pair list, motion key): a repeated pair
    # votes apart instead of doubling its groups.
    keys = _row_keys(pp, qq, tq, tp, params.motion_grid)
    _, first, counts = np.unique(
        np.column_stack([pos[qi], keys]), axis=0, return_index=True, return_counts=True
    )
    g_tq, g_tp = tq[first], tp[first]
    # The smallest (-votes, scene pair, model pair, motion key); lexsort is
    # stable, so equal candidates of a repeated pair go to its first place.
    g = np.lexsort(
        (*keys[first].T[::-1], g_tp[:, 1], g_tp[:, 0], g_tq[:, 1], g_tq[:, 0], -counts)
    )[0]
    r = first[g]
    mu = motion_from_bases(qq[tq[r]], pp[tp[r]])
    base_pair = ((int(tq[r, 0]), int(tq[r, 1])), (int(tp[r, 0]), int(tp[r, 1])))
    return build_match_result(
        pp, qq, mu, params.tau, votes=int(counts[g]), base_pair=base_pair
    )
