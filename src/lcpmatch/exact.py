"""The classic voting algorithms for exact matching of 3D point sets.

All five share the same skeleton: propose rigid motions from congruent
bases, vote, and verify the winner. Congruent bases are found by one
search of the model distance rows (index.DistanceRows): model triplet
(i, j, p) is congruent to scene triplet (a, b, q) when |ij|, |ip| and |jp|
are within tau of |ab|, |aq| and |bq|. The four triplet algorithms score
the same congruent (scene triplet, model triplet) rows, those of
_congruent_triplets, and differ in the voting space:

- pose_clustering: votes per quantized motion.
- alignment: a row scores the points that the motion of its motion key
  brings onto the model, each distinct key verified once.
- ght: the generalized Hough transform, pose clustering of the same rows.
- geometric_hashing: a row scores its congruent fourth points, the (scene,
  model) point pairs with equal distances to the two triplets and equal
  orientation signs.
- ght_pair_based: motions voted per common base pair, so a k-matching wins
  k - 2 votes through any pair inside it.

Both triangles of each congruent row are measured once (_triangles), for
the collinear test, the frames of the motions (_motions) and geometric
hashing's normals. Motions are voted with array operations: motion keys
grouped by a stable sort of their bytes (_group_rows); alignment's matched
points found once per motion key and, with geometric hashing's fourth
points, counted per row in chunks of a fixed cell budget. Only the winner's
motion is rebuilt by the scalar motion_from_bases, so results do not depend
on the last bits of the batched arithmetic.

"Exact" is realized in floating point: congruence within an absolute
tolerance tau, and motion votes on a quantization grid. Collinear bases are
skipped since they do not pin down a motion.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import NoCongruentTriplets, TooFewPoints
from .geometry import (
    COLLINEAR_REL,
    RigidMotion,
    _frames,
    _nearest_batch,
    as_points,
    axis_norms,
    cross,
    motion_from_bases,
    pairwise_distances,
)
from .index import DistanceRows
# perfbench/tracing.py wraps these names here; no matcher calls them.
from .geometry import collinear_mask  # noqa: F401
from .index import build_triplet_index, ordered_triplets_and_keys  # noqa: F401
from .result import MatchResult, build_match_result
from .sampling import AllPairs, PairSource, materialize_pairs


# Quantization step of motion votes, in rotation entries and lengths.
MOTION_GRID = 1e-6


@dataclass(frozen=True)
class ExactParams:
    """Floating-point realization of exact matching.

    tau: absolute congruence/match tolerance (a length).

    Motion votes are quantized at MOTION_GRID, and collinear bases are
    skipped at geometry.COLLINEAR_REL.
    """

    tau: float = 1e-9

    def __post_init__(self):
        if not 0 < self.tau < np.inf:
            raise ValueError("tau must be finite and positive")


def _motion_keys(rot, tr, grid: float):
    """Quantized (K, 12) rows of motions (rot[k], tr[k]): rotation row-major,
    then translation.

    np.rint rounds half to even, like round. The keys stay float64, whose
    integral values are exact at any magnitude, where int64 would wrap past
    2**63; adding 0.0 turns -0.0 into 0.0.
    """
    return np.rint(np.concatenate([rot.reshape(-1, 9), tr], axis=1) / grid) + 0.0


def _group_rows(keys):
    """Groups of equal rows of the (K, c) float keys: (first, inverse, counts).

    Group g has counts[g] rows, the first being row first[g]; row r is in
    group inverse[r]. The keys are finite and hold no -0.0 (_motion_keys adds
    0.0), so equal bytes mean equal keys, and a stable argsort of the rows'
    bytes sorts each group's rows in row order. Groups come in byte order,
    not numeric order; no caller depends on the order of the groups.
    """
    order = np.argsort(keys.view(f"V{keys.shape[1] * keys.itemsize}")[:, 0], kind="stable")
    rows = keys[order]
    start = np.ones(len(rows), dtype=bool)
    start[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = np.cumsum(start) - 1
    heads = np.flatnonzero(start)
    return order[heads], inverse, np.diff(np.append(heads, len(rows)))


def motion_key(motion: RigidMotion, grid: float) -> tuple[int, ...]:
    """Quantized 12-tuple of the motion; equal for motions that agree on a basis."""
    return tuple(int(v) for v in _motion_keys(motion.rotation, motion.translation[None], grid)[0])


def _require_sizes(P, Q, min_p: int, min_q: int):
    if len(P) < min_p or len(Q) < min_q:
        raise TooFewPoints(f"need at least {min_p} model and {min_q} scene points")


def _triangles(pts, trips):
    """((a, b - a, c - a, |b - a|, longest side, cross(b - a, c - a)), flags) of
    the triangles (a, b, c) = pts[trips[r]]; the flags are collinear_mask's."""
    a, b, c = (pts.take(trips[:, k], axis=0) for k in range(3))
    ab, ac = b - a, c - a
    nab = axis_norms(ab)
    dmax = np.maximum(nab, np.maximum(axis_norms(ac), axis_norms(c - b)))
    normal = cross(ab, ac)
    return (a, ab, ac, nab, dmax, normal), axis_norms(normal) <= COLLINEAR_REL * dmax * dmax


def _congruent_rows(pp, qq, ab, tau: float):
    """Non-collinear rows (pos, tq, tp) of the scene pairs ab, by (pos, q, i, j, p).

    Scene pair ab[pos] = (a, b) is searched at its length |ab|; row
    tq = (a, b, q) is congruent within tau to model triplet tp = (i, j, p).
    Rows with a collinear scene or model triplet are dropped. Returns
    (pos, tq, tp, tri, dq, dp): tri is _triangles of the scene triplets,
    then the model ones; dq and dp are the distance matrices searched.
    Raises NoCongruentTriplets when there is no row.
    """
    dq, rows = pairwise_distances(qq), DistanceRows(pp)
    pos, q, i, j, p = rows.query(dq, ab, dq[ab[:, 0], ab[:, 1]], tau)
    lex = np.lexsort((p, j, i, q, pos))
    pos, tq, tp = pos[lex], np.column_stack([ab[pos], q])[lex], np.column_stack([i, j, p])[lex]
    tri, collinear = _triangles(np.concatenate([qq, pp]), np.concatenate([tq, tp + len(qq)]))
    keep = ~(collinear[: len(pos)] | collinear[len(pos) :])
    if not keep.all():
        tri = tuple(x[np.tile(keep, 2)] for x in tri)
        pos, tq, tp = pos[keep], tq[keep], tp[keep]
    if len(tq) == 0:
        raise NoCongruentTriplets("no congruent triplet pair")
    return pos, tq, tp, tri, dq, rows.dists


def _congruent_triplets(pp, qq, params: ExactParams):
    """(tq, tp, tri, dq, dp) of _congruent_rows over every ordered scene pair."""
    ab = np.column_stack(np.nonzero(~np.eye(len(qq), dtype=bool)))
    return _congruent_rows(pp, qq, ab, params.tau)[1:]


def _motions(tri):
    """motions_from_bases of the rows whose scene and model triplets `tri`
    measured: (K, 3, 3) rotations and (K, 3) translations, the same bits."""
    a, frame = tri[0], _frames(*tri[1:5])
    k = len(a) // 2
    rot = frame[k:] @ frame[:k].transpose(0, 2, 1)
    return rot, a[k:] - np.einsum("kij,kj->ki", rot, a[:k])


# Cells (rows x scene points x model points) that one chunk of _best_row's
# row scoring may hold, which bounds the working memory of alignment and
# geometric hashing.
_ALIGN_CELLS = 1 << 16


def _row_keys(tri):
    """Motion key of every row whose triplets `tri` measured, as (K, 12) floats."""
    return _motion_keys(*_motions(tri), MOTION_GRID)


def pose_clustering(P, Q, params: ExactParams = ExactParams()) -> MatchResult:
    """Vote each congruent triplet pair's motion in a quantized motion space.

    Rows vote in lexicographic order; ties go to the motion first seen, that
    is the smallest (tq, tp). The winner's motion is rebuilt from its first
    row by motion_from_bases.
    """
    pp, qq = as_points(P), as_points(Q)
    _require_sizes(pp, qq, 3, 3)
    tq, tp, tri, _, _ = _congruent_triplets(pp, qq, params)
    first, _, counts = _group_rows(_row_keys(tri))
    top = counts.max()
    r = first[counts == top].min()
    mu = motion_from_bases(qq[tq[r]], pp[tp[r]])
    return build_match_result(pp, qq, mu, params.tau, votes=int(top))


def _best_row(pp, qq, tq, tp, score, params: ExactParams) -> MatchResult:
    """The first congruent row at the top score, rebuilt by motion_from_bases.

    score(rows) returns the counts of the rows in slice `rows`; it is called
    on consecutive chunks whose (rows x scene points x model points) cells
    fit _ALIGN_CELLS.
    """
    counts = np.empty(len(tq), dtype=np.int64)
    step = max(1, _ALIGN_CELLS // (len(qq) * len(pp)))
    for s in range(0, len(tq), step):
        counts[s : s + step] = score(slice(s, s + step))
    r = int(np.argmax(counts))
    mu = motion_from_bases(qq[tq[r]], pp[tp[r]])
    return build_match_result(pp, qq, mu, params.tau, votes=int(counts[r]))


def alignment(P, Q, params: ExactParams = ExactParams()) -> MatchResult:
    """Score each congruent triplet pair's motion by verifying remaining points.

    A row scores the scene points outside its triplet that the motion of
    its motion key's first row brings within tau of some model point, so
    each distinct key is verified once. The first row at the top score wins.
    """
    pp, qq = as_points(P), as_points(Q)
    _require_sizes(pp, qq, 3, 3)
    tq, tp, tri, _, _ = _congruent_triplets(pp, qq, params)
    rot, tr = _motions(tri)
    first, key, _ = _group_rows(_motion_keys(rot, tr, MOTION_GRID))
    rot, tr = rot.take(first, axis=0), tr.take(first, axis=0)
    hits = _nearest_batch(pp, qq, rot, tr, _ALIGN_CELLS)[1] <= params.tau

    def matched(rows):
        own = hits[key[rows, None], tq[rows]]
        return hits[key[rows]].sum(axis=1) - own.sum(axis=1)

    return _best_row(pp, qq, tq, tp, matched, params)


def ght(P, Q, params: ExactParams = ExactParams()) -> MatchResult:
    """Pose clustering over the congruent rows of _congruent_triplets.

    A def of its own, not an alias, so that it keeps its own __name__, by
    which the benchmark labels its operations.
    """
    return pose_clustering(P, Q, params)


def _fourth_point_signs(pts, d, trips, normal):
    """Orientation sign of every (triplet, fourth point), as (len(trips), len(pts)).

    The sign of det(b - a, c - a, x - a) = normal . (x - a) for triplet
    (a, b, c), normal = cross(b - a, c - a), and fourth point x is 0 inside
    the zero band |det| < COLLINEAR_REL * scale^3, scale being the largest
    of the quad's six distances.
    """
    i, j, k = trips.T
    a = pts[i]
    det = np.einsum("kj,kxj->kx", normal, pts[None] - a[:, None])
    # d is symmetric bit for bit, so row d[i] holds the distances d[x, i].
    side = np.maximum(d[i, j], np.maximum(d[i, k], d[j, k]))[:, None]
    scale = np.maximum(np.maximum(side, d[i]), np.maximum(d[j], d[k]))
    signs = np.sign(det)
    signs[np.abs(det) < COLLINEAR_REL * scale**3] = 0
    return signs


def geometric_hashing(P, Q, params: ExactParams = ExactParams()) -> MatchResult:
    """Alignment by fourth points: (tq, tp) wins one vote per congruent fourth point.

    A pair (q4, p4) outside the row's triplets votes when its three
    distances to the triplet agree within tau and its orientation sign
    agrees. The first row at the top count wins.
    """
    pp, qq = as_points(P), as_points(Q)
    _require_sizes(pp, qq, 4, 4)
    tq, tp, tri, dq, dp = _congruent_triplets(pp, qq, params)
    q_normal, p_normal = tri[5][: len(tq)], tri[5][len(tq) :]

    def fourth_points(rows):
        q_trips, p_trips = tq[rows], tp[rows]
        ok = np.ones((len(q_trips), len(qq), len(pp)), dtype=bool)
        for c in range(3):
            ok &= np.abs(dq[q_trips[:, c], :, None] - dp[p_trips[:, c], None, :]) <= params.tau
        ok &= (
            _fourth_point_signs(qq, dq, q_trips, q_normal[rows])[:, :, None]
            == _fourth_point_signs(pp, dp, p_trips, p_normal[rows])[:, None, :]
        )
        own = np.arange(len(ok))[:, None]
        ok[own, q_trips] = False
        ok[own, :, p_trips] = False
        return ok.sum(axis=(1, 2))

    result = _best_row(pp, qq, tq, tp, fourth_points, params)
    if result.votes == 0:
        raise NoCongruentTriplets("no congruent fourth point")
    return result


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
    pos, tq, tp, tri, _, _ = _congruent_rows(pp, qq, ab, params.tau)
    # Tally per (position in the pair list, motion key): a repeated pair
    # votes apart instead of doubling its groups.
    keys = _row_keys(tri)
    first, _, counts = _group_rows(np.column_stack([pos, keys]))
    g_tq, g_tp = tq[first], tp[first]
    # The smallest (-votes, scene pair, model pair, motion key). Two groups
    # compare equal only when they are one key at two places of a repeated
    # pair, whose rows are the same, so either gives the same result.
    g = np.lexsort(
        (*keys[first].T[::-1], g_tp[:, 1], g_tp[:, 0], g_tq[:, 1], g_tq[:, 0], -counts)
    )[0]
    r = first[g]
    mu = motion_from_bases(qq[tq[r]], pp[tp[r]])
    base_pair = ((int(tq[r, 0]), int(tq[r, 1])), (int(tp[r, 0]), int(tp[r, 1])))
    return build_match_result(pp, qq, mu, params.tau, int(counts[g]), base_pair)
