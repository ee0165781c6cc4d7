"""3D geometry core: rigid motions, motion bases, triplet collinearity
(collinear_mask, over arrays of index triplets), nearest matches, and the
scalar dihedral-angle intervals.

Conventions
-----------
Points are float64 arrays of shape (3,); point sets are arrays of shape
(N, 3). Angles live on the circle [0, 2*pi). Degeneracy thresholds are
relative to the local scale of their inputs, so instances may use any unit.

The scalar interval solve (dihedral_interval) reduces the squared distance
between a point rotated about a directed axis and a fixed target to the form

    ||R_theta(q) - p||^2 = c0 + c1*cos(theta) + c2*sin(theta),

which makes "which rotation angles bring q within r of p" a closed-form
inequality: the admissible angles always form a single (possibly empty or
full) arc of the circle. No matcher runs it, nor the interval union and
sweep: DA solves its arcs in cylinder coordinates (da._cyl_arcs), and the
tests keep these scalar forms as references.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import acos, atan2, hypot, pi
from typing import Iterable

import numpy as np
from numpy.typing import NDArray

from .errors import DegenerateBasis, DegeneratePair, EmptySet

FloatArray = NDArray[np.float64]

TWO_PI = 2.0 * pi

# Relative threshold below which a triangle counts as collinear.
COLLINEAR_REL = 1e-9


def as_points(points) -> FloatArray:
    """Coerce to a float64 (N, 3) array and check all coordinates are finite."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(1, 3)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected an (N, 3) point array, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("point coordinates must be finite")
    return pts


def as_point(p) -> FloatArray:
    """Coerce to a float64 (3,) vector."""
    v = np.asarray(p, dtype=np.float64).reshape(3)
    return v


def cross(u, v):
    """np.cross of 3-vectors or rows of them, without its axis bookkeeping.

    The same products and subtractions as np.cross, so the same bits.
    """
    return np.stack(
        [
            u[..., 1] * v[..., 2] - u[..., 2] * v[..., 1],
            u[..., 2] * v[..., 0] - u[..., 0] * v[..., 2],
            u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0],
        ],
        axis=-1,
    )


def row_norms(d: FloatArray) -> FloatArray:
    """Norms of the rows of (K, 3) `d`, equal bit for bit to np.linalg.norm of
    each row, which takes a dot product; axis_norms rounds differently."""
    return np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])


def axis_norms(d: FloatArray) -> FloatArray:
    """np.linalg.norm(d, axis=1) of real `d` without its dispatch: the same
    sum of squares along the axis, so the same bits."""
    return np.sqrt(np.add.reduce(d * d, axis=1))


def pairwise_distances(points: FloatArray) -> FloatArray:
    """Full (N, N) Euclidean distance matrix."""
    pts = np.asarray(points, dtype=np.float64)
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def min_interpoint_distance(points) -> float:
    """Smallest pairwise distance; inf for fewer than two points."""
    pts = as_points(points)
    if len(pts) < 2:
        return float("inf")
    # The matrix is symmetric bit for bit, so its off-diagonal minimum is
    # that of the upper triangle.
    d = pairwise_distances(pts)
    np.fill_diagonal(d, np.inf)
    return float(d.min())


def tolerant_precondition(P, Q, eps: float) -> bool:
    """True when the minimum interpoint distance exceeds 2*eps in both sets."""
    return min_interpoint_distance(P) > 2.0 * eps and min_interpoint_distance(Q) > 2.0 * eps


@dataclass(frozen=True, eq=False)
class RigidMotion:
    """Proper rigid motion x -> rotation @ x + translation."""

    rotation: FloatArray
    translation: FloatArray

    def __post_init__(self):
        rot = np.array(self.rotation, dtype=np.float64).reshape(3, 3)
        tr = np.array(self.translation, dtype=np.float64).reshape(3)
        rot.setflags(write=False)
        tr.setflags(write=False)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tr)

    def apply(self, points):
        """Apply to a single point (3,) or a point set (N, 3)."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            return self.rotation @ pts + self.translation
        return pts @ self.rotation.T + self.translation

    def inverse(self) -> "RigidMotion":
        rt = self.rotation.T
        return RigidMotion(rt, -(rt @ self.translation))


def rotation_about_line(p1, p2, angle: float) -> RigidMotion:
    """Rotation by `angle` about the directed line p1 -> p2."""
    a = as_point(p1)
    u = as_point(p2) - a
    n = np.linalg.norm(u)
    if n == 0.0:
        raise DegeneratePair("rotation axis has zero length")
    u = u / n
    k = np.array(
        [
            [0.0, -u[2], u[1]],
            [u[2], 0.0, -u[0]],
            [-u[1], u[0], 0.0],
        ]
    )
    rot = np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)
    return RigidMotion(rot, a - rot @ a)


def _wrap(theta: float) -> float:
    t = theta % TWO_PI
    # Guard against theta % 2pi == 2pi from floating roundoff.
    return 0.0 if t >= TWO_PI else t


@dataclass(frozen=True, slots=True)
class AngleInterval:
    """Set of rotation angles: empty, a closed arc of the circle, or all of it.

    An arc runs counterclockwise from `start` to `end`; both are in
    [0, 2*pi) and the arc may wrap through zero. `start == end` denotes the
    single angle {start}; a genuinely full circle uses kind == "full".
    """

    kind: str
    start: float = 0.0
    end: float = 0.0

    @classmethod
    def empty(cls) -> "AngleInterval":
        return cls("empty")

    @classmethod
    def full(cls) -> "AngleInterval":
        return cls("full")

    @classmethod
    def arc(cls, start: float, end: float) -> "AngleInterval":
        return cls("arc", _wrap(start), _wrap(end))

    @property
    def length(self) -> float:
        if self.kind == "empty":
            return 0.0
        if self.kind == "full":
            return TWO_PI
        return (self.end - self.start) % TWO_PI

    def contains(self, theta: float, slack: float = 0.0) -> bool:
        if self.kind == "empty":
            return False
        if self.kind == "full":
            return True
        d = (theta - self.start) % TWO_PI
        return d <= self.length + slack or d >= TWO_PI - slack


def _segments(interval: AngleInterval) -> list[tuple[float, float]]:
    """Split an arc at 2*pi into linear closed segments of [0, 2*pi].

    An arc ending exactly at 2*pi also covers 0, as the segment (0, 0).
    """
    if interval.kind != "arc":
        raise ValueError("only arcs can be segmented")
    s = interval.start
    e = s + interval.length
    if e < TWO_PI:
        return [(s, e)]
    return [(s, TWO_PI), (0.0, e - TWO_PI)]


def max_overlap_angle(intervals: Iterable[AngleInterval]) -> tuple[float, int]:
    """Angle stabbing the maximum number of intervals, with that count.

    Wrapping arcs are split at 2*pi inside the sweep only. Ties are broken
    toward the smallest angle; with no intervals the result is (0.0, 0).
    """
    full = 0
    segs: list[tuple[float, float]] = []
    for iv in intervals:
        if iv.kind == "full":
            full += 1
        elif iv.kind == "arc":
            segs.extend(_segments(iv))
    if not segs:
        return 0.0, full
    events: list[tuple[float, int]] = []
    for s, e in segs:
        events.append((s, 0))
        events.append((e, 1))
    events.sort()
    best_angle = 0.0
    best = 0
    cur = 0
    for pos, typ in events:
        if typ == 0:
            cur += 1
            if cur > best:
                best = cur
                best_angle = pos
        else:
            cur -= 1
    return _wrap(best_angle), best + full


def union_intervals(intervals: Iterable[AngleInterval]) -> list[AngleInterval]:
    """Union of angle intervals as a list of disjoint intervals."""
    if isinstance(intervals, list) and len(intervals) == 1:
        only = intervals[0]
        if only.kind == "empty":
            return []
        return [only]
    segs: list[tuple[float, float]] = []
    for iv in intervals:
        if iv.kind == "full":
            return [AngleInterval.full()]
        if iv.kind == "arc":
            segs.extend(_segments(iv))
    if not segs:
        return []
    segs.sort()
    merged: list[list[float]] = [list(segs[0])]
    for s, e in segs[1:]:
        if s <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    if len(merged) == 1 and merged[0][0] <= 0.0 and merged[0][1] >= TWO_PI:
        return [AngleInterval.full()]
    # Re-join the two pieces of an arc that was split at the wrap point.
    if len(merged) >= 2 and merged[0][0] <= 0.0 and merged[-1][1] >= TWO_PI:
        first = merged.pop(0)
        merged[-1][1] = TWO_PI + first[1]
    return [AngleInterval.arc(s, e) for s, e in merged]


def rotation_distance_coeffs(p1, p2, q, p) -> tuple:
    """Coefficients (c0, c1, c2) of ||R_theta(q) - p||^2 about the axis p1 -> p2.

    `q` and `p` may be single points (3,) or batches (K, 3); the coefficients
    broadcast accordingly. A zero-length axis leaves q fixed for every theta,
    which the constant-term-only result (c1 = c2 = 0) represents exactly.
    """
    a1 = as_point(p1)
    a2 = as_point(p2)
    axis = a2 - a1
    n = np.linalg.norm(axis)
    qa = np.asarray(q, dtype=np.float64)
    pa = np.asarray(p, dtype=np.float64)
    if n == 0.0:
        diff = qa - pa
        c0 = (diff * diff).sum(axis=-1)
        return c0, np.zeros_like(c0), np.zeros_like(c0)
    u = axis / n
    v = qa - a1
    along = (v * u).sum(axis=-1)[..., None] * u
    perp = v - along
    w = cross(u, perp)
    b = a1 + along - pa
    c0 = (b * b).sum(axis=-1) + (perp * perp).sum(axis=-1)
    c1 = 2.0 * (b * perp).sum(axis=-1)
    c2 = 2.0 * (b * w).sum(axis=-1)
    return c0, c1, c2


def dihedral_interval(p1, p2, q, p, r: float) -> AngleInterval:
    """Angles theta with ||R_theta(q) - p|| <= r, R_theta about the axis p1 -> p2.

    Solved in closed form from the cosine expansion of the squared distance;
    degenerate configurations yield empty or full intervals rather than errors.
    """
    c0, c1, c2 = rotation_distance_coeffs(p1, p2, as_point(q), as_point(p))
    c0 = float(c0)
    amp = hypot(float(c1), float(c2))
    rr = r * r
    scale = max(c0, rr, 1.0e-300)
    if amp <= 1.0e-14 * scale:
        return AngleInterval.full() if c0 <= rr else AngleInterval.empty()
    t = (rr - c0) / amp
    if t >= 1.0:
        return AngleInterval.full()
    if t < -1.0:
        return AngleInterval.empty()
    phi0 = atan2(float(c2), float(c1))
    delta = acos(t)
    return AngleInterval.arc(phi0 + delta, phi0 + TWO_PI - delta)


def collinear_mask(points: FloatArray, triplets: NDArray, rel: float = COLLINEAR_REL) -> NDArray:
    """For each index triplet, whether its triangle's height above the
    longest side is at most `rel` times that side."""
    pts = np.asarray(points, dtype=np.float64)
    a, b, c = (pts.take(triplets[:, k], axis=0) for k in range(3))
    ab = b - a
    ac = c - a
    bc = c - b
    dmax = np.maximum(axis_norms(ab), np.maximum(axis_norms(ac), axis_norms(bc)))
    area2 = axis_norms(cross(ab, ac))
    return area2 <= rel * dmax * dmax


def motion_from_bases(q_triplet, p_triplet) -> RigidMotion:
    """The unique proper rigid motion taking the ordered q-triplet onto the p-triplet.

    Both triplets must be non-collinear; for congruent triplets the motion
    maps vertex to vertex exactly (up to roundoff).
    """
    qf = _triplet_frame(as_points(q_triplet))
    pf = _triplet_frame(as_points(p_triplet))
    rot = pf[1] @ qf[1].T
    tr = pf[0] - rot @ qf[0]
    return RigidMotion(rot, tr)


def _triplet_frame(trip: FloatArray) -> tuple[FloatArray, FloatArray]:
    """Origin and right-handed orthonormal frame attached to an ordered triplet."""
    a, b, c = trip
    ab, ac, bc = b - a, c - a, c - b
    nab = float(np.sqrt(ab.dot(ab)))
    dmax = max(nab, float(np.sqrt(ac.dot(ac))), float(np.sqrt(bc.dot(bc))))
    if dmax == 0.0 or nab <= COLLINEAR_REL * dmax:
        raise DegenerateBasis("triplet has coincident points")
    e1 = ab / nab
    h = ac - (ac @ e1) * e1
    nh = float(np.sqrt(h.dot(h)))
    if nh <= COLLINEAR_REL * dmax:
        raise DegenerateBasis("triplet is collinear")
    e2 = h / nh
    e3 = cross(e1, e2)
    return a, np.column_stack([e1, e2, e3])


def motions_from_bases(q_triplets, p_triplets) -> tuple[FloatArray, FloatArray]:
    """motion_from_bases over (K, 3, 3) stacks of ordered q- and p-triplets.

    Returns the (K, 3, 3) rotations and (K, 3) translations. The entries may
    differ from motion_from_bases in the last bit. Raises DegenerateBasis if
    any triplet is degenerate under the thresholds of the scalar frame.
    """
    q_origin, q_frame = _triplet_frames(np.asarray(q_triplets, dtype=np.float64))
    p_origin, p_frame = _triplet_frames(np.asarray(p_triplets, dtype=np.float64))
    rot = p_frame @ q_frame.transpose(0, 2, 1)
    tr = p_origin - np.einsum("kij,kj->ki", rot, q_origin)
    return rot, tr


def _triplet_frames(trips: FloatArray) -> tuple[FloatArray, FloatArray]:
    """_triplet_frame over a (K, 3, 3) stack: (K, 3) origins, (K, 3, 3) frames."""
    a, b, c = trips[:, 0], trips[:, 1], trips[:, 2]
    ab = b - a
    ac = c - a
    nab = axis_norms(ab)
    dmax = np.maximum(nab, np.maximum(axis_norms(ac), axis_norms(c - b)))
    return a, _frames(ab, ac, nab, dmax)


def _frames(ab, ac, nab, dmax) -> FloatArray:
    """(K, 3, 3) frames of triangles (a, b, c) from their (K, 3) b - a and
    c - a, |b - a| and longest side, under the tests of _triplet_frame."""
    if ((dmax == 0.0) | (nab <= COLLINEAR_REL * dmax)).any():
        raise DegenerateBasis("triplet has coincident points")
    e1 = ab / nab[:, None]
    h = ac - (ac * e1).sum(axis=1)[:, None] * e1
    nh = axis_norms(h)
    if (nh <= COLLINEAR_REL * dmax).any():
        raise DegenerateBasis("triplet is collinear")
    e2 = h / nh[:, None]
    return np.stack([e1, e2, cross(e1, e2)], axis=2)


def pair_canonical_motion(p1, p2, q1, q2) -> RigidMotion:
    """Canonical motion taking q1 to p1 and q2 onto the ray p1 -> p2.

    The image of q2 lies on the ray from p1 through p2 at distance ||q1q2||
    from p1. The residual rotation about the p1p2 axis is fixed by using the
    minimal-angle rotation aligning direction (q2 - q1) with (p2 - p1); in the
    antiparallel case the pi-rotation axis is derived from the coordinate axis
    least parallel to (p2 - p1), orthogonalized against it (smallest index on
    ties), so the choice is deterministic.
    """
    a1, a2 = as_point(p1), as_point(p2)
    b1, b2 = as_point(q1), as_point(q2)
    dp = a2 - a1
    dq = b2 - b1
    np_len = float(np.sqrt(dp @ dp))
    nq_len = float(np.sqrt(dq @ dq))
    if np_len < 1e-12 or nq_len < 1e-12:
        raise DegeneratePair("pair endpoints coincide")
    v = dp / np_len
    u = dq / nq_len
    cr = cross(u, v)
    s = float(np.sqrt(cr @ cr))
    d = float(u @ v)
    if s > 1e-12:
        # Rodrigues about the unit axis cr/s by angle atan2(s, d), written out
        # to keep this hot path on scalar arithmetic.
        ux, uy, uz = (float(x) / s for x in cr)
        norm_sd = hypot(s, d)
        cos_t = d / norm_sd
        sin_t = s / norm_sd
        one_c = 1.0 - cos_t
        rot = np.array(
            [
                [
                    cos_t + ux * ux * one_c,
                    ux * uy * one_c - uz * sin_t,
                    ux * uz * one_c + uy * sin_t,
                ],
                [
                    uy * ux * one_c + uz * sin_t,
                    cos_t + uy * uy * one_c,
                    uy * uz * one_c - ux * sin_t,
                ],
                [
                    uz * ux * one_c - uy * sin_t,
                    uz * uy * one_c + ux * sin_t,
                    cos_t + uz * uz * one_c,
                ],
            ]
        )
    elif d > 0.0:
        rot = np.eye(3)
    else:
        # Antiparallel: pi-rotation about an axis perpendicular to v.
        i = int(np.argmin(np.abs(v)))
        e = np.zeros(3)
        e[i] = 1.0
        w = e - (e @ v) * v
        w = w / np.linalg.norm(w)
        rot = 2.0 * np.outer(w, w) - np.eye(3)
    return RigidMotion(rot, a1 - rot @ b1)


def least_squares_motion(src: FloatArray, dst: FloatArray) -> RigidMotion:
    """Least-squares proper rigid motion mapping src[i] near dst[i] (SVD fit)."""
    a = as_points(src)
    b = as_points(dst)
    if a.shape != b.shape or len(a) < 3:
        raise DegenerateBasis("least-squares fit needs >= 3 paired points")
    ca = a.mean(axis=0)
    cb = b.mean(axis=0)
    u, _, vt = np.linalg.svd((a - ca).T @ (b - cb))
    rot = vt.T @ u.T
    if np.linalg.det(rot) < 0:
        vt[-1, :] *= -1.0
        rot = vt.T @ u.T
    return RigidMotion(rot, cb - rot @ ca)


def nearest_matches(P, Q, motion: RigidMotion, radius: float) -> tuple[list[tuple[int, int]], FloatArray]:
    """Every q whose image under `motion` lies within `radius` of some p.

    Returns the matched (q_index, p_index) pairs with p the nearest point,
    plus the matched residuals aligned with the pair list. Raises EmptySet
    when P is empty, where no q has a nearest point.
    """
    pp = as_points(P)
    qq = as_points(Q)
    if len(pp) == 0:
        raise EmptySet("nearest matches need a non-empty model set")
    img = motion.apply(qq)
    diff = img[:, None, :] - pp[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=2))
    nn = d.argmin(axis=1)
    res = d[np.arange(len(qq)), nn]
    sel = np.flatnonzero(res <= radius)
    pairs = [(int(q), int(nn[q])) for q in sel]
    return pairs, res[sel]


def _nearest_batch(pp, qq, rot, tr, cells: int):
    """(nn, res): the nearest model point and its distance for every motion
    (rot[k], tr[k]) and scene point, by the arithmetic of nearest_matches,
    bit for bit, in chunks of at most `cells` motions x scene x model points."""
    nn, res = np.empty((len(rot), len(qq)), dtype=np.int64), np.empty((len(rot), len(qq)))
    step = max(1, cells // (len(qq) * len(pp)))
    for s in range(0, len(rot), step):
        img = qq @ rot[s : s + step].transpose(0, 2, 1) + tr[s : s + step, None, :]
        diff = img[:, :, None, :] - pp
        d = np.sqrt((diff * diff).sum(axis=3))
        nn[s : s + step], res[s : s + step] = d.argmin(axis=2), d.min(axis=2)
    return nn, res
