"""Ground-truth machinery: brute-force matching, verification, generators.

Everything here is deliberately simple and exact at desk scale: the
brute-force matcher enumerates congruent triplet bases, the bottleneck
distance runs a maximum-bipartite-matching feasibility test per candidate
radius, and the instance generator rejects until its recorded truth is the
unique optimum it claims to be.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from itertools import permutations

import numpy as np

from .errors import EmptySet, SizeMismatch, SpecInfeasible, TooLarge
from .geometry import (
    FloatArray,
    RigidMotion,
    as_points,
    collinear_mask,
    is_collinear,
    motion_from_bases,
    nearest_matches,
    pairwise_distances,
    tolerant_precondition,
)
from .result import greedy_injective


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Truth:
    """Planted ground truth: the motion, its correspondences, and noise bound."""

    motion: RigidMotion
    pairs: tuple[tuple[int, int], ...]  # (q_index, p_index)
    k: int
    noise: float


@dataclass(frozen=True, eq=False)
class Instance:
    P: FloatArray
    Q: FloatArray
    eps: float
    truth: Truth | None = None

    def tolerant(self) -> bool:
        return tolerant_precondition(self.P, self.Q, self.eps)

    def to_dict(self) -> dict:
        out = {
            "eps": self.eps,
            "P": [[float(x) for x in p] for p in self.P],
            "Q": [[float(x) for x in q] for q in self.Q],
        }
        if self.truth is not None:
            out["truth"] = {
                "rotation": [float(x) for x in self.truth.motion.rotation.ravel()],
                "translation": [float(x) for x in self.truth.motion.translation],
                "pairs": [[int(q), int(p)] for q, p in self.truth.pairs],
                "k": self.truth.k,
                "noise": self.truth.noise,
            }
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, d: dict) -> "Instance":
        truth = None
        if "truth" in d and d["truth"] is not None:
            t = d["truth"]
            truth = Truth(
                motion=RigidMotion(
                    np.array(t["rotation"], dtype=np.float64).reshape(3, 3),
                    np.array(t["translation"], dtype=np.float64),
                ),
                pairs=tuple((int(q), int(p)) for q, p in t["pairs"]),
                k=int(t["k"]),
                noise=float(t["noise"]),
            )
        return cls(
            P=as_points(d["P"]),
            Q=as_points(d["Q"]),
            eps=float(d["eps"]),
            truth=truth,
        )

    @classmethod
    def from_json(cls, text: str) -> "Instance":
        return cls.from_dict(json.loads(text))

    def digest(self) -> str:
        payload = json.dumps(
            {"eps": self.eps, "P": self.to_dict()["P"], "Q": self.to_dict()["Q"]},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyResult:
    matched: tuple[tuple[int, int], ...]
    dedup_matched: tuple[tuple[int, int], ...]
    max_residual: float

    @property
    def size(self) -> int:
        return len(self.matched)

    @property
    def dedup_size(self) -> int:
        return len(self.dedup_matched)


def verify_motion(P, Q, motion: RigidMotion, radius: float) -> VerifyResult:
    """Exact matched set of `motion` at `radius`, plus its injective resolution."""
    pairs, res = nearest_matches(P, Q, motion, radius)
    return VerifyResult(
        matched=tuple(pairs),
        dedup_matched=greedy_injective(pairs, res),
        max_residual=float(res.max()) if len(res) else 0.0,
    )


# ---------------------------------------------------------------------------
# Brute-force matcher
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleResult:
    lcp_size: int
    motion: RigidMotion
    matched: tuple[tuple[int, int], ...]


def _ordered_noncollinear_triplets(pts: FloatArray) -> tuple[np.ndarray, np.ndarray]:
    m = len(pts)
    trips = np.array(list(permutations(range(m), 3)), dtype=np.int64)
    keep = ~collinear_mask(pts, trips)
    trips = trips[keep]
    d = pairwise_distances(pts)
    keys = np.column_stack(
        [d[trips[:, 0], trips[:, 1]], d[trips[:, 0], trips[:, 2]], d[trips[:, 1], trips[:, 2]]]
    )
    return trips, keys


def exact_lcp_bruteforce(P, Q, tau: float = 1e-9) -> OracleResult:
    """Exact maximum matched-set size at tolerance tau, by full enumeration.

    Every congruent ordered triplet pair proposes a motion, each motion is
    verified against P, and the degenerate floors (single points and pairs)
    keep the answer exact when the optimum has fewer than three points. An
    optimum of three or more points is assumed to span a non-collinear
    triplet, which planted generators guarantee.
    """
    pp = as_points(P)
    qq = as_points(Q)
    m, n = len(pp), len(qq)
    if m == 0 or n == 0:
        raise EmptySet("brute force needs non-empty sets")
    if m**3 * n**3 > 10**9:
        raise TooLarge("triplet-pair enumeration exceeds the 1e9 candidate cap")

    # Floors: one point always matches; two match iff some pair lengths agree.
    best_size = 1
    best_motion = RigidMotion(np.eye(3), pp[0] - qq[0])
    best_matched: tuple[tuple[int, int], ...] = ((0, 0),)
    pair_floor = _best_pair_floor(pp, qq, tau)
    if pair_floor is not None and 2 > best_size:
        best_size, best_motion, best_matched = 2, pair_floor[0], pair_floor[1]

    if m >= 3 and n >= 3:
        p_trips, p_keys = _ordered_noncollinear_triplets(pp)
        q_trips, q_keys = _ordered_noncollinear_triplets(qq)
        chunk = max(1, 2_000_000 // max(len(p_keys), 1))
        for lo in range(0, len(q_keys), chunk):
            hi = min(lo + chunk, len(q_keys))
            close = (
                np.abs(q_keys[lo:hi, None, :] - p_keys[None, :, :]) <= tau
            ).all(axis=2)
            for qi, pi in zip(*np.nonzero(close)):
                tq = q_trips[lo + qi]
                tp = p_trips[pi]
                mu = motion_from_bases(qq[tq], pp[tp])
                pairs, res = nearest_matches(pp, qq, mu, tau)
                if len(pairs) > best_size:
                    best_size = len(pairs)
                    best_motion = mu
                    best_matched = tuple(pairs)
    return OracleResult(best_size, best_motion, best_matched)


def _best_pair_floor(pp, qq, tau):
    if len(pp) < 2 or len(qq) < 2:
        return None
    dp = pairwise_distances(pp)
    dq = pairwise_distances(qq)
    iu_p = np.column_stack(np.triu_indices(len(pp), k=1))
    iu_q = np.column_stack(np.triu_indices(len(qq), k=1))
    lp = dp[iu_p[:, 0], iu_p[:, 1]]
    lq = dq[iu_q[:, 0], iu_q[:, 1]]
    diff = np.abs(lq[:, None] - lp[None, :]) <= 2.0 * tau
    hits = np.argwhere(diff)
    if len(hits) == 0:
        return None
    qi, pi = hits[0]
    a, b = iu_q[qi]
    c, d = iu_p[pi]
    mu = _segment_midpoint_motion(qq[a], qq[b], pp[c], pp[d])
    matched = ((int(a), int(c)), (int(b), int(d)))
    return mu, matched


def _segment_midpoint_motion(q1, q2, p1, p2) -> RigidMotion:
    """Motion aligning segment directions and midpoints: endpoint error |dL|/2."""
    from .geometry import pair_canonical_motion

    base = pair_canonical_motion(p1, p2, q1, q2)
    # Shift along the target direction so the length mismatch splits evenly.
    v = np.asarray(p2, dtype=np.float64) - np.asarray(p1, dtype=np.float64)
    v = v / np.linalg.norm(v)
    d_l = float(np.linalg.norm(np.asarray(q2, float) - np.asarray(q1, float))) - float(
        np.linalg.norm(np.asarray(p2, float) - np.asarray(p1, float))
    )
    shift = -0.5 * d_l * v
    return RigidMotion(base.rotation, base.translation + shift)


# ---------------------------------------------------------------------------
# Bottleneck distance
# ---------------------------------------------------------------------------


def bottleneck_distance(P, Q) -> float:
    """Exact min over injections f: Q -> P of max |f(q) - q|.

    Binary search over the sorted candidate distances with an
    augmenting-path perfect-matching test at each one.
    """
    pp = as_points(P)
    qq = as_points(Q)
    if len(qq) > len(pp):
        raise SizeMismatch("bottleneck needs |Q| <= |P|")
    diff = qq[:, None, :] - pp[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=2))
    cand = np.unique(d)
    lo, hi = 0, len(cand) - 1
    if _has_perfect_matching(d, cand[lo]):
        return float(cand[lo])
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _has_perfect_matching(d, cand[mid]):
            hi = mid
        else:
            lo = mid
    return float(cand[hi])


def _has_perfect_matching(d: np.ndarray, radius: float) -> bool:
    nq, mp = d.shape
    adj = [list(np.flatnonzero(d[q] <= radius)) for q in range(nq)]
    match_p = [-1] * mp

    def try_assign(q: int, seen: list[bool]) -> bool:
        for p in adj[q]:
            if seen[p]:
                continue
            seen[p] = True
            if match_p[p] == -1 or try_assign(match_p[p], seen):
                match_p[p] = q
                return True
        return False

    for q in range(nq):
        if not try_assign(q, [False] * mp):
            return False
    return True


# ---------------------------------------------------------------------------
# Instance generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenSpec:
    """Planted-instance recipe.

    min_sep defaults to just above the tolerant threshold 2*eps; clearance
    keeps distractors away from the planted images so the planted matching
    stays the unique optimum. Exact instances snap P to the integer grid,
    force noise to zero, and reject any three collinear points so voting
    counts stay strictly monotone in the matched-set size.
    """

    m: int
    n: int
    k: int
    eps: float
    noise: float | None = None
    box: float | None = None
    min_sep: float | None = None
    clearance: float | None = None
    exact: bool = False
    lcp_guard: bool = True

    def resolved(self) -> "GenSpec":
        noise = 0.0 if self.exact else (self.eps if self.noise is None else self.noise)
        if noise > self.eps:
            raise ValueError("noise must not exceed eps")
        base_sep = self.min_sep if self.min_sep is not None else max(2.1 * self.eps, 1.0e-3)
        box = self.box
        if box is None:
            # Loose random-packing bound so rejection sampling stays feasible.
            sep_p = base_sep + 2.0 * noise
            box = max(4.0 * sep_p, sep_p * (6.0 * self.m) ** (1.0 / 3.0) * 1.6)
            if self.exact:
                box = max(box, 12.0)
        clearance = self.clearance if self.clearance is not None else base_sep
        return replace(
            self,
            noise=noise,
            box=float(box),
            min_sep=base_sep,
            clearance=clearance,
        )


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform proper rotation from a normalized Gaussian quaternion."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


_MAX_REJECTS = 100_000


def _sample_point(rng, box: float, grid: bool, origin: np.ndarray | None = None) -> np.ndarray:
    if grid:
        pt = rng.integers(0, int(box) + 1, size=3).astype(np.float64)
    else:
        pt = rng.uniform(0.0, box, size=3)
    return pt if origin is None else pt + origin


def _fill_points(
    rng,
    count: int,
    box: float,
    grid: bool,
    sep: float,
    reject_collinear: bool,
    existing: list[np.ndarray] | None = None,
    clearance_from: list[np.ndarray] | None = None,
    clearance: float = 0.0,
    budget: list[int] | None = None,
    origin: np.ndarray | None = None,
) -> list[np.ndarray] | None:
    pts = list(existing) if existing else []
    added = 0
    while added < count:
        if budget is not None:
            budget[0] -= 1
            if budget[0] <= 0:
                return None
        cand = _sample_point(rng, box, grid, origin)
        if pts and min(np.linalg.norm(cand - p) for p in pts) <= sep:
            continue
        if clearance_from and min(
            np.linalg.norm(cand - p) for p in clearance_from
        ) <= clearance:
            continue
        if reject_collinear and _collinear_with_any_pair(cand, pts):
            continue
        pts.append(cand)
        added += 1
    return pts


def _collinear_with_any_pair(cand: np.ndarray, pts: list[np.ndarray]) -> bool:
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if is_collinear(pts[i], pts[j], cand, rel=1e-7):
                return True
    return False


def generate_instance(spec: GenSpec, seed: int) -> Instance:
    """Seeded planted instance with recorded truth.

    P is rejection-sampled to respect the separation (and, for exact
    instances, non-collinearity); a size-k subset is mapped by a random
    proper rigid motion and perturbed inside the noise ball; distractors
    respect Q's separation and the clearance from the planted images. When
    the brute-force guard applies, instances whose true optimum exceeds k
    are resampled.
    """
    g = spec.resolved()
    if g.k > min(g.m, g.n):
        raise ValueError("k must be at most min(m, n)")
    if g.m < 1 or g.n < 1:
        raise ValueError("m and n must be positive")
    for outer in range(64):
        rng = np.random.default_rng([seed, outer])
        budget = [_MAX_REJECTS]
        inst = _generate_once(g, rng, budget)
        if inst is None:
            continue
        if (
            g.lcp_guard
            and g.exact
            and g.k >= 3
            and g.m <= 14
            and g.n <= 14
        ):
            if exact_lcp_bruteforce(inst.P, inst.Q, tau=1e-9).lcp_size != g.k:
                continue
        return inst
    raise SpecInfeasible(f"could not realize {spec} after rejection budget")


def _generate_once(g: GenSpec, rng, budget) -> Instance | None:
    sep_p = g.min_sep + 2.0 * g.noise
    p_list = _fill_points(rng, g.m, g.box, g.exact, sep_p, g.exact, budget=budget)
    if p_list is None:
        return None
    P = np.array(p_list)
    planted = np.sort(rng.choice(g.m, size=g.k, replace=False))
    rot = random_rotation(rng)
    trans = rng.uniform(-g.box, g.box, size=3)
    motion = RigidMotion(rot, trans)

    images = motion.apply(P[planted])
    if g.noise > 0.0:
        dirs = rng.standard_normal((g.k, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = rng.uniform(0.0, g.noise, size=g.k)
        images = images + dirs * radii[:, None]

    q_list = [img for img in images]
    if g.exact and len(q_list) >= 3:
        trips = np.array(
            [(a, b, c) for a in range(g.k) for b in range(a + 1, g.k) for c in range(b + 1, g.k)],
            dtype=np.int64,
        )
        if len(trips) and collinear_mask(np.array(q_list), trips, rel=1e-7).any():
            return None
    # Distractors are sampled in a box surrounding the planted images.
    origin = images.min(axis=0) - 0.25 * g.box if g.k else np.zeros(3)
    filled = _fill_points(
        rng,
        g.n - g.k,
        g.box if g.k == 0 else 1.5 * g.box,
        False,
        g.min_sep,
        g.exact,
        existing=q_list,
        clearance_from=q_list[: g.k],
        clearance=g.clearance,
        budget=budget,
        origin=origin,
    )
    if filled is None:
        return None
    Q_unshuffled = np.array(filled)

    perm = rng.permutation(g.n)
    Q = np.empty_like(Q_unshuffled)
    Q[perm] = Q_unshuffled
    pairs = tuple(
        sorted((int(perm[i]), int(planted[i])) for i in range(g.k))
    )
    truth = Truth(motion=motion, pairs=pairs, k=g.k, noise=g.noise)
    inst = Instance(P=P, Q=Q, eps=g.eps, truth=truth)
    if not inst.tolerant() and g.eps > 0.0:
        return None
    return inst
