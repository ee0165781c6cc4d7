"""Ground-truth machinery: brute-force matching, verification, generators.

Everything here is deliberately simple and exact at desk scale: the
brute-force matcher finds congruent triplet bases by a window search over
sorted keys and counts every base motion's matches in one batched pass, the
bottleneck distance runs a maximum-bipartite-matching feasibility test per
candidate radius, and the instance generator rejects until its recorded
truth is the unique optimum it claims to be.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .errors import EmptySet, SizeMismatch, SpecInfeasible, TooLarge
from .geometry import (
    FloatArray,
    RigidMotion,
    as_points,
    collinear_mask,
    cross,
    motion_from_bases,
    motions_from_bases,
    nearest_matches,
    pairwise_distances,
    row_norms,
    tolerant_precondition,
)
from .index import ordered_triplets_and_keys
from .result import certify


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
    """Exact matched set of `motion` at finite `radius` >= 0, plus its injective resolution."""
    if not 0 <= radius < np.inf:
        raise ValueError("radius must be finite and >= 0")
    return VerifyResult(*certify(*nearest_matches(P, Q, motion, radius)))


# ---------------------------------------------------------------------------
# Brute-force matcher
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleResult:
    lcp_size: int
    motion: RigidMotion
    matched: tuple[tuple[int, int], ...]


# Cells (motions x scene points x model points) in one chunk of _match_counts.
_VERIFY_CELLS = 1 << 16


def exact_lcp_bruteforce(P, Q, tau: float = 1e-9) -> OracleResult:
    """Exact maximum matched-set size at tolerance tau, by full enumeration.

    Every congruent ordered triplet pair proposes a motion, and each motion's
    matches are counted by the test nearest_matches makes, in batches. The
    first motion at the top count wins over the degenerate floors (single
    points and pairs) and is rebuilt by motion_from_bases; the floors keep
    the answer exact below three points. An optimum of three or more points
    is assumed to span a non-collinear triplet, which planted generators
    guarantee.
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
        p_trips, p_keys = _noncollinear_triplets(pp)
        q_trips, q_keys = _noncollinear_triplets(qq)
        qi, pi = _congruent_pairs(q_keys, p_keys, tau)
        tq, tp = q_trips[qi], p_trips[pi]
        if len(tq):
            counts = _match_counts(pp, qq, *motions_from_bases(qq[tq], pp[tp]), tau)
            r = int(np.argmax(counts))
            if counts[r] > best_size:
                best_motion = motion_from_bases(qq[tq[r]], pp[tp[r]])
                pairs, _ = nearest_matches(pp, qq, best_motion, tau)
                best_size, best_matched = len(pairs), tuple(pairs)
    return OracleResult(best_size, best_motion, best_matched)


def _noncollinear_triplets(pts):
    """The ordered triplets and keys of ordered_triplets_and_keys, collinear ones dropped."""
    trips, keys = ordered_triplets_and_keys(pts)
    keep = ~collinear_mask(pts, trips)
    return trips[keep], keys[keep]


def _congruent_pairs(q_keys, p_keys, tau: float):
    """Rows (q, p) of keys within tau on all three lengths, by q then p.

    Each q key takes the window of p keys whose first length is within 2*tau
    plus a few ulps, a superset of the test, and keeps the rows that pass it.
    The search is kept apart from index.DistanceRows, the one it checks.
    """
    order = np.argsort(p_keys[:, 0], kind="stable")
    first = p_keys[order, 0]
    pad = 2.0 * tau + 4.0 * np.spacing(q_keys[:, 0])
    lo = np.searchsorted(first, q_keys[:, 0] - pad, side="left")
    width = np.maximum(np.searchsorted(first, q_keys[:, 0] + pad, side="right") - lo, 0)
    qi = np.repeat(np.arange(len(q_keys)), width)
    pi = order[np.arange(len(qi)) - np.repeat(np.cumsum(width) - width - lo, width)]
    keep = (np.abs(q_keys[qi] - p_keys[pi]) <= tau).all(axis=1)
    lex = np.lexsort((pi[keep], qi[keep]))
    return qi[keep][lex], pi[keep][lex]


def _match_counts(pp, qq, rot, tr, tau: float) -> np.ndarray:
    """Scene points each motion (rot[k], tr[k]) brings within tau of some model point."""
    counts = np.empty(len(rot), dtype=np.int64)
    step = max(1, _VERIFY_CELLS // (len(qq) * len(pp)))
    for s in range(0, len(rot), step):
        img = qq @ rot[s : s + step].transpose(0, 2, 1) + tr[s : s + step, None, :]
        diff = img[:, :, None, :] - pp
        near = np.sqrt((diff * diff).sum(axis=3).min(axis=2)) <= tau
        counts[s : s + step] = near.sum(axis=1)
    return counts


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
    if len(pp) == 0 or len(qq) == 0:
        raise EmptySet("bottleneck needs non-empty point sets")
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
# Most candidates _fill_points draws per Generator call; a larger block costs
# more in its (B, B) distance matrix than it saves in calls.
_BLOCK = 64


def _draw(rng, size: int, box: float, grid: bool) -> np.ndarray:
    """`size` candidate points: the same values, and the same generator state
    after, as `size` successive size-3 draws."""
    if grid:
        return rng.integers(0, int(box) + 1, size=(size, 3)).astype(np.float64)
    return rng.uniform(0.0, box, size=(size, 3))


def _fill_points(
    rng,
    count: int,
    box: float,
    grid: bool,
    sep: float,
    reject_collinear: bool,
    existing: np.ndarray | None = None,
    clearance_from: np.ndarray | None = None,
    clearance: float = 0.0,
    budget: list[int] | None = None,
    origin: np.ndarray | None = None,
) -> np.ndarray | None:
    """`existing` plus `count` sampled points as one (N, 3) array, or None past the budget.

    Candidates come in blocks of at most _BLOCK, each tested against the
    accepted points, the clearance set and itself in one pass. A walk in
    draw order then drops the candidates within `sep` of one accepted
    earlier in the block and, under `reject_collinear`, runs the
    collinearity test on the rest, until `count` points are in. Each candidate the walk consumes costs one unit
    of the budget. The generator is rewound to the block's start and redraws
    just those candidates, so the points, the budget left and every later
    draw are bit for bit those of drawing and testing one candidate at a
    time.
    """
    start = 0 if existing is None else len(existing)
    pts = np.empty((start + count, 3))
    if existing is not None:
        pts[:start] = existing
    near = np.empty((0, 3)) if clearance_from is None else clearance_from
    n = start
    while n < len(pts):
        state = rng.bit_generator.state
        size = min(_BLOCK, 2 * (len(pts) - n) + 8)
        cand = _draw(rng, size, box, grid)
        if origin is not None:
            cand = cand + origin
        # Distances by row_norms, the test one candidate at a time makes.
        # Columns: the points accepted before the block, the clearance set,
        # then the block itself.
        cols = np.concatenate([pts[:n], near, cand])
        d = row_norms((cand[:, None, :] - cols).reshape(-1, 3)).reshape(size, len(cols))
        ok = ~((d[:, :n] <= sep).any(axis=1) | (d[:, n : n + len(near)] <= clearance).any(axis=1))
        # The later candidates too close to each one, which its acceptance drops.
        ii, jj = np.nonzero(d[:, n + len(near) :] <= sep)
        later: dict[int, list[int]] = {}
        for i, j in zip(ii[ii < jj].tolist(), jj[ii < jj].tolist()):
            later.setdefault(i, []).append(j)
        ok = ok.tolist()
        used = size
        for i in range(size):
            if not ok[i] or (reject_collinear and _collinear_with_any_pair(cand[i], pts[:n])):
                continue
            pts[n] = cand[i]
            n += 1
            if n == len(pts):
                used = i + 1
                break
            for j in later.get(i, ()):
                ok[j] = False
        if budget is not None:
            budget[0] -= used
            if budget[0] <= 0:
                return None
        if used < size:
            rng.bit_generator.state = state
            _draw(rng, used, box, grid)
    return pts


def _collinear_with_any_pair(cand: np.ndarray, pts: np.ndarray) -> bool:
    """Whether cand is collinear with some pair pts[i], pts[j], i < j, by the
    test of geometry.collinear_mask at rel=1e-7: the triangle's height above
    its longest side is at most 1e-7 times that side."""
    i, j = np.triu_indices(len(pts), k=1)
    ab, ac = pts[j] - pts[i], cand - pts[i]
    dmax = np.maximum(np.maximum(row_norms(ab), row_norms(ac)), row_norms(cand - pts[j]))
    return bool((row_norms(cross(ab, ac)) <= 1e-7 * dmax * dmax).any())


def generate_instance(spec: GenSpec, seed: int) -> Instance:
    """Seeded planted instance with recorded truth.

    P is rejection-sampled to respect the separation (and, for exact
    instances, non-collinearity); a size-k subset is mapped by a random
    proper rigid motion and perturbed inside the noise ball; distractors
    respect Q's separation and the clearance from the planted images. When
    the brute-force guard applies, instances whose true optimum exceeds k
    are resampled. _fill_points draws the candidates in blocks, walks each
    block in draw order and rewinds the generator to the last candidate it
    used, so an instance is bit-identical to one sampled a candidate at a
    time.
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
    P = _fill_points(rng, g.m, g.box, g.exact, sep_p, g.exact, budget=budget)
    if P is None:
        return None
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

    if g.exact and g.k >= 3:
        trips = np.array(list(combinations(range(g.k), 3)), dtype=np.int64)
        if collinear_mask(images, trips, rel=1e-7).any():
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
        existing=images,
        # A clearance <= min_sep rejects nothing that `existing` keeps.
        clearance_from=images if g.clearance > g.min_sep else None,
        clearance=g.clearance,
        budget=budget,
        origin=origin,
    )
    if filled is None:
        return None

    perm = rng.permutation(g.n)
    Q = np.empty_like(filled)
    Q[perm] = filled
    pairs = tuple(sorted((int(perm[i]), int(planted[i])) for i in range(g.k)))
    truth = Truth(motion=motion, pairs=pairs, k=g.k, noise=g.noise)
    inst = Instance(P=P, Q=Q, eps=g.eps, truth=truth)
    if not inst.tolerant() and g.eps > 0.0:
        return None
    return inst
