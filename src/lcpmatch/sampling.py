"""Deterministic pair/triplet sampling schemes and expander pair sources.

Pigeonhole sampling partitions the index set into consecutive blocks and
emits all within-block pairs (or triplets): any unknown subset larger than
n/alpha must put two (three) points into one block, so some emitted pair
(triplet) lands inside it. Blocks are balanced to sizes >= ceil(alpha)
(>= ceil(2*alpha) for triplets); keeping the block count at most
floor(n / block_size) is what makes the covering guarantee hold for ragged n.

Expander pair sources realize "well-spread pairs" as random regular graphs
whose second eigenvalue is computed by a dense symmetric eigensolver after
generation; generation retries with derived seeds until it clears 2*sqrt(d)
and lies below d by more than the solver's rounding.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .errors import ConstructionFailed


# ---------------------------------------------------------------------------
# Pair sources
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AllPairs:
    """Every index pair (i < j)."""


@dataclass(frozen=True)
class Pigeonhole:
    """Within-block pairs of a balanced block partition."""

    alpha: float


@dataclass(frozen=True)
class Expander:
    """Edge set of a verified random regular graph (complete graph if d >= n-1)."""

    degree: int
    seed: int


PairSource = AllPairs | Pigeonhole | Expander


def materialize_pairs(
    source: PairSource | Sequence[tuple[int, int]], n: int
) -> list[tuple[int, int]]:
    """Concrete index pairs over {0, ..., n-1}.

    A pair source gives its (i < j) pairs. Any other sequence of (a, b)
    pairs is taken as is, in its order; an index outside [0, n) raises
    ValueError.
    """
    if isinstance(source, AllPairs):
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    if isinstance(source, Pigeonhole):
        return pigeonhole_pairs(n, source.alpha)
    if isinstance(source, Expander):
        if source.degree >= n - 1:
            # A nominal degree at or past n-1 degenerates to the complete graph.
            return [(i, j) for i in range(n) for j in range(i + 1, n)]
        return list(random_regular_graph(n, source.degree, source.seed).edges)
    pairs = [(operator.index(a), operator.index(b)) for a, b in source]
    bad = [p for p in pairs if not (0 <= p[0] < n and 0 <= p[1] < n)]
    if bad:
        raise ValueError(f"pair {bad[0]} has an index outside [0, {n})")
    return pairs


# ---------------------------------------------------------------------------
# Pigeonhole partitions
# ---------------------------------------------------------------------------


def _balanced_partition(n: int, block_size: int) -> tuple[tuple[int, ...], ...]:
    """At most floor(n / block_size) consecutive blocks of near-equal size
    >= block_size, covering {0, ..., n-1}."""
    if n <= 0:
        return ()
    count = max(1, n // block_size)
    bounds = [round(i * n / count) for i in range(count + 1)]
    return tuple(tuple(range(bounds[i], bounds[i + 1])) for i in range(count))


def pigeonhole_partition(n: int, alpha: float, arity: int = 2) -> tuple[tuple[int, ...], ...]:
    """Blocks of the partition backing the pair (arity=2) or triplet (arity=3) scheme."""
    if not 1 <= alpha < math.inf:
        raise ValueError("alpha must be finite and >= 1")
    size = math.ceil(alpha) if arity == 2 else math.ceil(2 * alpha)
    return _balanced_partition(n, max(1, size))


def pigeonhole_pairs(n: int, alpha: float) -> list[tuple[int, int]]:
    """All within-block pairs; any I with |I| > n/alpha contains one of them."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [c for block in pigeonhole_partition(n, alpha, arity=2) for c in combinations(block, 2)]


def pigeonhole_triplets(n: int, alpha: float) -> list[tuple[int, int, int]]:
    """All within-block triplets; any I with |I| > n/alpha holds three in a block."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [c for block in pigeonhole_partition(n, alpha, arity=3) for c in combinations(block, 3)]


# ---------------------------------------------------------------------------
# Random regular graphs and spectral estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ExpanderGraph:
    """Simple d-regular graph; lambda_est is its second eigenvalue, from
    estimate_lambda, exact up to a rounding of about n * d * 1e-16."""

    n: int
    d: int
    edges: tuple[tuple[int, int], ...]
    lambda_est: float

    def adjacency(self) -> np.ndarray:
        """The dense symmetric 0/1 adjacency matrix."""
        a = np.zeros((self.n, self.n))
        # Row k of e is end k of every edge; fromiter takes half the time
        # of np.array on the tuples.
        e = np.fromiter(chain.from_iterable(self.edges), np.int64, 2 * len(self.edges))
        e = e.reshape(-1, 2).T
        a[e, e[::-1]] = 1.0
        return a


def _pairing_attempt(n: int, d: int, rng: np.random.Generator) -> set[tuple[int, int]] | None:
    """One run of the stub-pairing model, rejecting loops and repeats locally.

    Stubs that would create a self-loop or a duplicate edge are thrown back
    and re-shuffled; returns None when the leftover stubs cannot possibly be
    paired, so the caller restarts.
    """
    edges: set[tuple[int, int]] = set()
    stubs = list(range(n)) * d
    passes = 0
    while stubs:
        passes += 1
        if passes > 200 * max(d, 1):
            return None
        rng.shuffle(stubs)
        leftover: list[int] = []
        it = iter(stubs)
        for s1, s2 in zip(it, it):
            if s1 > s2:
                s1, s2 = s2, s1
            if s1 == s2 or (s1, s2) in edges:
                leftover.extend((s1, s2))
            else:
                edges.add((s1, s2))
        if len(leftover) == len(stubs):
            uniq = sorted(set(leftover))
            rescuable = any(
                (a, b) not in edges
                for k, a in enumerate(uniq)
                for b in uniq[k + 1 :]
            )
            if not rescuable:
                return None
        stubs = leftover
    return edges


# Derived seeds that random_regular_graph tries before it gives up.
_MAX_RETRIES = 32


def random_regular_graph(n: int, d: int, seed: int) -> ExpanderGraph:
    """Seeded simple d-regular graph whose second eigenvalue is at most 2*sqrt(d)
    and below d by more than estimate_lambda's rounding of n * d * 1e-16.

    For d <= 4, 2*sqrt(d) >= d admits lambda = d, a disconnected or
    bipartite graph, so the second test is what certifies an expander there;
    d = 0, d = 1 and d = 2 at even n can never pass it. Regenerates from
    derived seeds until estimate_lambda clears both; raises
    ConstructionFailed after _MAX_RETRIES seeds.
    """
    if not 0 <= d < n:
        raise ValueError("degree must satisfy 0 <= d < n")
    if (n * d) % 2 != 0:
        raise ValueError("n * d must be even for a d-regular graph")
    bound = 2.0 * math.sqrt(d)
    for attempt in range(_MAX_RETRIES):
        rng = np.random.default_rng([seed, attempt])
        edges = None
        for _ in range(64):
            edges = _pairing_attempt(n, d, rng)
            if edges is not None:
                break
        if edges is None:
            continue
        g = ExpanderGraph(n, d, tuple(sorted(edges)), 0.0)
        lam = estimate_lambda(g)
        if lam <= bound and lam < d - n * d * 1e-16:
            return ExpanderGraph(n, d, g.edges, lam)
    raise ConstructionFailed(
        f"no {d}-regular graph on {n} vertices with lambda <= {bound:.3f} and below {d}"
        f" in {_MAX_RETRIES} tries"
    )


def _connected(n: int, edges) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    return bool(seen.all())


def estimate_lambda(g: ExpanderGraph) -> float:
    """Largest |eigenvalue| of the adjacency matrix after one copy of the top one.

    The spectrum comes from np.linalg.eigvalsh of the dense adjacency
    matrix, so the value is exact up to its rounding, about n * d * 1e-16.
    A connected d-regular graph has top eigenvalue d once. Disconnected
    graphs report exactly d (their true second eigenvalue, which
    random_regular_graph rejects at every d).
    """
    if g.n <= 1:
        return 0.0
    if not _connected(g.n, g.edges):
        return float(g.d)
    eig = np.linalg.eigvalsh(g.adjacency())  # ascending
    return float(np.abs(eig[:-1]).max())
