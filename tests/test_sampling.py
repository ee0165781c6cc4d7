import math
from itertools import combinations

import numpy as np
import pytest

from lcpmatch.errors import ConstructionFailed, TooLarge
from lcpmatch.sampling import (
    AllPairs,
    Expander,
    ExpanderGraph,
    Pigeonhole,
    estimate_lambda,
    materialize_pairs,
    pigeonhole_pairs,
    pigeonhole_partition,
    pigeonhole_triplets,
    random_regular_graph,
)

from conftest import random_points
from reference import dense_lambda, diam_k


# ---------------------------------------------------------------------------
# pigeonhole schemes
# ---------------------------------------------------------------------------


class TestPigeonholePairs:
    def test_n12_alpha3_counts(self):
        pairs = pigeonhole_pairs(12, 3)
        assert len(pairs) == 12  # 4 blocks of 3, C(3,2) each

    def test_alpha1_degenerate(self):
        assert pigeonhole_pairs(9, 1) == []

    @pytest.mark.parametrize("arity", [2, 3])
    @pytest.mark.parametrize("alpha", [0.5, 0.0, -1.0, math.inf, math.nan])
    def test_alpha_outside_one_to_inf_rejected(self, alpha, arity):
        with pytest.raises(ValueError, match="alpha"):
            pigeonhole_partition(12, alpha, arity)
        with pytest.raises(ValueError, match="alpha"):
            (pigeonhole_pairs if arity == 2 else pigeonhole_triplets)(12, alpha)

    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("alpha", [2, 3])
    def test_exhaustive_covering(self, n, alpha):
        pairs = set(pigeonhole_pairs(n, alpha))
        threshold = n / alpha
        for size in range(max(2, math.floor(threshold) + 1), n + 1):
            if size <= threshold:
                continue
            for subset in combinations(range(n), size):
                inside = set(subset)
                assert any(a in inside and b in inside for a, b in pairs), (n, alpha, subset)

    def test_count_bound(self):
        for n in range(2, 41):
            for alpha in (1, 1.5, 2, 2.5, 3, 4):
                assert len(pigeonhole_pairs(n, alpha)) <= alpha * n + alpha**2


class TestPigeonholeTriplets:
    def test_n12_alpha2_counts(self):
        trips = pigeonhole_triplets(12, 2)
        assert len(trips) == 12  # 3 blocks of 4, C(4,3) each

    def test_alpha1_blocks_of_two(self):
        assert pigeonhole_triplets(6, 1) == []

    @pytest.mark.parametrize("n", range(3, 11))
    def test_exhaustive_covering_alpha2(self, n):
        alpha = 2
        trips = set(pigeonhole_triplets(n, alpha))
        threshold = n / alpha
        for size in range(max(3, math.floor(threshold) + 1), n + 1):
            if size <= threshold:
                continue
            for subset in combinations(range(n), size):
                inside = set(subset)
                assert any(
                    a in inside and b in inside and c in inside for a, b, c in trips
                ), (n, subset)

    def test_count_bound(self):
        for n in range(3, 41):
            for alpha in (1, 1.5, 2, 2.5, 3, 4):
                bound = (4 / 3) * alpha**2 * n + (2 * alpha) ** 3
                assert len(pigeonhole_triplets(n, alpha)) <= bound


# ---------------------------------------------------------------------------
# expander graphs
# ---------------------------------------------------------------------------


class TestRandomRegularGraph:
    def test_k4_forced(self):
        g = random_regular_graph(4, 3, seed=1)
        assert sorted(g.edges) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        assert g.lambda_est == pytest.approx(1.0, abs=1e-3)

    def test_k33_rejected(self):
        # Seed 1's first graph is K3,3, bipartite, so its second eigenvalue
        # is 3 = d, inside 2*sqrt(3); the next derived seed gives a graph
        # with lambda below d.
        g = random_regular_graph(6, 3, seed=1)
        assert dense_lambda(g) < 3.0 - 1e-9
        assert g.lambda_est < 3.0 - 1e-9

    @pytest.mark.parametrize("n", [6, 8, 10, 12, 24])
    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_no_expander_at_degree_below_three(self, n, d):
        # Every 0-, 1- or 2-regular graph on an even number of vertices is
        # disconnected or an even cycle, so lambda = d.
        with pytest.raises(ConstructionFailed):
            random_regular_graph(n, d, seed=0)

    def test_lambda_below_degree_at_low_degrees(self):
        # 2*sqrt(d) >= d for d <= 4, so only the second test keeps out
        # disconnected and bipartite graphs there.
        for n in range(5, 14):
            for d in (2, 3, 4):
                if d >= n or (n * d) % 2:
                    continue
                for seed in range(30):
                    try:
                        g = random_regular_graph(n, d, seed=seed)
                    except ConstructionFailed:
                        continue
                    assert dense_lambda(g) < d - 1e-9, (n, d, seed)

    def test_parity_error(self):
        with pytest.raises(ValueError):
            random_regular_graph(5, 3, seed=0)

    def test_degree_bound(self):
        with pytest.raises(ValueError):
            random_regular_graph(4, 4, seed=0)

    def test_spectral_acceptance(self):
        g = random_regular_graph(100, 16, seed=7)
        assert g.lambda_est <= 2 * math.sqrt(16)
        degrees = np.zeros(100, int)
        for a, b in g.edges:
            degrees[a] += 1
            degrees[b] += 1
        assert (degrees == 16).all()

    def test_seeded_determinism(self):
        g1 = random_regular_graph(40, 6, seed=3)
        g2 = random_regular_graph(40, 6, seed=3)
        assert g1.edges == g2.edges


class TestEstimateLambda:
    def test_k4_known_spectrum(self):
        g = ExpanderGraph(4, 3, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)), 0.0)
        assert estimate_lambda(g) == pytest.approx(1.0, abs=1e-3)

    def test_c6_cycle(self):
        # Eigenvalues 2*cos(2*pi*k/6): the -2 branch dominates after deflation.
        edges = tuple((i, (i + 1) % 6) for i in range(6))
        g = ExpanderGraph(6, 2, edges, 0.0)
        assert estimate_lambda(g) == pytest.approx(2.0, abs=1e-3)

    def test_matches_dense_oracle_small(self):
        shapes = [(12, 4, seed) for seed in range(8)] + [(128, 16, 1), (512, 16, 1)]
        for n, d, seed in shapes:
            g = random_regular_graph(n, d, seed=seed)
            exact = dense_lambda(g)
            assert estimate_lambda(g) == pytest.approx(exact, rel=1e-9)

    def test_disconnected_reports_degree(self):
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        g = ExpanderGraph(6, 2, tuple(edges), 0.0)
        assert estimate_lambda(g) == 2.0


def loop_adjacency(g: ExpanderGraph) -> np.ndarray:
    """The adjacency matrix set one edge end at a time."""
    a = np.zeros((g.n, g.n))
    for i, j in g.edges:
        a[i, j] = 1.0
        a[j, i] = 1.0
    return a


class TestAdjacency:
    def test_equals_per_edge_loop(self):
        # The same bytes, so eigvalsh and every generated graph's lambda
        # are unchanged.
        shapes = ((4, 3, 1), (12, 4, 0), (40, 6, 3), (128, 16, 1))
        graphs = [random_regular_graph(n, d, seed) for n, d, seed in shapes]
        graphs.append(ExpanderGraph(6, 2, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)), 0.0))
        graphs.append(ExpanderGraph(3, 0, (), 0.0))
        for g in graphs:
            a = g.adjacency()
            assert a.dtype == np.float64 and a.shape == (g.n, g.n)
            assert a.tobytes() == loop_adjacency(g).tobytes()


def cross_edges(g, U, W) -> int:
    """|e(U, W)|, the edges with one end in U and the other in W, for disjoint U and W."""
    e = np.array(g.edges)
    u, w = np.isin(e, U), np.isin(e, W)
    return int(((u[:, 0] & w[:, 1]) | (w[:, 0] & u[:, 1])).sum())


class TestEdgesBetween:
    def test_mixing_inequality_with_exact_lambda(self, rng):
        g = random_regular_graph(48, 8, seed=5)
        lam = dense_lambda(g)
        n, d = g.n, g.d
        for _ in range(100):
            size_u = int(rng.integers(1, n // 2))
            size_w = int(rng.integers(1, n - size_u))
            perm = rng.permutation(n)
            U, W = perm[:size_u], perm[size_u : size_u + size_w]
            e_uw = cross_edges(g, U, W)
            assert abs(e_uw - d * size_u * size_w / n) <= lam * math.sqrt(size_u * size_w) + 1e-9

    def test_corollary_edge_between_large_sets(self, rng):
        g = random_regular_graph(64, 16, seed=9)
        lam = dense_lambda(g)
        floor_size = int(math.floor(lam * g.n / g.d)) + 1
        if 2 * floor_size > g.n:
            pytest.skip("corollary threshold exceeds n/2 for this graph")
        for _ in range(1000):
            perm = rng.permutation(g.n)
            U, W = perm[:floor_size], perm[floor_size : 2 * floor_size]
            assert cross_edges(g, U, W) >= 1


# ---------------------------------------------------------------------------
# pair sources
# ---------------------------------------------------------------------------


class TestPairSources:
    def test_all_pairs(self):
        pairs = materialize_pairs(AllPairs(), 5)
        assert len(pairs) == 10

    def test_pigeonhole_source(self):
        assert materialize_pairs(Pigeonhole(3), 12) == pigeonhole_pairs(12, 3)

    def test_expander_source_distinct_sorted(self):
        pairs = materialize_pairs(Expander(6, seed=4), 30)
        assert len(pairs) == 30 * 6 // 2
        assert all(i < j for i, j in pairs)
        assert pairs == sorted(pairs)
        assert all(type(i) is int and type(j) is int for i, j in pairs)

    def test_expander_saturates_to_complete(self):
        pairs = materialize_pairs(Expander(10**6, seed=0), 20)
        assert len(pairs) == 190

    def test_explicit_sequence_kept_in_order(self):
        pairs = ((3, 1), (0, 2), (3, 1))
        assert materialize_pairs(pairs, 4) == [(3, 1), (0, 2), (3, 1)]
        assert materialize_pairs(np.array(pairs), 4) == [(3, 1), (0, 2), (3, 1)]

    @pytest.mark.parametrize("pair", [(-1, 2), (2, -1), (0, 4), (4, 0)])
    def test_explicit_index_out_of_range(self, pair):
        with pytest.raises(ValueError):
            materialize_pairs([(0, 1), pair], 4)


# ---------------------------------------------------------------------------
# diam_k, criterion 6's brute-force oracle in reference.py
# ---------------------------------------------------------------------------


def diam_k_recursive(points, k):
    """Second, independent brute force: recursive single-point removals."""
    pts = [np.asarray(p, float) for p in points]
    if k == 0:
        return max(
            float(np.linalg.norm(a - b)) for a, b in combinations(pts, 2)
        )
    best = math.inf
    for drop in range(len(pts)):
        rest = pts[:drop] + pts[drop + 1 :]
        best = min(best, diam_k_recursive(rest, k - 1))
    return best


class TestDiamK:
    def test_k0_is_diameter(self, rng):
        S = random_points(rng, 9)
        d = S[:, None, :] - S[None, :, :]
        assert diam_k(S, 0) == pytest.approx(float(np.sqrt((d * d).sum(-1)).max()))

    def test_collinear_line(self):
        S = [[i, 0, 0] for i in range(10)]
        assert diam_k(S, 2) == pytest.approx(7.0)

    def test_matches_recursive_oracle(self, rng):
        S = random_points(rng, 12)
        assert diam_k(S, 3) == pytest.approx(diam_k_recursive(S, 3))

    def test_too_large_guard(self):
        S = np.random.default_rng(0).uniform(size=(40, 3))
        with pytest.raises(TooLarge):
            diam_k(S, 12)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            diam_k(np.eye(3), 3)
