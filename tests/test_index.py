import itertools

import numpy as np
import pytest

from lcpmatch.errors import TooFewPoints
from lcpmatch.geometry import pairwise_distances
from lcpmatch import index
from lcpmatch.index import (
    DistanceRows,
    build_pair_dict,
    build_triplet_index,
    ordered_triplets_and_keys,
)

from conftest import random_points
from reference import pair_rows


def brute_pairs(P):
    out = []
    for i in range(len(P)):
        for j in range(i + 1, len(P)):
            out.append(((i, j), float(np.linalg.norm(P[i] - P[j]))))
    return out


UNIT_CUBE = np.array(
    [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], dtype=float
)


class TestPairDict:
    def test_three_points(self):
        d = build_pair_dict(np.eye(3))
        assert len(d) == 3

    def test_cube_lengths(self):
        d = build_pair_dict(UNIT_CUBE)
        assert len(d) == 28
        values, counts = np.unique(np.round(d.lengths, 12), return_counts=True)
        assert np.allclose(values, [1.0, np.sqrt(2), np.sqrt(3)])
        assert list(counts) == [12, 12, 4]

    def test_matches_bruteforce_enumeration(self, rng):
        P = random_points(rng, 12)
        d = build_pair_dict(P)
        stored = {tuple(int(x) for x in p): l for p, l in zip(d.pairs, d.lengths)}
        brute = dict(brute_pairs(P))
        assert stored.keys() == brute.keys()
        for pair, length in brute.items():
            assert stored[pair] == pytest.approx(length, abs=1e-12)

    def test_too_few(self):
        with pytest.raises(TooFewPoints):
            build_pair_dict([[0, 0, 0]])


class TestTripletIndex:
    def test_three_points_six_orderings(self):
        idx = build_triplet_index(np.eye(3))
        assert len(idx) == 6

    def test_four_points_24(self, rng):
        idx = build_triplet_index(random_points(rng, 4))
        assert len(idx) == 24

    def test_keys_match_definition(self, rng):
        P = random_points(rng, 6)
        trips, keys = ordered_triplets_and_keys(P)
        for t, k in zip(trips, keys):
            # (|ab|, |ac|, |bc|) of the triplet (a, b, c).
            assert np.allclose(k, np.linalg.norm(P[t[[1, 2, 2]]] - P[t[[0, 0, 1]]], axis=1))

    def test_box_query_exact_hit(self, rng):
        P = random_points(rng, 7)
        idx = build_triplet_index(P)
        _, keys = ordered_triplets_and_keys(P)
        row = 17
        assert row in idx.query_box_indices(keys[row], 0.0)

    def test_box_query_miss(self, rng):
        P = random_points(rng, 7)
        idx = build_triplet_index(P)
        assert len(idx.query_box_indices(np.array([-100.0, -100.0, -100.0]), 1.0)) == 0

    def test_box_query_matches_linear_scan(self, rng):
        P = random_points(rng, 9)
        idx = build_triplet_index(P)
        _, keys = ordered_triplets_and_keys(P)
        for _ in range(1000):
            center = rng.uniform(0, keys.max() * 1.1, size=3)
            slack = float(rng.uniform(0, 3.0))
            mask = (np.abs(keys - center) <= slack).all(axis=1)
            assert np.array_equal(idx.query_box_indices(center, slack), np.flatnonzero(mask))

    def test_slab_rows_match_linear_scan(self, rng):
        # Integer points repeat lengths, and bounds drawn from the first
        # keys sit exactly on the first key of some rows.
        P = rng.integers(0, 4, size=(9, 3)).astype(float)
        idx = build_triplet_index(P)
        _, keys = ordered_triplets_and_keys(P)
        values = np.unique(keys[:, 0])
        for _ in range(300):
            lo, hi = np.sort(rng.choice(values, size=2))
            want = np.flatnonzero((lo <= keys[:, 0]) & (keys[:, 0] <= hi))
            assert np.array_equal(idx.slab_rows(lo, hi), want)
            # Bounds one ulp inside drop exactly the rows on them.
            inner = idx.slab_rows(np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf))
            assert np.array_equal(inner, want[(keys[want, 0] != lo) & (keys[want, 0] != hi)])
        assert len(idx.slab_rows(-2.0, -1.0)) == 0


def brute_rows(dp, dq, src, lengths, slack):
    """(pos, q, i, j, p) of DistanceRows.query from each pair's brute-force pair_rows."""
    return sorted(
        (pos, q, i, j, p)
        for pos, ((a, b), length) in enumerate(zip(src.tolist(), lengths.tolist()))
        for i, j, q, p in pair_rows(dp, dq, a, b, length, slack)
    )


def query_rows(P, Q, src, lengths, slack):
    """DistanceRows.query as (pos, q, i, j, p) tuples, checked to come in
    (pos, i, j, q, p) order."""
    search = DistanceRows(P)
    pos, q, i, j, p = search.query(pairwise_distances(Q), src, lengths, slack)
    assert all(x.dtype == np.int64 for x in (pos, q, i, j, p))
    order = list(zip(*(x.tolist() for x in (pos, i, j, q, p))))
    assert order == sorted(set(order))
    return sorted(zip(*(x.tolist() for x in (pos, q, i, j, p))))


@pytest.fixture(params=[False, True], ids=["default_chunks", "one_row_chunks"])
def chunks(request, monkeypatch):
    # One byte of model cells per float compare and one slab pair per AND.
    if request.param:
        monkeypatch.setattr(index, "_MASK_CELLS", 1)


def brute_masks(dp, dq, points, slack):
    """DistanceRows._masks unpacked to (points x model rows, n, bits padded
    to whole bytes), cell by cell."""
    m, n = len(dp), len(dq)
    bits = np.zeros((len(points), m, n, (m + 7) // 8 * 8), dtype=bool)
    for u, a in enumerate(points.tolist()):
        for i, q, p in itertools.product(range(m), range(n), range(m)):
            bits[u, i, q, p] = abs(dp[i, p] - dq[a, q]) <= slack and p != i and q != a
    return bits.reshape(-1, n, bits.shape[3])


class TestMasks:
    # Budgets of one byte of model cells, of blocks that split model rows,
    # of several scene values with a short last block, and the default.
    @pytest.mark.parametrize("cells", [1, 40, 500, index._MASK_CELLS])
    @pytest.mark.parametrize("m", [7, 8, 9, 17])
    def test_masks_match_per_cell_bruteforce(self, rng, monkeypatch, m, cells):
        monkeypatch.setattr(index, "_MASK_CELLS", cells)
        P = random_points(rng, m)
        # Copies of P give bit-equal distances at slack 0.
        Q = np.vstack([P[[2, 0, 5]], random_points(rng, 6)])
        dp, dq = pairwise_distances(P), pairwise_distances(Q)
        points = np.array([0, 2, 3, 8])
        width = (m + 7) // 8
        # At an infinite slack every compare passes, so the mask is exactly
        # the exclusions q == points[u] and p == i and the padding bits.
        for slack in (0.0, 1.5, 10.0, np.inf):
            masks = DistanceRows(P)._masks(dq, points, slack)
            assert masks.dtype == np.uint8
            assert masks.shape == (len(points) * m, len(Q), width)
            got = np.unpackbits(masks, axis=2, bitorder="little").astype(bool)
            want = brute_masks(dp, dq, points, slack)
            assert np.array_equal(got, want)
            if slack == 0.0:
                assert want.any()
        assert got.sum() == len(points) * m * (len(Q) - 1) * (m - 1)


class TestDistanceRows:
    @pytest.mark.parametrize("m", [2, 3, 7, 8, 9, 16, 65, 70])
    @pytest.mark.parametrize("n", [2, 9])
    def test_query_matches_bruteforce(self, rng, chunks, m, n):
        P = random_points(rng, m)
        # Half of Q copies points of P, so that slack 0 finds bit-equal keys.
        copies = min(m, n // 2)
        Q = np.vstack([P[rng.permutation(m)[:copies]], random_points(rng, n - copies)])
        dq = pairwise_distances(Q)
        pairs = rng.integers(0, n, size=(6, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        # A repeated pair, the same pair reversed, and one with an empty slab.
        src = np.vstack([pairs, [[0, 1], [0, 1], [1, 0], [1, 0]]])
        lengths = dq[src[:, 0], src[:, 1]]
        lengths[-1] = 1e6
        for slack in (0.0, 0.3, 1.5):
            want = brute_rows(pairwise_distances(P), dq, src, lengths, slack)
            assert query_rows(P, Q, src, lengths, slack) == want
            if slack == 1.5 and m >= 7 and n > 2:
                assert len(want) > 0

    @pytest.mark.parametrize("slack", [0.0, 1.0, 2.0])
    def test_keys_on_the_slack_boundary(self, chunks, slack):
        # Integer distances put many keys exactly at +-slack in every
        # coordinate. Scene points 1 apart pass |aq| <= slack, so p = i and
        # p = j pass every other test and must be excluded by index.
        P = np.array([[x, 0.0, 0.0] for x in (0, 1, 2, 4, 5, 7, 8, 9, 11, 14, 15)])
        Q = np.array([[x, 0.0, 0.0] for x in (3, 4, 5, 7, 10, 11, 13)])
        n = len(Q)
        src = np.array([(a, b) for a in range(n) for b in range(n) if a != b])
        dq = pairwise_distances(Q)
        for lengths in (dq[src[:, 0], src[:, 1]], np.full(len(src), 3.0 + slack)):
            want = brute_rows(pairwise_distances(P), dq, src, lengths, slack)
            assert len(want) > 100
            assert query_rows(P, Q, src, lengths, slack) == want

    def test_slab_is_closed(self):
        P = np.array([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]])
        search = DistanceRows(P)
        assert search.lengths.tolist() == [1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
        lo, hi = search.slab(np.array([2.0, 1.5, 4.5, 0.0]), 1.0)
        assert (hi - lo).tolist() == [6, 4, 0, 2]
        by_length = [[0, 1], [1, 0], [1, 2], [2, 1], [0, 2], [2, 0]]
        assert search.pairs[lo[0] : hi[0]].tolist() == by_length
