import numpy as np
import pytest

from lcpmatch.errors import TooFewPoints
from lcpmatch.geometry import triangle_key
from lcpmatch import index
from lcpmatch.index import (
    KeyIndex,
    build_pair_dict,
    build_triplet_index,
    ordered_triplets_and_keys,
)

from conftest import random_points


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

    def test_query_exact_hit_and_miss(self, rng):
        P = random_points(rng, 6)
        d = build_pair_dict(P)
        target = float(d.lengths[2])
        assert tuple(d.pairs[2]) in d.query_range(target, 0.0)
        assert d.query_range(float(d.lengths.min()) - 1.0, 0.5) == []

    def test_query_matches_linear_scan(self, rng):
        P = random_points(rng, 15)
        d = build_pair_dict(P)
        brute = brute_pairs(P)
        for _ in range(300):
            center = rng.uniform(0, d.lengths.max() * 1.1)
            slack = rng.uniform(0, 2.0)
            expected = sorted(p for p, l in brute if center - slack <= l <= center + slack)
            assert sorted(d.query_range(center, slack)) == expected

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
            assert np.allclose(k, triangle_key(P[t[0]], P[t[1]], P[t[2]]))

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


class TestKeyIndex:
    @pytest.mark.parametrize("cells", [index._JOIN_CELLS, 5])
    @pytest.mark.parametrize("slack", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("dim", [1, 3, 7])
    def test_join_matches_bruteforce_mask(self, rng, monkeypatch, dim, slack, cells):
        # A tiny cell budget forces one query per batch and split windows.
        monkeypatch.setattr(index, "_JOIN_CELLS", cells)
        for _ in range(20):
            # Integer keys repeat; half-integer queries sit on or off the slack edge.
            k = rng.integers(0, 4, size=(int(rng.integers(0, 60)), dim)).astype(float)
            q = rng.integers(-1, 9, size=(int(rng.integers(0, 40)), dim)) / 2.0
            qi, ki = KeyIndex(k).join(q, slack)
            bq, bk = np.nonzero((np.abs(q[:, None] - k[None]) <= slack).all(2))
            assert np.array_equal(qi, bq)
            assert np.array_equal(ki, bk)
