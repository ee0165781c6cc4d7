"""The narrow kernels of the vote tally and the frame tests equal the generic
numpy code they replaced, bit for bit.

Each reference below is the replaced code, kept as the oracle:
np.unique(axis=0) for exact._group_rows, the per-(triplet, fourth point)
row form for exact._fourth_point_signs, np.linalg.norm for
geometry.axis_norms and the scalar frame tests, and
np.unique(return_inverse=True) for index._slots.
"""

from itertools import permutations

import numpy as np
import pytest

from lcpmatch.errors import DegenerateBasis
from lcpmatch.exact import (
    ExactParams,
    _congruent_rows,
    _congruent_triplets,
    _fourth_point_signs,
    _group_rows,
    _row_keys,
)
from lcpmatch.geometry import (
    COLLINEAR_REL,
    _triplet_frame,
    as_point,
    axis_norms,
    cross,
    is_collinear,
    pairwise_distances,
)
from lcpmatch.index import _slots

from test_geometry import same_bits
from test_pinned_outputs import EXACT_INSTANCES, exact_instance

SCALES = (1e-6, 1e-3, 1.0, 1e3, 1e6)


# ---------------------------------------------------------------------------
# motion keys grouped by bytes
# ---------------------------------------------------------------------------


def unique_rows_reference(keys):
    _, first, inverse, counts = np.unique(
        keys, axis=0, return_index=True, return_inverse=True, return_counts=True
    )
    return first, inverse.reshape(-1), counts


def assert_same_groups(keys):
    first, inverse, counts = _group_rows(keys)
    ref_first, ref_inverse, ref_counts = unique_rows_reference(keys)
    # Group g here is group to_ref[g] of np.unique, whose groups are in
    # numeric order; the map must be a bijection.
    to_ref = ref_inverse[first]
    assert sorted(to_ref.tolist()) == list(range(len(ref_first)))
    np.testing.assert_array_equal(ref_first[to_ref], first)
    np.testing.assert_array_equal(ref_counts[to_ref], counts)
    np.testing.assert_array_equal(to_ref[inverse], ref_inverse)


def pinned_keys():
    """The motion keys the tally groups on the pinned exact instances: the
    triplet matchers' (K, 12) keys, and ght_pair_based's (K, 13) rows of
    (position, key) over every ordered pair and over a list that repeats
    every sixth pair."""
    params = ExactParams()
    for m, k, seed in EXACT_INSTANCES:
        inst = exact_instance(m, k, seed)
        pp, qq = inst.P, inst.Q
        tq, tp = _congruent_triplets(pp, qq, params)
        yield _row_keys(pp, qq, tq, tp, params.motion_grid)
        every = np.argwhere(~np.eye(len(qq), dtype=bool))
        for ab in (every, np.concatenate([every[::2], every[::3]])):
            pos, tq, tp = _congruent_rows(pp, qq, ab, params.tau)
            yield np.column_stack([pos, _row_keys(pp, qq, tq, tp, params.motion_grid)])


def test_group_rows_on_pinned_keys():
    sizes = []
    for keys in pinned_keys():
        assert_same_groups(keys)
        sizes.append(len(keys))
    assert len(sizes) == 3 * len(EXACT_INSTANCES) and min(sizes) > 0


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("width", [12, 13])
def test_group_rows_on_duplicated_random_keys(seed, width):
    rng = np.random.default_rng(seed)
    # Few distinct rows, drawn many times; values of both signs, zeros and
    # integral floats past 2**63, which int64 keys could not hold.
    distinct = rng.integers(-3, 4, size=(30, width)).astype(np.float64)
    distinct[:5] *= 2.0**70
    keys = distinct[rng.integers(0, len(distinct), size=1500)] + 0.0
    assert_same_groups(keys)
    assert_same_groups(keys[:1])
    assert_same_groups(np.repeat(keys[:1], 7, axis=0))


# ---------------------------------------------------------------------------
# fourth-point signs once per triplet
# ---------------------------------------------------------------------------


def fourth_point_signs_reference(pts, d, trips):
    """Orientation sign of every (triplet, fourth point), one row per pair."""
    n = len(pts)
    i, j, k = np.repeat(trips, n, axis=0).T
    x = np.tile(np.arange(n), len(trips))
    a = pts[i]
    det = np.einsum("ij,ij->i", cross(pts[j] - a, pts[k] - a), pts[x] - a)
    scale = np.max([d[i, j], d[i, k], d[j, k], d[x, i], d[x, j], d[x, k]], axis=0)
    signs = np.sign(det)
    signs[np.abs(det) < COLLINEAR_REL * scale**3] = 0
    return signs.reshape(len(trips), n)


def sign_sets():
    """Random sets, quarter-grid sets, whose many coplanar quads have zero
    determinants, and nearly flat sets of spread sizes, whose quads straddle
    the zero band, so that each of the six distances sets some band; at
    scales 1e-6 to 1e6."""
    for seed in range(2):
        rng = np.random.default_rng(seed)
        for scale in SCALES:
            yield rng.uniform(-1.0, 1.0, size=(10, 3)) * scale
            yield rng.integers(0, 5, size=(10, 3)) * 0.25 * scale
            flat = rng.normal(size=(10, 3)) * 10.0 ** rng.uniform(0, 3, size=(10, 1))
            flat[:, 2] *= 10.0 ** rng.uniform(-10, -6, size=10)
            yield flat * scale


def test_fourth_point_signs_match_per_row_reference():
    entries = zeros = 0
    for pts in sign_sets():
        d = pairwise_distances(pts)
        trips = np.array(list(permutations(range(len(pts)), 3)))
        got = _fourth_point_signs(pts, d, trips)
        assert same_bits(got, fourth_point_signs_reference(pts, d, trips))
        entries, zeros = entries + got.size, zeros + int((got == 0).sum())
    assert entries == 216_000
    # Besides the triplets' own points, coplanar and nearly coplanar quads.
    assert zeros > 30 * 720 * 3


# ---------------------------------------------------------------------------
# norms without the dispatch
# ---------------------------------------------------------------------------


def test_axis_norms_equal_linalg_norm(rng):
    x = rng.normal(size=(20000, 3)) * 10.0 ** rng.uniform(-150, 150, size=(20000, 1))
    x[rng.random(x.shape) < 0.1] = 0.0
    x[:50] = -0.0
    assert same_bits(axis_norms(x), np.linalg.norm(x, axis=1))
    wide = rng.normal(size=(300, 7))
    assert same_bits(axis_norms(wide), np.linalg.norm(wide, axis=1))


def is_collinear_reference(a, b, c, rel=COLLINEAR_REL):
    pa, pb, pc = as_point(a), as_point(b), as_point(c)
    dmax = max(
        float(np.linalg.norm(pb - pa)),
        float(np.linalg.norm(pc - pa)),
        float(np.linalg.norm(pc - pb)),
    )
    if dmax == 0.0:
        return True
    area2 = float(np.linalg.norm(cross(pb - pa, pc - pa)))
    return area2 <= rel * dmax * dmax


def triplet_frame_reference(trip):
    """The frame of geometry._triplet_frame, or None where it raises."""
    a, b, c = trip
    ab, ac = b - a, c - a
    dmax = max(
        float(np.linalg.norm(ab)),
        float(np.linalg.norm(ac)),
        float(np.linalg.norm(c - b)),
    )
    nab = float(np.linalg.norm(ab))
    if dmax == 0.0 or nab <= COLLINEAR_REL * dmax:
        return None
    e1 = ab / nab
    h = ac - (ac @ e1) * e1
    nh = float(np.linalg.norm(h))
    if nh <= COLLINEAR_REL * dmax:
        return None
    e2 = h / nh
    return a, np.column_stack([e1, e2, cross(e1, e2)])


def frame_triplets(rng):
    """Random triplets at every scale, near-collinear ones about the
    threshold, and ones with coincident points."""
    for scale in SCALES:
        for _ in range(100):
            trip = rng.uniform(-1.0, 1.0, size=(3, 3)) * scale
            yield trip
            bent = trip.copy()
            bent[2] = trip[0] + 2.0 * (trip[1] - trip[0])
            bent[2] += rng.normal(size=3) * scale * 10.0 ** rng.uniform(-12, -7)
            yield bent
        yield np.zeros((3, 3))
        yield np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [scale, 0.0, 0.0]])


def test_scalar_frame_tests_equal_linalg_norm_forms(rng):
    both = 0
    for trip in frame_triplets(rng):
        assert is_collinear(*trip) == is_collinear_reference(*trip)
        want = triplet_frame_reference(trip)
        try:
            got = _triplet_frame(trip)
        except DegenerateBasis:
            assert want is None
            continue
        assert want is not None
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        both += 1
    assert both > 500


# ---------------------------------------------------------------------------
# small-int unique by a presence table
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_slots_equal_unique_inverse(seed):
    rng = np.random.default_rng(seed)
    size = 40
    # Repeated indices, and indices 0 <= x < size that never occur.
    x = rng.choice(rng.choice(size, size=12, replace=False), size=(25, 2))
    for arr in (x, x.reshape(-1), x[:1], x[:0]):
        used, slot = _slots(arr, size)
        want_used, want_slot = np.unique(arr, return_inverse=True)
        np.testing.assert_array_equal(used, want_used)
        assert slot.shape == arr.shape
        np.testing.assert_array_equal(slot.reshape(-1), want_slot.reshape(-1))
        np.testing.assert_array_equal(used[slot], arr)
