"""The narrow kernels of the vote tally, the frame tests and the DA sweep
equal, bit for bit, the reference forms in reference.py: np.unique(axis=0)
for exact._group_rows, the per-(triplet, fourth point) row form for
exact._fourth_point_signs, collinear_mask and motions_from_bases for the
one measure of each congruent row's triangles (exact._triangles, _motions
and _congruent_rows), np.linalg.norm for geometry.axis_norms,
geometry.collinear_mask and the scalar frame test, np.unique(return_inverse=True) for index._slots, float
modulo for da._wrap_all and da._split, and the brute-force sweep and the
screen's loop over it for da._stab and da._screen.
"""

from itertools import permutations

import numpy as np
import pytest

from lcpmatch import da
from lcpmatch.errors import DegenerateBasis
from lcpmatch.exact import (
    ExactParams,
    _congruent_rows,
    _congruent_triplets,
    _fourth_point_signs,
    _group_rows,
    _motions,
    _row_keys,
    _triangles,
)
from lcpmatch.geometry import (
    TWO_PI,
    _triplet_frame,
    axis_norms,
    collinear_mask,
    motions_from_bases,
    pairwise_distances,
)
from lcpmatch.index import DistanceRows, _slots

import reference
from reference import (
    DEGENERATE_TRIPLETS,
    EXACT_INSTANCES,
    cyl_arcs,
    exact_instance,
    fourth_point_signs,
    kernel_bounds,
    pinned_screens,
    random_bases,
    random_row_sets,
    same_bits,
    screen,
    split,
    stab,
    tables,
    triplet_frame,
    unique_rows,
    wrap,
)

SCALES = (1e-6, 1e-3, 1.0, 1e3, 1e6)


# ---------------------------------------------------------------------------
# motion keys grouped by bytes
# ---------------------------------------------------------------------------


def assert_same_groups(keys):
    first, inverse, counts = _group_rows(keys)
    ref_first, ref_inverse, ref_counts = unique_rows(keys)
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
        yield _row_keys(_congruent_triplets(pp, qq, params)[2])
        every = np.argwhere(~np.eye(len(qq), dtype=bool))
        for ab in (every, np.concatenate([every[::2], every[::3]])):
            pos, _, _, tri, _, _ = _congruent_rows(pp, qq, ab, params.tau)
            yield np.column_stack([pos, _row_keys(tri)])


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
        normal = _triangles(pts, trips)[0][5]
        got = _fourth_point_signs(pts, d, trips, normal)
        assert same_bits(got, fourth_point_signs(pts, d, trips))
        entries, zeros = entries + got.size, zeros + int((got == 0).sum())
    assert entries == 216_000
    # Besides the triplets' own points, coplanar and nearly coplanar quads.
    assert zeros > 30 * 720 * 3


# ---------------------------------------------------------------------------
# both triangles of a congruent row measured once
# ---------------------------------------------------------------------------


def measured(q_trips, p_trips):
    """_triangles of (K, 3, 3) scene triplets, then model triplets, in one pass."""
    pts = np.concatenate([q_trips, p_trips]).reshape(-1, 3)
    return _triangles(pts, np.arange(len(pts)).reshape(-1, 3))


def test_triangles_flag_as_collinear_mask_and_build_motions(rng):
    trips = np.stack(list(frame_triplets(rng)))
    _, collinear = measured(trips, trips)
    flat = np.arange(3 * len(trips)).reshape(-1, 3)
    want = collinear_mask(trips.reshape(-1, 3), flat)
    assert np.array_equal(collinear, np.concatenate([want, want]))
    # Near-collinear triplets fall on both sides of the threshold.
    assert 100 < want.sum() < len(trips) - 500
    # Each kept triplet as the scene side of a row, a shuffled one as the model side.
    q = trips[~want]
    p = q[rng.permutation(len(q))]
    tri, collinear = measured(q, p)
    assert not collinear.any()
    rot, tr = _motions(tri)
    want_rot, want_tr = motions_from_bases(q, p)
    assert same_bits(rot, want_rot) and same_bits(tr, want_tr)


@pytest.mark.parametrize("bad", DEGENERATE_TRIPLETS)
def test_degenerate_triplets_flagged_and_refused(bad):
    good = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    bad = np.array(bad)
    for q, p in (([good, bad], [good, good]), ([good, good], [good, bad])):
        tri, collinear = measured(np.stack(q), np.stack(p))
        flat = np.arange(12).reshape(-1, 3)
        assert np.array_equal(collinear, collinear_mask(np.concatenate(q + p), flat))
        assert collinear.sum() == 1
        with pytest.raises(DegenerateBasis):
            _motions(tri)


def row_instances():
    """(pp, qq, ab, tau) of the pinned exact instances, over every ordered
    pair and over a list that repeats every sixth pair, and of quarter-grid
    sets at every scale, whose collinear and coincident triplets drop rows."""
    for m, k, seed in EXACT_INSTANCES:
        inst = exact_instance(m, k, seed)
        every = np.argwhere(~np.eye(len(inst.Q), dtype=bool))
        for ab in (every, np.concatenate([every[::2], every[::3]])):
            yield inst.P, inst.Q, ab, 1e-9
    for seed in range(2):
        rng = np.random.default_rng(seed)
        for scale in SCALES:
            pp, qq = (rng.integers(0, 3, size=(9, 3)) * 0.25 * scale for _ in range(2))
            yield pp, qq, np.argwhere(~np.eye(len(qq), dtype=bool)), 1e-9 * scale


def test_congruent_rows_measure_each_triangle_once():
    dropped = 0
    for pp, qq, ab, tau in row_instances():
        pos, tq, tp, tri, dq, dp = _congruent_rows(pp, qq, ab, tau)
        for got, want in zip((pos, tq, tp), reference.congruent_rows(pp, qq, ab, tau)):
            np.testing.assert_array_equal(got, want)
        assert same_bits(dq, pairwise_distances(qq)) and same_bits(dp, pairwise_distances(pp))
        rot, tr = _motions(tri)
        want_rot, want_tr = motions_from_bases(qq[tq], pp[tp])
        assert same_bits(rot, want_rot) and same_bits(tr, want_tr)
        # Geometric hashing's signs off the pass's normals.
        q_normal, p_normal = tri[5][: len(tq)], tri[5][len(tq) :]
        assert same_bits(_fourth_point_signs(qq, dq, tq, q_normal), fourth_point_signs(qq, dq, tq))
        assert same_bits(_fourth_point_signs(pp, dp, tp, p_normal), fourth_point_signs(pp, dp, tp))
        dropped += len(DistanceRows(pp).query(dq, ab, dq[ab[:, 0], ab[:, 1]], tau)[0]) - len(pos)
    assert dropped > 1000


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


def frame_triplets(rng):
    """Random triplets at every scale, near-collinear ones about the
    threshold, with the middle point second or first (then |bc| is the
    longest side), and ones with coincident points."""
    for scale in SCALES:
        for _ in range(100):
            trip = rng.uniform(-1.0, 1.0, size=(3, 3)) * scale
            yield trip
            bent = trip.copy()
            bent[2] = trip[0] + 2.0 * (trip[1] - trip[0])
            bent[2] += rng.normal(size=3) * scale * 10.0 ** rng.uniform(-12, -7)
            yield bent
            yield bent[[1, 0, 2]]
        yield np.zeros((3, 3))
        yield np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [scale, 0.0, 0.0]])


def test_scalar_frame_tests_equal_linalg_norm_forms(rng):
    both = 0
    for trip in frame_triplets(rng):
        assert collinear_mask(trip, np.array([[0, 1, 2]]))[0] == reference.is_collinear(*trip)
        want = triplet_frame(trip)
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


# ---------------------------------------------------------------------------
# angles wrapped without float modulo
# ---------------------------------------------------------------------------


def near(values, ulps=40):
    """Each value and its `ulps` float neighbours on either side."""
    out = [np.asarray(values, dtype=np.float64)]
    for direction in (np.inf, -np.inf):
        x = out[0]
        for _ in range(ulps):
            x = np.nextafter(x, direction)
            out.append(x)
    return np.concatenate(out)


def test_wrap_all_equals_float_modulo(rng):
    marks = np.pi * np.array([0.0, 0.5, 1.0, 2.0, 3.0, 3.5])
    edges = near(np.concatenate([marks, -marks, [-0.0, 1e-300, -1e-300, 5e-324, -5e-324]]))
    for theta in (
        rng.uniform(-3 * np.pi, 3 * np.pi, 400_000),
        np.nextafter(rng.uniform(-4 * np.pi, 4 * np.pi, 400_000), 0.0),
        # Tiny values of both signs; a negative one plus 2*pi rounds to 2*pi.
        rng.uniform(-1, 1, 20_000) * 10.0 ** rng.uniform(-300, 0, 20_000),
        edges,
    ):
        assert same_bits(da._wrap_all(theta), wrap(theta))
    # Only +0.0 comes out for a zero.
    assert not np.signbit(da._wrap_all(np.array([-0.0, 0.0, TWO_PI, -TWO_PI]))).any()


def test_split_equals_float_modulo(rng):
    starts = np.concatenate([rng.uniform(0, TWO_PI, 200_000), near([0.0, np.pi, TWO_PI - 1e-15])])
    starts = wrap(starts)
    for ends in (
        wrap(rng.uniform(0, TWO_PI, len(starts))),
        starts,
        # An end one ulp below its start covers all of the circle but that ulp.
        np.nextafter(starts, -np.inf),
        np.nextafter(starts, np.inf),
        wrap(starts + rng.choice([-1e-15, 1e-15, np.pi, -np.pi], len(starts))),
    ):
        ends = np.clip(ends, 0.0, np.nextafter(TWO_PI, 0))
        owner = np.arange(len(starts))
        got, want = da._split(owner, starts, ends), split(owner, starts, ends)
        np.testing.assert_array_equal(got[0], want[0])
        assert same_bits(got[1], want[1]) and same_bits(got[2], want[2])


# ---------------------------------------------------------------------------
# one set of pieces per screen chunk
# ---------------------------------------------------------------------------


def test_screen_equals_per_call_sweeps_on_recorded_screens():
    # The screen of every base from the recorded call's floor and from 0,
    # on the reference's arcs of the recorded rows and the kernel's bounds.
    calls = rows = 0
    for qq, args, pairs, bases in pinned_screens():
        pp, g, qs, ps, floor, radius = args[0], *args[4:]
        arcs = cyl_arcs(pp, qq, pairs, bases, g, qs, ps, radius)
        bound = kernel_bounds(g, qs, *arcs, len(bases))
        for start in (floor, 0):
            want = screen((g, qs, *arcs), len(bases), start, bound)
            got = da._screen(*args[:7], start, radius)
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        calls, rows = calls + 1, rows + len(g)
    assert calls > 50 and rows > 80_000


@pytest.mark.parametrize("bins", [1, 8, 64])
def test_screen_equals_per_call_sweeps_on_random_rows(monkeypatch, bins):
    marks = np.array([0.0, 0.5, np.pi, TWO_PI - 0.5, TWO_PI - 1e-17, TWO_PI])
    rng = np.random.default_rng(bins)
    monkeypatch.setattr(da, "_BINS", bins)
    for g, qs, full, arc, starts, ends, n_bases in random_row_sets(bins, 1500, marks):
        # Arcs from the whole of _cyl_arcs' range, and point arcs whose end
        # rounds one ulp below their start.
        shift = rng.integers(-1, 2, len(starts)) * TWO_PI
        starts, ends = starts + shift, ends + shift
        point = rng.random(len(ends)) < 0.1
        ends = np.where(point, np.nextafter(starts, -np.inf), ends)
        rows = (g, qs, full, arc, starts, ends)
        # A subset of the bases scores as the reference scores it.
        todo = rng.random(n_bases) < 0.5
        got, want = da._stab(da._pieces(*rows), todo), stab(*rows, n_bases, todo)
        assert same_bits(got[0][todo], want[0][todo]) and same_bits(got[1][todo], want[1][todo])
        assert (kernel_bounds(*rows, n_bases) >= stab(*rows, n_bases)[0]).all()
    # The screen on random geometric rows from each floor, no kernel stood in.
    for _ in range(100):
        pp, qq, src, bases, g, qs, ps, radius = random_bases(rng, 1.0)
        order = np.lexsort((ps, qs, g))
        g, qs, ps = g[order], qs[order], ps[order]
        arcs = cyl_arcs(pp, qq, src, bases, g, qs, ps, radius)
        bound = kernel_bounds(g, qs, *arcs, len(src))
        for floor in (0, 1, 2):
            want = screen((g, qs, *arcs), len(src), floor, bound)
            got = da._screen(pp, *tables(pp, qq, src, bases), g, qs, ps, floor, radius)
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


def test_cyl_arcs_stay_within_four_pi(rng):
    arcs = 0
    for _, args, _, _ in pinned_screens():
        _, _, starts, ends = da._cyl_arcs(*args[:7], args[8])
        assert (np.abs(starts) < 2 * TWO_PI).all() and (np.abs(ends) < 2 * TWO_PI).all()
    for scale in (1e-9, 1e-3, 1.0, 1e3, 1e6):
        pp, qq = (rng.uniform(-1, 1, size=(12, 3)) * scale for _ in range(2))
        pairs = np.argwhere(~np.eye(12, dtype=bool))
        scene, model = da._frames(qq, pairs), da._frames(pp, pairs)
        table = da._cyl_table(qq, scene, np.arange(len(pairs)))
        ids = rng.integers(0, len(pairs), size=(300, 2))
        g = np.sort(rng.integers(0, len(ids), 20_000))
        qs, ps = rng.integers(0, 12, size=(2, len(g)))
        for radius in (1e-12 * scale, 0.1 * scale, scale, 4 * scale):
            full, arc, starts, ends = da._cyl_arcs(pp, table, model, ids, g, qs, ps, radius)
            arcs += int(arc.sum())
            assert (np.abs(starts) < 2 * TWO_PI).all() and (np.abs(ends) < 2 * TWO_PI).all()
    assert arcs > 20_000
