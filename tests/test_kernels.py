"""The narrow kernels of the vote tally and the frame tests equal the generic
numpy code they replaced, bit for bit.

Each reference below is the replaced code, kept as the oracle:
np.unique(axis=0) for exact._group_rows, the per-(triplet, fourth point)
row form for exact._fourth_point_signs, np.linalg.norm for
geometry.axis_norms and the scalar frame tests, and
np.unique(return_inverse=True) for index._slots, float modulo for
da._wrap_all and da._split, and the per-call sweep and bound for the DA
screen's shared pieces.
"""

from functools import lru_cache
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
    _row_keys,
)
from lcpmatch.geometry import (
    COLLINEAR_REL,
    TWO_PI,
    _triplet_frame,
    as_point,
    axis_norms,
    cross,
    is_collinear,
    pairwise_distances,
)
from lcpmatch.index import _slots

import test_da
from test_geometry import same_bits
from test_pinned_outputs import (
    EXACT_INSTANCES,
    TOLERANT_CALLS,
    TOLERANT_SEEDS,
    exact_instance,
    tolerant_instance,
)

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
        yield _row_keys(pp, qq, tq, tp)
        every = np.argwhere(~np.eye(len(qq), dtype=bool))
        for ab in (every, np.concatenate([every[::2], every[::3]])):
            pos, tq, tp = _congruent_rows(pp, qq, ab, params.tau)
            yield np.column_stack([pos, _row_keys(pp, qq, tq, tp)])


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


# ---------------------------------------------------------------------------
# angles wrapped without float modulo
# ---------------------------------------------------------------------------


def wrap_all_reference(theta):
    t = theta % TWO_PI
    return np.where(t >= TWO_PI, 0.0, t)


def split_reference(owner, start, end):
    stop = start + (end - start) % TWO_PI
    over = stop >= TWO_PI
    return (
        np.concatenate([owner, owner[over]]),
        np.concatenate([start, np.zeros(int(over.sum()))]),
        np.concatenate([np.where(over, TWO_PI, stop), stop[over] - TWO_PI]),
    )


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
        assert same_bits(da._wrap_all(theta), wrap_all_reference(theta))
    # Only +0.0 comes out for a zero.
    assert not np.signbit(da._wrap_all(np.array([-0.0, 0.0, TWO_PI, -TWO_PI]))).any()


def test_split_equals_float_modulo(rng):
    starts = np.concatenate([rng.uniform(0, TWO_PI, 200_000), near([0.0, np.pi, TWO_PI - 1e-15])])
    starts = wrap_all_reference(starts)
    for ends in (
        wrap_all_reference(rng.uniform(0, TWO_PI, len(starts))),
        starts,
        # An end one ulp below its start covers all of the circle but that ulp.
        np.nextafter(starts, -np.inf),
        np.nextafter(starts, np.inf),
        wrap_all_reference(starts + rng.choice([-1e-15, 1e-15, np.pi, -np.pi], len(starts))),
    ):
        ends = np.clip(ends, 0.0, np.nextafter(TWO_PI, 0))
        owner = np.arange(len(starts))
        got, want = da._split(owner, starts, ends), split_reference(owner, starts, ends)
        np.testing.assert_array_equal(got[0], want[0])
        assert same_bits(got[1], want[1]) and same_bits(got[2], want[2])


# ---------------------------------------------------------------------------
# one set of pieces per screen chunk
# ---------------------------------------------------------------------------


def stab_reference(g, qs, full, arc, starts, ends, n_bases):
    """The sweep as one call per base subset built it, keys and pieces anew."""
    new = da._run_starts(g, qs)
    key = np.cumsum(new) - 1
    key_base = g[new]
    is_full = np.zeros(len(key_base), dtype=bool)
    is_full[key[full]] = True
    arc = arc & ~is_full[key]
    owner, s, e = split_reference(
        key[arc], wrap_all_reference(starts[arc]), wrap_all_reference(ends[arc])
    )
    overlap = np.bincount(key_base[is_full], minlength=n_bases)
    angle = np.zeros(n_bases)
    if len(s) == 0:
        return overlap, angle
    ev = np.flatnonzero(np.tile(np.bincount(owner)[owner] > 1, 2))
    owner, pos = np.tile(owner, 2), np.concatenate([s, e])
    step = np.repeat([1, -1], len(s))
    if len(ev):
        ev = ev[np.lexsort((-step[ev], pos[ev], owner[ev]))]
        count = np.cumsum(step[ev])
        inner = ev[count != (step[ev] > 0)]
        owner, pos, step = (np.delete(x, inner) for x in (owner, pos, step))
    ev_base = key_base[owner]
    order = np.lexsort((-step, pos, ev_base))
    ev_base, pos = ev_base[order], pos[order]
    count = np.cumsum(step[order])
    heads = np.flatnonzero(da._run_starts(ev_base))
    peak = np.maximum.reduceat(count, heads)
    hit = np.flatnonzero(count == np.repeat(peak, np.diff(np.append(heads, len(pos)))))
    first_hit = hit[da._run_starts(ev_base[hit])]
    overlap[ev_base[heads]] += peak
    angle[ev_base[heads]] = wrap_all_reference(0.5 * (pos[first_hit] + pos[first_hit + 1]))
    return overlap, angle


def bin_bounds_reference(g, qs, full, arc, starts, ends, n_bases):
    dtype = np.dtype(f"<u{max(da._BINS // 8, 1)}")
    ones = dtype.type(np.iinfo(dtype).max)
    rows = np.flatnonzero(arc)
    owner, s, e = split_reference(
        rows, wrap_all_reference(starts[arc]), wrap_all_reference(ends[arc])
    )
    lo, hi = (np.minimum(x * (da._BINS / TWO_PI), da._BINS - 1).astype(dtype) for x in (s, e))
    piece = (ones >> (8 * dtype.itemsize - 1 - hi)) & (ones << lo)
    mask = np.where(full, ones, 0).astype(dtype)
    mask[rows] = piece[: len(rows)]
    mask[owner[len(rows) :]] |= piece[len(rows) :]
    heads = np.flatnonzero(da._run_starts(g, qs))
    keys = np.bitwise_or.reduceat(mask, heads).view(np.uint8).reshape(-1, dtype.itemsize)
    bins = np.unpackbits(keys, axis=1, bitorder="little")
    first = np.flatnonzero(da._run_starts(g[heads]))
    bound = np.zeros(n_bases, dtype=np.int64)
    bound[g[heads[first]]] = np.add.reduceat(bins, first, axis=0, dtype=np.int64).max(axis=1)
    return bound


def screen_reference(g, qs, full, arc, starts, ends, n_bases, floor):
    """The screen's loop over its rows, each sweep on the kept rows alone."""
    rows = (qs, full, arc, starts, ends)
    bound = bin_bounds_reference(g, *rows, n_bases)
    overlap, angle = np.full(n_bases, -1), np.zeros(n_bases)
    todo = bound == max(floor, bound.max())
    while todo.any():
        keep = todo[g]
        local = np.cumsum(todo)[g[keep]] - 1
        overlap[todo], angle[todo] = stab_reference(
            local, *(x[keep] for x in rows), int(todo.sum())
        )
        floor = max(floor, int(overlap.max()))
        todo = (bound >= floor) & (overlap < 0)
    return overlap, angle


def screen_on_rows(monkeypatch, g, qs, full, arc, starts, ends, n_bases, floor):
    """da._screen on given arcs, standing in for _cyl_arcs."""
    monkeypatch.setattr(da, "_cyl_arcs", lambda *args: (full, arc, starts, ends))
    ids = np.zeros((n_bases, 2), dtype=np.int64)
    return da._screen(None, None, None, ids, g, qs, None, floor, None)


def assert_same_screen(got, want):
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


@lru_cache(maxsize=None)
def recorded_rows():
    """The arguments and arcs of the screens of the tolerant pinned calls
    (da_match over all, pigeonhole and expander pairs, m=16, n=24) and of
    da_exact on the pinned exact instances."""
    runs = [
        (tolerant_instance(seed), lambda P, Q, seed=seed, call=call: call(P, Q, seed))
        for seed in TOLERANT_SEEDS
        for call in TOLERANT_CALLS.values()
    ]
    runs += [(exact_instance(*key), lambda P, Q: da.da_exact(P, Q)) for key in EXACT_INSTANCES]
    out = []
    for inst, run in runs:
        with test_da.recorded_screens() as recorded:
            run(inst.P, inst.Q)
        for args, _, _, _ in recorded:
            out.append((args, da._cyl_arcs(*args[:7], args[8])))
    return out


def test_screen_equals_per_call_sweeps_on_recorded_screens():
    calls = rows = 0
    for args, arcs in recorded_rows():
        ids, g, qs, floor = args[3], args[4], args[5], args[7]
        for start in (floor, 0):
            want = screen_reference(g, qs, *arcs, len(ids), start)
            assert_same_screen(da._screen(*args[:7], start, args[8]), want)
        calls, rows = calls + 1, rows + len(g)
    assert calls > 50 and rows > 80_000


@pytest.mark.parametrize("bins", [1, 8, 64])
def test_screen_equals_per_call_sweeps_on_random_rows(monkeypatch, bins):
    marks = np.array([0.0, 0.5, np.pi, TWO_PI - 0.5, TWO_PI - 1e-17, TWO_PI])
    rng = np.random.default_rng(bins)
    monkeypatch.setattr(da, "_BINS", bins)
    for g, qs, full, arc, starts, ends, n_bases in test_da.TestScreen.random_row_sets(
        bins, 1500, marks
    ):
        # Arcs from the whole of _cyl_arcs' range, and point arcs whose end
        # rounds one ulp below their start.
        shift = rng.integers(-1, 2, len(starts)) * TWO_PI
        starts, ends = starts + shift, ends + shift
        point = rng.random(len(ends)) < 0.1
        ends = np.where(point, np.nextafter(starts, -np.inf), ends)
        rows = (g, qs, full, arc, starts, ends)
        for floor in (0, 1, 2):
            want = screen_reference(*rows, n_bases, floor)
            assert_same_screen(screen_on_rows(monkeypatch, *rows, n_bases, floor), want)
        todo = rng.random(n_bases) < 0.5
        keep = todo[g]
        local = np.cumsum(todo)[g[keep]] - 1
        got = da._stab(da._pieces(*rows), todo)
        want = stab_reference(local, *(x[keep] for x in rows[1:]), int(todo.sum()))
        assert_same_screen(tuple(x[todo] for x in got), want)
        bound = da._bin_bounds(da._pieces(*rows), n_bases)
        assert same_bits(bound, bin_bounds_reference(*rows, n_bases))


def test_cyl_arcs_stay_within_four_pi(rng):
    arcs = 0
    for _, (_, _, starts, ends) in recorded_rows():
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
