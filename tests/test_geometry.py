import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcpmatch.errors import DegenerateBasis, DegeneratePair
from lcpmatch.geometry import (
    TWO_PI,
    AngleInterval,
    RigidMotion,
    cross,
    dihedral_interval,
    max_overlap_angle,
    motion_from_bases,
    pair_canonical_motion,
    rotation_about_line,
    union_intervals,
)

from conftest import random_motion, random_points
from reference import is_collinear, same_bits, turned


# ---------------------------------------------------------------------------
# rigid motions
# ---------------------------------------------------------------------------


def test_cross_bit_equal_to_np_cross(rng):
    # Random rows over many magnitudes, with signed zeros and whole zero rows.
    u = rng.normal(size=(20000, 3)) * 10.0 ** rng.uniform(-150, 150, size=(20000, 1))
    v = rng.normal(size=(20000, 3)) * 10.0 ** rng.uniform(-150, 150, size=(20000, 1))
    u[rng.random(u.shape) < 0.1] = 0.0
    v[rng.random(v.shape) < 0.1] = -0.0
    u[:50], v[50:100] = -0.0, 0.0
    assert same_bits(cross(u, v), np.cross(u, v))
    singles = [
        ([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]),
        ([0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]),
        ([1.0, 0.0, -0.0], [-0.0, 1.0, 0.0]),
        ([1.5e153, -1e153, 3e152], [2e153, 1e-300, -5e152]),
        ([1e153, 1e153, -1e153], [1e153, -1e153, 1e153]),
        ([5e-324, -5e-324, 1e-160], [1e-160, 5e-324, -0.0]),
    ]
    for a, b in singles:
        a, b = np.array(a), np.array(b)
        assert same_bits(cross(a, b), np.cross(a, b))
        assert same_bits(cross(b, a), np.cross(b, a))
    # One vector against rows, as rotation_distance_coeffs calls it.
    axis = rng.normal(size=3)
    assert same_bits(cross(axis, v), np.cross(np.broadcast_to(axis, v.shape), v))


def test_apply_identity():
    assert np.allclose(RigidMotion(np.eye(3), np.zeros(3)).apply([1.0, 2.0, 3.0]), [1, 2, 3])


def test_apply_rotation_pi_about_z():
    mu = rotation_about_line(np.zeros(3), [0, 0, 1], np.pi)
    assert np.allclose(mu.apply([1.0, 0.0, 0.0]), [-1, 0, 0], atol=1e-12)


def test_apply_preserves_distances(rng):
    for _ in range(100):
        mu = random_motion(rng)
        p, q = random_points(rng, 2)
        d0 = np.linalg.norm(p - q)
        d1 = np.linalg.norm(mu.apply(p) - mu.apply(q))
        assert abs(d1 - d0) <= 1e-9 * max(d0, 1.0)


def test_inverse_undoes_apply(rng):
    for _ in range(100):
        mu = random_motion(rng)
        p = random_points(rng, 1)[0]
        back = mu.inverse().apply(mu.apply(p))
        assert np.abs(back - p).max() <= 1e-9 * max(1.0, np.abs(p).max())


def is_proper(rot):
    """Orthonormal within 1e-9 and determinant +1."""
    return np.abs(rot @ rot.T - np.eye(3)).max() <= 1e-9 and abs(np.linalg.det(rot) - 1.0) <= 1e-9


def test_motion_is_proper(rng):
    assert is_proper(random_motion(rng).rotation)


# ---------------------------------------------------------------------------
# motion_from_bases
# ---------------------------------------------------------------------------


def test_motion_from_bases_identity():
    trip = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
    mu = motion_from_bases(trip, trip)
    assert np.abs(mu.rotation - np.eye(3)).max() <= 1e-12
    assert np.abs(mu.translation).max() <= 1e-12


def test_motion_from_bases_constructed_rotation():
    trip = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
    rot = turned(np.zeros(3), np.array([0.0, 0, 1]), np.eye(3), [np.pi])[0].T
    mu = motion_from_bases(trip, trip @ rot.T)
    assert np.abs(mu.rotation - rot).max() <= 1e-12


def test_motion_from_bases_roundtrip(rng):
    worst = 0.0
    trials = 0
    while trials < 1000:
        trip = random_points(rng, 3)
        if is_collinear(*trip, rel=1e-3):
            continue
        trials += 1
        mu = random_motion(rng)
        rec = motion_from_bases(trip, mu.apply(trip))
        worst = max(
            worst,
            np.abs(rec.rotation - mu.rotation).max(),
            np.abs(rec.translation - mu.translation).max(),
        )
    assert worst <= 1e-8


def test_motion_from_bases_collinear_raises():
    line = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]])
    with pytest.raises(DegenerateBasis):
        motion_from_bases(line, line)


# ---------------------------------------------------------------------------
# pair_canonical_motion
# ---------------------------------------------------------------------------


def test_pair_canonical_aligned_is_identity():
    p1, p2 = np.array([0.0, 0, 0]), np.array([2.0, 0, 0])
    mu = pair_canonical_motion(p1, p2, p1, p2)
    assert np.abs(mu.rotation - np.eye(3)).max() <= 1e-12
    assert np.abs(mu.translation).max() <= 1e-12


def test_pair_canonical_congruent_hits_target(rng):
    for _ in range(50):
        p1, p2, q1 = random_points(rng, 3)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        q2 = q1 + direction * np.linalg.norm(p2 - p1)
        mu = pair_canonical_motion(p1, p2, q1, q2)
        assert np.abs(mu.apply(q1) - p1).max() <= 1e-9
        assert np.abs(mu.apply(q2) - p2).max() <= 1e-8


def test_pair_canonical_stretched_lands_past_target(rng):
    p1 = np.array([0.0, 0, 0])
    p2 = np.array([3.0, 0, 0])
    delta = 0.25
    q1 = np.array([5.0, 5, 5])
    q2 = q1 + np.array([0.0, 3.0 + delta, 0.0])
    mu = pair_canonical_motion(p1, p2, q1, q2)
    img = mu.apply(q2)
    assert np.abs(mu.apply(q1) - p1).max() <= 1e-12
    # Image sits on the ray p1 -> p2, delta past p2.
    assert np.allclose(img, [3.0 + delta, 0.0, 0.0], atol=1e-12)


def test_pair_canonical_antiparallel_consistent():
    p1, p2 = np.array([0.0, 0, 0]), np.array([1.0, 0, 0])
    q1, q2 = np.array([0.0, 0, 0]), np.array([-1.0, 0, 0])
    mu = pair_canonical_motion(p1, p2, q1, q2)
    assert np.allclose(mu.apply(q2), p2, atol=1e-12)
    assert is_proper(mu.rotation)


def test_pair_canonical_degenerate_raises():
    p = np.zeros(3)
    with pytest.raises(DegeneratePair):
        pair_canonical_motion(p, p, p, np.array([1.0, 0, 0]))


# ---------------------------------------------------------------------------
# dihedral intervals
# ---------------------------------------------------------------------------


def test_dihedral_zero_rotation_inside():
    iv = dihedral_interval([0, 0, 0], [0, 0, 1], [1.0, 0, 0], [1.0, 0, 0], 0.5)
    assert iv.contains(0.0)


def test_dihedral_on_axis_full_or_empty():
    axis_pt = [0.0, 0.0, 0.7]
    near = dihedral_interval([0, 0, 0], [0, 0, 2], axis_pt, [0.1, 0, 0.7], 0.5)
    far = dihedral_interval([0, 0, 0], [0, 0, 2], axis_pt, [3.0, 0, 0.7], 0.5)
    assert near.kind == "full"
    assert far.kind == "empty"


@settings(deadline=None, max_examples=30, derandomize=True)
@given(st.integers(0, 10**6))
def test_dihedral_against_rotation_sweep(seed):
    rng = np.random.default_rng(seed)
    p1, p2, q, p = rng.normal(size=(4, 3)) * 4.0
    if np.linalg.norm(p2 - p1) < 1e-6:
        return
    r = abs(rng.normal()) * 2.0
    iv = dihedral_interval(p1, p2, q, p, r)
    thetas = rng.uniform(0.0, TWO_PI, size=400)
    for th, img in zip(thetas, turned(p1, p2, q, thetas)):
        truth = np.linalg.norm(img - p) <= r
        if truth == iv.contains(th):
            continue
        if iv.kind == "arc":
            dists = []
            for endpoint in (iv.start, iv.end):
                d = abs((th - endpoint) % TWO_PI)
                dists.append(min(d, TWO_PI - d))
            assert min(dists) <= 1e-6, (th, iv)
        else:
            pytest.fail(f"{iv.kind} interval misclassified angle {th}")


# ---------------------------------------------------------------------------
# interval sweep
# ---------------------------------------------------------------------------


def test_max_overlap_no_intervals():
    assert max_overlap_angle([]) == (0.0, 0)


def test_max_overlap_three_full():
    angle, count = max_overlap_angle([AngleInterval.full()] * 3)
    assert (angle, count) == (0.0, 3)


def test_max_overlap_arc_ending_at_two_pi_counts_at_zero():
    # (5.0, 0.0) ends exactly at 2*pi, which is angle 0, inside (0.0, 1.0).
    family = [AngleInterval.arc(5.0, 0.0), AngleInterval.arc(0.0, 1.0)]
    assert max_overlap_angle(family) == (0.0, 2)
    assert max_overlap_angle(family[::-1]) == (0.0, 2)


def _random_interval_family(rng, n):
    family = []
    truth = []  # (start, length) with known membership
    for _ in range(n):
        kind = rng.integers(0, 10)
        if kind == 0:
            family.append(AngleInterval.full())
            truth.append(None)
        else:
            start = rng.uniform(0.0, TWO_PI)
            length = rng.uniform(0.0, TWO_PI * 0.98)
            family.append(AngleInterval.arc(start, start + length))
            truth.append((start, length))
    return family, truth


def _oracle_count(truth, theta):
    count = 0
    for t in truth:
        if t is None:
            count += 1
        else:
            start, length = t
            if (theta - start) % TWO_PI <= length:
                count += 1
    return count


@settings(deadline=None, max_examples=40, derandomize=True)
@given(st.integers(0, 10**6), st.integers(1, 24))
def test_max_overlap_matches_endpoint_enumeration(seed, n):
    rng = np.random.default_rng(seed)
    family, truth = _random_interval_family(rng, n)
    angle, count = max_overlap_angle(family)
    # Returned angle really stabs `count` intervals.
    assert _oracle_count(truth, angle) == count
    # No endpoint (the only candidates for a maximum) beats it.
    candidates = [0.0]
    for t in truth:
        if t is not None:
            candidates.extend([t[0], (t[0] + t[1]) % TWO_PI])
    best = max(_oracle_count(truth, c) for c in candidates)
    assert count == best


def test_union_intervals_disjoint_and_covering(rng):
    for _ in range(50):
        family, truth = _random_interval_family(rng, int(rng.integers(1, 10)))
        merged = union_intervals(family)
        for theta in rng.uniform(0.0, TWO_PI, size=200):
            expected = _oracle_count(truth, theta) > 0
            got = sum(iv.contains(theta) for iv in merged)
            assert got <= 1 or any(iv.kind == "full" for iv in merged)
            assert (got > 0) == expected
