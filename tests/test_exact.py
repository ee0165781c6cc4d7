from itertools import permutations

import numpy as np
import pytest

from lcpmatch import exact
from lcpmatch.da import da_exact
from lcpmatch.errors import DegenerateBasis, LcpMatchError, NoCongruentTriplets
from lcpmatch.exact import (
    ExactParams,
    alignment,
    geometric_hashing,
    ght,
    ght_pair_based,
    motion_key,
    pose_clustering,
)
from lcpmatch.geometry import (
    RigidMotion,
    motion_from_bases,
    motions_from_bases,
    pairwise_distances,
)
from lcpmatch.index import DistanceRows
from lcpmatch.oracle import GenSpec, exact_lcp_bruteforce, generate_instance, random_rotation
from lcpmatch.sampling import Pigeonhole, materialize_pairs

from conftest import random_points
from reference import (
    DEGENERATE_TRIPLETS,
    EXACT_INSTANCES,
    _criterion_2_shapes,
    _edge_cases,
    _planted_generic,
    alignment as alignment_reference,
    exact_instance,
    fingerprint,
    five_point_instance,
    geometric_hashing as geometric_hashing_reference,
    geometric_hashing_counts,
    is_collinear,
    scored_rows,
)

UNIT_CUBE = np.array(
    [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], dtype=float
)


def grid_instance_with_decoy():
    """P: a 3x2x2 integer grid. Q: a unit right triangle far away, then five
    grid points under a rigid motion. Many rows share a count, and the
    decoy's rows come first."""
    rng = np.random.default_rng(3)
    P = np.array([[x, y, z] for x in range(3) for y in range(2) for z in range(2)], float)
    decoy = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], float) @ random_rotation(rng).T + 40.0
    planted = P[[0, 3, 5, 8, 10]] @ random_rotation(rng).T + np.array([0.5, -2.0, 3.0])
    return P, np.vstack([decoy, planted])


def count_identity_triplet_votes(P, tau=1e-9):
    """Oracle recount: ordered non-collinear triplet pairs mapping via identity."""
    count = 0
    for t in permutations(range(len(P)), 3):
        if not is_collinear(P[t[0]], P[t[1]], P[t[2]]):
            count += 1
    return count


class TestPoseClustering:
    def test_cube_identity_votes(self):
        res = pose_clustering(UNIT_CUBE, UNIT_CUBE)
        assert res.size == 8
        assert np.abs(res.motion.rotation - np.eye(3)).max() <= 1e-9
        assert res.votes == count_identity_triplet_votes(UNIT_CUBE)

    def test_planted_motion_recovered(self, rng):
        P = random_points(rng, 9)
        mu_true = RigidMotion(random_rotation(rng), rng.uniform(-5, 5, 3))
        Q = mu_true.inverse().apply(P[2:8])
        res = pose_clustering(P, Q)
        rec = res.motion
        assert np.abs(rec.rotation - mu_true.inverse().rotation.T).max() <= 1e-6
        assert res.size == 6

    def test_five_point_vote_count(self):
        P, Q, _ = five_point_instance()
        res = pose_clustering(P, Q)
        assert res.size == 5
        assert res.votes == 5 * 4 * 3  # C(5,3) * 3! ordered matches


class TestAlignment:
    def test_identical_sets_vote_count(self, rng):
        P = random_points(rng, 8)
        res = alignment(P, P)
        assert res.votes == len(P) - 3
        assert res.size == len(P)

    def test_no_congruent_triplets(self, rng):
        P = random_points(rng, 4, span=1.0)
        Q = P * 10.0
        with pytest.raises(NoCongruentTriplets):
            alignment(P, Q)

    def test_agrees_with_pose_clustering(self):
        P, Q, _ = five_point_instance()
        assert alignment(P, Q).size == pose_clustering(P, Q).size

    @pytest.mark.parametrize("cells", [5, 300, 1000])
    def test_chunk_budget_leaves_result(self, monkeypatch, cells):
        # A row holds 8 x 12 cells: 5 cells make one-row chunks, 300 make
        # three-row chunks, 1000 make ten-row chunks with a ragged last one.
        # Alignment verifies its motion keys in chunks of the same sizes.
        # The first rows belong to a decoy triangle, so the winning row lies
        # deep in the row list. Alignment and geometric hashing share the
        # chunked row loop, so both are checked.
        P, Q = grid_instance_with_decoy()
        tq, tp, tri, _, _ = exact._congruent_triplets(P, Q, ExactParams())
        keys = np.unique(exact._row_keys(tri), axis=0)
        assert len(keys) > 10 * max(1, cells // (len(P) * len(Q)))
        for matcher, reference in (
            (alignment, alignment_reference),
            (geometric_hashing, geometric_hashing_reference),
        ):
            count, row = reference(P, Q)[:2]
            assert count == 2 and row > 500
            want = fingerprint(matcher(P, Q))
            with monkeypatch.context() as patch:
                patch.setattr(exact, "_ALIGN_CELLS", cells)
                got = matcher(P, Q)
            assert fingerprint(got) == want
            assert got.votes == count
            mu = motion_from_bases(Q[tq[row]], P[tp[row]])
            assert got.motion.rotation.tobytes() == mu.rotation.tobytes()
            assert got.motion.translation.tobytes() == mu.translation.tobytes()


def outcome(matcher, P, Q):
    """(size, votes, matched, motion bytes) of a match, or the error it raised."""
    try:
        r = matcher(P, Q)
    except LcpMatchError as exc:
        return type(exc)
    return r.size, r.votes, r.matched, r.motion.rotation.tobytes(), r.motion.translation.tobytes()


class TestAlignmentPerKey:
    """Alignment scores each motion key once; its results equal the per-row path's."""

    @pytest.mark.parametrize("family", [_criterion_2_shapes, _planted_generic, _edge_cases])
    def test_equals_row_by_row(self, family):
        for P, Q in family():
            reference = outcome(lambda P, Q: alignment_reference(P, Q)[2], P, Q)
            assert outcome(alignment, P, Q) == reference

    def test_fewer_keys_than_rows(self):
        rows = keys = 0
        for P, Q in _criterion_2_shapes():
            tq, _, tri, _, _ = exact._congruent_triplets(P, Q, ExactParams())
            row_keys = exact._row_keys(tri)
            distinct = len(np.unique(row_keys, axis=0))
            assert distinct < len(tq)
            rows, keys = rows + len(tq), keys + distinct
        assert keys * 20 < rows


class TestGht:
    def test_equivalent_to_pose_clustering(self):
        for seed in range(10):
            inst = generate_instance(
                GenSpec(m=9, n=8, k=5, eps=0.0, exact=True), seed=seed
            )
            a = pose_clustering(inst.P, inst.Q)
            b = ght(inst.P, inst.Q)
            assert a.size == b.size
            assert a.votes == b.votes

    def test_five_point(self):
        P, Q, _ = five_point_instance()
        res = ght(P, Q)
        assert res.size == 5


class TestGeometricHashing:
    def test_equivalent_to_alignment(self):
        for seed in range(6):
            inst = generate_instance(
                GenSpec(m=8, n=7, k=5, eps=0.0, exact=True), seed=seed
            )
            a = alignment(inst.P, inst.Q)
            b = geometric_hashing(inst.P, inst.Q)
            assert a.size == b.size

    def test_five_point(self):
        P, Q, _ = five_point_instance()
        res = geometric_hashing(P, Q)
        assert res.size == 5
        assert res.votes == 2  # k - 3 further points

    @pytest.mark.parametrize("height, kept", [(0.5e-9, False), (2e-9, True)])
    def test_near_collinear_rows_as_alignment(self, height, kept):
        # (0, 1, 2) is a triangle of height just below or just above the
        # COLLINEAR_REL threshold. Both matchers score the same congruent
        # rows, so they skip its orderings together.
        P = np.array(
            [[0, 0, 0], [1, 0, 0], [0.5, height, 0], [0.2, 0.7, 0.4], [0.9, 0.3, -0.6]]
        )
        tq, tp, _ = scored_rows(alignment, P, P)
        g_tq, g_tp, _ = scored_rows(geometric_hashing, P, P)
        assert np.array_equal(tq, g_tq) and np.array_equal(tp, g_tp)
        near = set(permutations([0, 1, 2]))
        for trips in (tq, tp):
            assert (near <= set(map(tuple, trips))) == kept
            assert near.isdisjoint(map(tuple, trips)) != kept

    @pytest.mark.parametrize("z, votes", [(-1e-12, 1), (5e-8, 1), (1e-6, 0), (-1e-6, 0)])
    def test_zero_band_fourth_point(self, z, votes):
        # det = z for the unit right triangle and the fourth point (4, 4, z).
        # The zero band is rel * scale^3 = 1.81e-7, scale being the fourth
        # point's distance 5.66 to the origin (the triangle's sides are at
        # most 1.42). The scene's fourth point lies in the band; model fourth
        # points at every z are congruent within tau, but only those also in
        # the band vote with it.
        tri = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
        Q = np.array(tri + [[4, 4, 1e-12]])
        P = np.array(tri + [[4, 4, z]])
        if votes:
            _, _, counts = scored_rows(geometric_hashing, P, Q)
            assert np.array_equal(counts, geometric_hashing_counts(P, Q))
            assert counts.max() == votes
        else:
            with pytest.raises(NoCongruentTriplets):
                geometric_hashing(P, Q)

    @pytest.mark.parametrize("copied", ["model", "scene"])
    def test_own_vertex_never_votes(self, copied):
        # One set also holds a copy of a triangle vertex. A vertex of a row's
        # own triplet is congruent to that copy as a fourth point, but must
        # not vote.
        tri = [[0, 0, 0], [3, 0, 0], [0, 4, 0]]
        P = np.array(tri + [[1, 1, 2]])
        Q = np.vstack([P, [[3, 0, 0]]])
        if copied == "model":
            P, Q = Q, P
        tq, tp, counts = scored_rows(geometric_hashing, P, Q)
        assert np.array_equal(counts, geometric_hashing_counts(P, Q))
        # The row (0, 1, 2) -> (0, 1, 2) holds the copy outside its triplets.
        row = np.flatnonzero((tq == [0, 1, 2]).all(axis=1) & (tp == [0, 1, 2]).all(axis=1))
        assert counts[row].tolist() == [1]


class TestGhtPairBased:
    def test_five_point_three_votes(self):
        P, Q, _ = five_point_instance()
        res = ght_pair_based(P, Q)
        assert res.votes == 3  # k - 2 through any common pair
        assert res.size == 5

    def test_identity_on_equal_sets(self, rng):
        P = random_points(rng, 7)
        res = ght_pair_based(P, P)
        assert res.size == 7
        assert res.votes == 5

    def test_pigeonhole_matches_all_pairs(self):
        from lcpmatch.sampling import Pigeonhole

        for seed in range(5):
            inst = generate_instance(
                GenSpec(m=12, n=12, k=7, eps=0.0, exact=True), seed=seed
            )
            full = ght_pair_based(inst.P, inst.Q)
            sampled = ght_pair_based(inst.P, inst.Q, pairs=Pigeonhole(4))
            assert full.size == sampled.size  # k > n/alpha = 3

    def test_repeated_source_pair_changes_nothing(self):
        # Votes are tallied per position in the pair list, so repeating the
        # winning pair must not double its votes.
        inst = exact_instance(12, 7, 1)
        pairs = materialize_pairs(Pigeonhole(4), len(inst.Q))
        plain = ght_pair_based(inst.P, inst.Q, pairs=pairs)
        win = plain.base_pair[0]
        repeated = [win] + pairs + [win, pairs[0]]
        assert fingerprint(ght_pair_based(inst.P, inst.Q, pairs=repeated)) == fingerprint(plain)

    # Recorded when the tally ran on np.unique(axis=0), whose groups come in
    # numeric order; the winner must not depend on the order of the groups.
    # The list repeats (0, 1) and (2, 3) and holds (0, 1) in both orders. On
    # 20 of the 24 instances both places of a repeated pair tie at the top.
    REPEATED_PINNED = {
        (10, 6, 1): (6, 4, '429db241edb7eb44'),
        (10, 6, 6): (6, 4, 'f9499c1309162074'),
        (10, 6, 7): (6, 4, 'a0ecc58ee572cab0'),
        (10, 6, 8): (6, 4, '0951dbcfe867ca71'),
        (10, 6, 9): (6, 4, 'bc0a4751faefb65e'),
        (10, 6, 11): (6, 4, '5053a86c36668c11'),
        (10, 6, 12): (6, 4, '5a50e4e4efe72b21'),
        (10, 6, 13): (6, 4, 'f68c57990eb8184e'),
        (10, 6, 15): (6, 4, '6a0bad3ecf956c0e'),
        (10, 6, 17): (6, 4, 'a08d90202af78f35'),
        (10, 6, 20): (6, 4, 'af56f703251c5997'),
        (10, 6, 21): (6, 4, '14ab2e28aa64e129'),
        (12, 7, 1): (7, 5, '436eb0d6eb3d8fa0'),
        (12, 7, 2): (7, 5, 'd802729e381e94e1'),
        (12, 7, 6): (7, 5, 'd27ca4763119a248'),
        (12, 7, 7): (7, 5, '146e7c8e48b9d8a5'),
        (12, 7, 10): (7, 5, '2da2786c925c42a2'),
        (12, 7, 13): (7, 5, '978f4d45a0cf2500'),
        (12, 7, 14): (7, 5, 'cca08644fa2d4edf'),
        (12, 7, 15): (7, 5, 'd05500eb9b4854d1'),
        (12, 7, 16): (7, 5, '89ea9161e82b95c4'),
        (12, 7, 18): (7, 5, 'beb66091b3c1f9ef'),
        (12, 7, 19): (7, 5, '8c4bfb5a2d4b1fa3'),
        (12, 7, 20): (7, 5, '628ab52c38554281'),
    }

    @pytest.mark.parametrize("m, k, seed", list(REPEATED_PINNED))
    def test_repeated_pair_list_pinned(self, m, k, seed):
        inst = exact_instance(m, k, seed)
        pairs = [(0, 1), (2, 3), (0, 1), (1, 0), (3, 4), (2, 3)]
        got = fingerprint(ght_pair_based(inst.P, inst.Q, pairs=pairs))
        assert got == self.REPEATED_PINNED[(m, k, seed)]

    def test_tuple_of_pairs_accepted(self):
        inst = exact_instance(10, 6, 2)
        pairs = materialize_pairs(Pigeonhole(4), len(inst.Q))
        want = fingerprint(ght_pair_based(inst.P, inst.Q, pairs=pairs))
        assert fingerprint(ght_pair_based(inst.P, inst.Q, pairs=tuple(pairs))) == want

    @pytest.mark.parametrize("matcher", [ght_pair_based, da_exact])
    @pytest.mark.parametrize("pair", [(-1, 2), (0, 10)])
    def test_out_of_range_pair_raises(self, matcher, pair):
        inst = exact_instance(10, 6, 1)
        with pytest.raises(ValueError):
            matcher(inst.P, inst.Q, pairs=[(0, 1), pair])


class TestVoteAccounting:
    @pytest.mark.parametrize("k", [3, 4, 6])
    def test_pair_based_winner_gets_k_minus_2(self, k):
        inst = generate_instance(
            GenSpec(m=10, n=9, k=k, eps=0.0, exact=True), seed=100 + k
        )
        res = ght_pair_based(inst.P, inst.Q)
        assert res.votes == k - 2
        assert res.size == k


class TestEquivalenceMini:
    def test_all_algorithms_agree_with_oracle(self):
        from lcpmatch.da import da_exact

        for seed in range(20):
            inst = generate_instance(
                GenSpec(m=10, n=9, k=4 + seed % 5, eps=0.0, exact=True), seed=seed
            )
            truth = exact_lcp_bruteforce(inst.P, inst.Q).lcp_size
            assert truth >= 3
            sizes = {
                "pose": pose_clustering(inst.P, inst.Q).size,
                "align": alignment(inst.P, inst.Q).size,
                "ght": ght(inst.P, inst.Q).size,
                "ghash": geometric_hashing(inst.P, inst.Q).size,
                "ght_pair": ght_pair_based(inst.P, inst.Q).size,
                "da_exact": da_exact(inst.P, inst.Q).size,
            }
            assert set(sizes.values()) == {truth}, (seed, truth, sizes)


class TestCongruentRows:
    def test_collinear_model_triplet_is_dropped(self):
        # Model (0, 1, 2) is collinear, with sides 2, 1 and 1. Scene (0, 1, 2)
        # lifts the middle point by 0.1, so it is a triangle whose sides
        # 2, sqrt(1.01) and sqrt(1.01) are within tau = 0.01 of the model's.
        # Point 3 is the same off-line point in both sets.
        P = np.array([[0.0, 0, 0], [2.0, 0, 0], [1.0, 0, 0], [1.0, 0, 1.5]])
        Q = np.array([[0.0, 0, 0], [2.0, 0, 0], [1.0, 0.1, 0], [1.0, 0, 1.5]])
        tau = 0.01
        assert is_collinear(*P[:3]) and not is_collinear(*Q[:3])
        ab = np.array([[0, 1]])
        dq = pairwise_distances(Q)
        pos, q, i, j, p = DistanceRows(P).query(dq, ab, dq[0, [1]], tau)
        found = set(zip(q.tolist(), i.tolist(), j.tolist(), p.tolist()))
        assert (2, 0, 1, 2) in found and (3, 0, 1, 3) in found
        _, tq, tp, _, _, _ = exact._congruent_rows(P, Q, ab, tau)
        rows = set(zip(map(tuple, tq.tolist()), map(tuple, tp.tolist())))
        assert ((0, 1, 3), (0, 1, 3)) in rows
        assert ((0, 1, 2), (0, 1, 2)) not in rows


class TestMotionKey:
    def test_equal_for_same_motion(self, rng):
        mu = RigidMotion(random_rotation(rng), rng.uniform(-5, 5, 3))
        trip = random_points(rng, 3)
        rebuilt = motion_from_bases(trip, mu.apply(trip))
        assert motion_key(mu, 1e-6) == motion_key(rebuilt, 1e-6)

    def test_distinct_planted_motions_never_collide(self):
        keys = set()
        for seed in range(40):
            rot = random_rotation(np.random.default_rng(seed))
            tr = np.random.default_rng(seed + 1000).uniform(-20, 20, 3)
            keys.add(motion_key(RigidMotion(rot, tr), 1e-6))
        assert len(keys) == 40

    def test_exact_past_int64(self):
        mu = RigidMotion(np.eye(3), np.array([1e13, -2e13, 3e13]))
        key = motion_key(mu, 1e-6)
        assert key[9:] == (10**19, -2 * 10**19, 3 * 10**19)
        assert key[:9] == (10**6, 0, 0, 0, 10**6, 0, 0, 0, 10**6)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tau": float("nan")},
            {"tau": float("inf")},
        ],
    )
    def test_tolerances_must_be_finite(self, kwargs):
        with pytest.raises(ValueError):
            ExactParams(**kwargs)


class TestBatchedMotions:
    @pytest.mark.parametrize("m, k, seed", EXACT_INSTANCES)
    def test_rows_agree_with_scalar_helper(self, m, k, seed):
        inst = exact_instance(m, k, seed)
        pp, qq = inst.P, inst.Q
        tq, tp, tri, _, _ = exact._congruent_triplets(pp, qq, ExactParams())
        assert len(tq) > 0
        rot, tr = motions_from_bases(qq[tq], pp[tp])
        keys = exact._row_keys(tri)
        for r in range(len(tq)):
            mu = motion_from_bases(qq[tq[r]], pp[tp[r]])
            assert np.abs(rot[r] - mu.rotation).max() <= 1e-12
            assert np.abs(tr[r] - mu.translation).max() <= 1e-12
            assert tuple(int(v) for v in keys[r]) == motion_key(mu, exact.MOTION_GRID)

    @pytest.mark.parametrize("bad", DEGENERATE_TRIPLETS)
    def test_degenerate_row_raises(self, bad):
        good = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        bad = np.array(bad)
        with pytest.raises(DegenerateBasis):
            motion_from_bases(bad, good)
        with pytest.raises(DegenerateBasis):
            motions_from_bases(np.stack([good, bad]), np.stack([good, good]))
        with pytest.raises(DegenerateBasis):
            motions_from_bases(np.stack([good, good]), np.stack([good, bad]))

    def test_height_just_above_threshold_builds(self):
        trip = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 2e-9, 0.0]])
        rot, tr = motions_from_bases(trip[None], trip[None])
        mu = motion_from_bases(trip, trip)
        assert np.abs(rot[0] - mu.rotation).max() <= 1e-12
        assert np.abs(tr[0] - mu.translation).max() <= 1e-12
