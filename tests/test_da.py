import itertools
from bisect import bisect_right
from decimal import Decimal, localcontext
from functools import lru_cache

import numpy as np
import pytest

from lcpmatch import da, index
from lcpmatch.da import (
    MatchParams,
    _base_rows,
    _live_pairs,
    _numeric_fuzz,
    _two_match,
    da_exact,
    da_match,
    expander_da,
)
from lcpmatch.errors import DegeneratePair, DegreeTooSmall, NoCandidatePairs, TooFewPoints
from lcpmatch.exact import ExactParams
from lcpmatch.geometry import TWO_PI, RigidMotion, _nearest_batch, least_squares_motion
from lcpmatch.geometry import nearest_matches, pairwise_distances, rotation_about_line
from lcpmatch.index import DistanceRows
from lcpmatch.oracle import GenSpec, exact_lcp_bruteforce, generate_instance, random_rotation
from lcpmatch.result import MatchResult, build_match_result
from lcpmatch.sampling import AllPairs, Expander, Pigeonhole, materialize_pairs

from reference import (
    EXACT_INSTANCES,
    TOLERANT_CALLS,
    TOLERANT_SEEDS,
    batch_groups,
    cyl_arcs,
    exact_instance,
    fingerprint,
    five_point_instance,
    kernel_bounds,
    kernel_stab,
    motions,
    pair_rows,
    pinned_screens,
    pinned_winner_inputs,
    random_bases,
    random_row_sets,
    recorded_batches,
    recording,
    refine,
    same_bits,
    scalar_arcs,
    scalar_overlap,
    select_winner,
    stab,
    stab_rows,
    tables,
    tolerant_instance,
    turned,
    unpacked,
)


class TestDaMatch:
    def test_five_point_layout(self):
        P, Q, _ = five_point_instance()
        res = da_match(P, Q, MatchParams(eps=0.0))
        assert res.votes >= 5
        assert res.size >= 5
        assert res.max_residual <= 1e-7

    def test_planted_noisy_instances(self):
        for seed in range(10):
            inst = generate_instance(GenSpec(m=14, n=12, k=6, eps=0.4), seed=seed)
            res = da_match(inst.P, inst.Q, MatchParams(eps=inst.eps))
            assert res.votes >= 6
            assert res.size >= 6
            assert res.max_residual <= 4 * inst.eps

    def test_exact_mode_matches_oracle(self):
        for seed in range(10):
            inst = generate_instance(
                GenSpec(m=10, n=9, k=5, eps=0.0, exact=True), seed=seed
            )
            truth = exact_lcp_bruteforce(inst.P, inst.Q).lcp_size
            res = da_match(inst.P, inst.Q, MatchParams(eps=0.0))
            assert res.size == truth

    def test_certificate_soundness(self):
        inst = generate_instance(GenSpec(m=13, n=11, k=6, eps=0.35), seed=3)
        res = da_match(inst.P, inst.Q, MatchParams(eps=inst.eps))
        img = res.motion.apply(inst.Q)
        for q, p in res.matched:
            assert np.linalg.norm(img[q] - inst.P[p]) <= res.radius + 1e-12
        qs = [q for q, _ in res.matched]
        assert len(qs) == len(set(qs))

    def test_matched_size_fields_consistent(self):
        inst = generate_instance(GenSpec(m=12, n=10, k=5, eps=0.3), seed=8)
        res = da_match(inst.P, inst.Q, MatchParams(eps=inst.eps))
        assert res.size == len(res.matched)
        assert res.dedup_size == len(res.dedup_matched) <= res.size
        assert res.size >= res.votes

    def test_no_candidate_pairs(self):
        P = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
        Q = P * 1000.0
        with pytest.raises(NoCandidatePairs):
            da_match(P, Q, MatchParams(eps=0.01))

    def test_repeat_calls_agree(self):
        # Two calls agree bit for bit: size, votes, matched set, base pair,
        # angle and motion bytes.
        inst = generate_instance(GenSpec(m=12, n=10, k=6, eps=0.3), seed=12)
        for source in (AllPairs(), Pigeonhole(4)):
            params = MatchParams(eps=inst.eps, pair_source=source)
            a = da_match(inst.P, inst.Q, params)
            b = da_match(inst.P, inst.Q, params)
            assert a.size == b.size
            assert a.votes == b.votes
            assert a.matched == b.matched
            assert a.base_pair == b.base_pair
            assert a.angle == b.angle
            assert a.motion.rotation.tobytes() == b.motion.rotation.tobytes()
            assert a.motion.translation.tobytes() == b.motion.translation.tobytes()

    def test_monotone_votes_in_pair_source(self):
        # A superset of source pairs can only raise the winning vote count.
        for seed in range(6):
            inst = generate_instance(
                GenSpec(m=12, n=12, k=7, eps=0.3, clearance=3.0), seed=seed
            )
            sources = [
                Expander(4, seed=1),
                Pigeonhole(4),
                AllPairs(),
            ]
            sizes = []
            for src in sources:
                pairs = set(materialize_pairs(src, len(inst.Q)))
                try:
                    res = da_match(inst.P, inst.Q, MatchParams(eps=inst.eps, pair_source=src))
                    sizes.append((len(pairs), res.votes))
                except NoCandidatePairs:
                    sizes.append((len(pairs), 0))
            ordered = sorted(sizes)
            votes = [v for _, v in ordered]
            assert votes == sorted(votes), (seed, sizes)

    @pytest.mark.parametrize("kwargs", [{"eps": float("nan")}, {"eps": float("inf")}])
    def test_params_must_be_finite(self, kwargs):
        with pytest.raises(ValueError):
            MatchParams(**kwargs)

    @pytest.mark.parametrize("scale", [1e-13, 1e-9, 1e-3, 1.0, 1e5, 1e6])
    def test_zero_eps_at_any_unit_scale(self, scale):
        inst = generate_instance(GenSpec(m=10, n=10, k=7, eps=0.0, exact=True), seed=4)
        res = da_match(inst.P * scale, inst.Q * scale, MatchParams(eps=0.0))
        assert (res.size, res.votes) == (7, 7)

    @pytest.mark.parametrize(
        "name, call",
        [
            ("da_match", lambda P, Q: da_match(P, Q, MatchParams(eps=0.1))),
            ("expander_da", lambda P, Q: expander_da(P, Q, 0.1, degree=8, alpha=0.05, seed=0)),
        ],
    )
    def test_one_point_raises_naming_the_entry_point(self, name, call):
        P = np.array([[0.0, 0, 0]])
        Q = np.array([[5.0, 5, 5], [5.0, 7, 5]])
        with pytest.raises(TooFewPoints, match=rf"^{name} needs at least 2 points"):
            call(P, Q)

    def test_two_point_sets_fall_back_to_pair_match(self):
        P = np.array([[0.0, 0, 0], [2.0, 0, 0]])
        Q = np.array([[5.0, 5, 5], [5.0, 7, 5]])
        res = da_match(P, Q, MatchParams(eps=0.1))
        assert res.size == 2
        assert res.votes == 2


def screened_and_scalar(P, Q, eps, source):
    """(screened, scalar) overlap of every base of every source pair, the
    screened angle, and the best screened overlap.

    All source pairs go through the screen as one batch and one call; a base
    the screen prunes reads overlap -1. The scalar overlap is the reference
    DA's (scalar_overlap); for a pruned base with fewer distinct q than the
    best, that count stands in for it. Returns (rows, best, radius); rows
    hold per base (overlap, angle, scalar overlap, (a, b), (i, j), qs, ps).
    """
    pp, qq = np.asarray(P, dtype=float), np.asarray(Q, dtype=float)
    fuzz = _numeric_fuzz(pp, qq)
    slack, radius = max(2 * eps, fuzz), max(4 * eps, fuzz)
    src, lengths = _live_pairs(source, qq, DistanceRows(pp), slack)
    batch = _base_rows(DistanceRows(pp), pairwise_distances(qq), slack, src, lengths)
    owner, bases, _, sizes, qs, ps = (np.array(x, dtype=np.int64) for x in unpacked(*batch))
    g = np.repeat(np.arange(len(bases)), sizes)
    overlaps, angles = screen_bases(pp, qq, src[owner], bases, g, qs, ps, 0, radius)
    best, out, cuts = int(overlaps.max()), [], np.append(0, np.cumsum(sizes))
    for k, (ab, ij) in enumerate(zip(map(tuple, src[owner].tolist()), map(tuple, bases.tolist()))):
        q_rows, p_rows = qs[cuts[k] : cuts[k + 1]], ps[cuts[k] : cuts[k + 1]]
        ref = len(set(q_rows.tolist()))
        if overlaps[k] >= 0 or ref >= best:
            ref = scalar_overlap(pp, qq, ab, ij, q_rows, p_rows, radius)
        out.append((int(overlaps[k]), float(angles[k]), ref, ab, ij, q_rows, p_rows))
    return out, best, radius


def screen_bases(pp, qq, src, bases, g, qs, ps, floor, radius):
    """da._screen on tables built from the per-base src and bases."""
    return da._screen(pp, *tables(pp, qq, src, bases), g, qs, ps, floor, radius)


def row_arcs(pp, qq, src, bases, g, qs, ps, radius):
    """da._cyl_arcs on tables built from the per-base src and bases."""
    return da._cyl_arcs(pp, *tables(pp, qq, src, bases), g, qs, ps, radius)


@lru_cache(maxsize=None)
def tolerant_pair_rows(seed, slack):
    """{(a, b): pair_rows} of every pair of the tolerant instance `seed`,
    with |ab| as one source pair at a time computes it."""
    inst = tolerant_instance(seed)
    dp, dq = pairwise_distances(inst.P), pairwise_distances(inst.Q)
    return {
        (a, b): pair_rows(dp, dq, a, b, float(np.linalg.norm(inst.Q[a] - inst.Q[b])), slack)
        for a, b in materialize_pairs(AllPairs(), len(inst.Q))
    }


def batch_rows(groups):
    """(pair, i, j, q, p) of every row of an `unpacked` or batch_groups result."""
    owner, bases, _, sizes, qs, ps = groups
    g = np.repeat(np.arange(len(owner)), sizes).tolist()
    return [(owner[k], *bases[k], q, p) for k, q, p in zip(g, qs, ps)]


def one_pair_batch(pp, qq, a, b, length, slack):
    """(kernel, brute force) groups of the batch of source pair (a, b) alone."""
    dp, dq = pairwise_distances(pp), pairwise_distances(qq)
    got = _base_rows(DistanceRows(pp), dq, slack, np.array([[a, b]]), np.array([length]))
    return unpacked(*got), batch_groups([pair_rows(dp, dq, a, b, length, slack)])


class TestLivePairs:
    @pytest.mark.parametrize("scale", [1e-150, 1e-3, 1.0, 1e3, 1e150])
    def test_lengths_equal_per_pair_norm(self, scale):
        rng = np.random.default_rng(7)
        qq = rng.normal(size=(40, 3)) * scale * 10.0 ** rng.uniform(-2, 2, size=(40, 1))
        # Zero and signed-zero components and differences, and a coincident pair.
        qq[:4, 0] = 0.0
        qq[4:8, 0] = -0.0
        qq[8:12, 1] = qq[12:16, 1]
        qq[16] = qq[17]
        src, lengths = _live_pairs(AllPairs(), qq, DistanceRows(qq), np.inf)
        assert len(src) == 40 * 39 // 2
        want = np.array([float(np.linalg.norm(qq[a] - qq[b])) for a, b in src.tolist()])
        assert lengths.tobytes() == want.tobytes()


    def test_keeps_exactly_the_pairs_with_a_nonempty_slab(self):
        inst = tolerant_instance(2)
        pp, qq = inst.P, inst.Q
        dp = pairwise_distances(pp)
        model = dp[~np.eye(len(pp), dtype=bool)].tolist()
        pairs = np.array(materialize_pairs(AllPairs(), len(qq)))
        for slack in (0.05, 0.3):
            src, lengths = _live_pairs(AllPairs(), qq, DistanceRows(pp), slack)
            want = [
                (a, b)
                for a, b in pairs.tolist()
                if any(
                    (length := float(np.linalg.norm(qq[a] - qq[b]))) - slack <= x <= length + slack
                    for x in model
                )
            ]
            assert 0 < len(want) < len(pairs)
            assert sorted(map(tuple, src.tolist())) == want
            assert (np.diff(lengths) <= 0).all()

    def test_length_on_the_slab_edge(self):
        # Integer coordinates keep every length and slab edge exact. Model
        # lengths are 3, 4 and 7; at slack 1 the scene lengths 5 and 8 reach
        # 4 and 7 exactly on the edge, 4 matches itself, and 1, 12 and 13
        # reach nothing.
        pp = np.array([[0.0, 0, 0], [3.0, 0, 0], [7.0, 0, 0]])
        qq = np.array([[0.0, 0, 0], [1.0, 0, 0], [5.0, 0, 0], [13.0, 0, 0]])
        src, lengths = _live_pairs(AllPairs(), qq, DistanceRows(pp), 1.0)
        assert src.tolist() == [[2, 3], [0, 2], [1, 2]]
        assert lengths.tolist() == [8.0, 5.0, 4.0]
        src, _ = _live_pairs(AllPairs(), qq, DistanceRows(pp), 1.0 - 1e-9)
        assert src.tolist() == [[1, 2]]
        with pytest.raises(NoCandidatePairs):
            _live_pairs([(0, 1), (0, 3)], qq, DistanceRows(pp), 1.0)


class TestTwoMatch:
    def test_smallest_pair_in_the_slab(self):
        # Lengths: |01| = |23| = 3, |12| = 4, |02| = |13| = 7, |03| = 10.
        pp = np.array([[0.0, 0, 0], [3.0, 0, 0], [7.0, 0, 0], [10.0, 0, 0]])
        dp = pairwise_distances(pp)
        search = DistanceRows(pp)
        for length, slack, want in [(3.0, 0.0, (0, 1)), (4.0, 0.0, (1, 2)), (5.5, 1.5, (0, 2)),
                                    (10.0, 0.5, (0, 3)), (4.5, 0.5, (1, 2)), (3.5, 0.5, (0, 1))]:
            ok = (length - slack <= dp) & (dp <= length + slack) & ~np.eye(len(pp), dtype=bool)
            assert min(map(tuple, np.argwhere(ok).tolist())) == want
            assert _two_match(search, slack, length) == [want, want[::-1]]


class TestBaseRows:
    """One search over a batch of source pairs gives each pair's own rows."""

    @pytest.mark.parametrize("seed", range(1, 7))
    def test_batch_rows_equal_per_pair_joins(self, seed):
        inst = tolerant_instance(seed)
        pp, qq = inst.P, inst.Q
        slack = 2 * inst.eps
        src, lengths = _live_pairs(AllPairs(), qq, DistanceRows(pp), slack)
        for k, (a, b) in enumerate(src.tolist()):
            assert lengths[k] == float(np.linalg.norm(qq[a] - qq[b]))
        dists = pairwise_distances(qq)
        for x, d in ((pp, pairwise_distances(pp)), (qq, dists)):
            for a in range(len(x)):
                assert d[a].tobytes() == np.linalg.norm(x - x[a], axis=1).tobytes()
        rows = tolerant_pair_rows(seed, slack)
        want = batch_groups([rows[a, b] for a, b in src.tolist()])
        assert len(want[4]) > 1000
        assert unpacked(*_base_rows(DistanceRows(pp), dists, slack, src, lengths)) == want

    @pytest.mark.parametrize("seed", range(1, 4))
    def test_rows_at_the_slack_boundary(self, seed):
        # Each slack puts one (query, triplet) key pair exactly on the
        # boundary, so a key float that moved by one bit would drop or add it.
        inst = tolerant_instance(seed)
        pp, qq = inst.P, inst.Q
        # Every ordered model triplet (i, j, p) and its key (|ij|, |ip|, |jp|).
        idx = np.arange(len(pp))
        distinct = (idx[:, None, None] != idx[:, None]) & (idx[:, None, None] != idx)
        trips = np.argwhere(distinct & (idx[:, None] != idx))
        i, j, p = trips.T
        dp = pairwise_distances(pp)
        keys = np.column_stack([dp[i, j], dp[i, p], dp[j, p]])
        search = DistanceRows(pp)
        rng = np.random.default_rng(seed)
        src, _ = _live_pairs(Pigeonhole(4), qq, search, 0.6)
        for a, b in src[rng.choice(len(src), 4, replace=False)].tolist():
            q = int(rng.choice(np.delete(np.arange(len(qq)), [a, b])))
            query = np.array(
                [
                    float(np.linalg.norm(qq[a] - qq[b])),
                    np.linalg.norm(qq - qq[a], axis=1)[q],
                    np.linalg.norm(qq - qq[b], axis=1)[q],
                ]
            )
            gaps = np.abs(keys - query)
            worst = gaps.max(axis=1)
            # The boundary sits in a distance coordinate, past the length filter.
            inner = np.flatnonzero(gaps[:, 0] < worst)
            r = int(inner[np.argsort(worst[inner], kind="stable")[len(inner) // 50]])
            slack = float(worst[r])
            _, lengths = _live_pairs([(a, b)], qq, search, slack)
            got, want = one_pair_batch(pp, qq, a, b, float(lengths[0]), slack)
            assert got == want
            assert (0, *trips[r, :2].tolist(), q, int(trips[r, 2])) in batch_rows(got)

    def test_slab_centred_on_the_pair_length(self):
        # _live_pairs' |ab| can differ from the scene matrix entry in the last
        # bit. Each slack puts a model pair length on the slab boundary of
        # the first and outside the slab of the second.
        inst = tolerant_instance(1)
        pp, qq = inst.P, inst.Q
        dq, dp = pairwise_distances(qq), pairwise_distances(pp)
        src, lengths = _live_pairs(AllPairs(), qq, DistanceRows(pp), 0.6)
        differ = lengths != dq[src[:, 0], src[:, 1]]
        checked = 0
        for (a, b), length in zip(src[differ].tolist(), lengths[differ].tolist()):
            for x in np.unique(dp).tolist():
                slack = abs(x - length)
                on = length - slack <= x <= length + slack
                off = dq[a, b] - slack <= x <= dq[a, b] + slack
                if not (0.3 <= slack <= 2.0 and on != off) or checked == 10:
                    continue
                got, want = one_pair_batch(pp, qq, a, b, length, slack)
                assert got == want
                checked += any(dp[i, j] == x for i, j in got[1])
        assert checked == 10

    @pytest.mark.parametrize("seed", range(1, 7))
    def test_bytes_equal_row_path(self, seed):
        # Each group's distinct-q bound and row count, read off the bytes,
        # and its unpacked rows equal the brute-force rows, batch by batch,
        # over all pairs and at a slack that makes most groups single rows.
        inst = tolerant_instance(seed)
        pp, qq = inst.P, inst.Q
        search, dists = DistanceRows(pp), pairwise_distances(qq)
        for slack in (2 * inst.eps, 0.05):
            src, lengths = _live_pairs(AllPairs(), qq, search, slack)
            rows = tolerant_pair_rows(seed, slack)
            for k in range(0, len(src), 7):
                batch = slice(k, k + 7)
                got = unpacked(*_base_rows(search, dists, slack, src[batch], lengths[batch]))
                assert got == batch_groups([rows[a, b] for a, b in src[batch].tolist()])

    def test_fewer_rows_unpacked_than_found(self):
        # The screen's floor stops before the last groups of a batch, whose
        # bytes are never unpacked.
        inst = tolerant_instance(1)
        batches = recorded_batches(
            lambda: da_match(inst.P, inst.Q, MatchParams(inst.eps, pair_source=Pigeonhole(4)))
        )
        found = sum(int(result[3].sum()) for _, result, _ in batches)
        screened = sum(len(args[4]) for *_, screens in batches for args, *_ in screens)
        assert 0 < screened < found


def stabbed(rows, n_bases):
    """_stab and the reference stab of rows (base, q, kind, start, end), kind
    in full/arc/empty, each as a list of (overlap, angle) per base."""
    args = stab_rows(rows, n_bases)
    return [list(zip(*(x.tolist() for x in out))) for out in (kernel_stab(*args), stab(*args))]


class TestScreen:
    """The batched screen against the reference DA's scalar path."""

    @staticmethod
    def compare_with_scalar(P, Q, source, angles=True):
        """Every base the screen scores has the scalar overlap, and (with
        `angles`) its motion at the screened angle brings that many distinct
        q of its rows within the radius; every base the screen prunes has a
        scalar overlap below the screen's best."""
        pp, qq = np.asarray(P, dtype=float), np.asarray(Q, dtype=float)
        bases, best, radius = screened_and_scalar(pp, qq, 0.3, source)
        scored = 0
        for overlap, angle, ref_overlap, ab, ij, qs, ps in bases:
            if overlap < 0:
                assert ref_overlap < best
                continue
            assert overlap == ref_overlap
            if angles:
                rot, tr = motions(pp, qq, np.array([ab]), np.array([ij]), np.array([angle]))
                dist = np.linalg.norm(qq[qs] @ rot[0].T + tr[0] - pp[ps], axis=1)
                assert len(set(qs[dist <= radius * (1 + 1e-9)].tolist())) >= overlap
                assert len(set(qs[dist <= radius * (1 - 1e-9)].tolist())) <= overlap
            scored += 1
        assert scored > 0

    @pytest.mark.parametrize("source", ["all", "pigeonhole", "expander"])
    @pytest.mark.parametrize("seed", range(1, 7))
    def test_overlaps_match_scalar_path(self, seed, source):
        inst = generate_instance(GenSpec(m=16, n=24, k=8, eps=0.3, noise=0.3), seed=seed)
        src = {"all": AllPairs(), "pigeonhole": Pigeonhole(4), "expander": Expander(8, seed)}
        self.compare_with_scalar(inst.P, inst.Q, src[source])

    @pytest.mark.parametrize("n", [12, 14, 16])
    def test_overlaps_match_scalar_path_square(self, n):
        for seed in (1, 2):
            inst = generate_instance(
                GenSpec(m=n, n=n, k=int(0.4 * n), eps=0.3, noise=0.3), seed=seed
            )
            self.compare_with_scalar(inst.P, inst.Q, AllPairs(), angles=False)

    def test_q_without_arc_does_not_count(self):
        rows = [(0, 1, "empty", 0.0, 0.0), (0, 1, "empty", 1.0, 2.0), (0, 2, "arc", 1.0, 2.0)]
        assert stabbed(rows, 1) == [[(1, 1.5)]] * 2

    def test_two_arcs_merge_across_zero(self):
        # q=1 holds (5.5, 0.3) and (0.2, 1.0): one arc through 0, counted once.
        rows = [
            (0, 1, "arc", 5.5, 0.3),
            (0, 1, "arc", 0.2, 1.0),
            (0, 2, "arc", 0.25, 0.5),
            (0, 3, "arc", 5.8, 6.0),
        ]
        # The peak runs from 0.25 to 0.5, where q=2 closes.
        assert stabbed(rows, 1) == [[(2, 0.375)]] * 2

    def test_arcs_covering_the_circle_count_as_full(self):
        rows = [
            (0, 1, "arc", 0.0, 3.5),
            (0, 1, "arc", 3.0, 0.5),
            (0, 2, "arc", 4.0, 4.5),
            (1, 1, "arc", 1.0, 4.0),
            (1, 1, "arc", 3.0, 1.5),
        ]
        # Base 1's arcs open at 0 and close at 2*pi, so its peak interval is
        # the whole circle.
        assert stabbed(rows, 2) == [[(2, 4.25), (1, np.pi)]] * 2

    def test_full_only_base_gets_angle_zero(self):
        rows = [(0, 1, "full", 0.0, 0.0), (0, 2, "full", 0.0, 0.0), (0, 2, "arc", 1.0, 2.0)]
        assert stabbed(rows, 1) == [[(2, 0.0)]] * 2

    def test_arc_ending_at_two_pi_counts_at_zero(self):
        # (5.0, 0.0) ends exactly at 2*pi, which is angle 0, inside (0.0, 1.0).
        assert stabbed([(0, 1, "arc", 5.0, 0.0), (0, 2, "arc", 0.0, 1.0)], 1) == [[(2, 0.0)]] * 2

    def test_point_arc_at_the_seam(self):
        # q=1 holds (5.5, 0.0) and the single angle 0.0; q=2 holds (0.0, 1.0).
        rows = [(0, 1, "arc", 5.5, 0.0), (0, 1, "arc", 0.0, 0.0), (0, 2, "arc", 0.0, 1.0)]
        assert stabbed(rows, 1) == [[(2, 0.0)]] * 2

    def test_random_rows_match_brute_force(self):
        marks = np.array([0.0, 0.5, 1.0, np.pi, 5.0, 6.0, TWO_PI - 0.5, TWO_PI - 1e-17, TWO_PI])
        for args in itertools.chain(random_row_sets(5, 300), random_row_sets(6, 3000, marks)):
            got, want = kernel_stab(*args), stab(*args)
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])

    def test_bin_bound_at_the_seam(self):
        # Base 0: (5.0, 0.0) ends at 2*pi, so its folded piece meets (0.0, 1.0)
        # in bin 0. Base 1: two arcs of one q unite to the full circle.
        args = stab_rows(
            [
                (0, 1, "arc", 5.0, 0.0),
                (0, 2, "arc", 0.0, 1.0),
                (1, 1, "arc", 1.0, 4.0),
                (1, 1, "arc", 3.0, 1.5),
                (1, 2, "arc", 2.0, 2.5),
            ],
            2,
        )
        assert stab(*args)[0].tolist() == [2, 2]
        assert kernel_bounds(*args).tolist() == [2, 2]

    @pytest.mark.parametrize("bins", [1, 8, 64])
    def test_bin_bound_covers_the_overlap(self, monkeypatch, bins):
        monkeypatch.setattr(da, "_BINS", bins)
        edges = np.arange(9) * (np.pi / 4)
        marks = np.concatenate([edges, [0.5, 5.0, TWO_PI - 1e-17]])
        rng = np.random.default_rng(9)
        tighter = 0
        for g, qs, full, arc, starts, ends, n_bases in random_row_sets(8, 3000, marks):
            # A tenth of the arcs are point arcs whose end rounds one ulp below
            # their start, so they read as all of the circle but that ulp.
            point = rng.random(len(ends)) < 0.1
            ends = np.where(point, np.nextafter(starts, -np.inf), ends)
            args = g, qs, full, arc, starts, ends, n_bases
            bound = kernel_bounds(*args)
            assert (bound >= stab(*args)[0]).all()
            # Never above the count of q with a full or arc row.
            voting = {(base, q) for base, q, v in zip(g, qs, full | arc) if v}
            keys = np.bincount([base for base, _ in voting], minlength=n_bases)
            assert (bound <= keys).all()
            tighter += int((bound < keys).sum())
        assert (tighter > 0) == (bins > 1)

    def test_stacked_row_sets_score_as_alone(self):
        # Row sets stacked as the bases of one _stab call score as they do alone.
        sets = list(random_row_sets(7, 200, np.array([0.0, 1.0, TWO_PI - 0.5, TWO_PI])))
        offsets = np.cumsum([0] + [args[-1] for args in sets])
        g = np.concatenate([args[0] + off for args, off in zip(sets, offsets)])
        rest = [np.concatenate([args[k] for args in sets]) for k in range(1, 6)]
        overlap, angle = kernel_stab(g, *rest, int(offsets[-1]))
        want = [pair for args in sets for pair in zip(*(x.tolist() for x in kernel_stab(*args)))]
        assert list(zip(overlap.tolist(), angle.tolist())) == want

    @pytest.mark.parametrize("seed", range(1, 4))
    def test_one_call_equals_per_base_calls(self, seed):
        inst = tolerant_instance(seed)
        pp, qq = inst.P, inst.Q
        slack, radius = 2 * inst.eps, 4 * inst.eps
        src, lengths = _live_pairs(Pigeonhole(4), qq, DistanceRows(pp), slack)
        batch = _base_rows(DistanceRows(pp), pairwise_distances(qq), slack, src, lengths)
        owner, bases, _, sizes, qs, ps = (np.array(x, dtype=np.int64) for x in unpacked(*batch))
        cuts = np.append(0, np.cumsum(sizes))
        assert len(bases) > 100
        g = np.repeat(np.arange(len(bases)), sizes)
        stacked = screen_bases(pp, qq, src[owner], bases, g, qs, ps, 0, radius)
        best = int(stacked[0].max())
        for k in range(len(bases)):
            one, rows = slice(k, k + 1), slice(cuts[k], cuts[k + 1])
            alone = (src[owner[one]], bases[one], g[rows] - k, qs[rows], ps[rows])
            overlap, angle = screen_bases(pp, qq, *alone, 0, radius)
            if stacked[0][k] < 0:  # pruned by the stacked call's floor
                assert overlap[0] < best
            else:
                assert (overlap[0], angle[0]) == (stacked[0][k], stacked[1][k])


# (_BATCH_CELLS, _SCREEN_ROWS, _BINS): one batch screened whole, one batch
# screened a base a call, a few pairs a batch in mid-sized calls, one pair a
# batch; the screen's bound from one bin (the distinct voting q), 8 or 64.
BUDGETS = ((1 << 62, 1 << 62, 64), (1 << 62, 1, 8), (1 << 13, 1 << 8, 1), (1, 1 << 62, 8))


def budget_results(monkeypatch, call, budgets=BUDGETS):
    """Fingerprints of call() with the batch and screen budgets at each value."""
    out = []
    for cells, rows, bins in budgets:
        with monkeypatch.context() as patch:
            patch.setattr(da, "_BATCH_CELLS", cells)
            patch.setattr(da, "_SCREEN_ROWS", rows)
            patch.setattr(da, "_BINS", bins)
            res = call()
        out.append((fingerprint(res), res.angle))
    return out


class TestBatchBudget:
    """How source pairs are batched and bases screened changes the work, not the result."""

    @pytest.mark.parametrize("seed", range(1, 7))
    def test_budget_leaves_result(self, monkeypatch, seed):
        inst = tolerant_instance(seed)
        small = generate_instance(GenSpec(m=12, n=12, k=5, eps=0.3, noise=0.3), seed=seed)
        eps = inst.eps
        for P, Q in ((inst.P, inst.Q), (small.P, small.Q)):
            first, *rest = budget_results(
                monkeypatch, lambda: expander_da(P, Q, eps, degree=8, alpha=0.05, seed=seed)
            )
            assert all(r == first for r in rest)
            for src in (AllPairs(), Pigeonhole(4), Expander(8, seed)):
                first, *rest = budget_results(
                    monkeypatch, lambda: da_match(P, Q, MatchParams(eps, pair_source=src))
                )
                assert all(r == first for r in rest)
        exact = generate_instance(GenSpec(m=12, n=11, k=6, eps=0.0, exact=True), seed=seed)
        for src in (AllPairs(), Pigeonhole(4)):
            first, *rest = budget_results(
                monkeypatch, lambda: da_exact(exact.P, exact.Q, pairs=src)
            )
            assert all(r == first for r in rest)

    def test_descending_bounds_skip_groups(self, monkeypatch):
        inst = tolerant_instance(1)
        pq, params = (inst.P, inst.Q), MatchParams(inst.eps, pair_source=Pigeonhole(4))

        def screened(run):
            """Per _screen call of run(), its base count and (a, b, i, j) keys,
            and the group count of its batches; no call screens a base whose
            bound is below the best overlap of the calls before it."""
            batches, sizes, keys, floor = recorded_batches(run), [], [], 0
            for *_, screens in batches:
                for (_, _, _, ids, g, qs, *_), pairs, bases, (overlap, _) in screens:
                    new = np.ones(len(g), dtype=bool)
                    new[1:] = (g[1:] != g[:-1]) | (qs[1:] != qs[:-1])
                    assert np.bincount(g[new], minlength=len(ids)).min() >= floor
                    floor = max(floor, int(overlap.max()))
                    sizes.append(len(ids))
                    keys += [tuple(k) for k in np.column_stack([pairs, bases]).tolist()]
            return sizes, keys, sum(len(result[2]) for _, result, _ in batches)

        work, results = {}, set()
        for budgets in ((1 << 62, 1 << 62), (1 << 62, 1), (1, 1 << 62)):
            monkeypatch.setattr(da, "_BATCH_CELLS", budgets[0])
            monkeypatch.setattr(da, "_SCREEN_ROWS", budgets[1])
            sizes, _, n_groups = screened(lambda: results.add(fingerprint(da_match(*pq, params))))
            work[budgets] = sizes, n_groups
        assert len(results) == 1
        # Unbounded, the one batch is one call over every group.
        sizes, n_groups = work[1 << 62, 1 << 62]
        assert sizes == [n_groups]
        # A base a call lets the floor rise, and the first bound below it
        # ends the batch.
        sizes, _ = work[1 << 62, 1]
        assert set(sizes) == {1}
        assert 1 < len(sizes) < n_groups
        # One pair a batch: each call drops the groups below the floor.
        sizes, total = work[1, 1 << 62]
        assert total == n_groups
        assert 1 < len(sizes) and sum(sizes) < n_groups

        # Exact mode and eps = 0 walk the same loop through the same screen,
        # each base once.
        exact = generate_instance(GenSpec(m=12, n=11, k=6, eps=0.0, exact=True), seed=2)
        for src in (AllPairs(), Pigeonhole(4)):
            for run in (
                lambda: da_exact(exact.P, exact.Q, pairs=src),
                lambda: da_match(exact.P, exact.Q, MatchParams(0.0, pair_source=src)),
            ):
                results = set()
                for cells, chunk in ((1 << 62, 1), (1, 1 << 62)):
                    monkeypatch.setattr(da, "_BATCH_CELLS", cells)
                    monkeypatch.setattr(da, "_SCREEN_ROWS", chunk)
                    sizes, keys, _ = screened(lambda: results.add(fingerprint(run())))
                    assert sizes
                    assert len(set(keys)) == len(keys)
                assert len(results) == 1

    def test_screen_inputs_equal_row_path(self, monkeypatch):
        # Every _screen call gets the (ids, g, qs, ps) of the brute-force
        # rows, all of them reordered by rank. The screen, batch and mask
        # budgets go each at 1 and at its default.
        inst, exact = tolerant_instance(1), exact_instance(*EXACT_INSTANCES[0])
        runs = (
            lambda: da_match(inst.P, inst.Q, MatchParams(inst.eps, pair_source=Pigeonhole(4))),
            lambda: expander_da(inst.P, inst.Q, inst.eps, degree=8, alpha=0.05, seed=1),
            lambda: da_exact(exact.P, exact.Q),
        )
        defaults = da._SCREEN_ROWS, da._BATCH_CELLS, index._MASK_CELLS
        calls, found = 0, [{} for _ in runs]
        for rows, cells, mask in itertools.product(*((1, x) for x in defaults)):
            monkeypatch.setattr(da, "_SCREEN_ROWS", rows)
            monkeypatch.setattr(da, "_BATCH_CELLS", cells)
            monkeypatch.setattr(index, "_MASK_CELLS", mask)
            for run, per_pair in zip(runs, found):
                for args, _, screens in recorded_batches(run):
                    self.check_screens(args, [s[0] for s in screens], rows, per_pair)
                    calls += len(screens)
        assert calls > 1000

    @staticmethod
    def check_screens(args, screens, screen_rows, per_pair):
        """The _screen calls `screens` of the batch of _base_rows(*args) take
        the groups and rows found by brute force in rank order, chunked as
        _vote chunks them at `screen_rows`; `per_pair` caches pair_rows."""
        search, dists, slack, src, lengths = args
        for (a, b), length in zip(src.tolist(), lengths.tolist()):
            if (a, b) not in per_pair:
                per_pair[a, b] = pair_rows(search.dists, dists, a, b, length, slack)
        groups = batch_groups([per_pair[a, b] for a, b in src.tolist()])
        owner, bases, bounds, sizes, qs, ps = (np.array(x, dtype=np.int64) for x in groups)
        cuts = np.append(0, np.cumsum(sizes))
        order = np.argsort(-bounds, kind="stable")
        r = np.concatenate([np.arange(cuts[t], cuts[t + 1]) for t in order] + [[]]).astype(np.int64)
        qs, ps, owner, bases, bounds = qs[r], ps[r], owner[order], bases[order], bounds[order]
        sizes = sizes[order]
        ends = np.cumsum(sizes)
        pid = np.zeros((len(search.dists),) * 2, dtype=np.int64)
        pid[tuple(search.pairs.T)] = np.arange(len(search.pairs))
        start = 0
        for _, _, _, ids, g, got_qs, got_ps, floor, _ in screens:
            reach = int((bounds >= floor).sum())
            if start == 0:
                slot = np.unique(owner[:reach], return_inverse=True)[1]
                want_ids = np.column_stack([slot, pid[bases[:reach, 0], bases[:reach, 1]]])
            stop = bisect_right(ends.tolist(), ends[start] - sizes[start] + screen_rows)
            stop = min(max(start + 1, stop), reach)
            rs = slice(ends[start] - sizes[start], ends[stop - 1])
            want = (
                want_ids[start:stop],
                np.repeat(np.arange(stop - start), sizes[start:stop]),
                qs[rs],
                ps[rs],
            )
            for x, y in zip((ids, g, got_qs, got_ps), want):
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
            start = stop

    def test_only_two_matches_reach_the_top(self, monkeypatch):
        # Q pairs (0, 1) and (2, 3) match the length of P's pair (0, 1), but no
        # third point matches a triangle: both are bare 2-matches.
        P = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 3.0, 0]])
        Q = np.array([[0.0, 0, 0], [1.0, 0, 0], [10.0, 10, 10], [11.0, 10, 10]])
        params = MatchParams(0.05)
        results = budget_results(monkeypatch, lambda: da_match(P, Q, params))
        assert all(r == results[0] for r in results)
        res = da_match(P, Q, params)
        assert res.votes == 2
        assert res.base_pair[0] in ((0, 1), (2, 3))

    def test_scalar_path_at_zero_eps(self, monkeypatch):
        inst = generate_instance(GenSpec(m=12, n=12, k=6, eps=0.0, exact=True), seed=2)
        for src in (AllPairs(), Pigeonhole(4)):
            results = budget_results(
                monkeypatch, lambda: da_match(inst.P, inst.Q, MatchParams(0.0, pair_source=src))
            )
            assert all(r == results[0] for r in results)


def winner_key(r):
    return (
        r.size,
        r.votes,
        r.matched,
        r.dedup_matched,
        r.max_residual,
        r.base_pair,
        r.angle,
        r.motion.rotation.tobytes(),
        r.motion.translation.tobytes(),
    )


def fitted_sets(calls):
    """The matched sets that recorded da._fit calls were given, in call order."""
    return [m for _, (_, _, sets), _ in calls for m in sets]


class TestSelectWinner:
    """The batched winner step against the reference's one motion at a time."""

    def test_recorded_inputs_cover_the_cases(self):
        inputs = pinned_winner_inputs()
        assert len(inputs) == len(TOLERANT_SEEDS) * len(TOLERANT_CALLS) + len(EXACT_INSTANCES) + 1
        top, tied = inputs[-1][4:6]
        assert top == 0 and len(tied) > 200

    def test_equals_scalar_reference(self, monkeypatch):
        # At the default verify budget, and at one motion a pass.
        for cells in (da._VERIFY_CELLS, 1):
            monkeypatch.setattr(da, "_VERIFY_CELLS", cells)
            for args in pinned_winner_inputs():
                shared = {}
                want = winner_key(select_winner(*args, shared))
                with recording(da, "_fit") as calls:
                    assert winner_key(da._select_winner(*args)) == want
                # Each matched set is fitted once, and the same sets as the
                # reference's shared refits.
                fitted = fitted_sets(calls)
                assert len(set(fitted)) == len(fitted)
                assert set(fitted) == set(shared)

    def test_refit_rounds_up_to_the_cap(self):
        # Points on a widening spiral with noise at 0.4 of the radius: each
        # refit on the matches of the one before reaches a few more points,
        # so some chains run into the 8-round cap.
        lengths, capped, binding = [], 0, 0
        for seed in range(30):
            rng = np.random.default_rng(seed)
            r, th = 1.2 ** np.arange(30), rng.uniform(0.0, TWO_PI, 30)
            P = np.column_stack([r * np.cos(th), r * np.sin(th), 0.5 * r * rng.uniform(-1, 1, 30)])
            Q = P + rng.normal(0.0, 0.1, P.shape)
            start = build_match_result(
                P, Q, rotation_about_line(np.zeros(3), rng.normal(size=3), 0.05), 0.25, 5
            )
            want = refine(P, Q, start, 0.25, {})
            # The start motion twice: both chains end on one fit, each set
            # fitted once.
            rot, tr = (np.stack([x, x]) for x in (start.motion.rotation, start.motion.translation))
            with recording(da, "_fit") as calls:
                rot, tr, certs, at = da._refine(P, Q, rot, tr, 0.25)
            fitted = fitted_sets(calls)
            got = MatchResult(RigidMotion(rot[at[0]], tr[at[0]]), *certs[at[0]], 5, 0.25)
            assert winner_key(got) == winner_key(want)
            assert at[0] == at[1]
            assert len(set(fitted)) == len(fitted)
            if want is start:
                assert at == [0, 1]
                continue
            lengths.append(len(fitted))
            # The eighth round is kept: seven rounds end elsewhere. And the
            # cap binds: a ninth round would move on.
            seven, nine = (refine(P, Q, start, 0.25, {}, rounds=r) for r in (7, 9))
            capped += winner_key(seven) != winner_key(want)
            binding += winner_key(nine) != winner_key(want)
        assert capped and binding and min(lengths) < 4

    def test_fit_equals_least_squares_motion(self):
        # Every matched set the recorded winner steps fit, then random sets at
        # every coordinate scale, 3-point sets and reflections among them.
        cases = []
        for args in pinned_winner_inputs():
            with recording(da, "_fit") as calls:
                da._select_winner(*args)
            if calls:
                cases.append((args[0], args[1], fitted_sets(calls)))
        assert sum(len(sets) for *_, sets in cases) > 40
        rng = np.random.default_rng(3)
        for scale in (1e-9, 1e-3, 1.0, 1e3, 1e6):
            for _ in range(20):
                m, n = (int(x) for x in rng.integers(3, 20, size=2))
                pp, qq = rng.normal(0.0, scale, (m, 3)), rng.normal(0.0, scale, (n, 3))
                sets = []
                for _ in range(8):
                    k = int(rng.integers(3, min(m, n) + 1))
                    q, p = np.sort(rng.choice(n, k, replace=False)), rng.choice(m, k, replace=False)
                    sets.append(tuple(zip(q.tolist(), p.tolist())))
                cases.append((pp, qq, sets))
        seen = set()
        for pp, qq, sets in cases:
            rot, tr = da._fit(pp, qq, sets)
            for k, matched in enumerate(sets):
                q, p = np.array(matched).T
                want = least_squares_motion(qq[q], pp[p])
                assert rot[k].tobytes() == want.rotation.tobytes()
                assert tr[k].tobytes() == want.translation.tobytes()
                a, b = qq[q] - qq[q].mean(axis=0), pp[p] - pp[p].mean(axis=0)
                u, _, vt = np.linalg.svd(a.T @ b)
                seen.add("reflection" if np.linalg.det(vt.T @ u.T) < 0 else "proper")
                seen.add("3 points" if len(matched) == 3 else "more")
        assert seen == {"reflection", "proper", "3 points", "more"}

    def test_batched_verify_equals_nearest_matches(self):
        # Motions near a planted one at every coordinate scale; radii that
        # match no q, every q, and some, with scene points copied so that
        # several q share a nearest p.
        rng = np.random.default_rng(12)
        seen = set()
        for scale in (1e-9, 1e-3, 1.0, 1e3, 1e6):
            for trial in range(8):
                m, n = (int(x) for x in rng.integers(3, 14, size=2))
                pp = rng.uniform(-scale, scale, (m, 3))
                truth = RigidMotion(random_rotation(rng), rng.uniform(-scale, scale, 3))
                qq = truth.inverse().apply(pp[rng.integers(0, m, n)])
                qq += rng.normal(0.0, 0.05 * scale, qq.shape) * (trial % 2)
                # Every fourth motion turned anywhere, two in three shifted.
                rot = np.stack(
                    [random_rotation(rng) if c % 4 == 3 else truth.rotation for c in range(10)]
                )
                shift = rng.normal(0.0, 0.1 * scale, (10, 3)) * (np.arange(10) % 3 > 0)[:, None]
                tr = truth.translation + shift
                nn, res = _nearest_batch(pp, qq, rot, tr, 1 << 62)
                chunked = _nearest_batch(pp, qq, rot, tr, 1)
                assert nn.tobytes() + res.tobytes() == b"".join(x.tobytes() for x in chunked)
                for radius in (0.0, 0.1 * scale, 0.5 * scale, 10.0 * scale):
                    for c in range(len(rot)):
                        pairs, resid = nearest_matches(pp, qq, RigidMotion(rot[c], tr[c]), radius)
                        q = np.flatnonzero(res[c] <= radius)
                        assert pairs == list(zip(q.tolist(), nn[c, q].tolist()))
                        assert res[c, q].tobytes() == resid.tobytes()
                        ps = [p for _, p in pairs]
                        seen.add("empty" if not pairs else "full" if len(pairs) == n else "some")
                        seen.add("repeated" if len(set(ps)) < len(ps) else "injective")
        assert seen == {"empty", "full", "some", "repeated", "injective"}


class TestSweepAgainstDenseSampling:
    def test_dense_sampling_never_beats_sweep(self):
        # Rebuild the winner's arcs through the reference's scalar path and
        # check 1e5-angle sampling cannot find a better angle.
        inst = generate_instance(GenSpec(m=12, n=10, k=6, eps=0.4), seed=2)
        res = da_match(inst.P, inst.Q, MatchParams(eps=inst.eps))
        (a, b), (i, j) = res.base_pair
        length = float(np.linalg.norm(inst.Q[a] - inst.Q[b]))
        dp, dq = pairwise_distances(inst.P), pairwise_distances(inst.Q)
        rows = [(q, p) for *ij, q, p in pair_rows(dp, dq, a, b, length, 2 * inst.eps) if ij == [i, j]]
        qs, ps = (np.array(x) for x in zip(*rows))
        full, arc, starts, ends = scalar_arcs(inst.P, inst.Q, (a, b), (i, j), qs, ps, res.radius)
        count = int(stab(np.zeros(len(qs), dtype=np.int64), qs, full, arc, starts, ends, 1)[0][0])
        assert count == res.votes - 2
        thetas = np.linspace(0.0, TWO_PI, 100_000, endpoint=False)
        inside = full[:, None] | (
            arc[:, None] & ((thetas - starts[:, None]) % TWO_PI <= ((ends - starts) % TWO_PI)[:, None])
        )
        # A q counts once wherever one of its rows holds the angle.
        counts = sum(inside[qs == q].any(axis=0).astype(int) for q in set(qs.tolist()))
        assert counts.max() <= count


def exact_cylinder(o, e, x):
    """Height and distance of x about the axis o -> e, in Decimal arithmetic
    on the exact values of the float coordinates."""
    d = [Decimal(b) - Decimal(a) for a, b in zip(o.tolist(), e.tolist())]
    v = [Decimal(b) - Decimal(a) for a, b in zip(o.tolist(), x.tolist())]
    h = sum(c * w for c, w in zip(d, v)) / sum(c * c for c in d).sqrt()
    return h, (sum(c * c for c in v) - h * h).sqrt()


class TestCylArcs:
    """The live arc solve against the rotation it stands for."""

    def test_dense_sweep(self):
        # A source pair and a base on one axis, so the turn by t in the axis
        # frames is the rotation by t about that axis. Per configuration: p a
        # turned q plus noise (about half partial arcs), q on the axis with p
        # near it (full), and q with a p too far along the axis (empty).
        rng = np.random.default_rng(0xC71)
        thetas = np.linspace(0.0, TWO_PI, 200_000, endpoint=False)
        kinds = {"full": 0, "arc": 0, "empty": 0}
        for _ in range(100):
            a = rng.normal(size=3) * 3.0
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            b = a + u * rng.uniform(0.5, 4.0)
            r = rng.uniform(0.2, 1.0)
            q = a + rng.normal(size=3) * 2.0
            t = rng.uniform(0.0, TWO_PI)
            p = turned(a, b, q, t) + rng.normal(size=3) * 0.8 * r
            on_axis = a + u * rng.uniform(-2.0, 2.0)
            off = rng.normal(size=3)
            near = on_axis + off * (0.5 * r / np.linalg.norm(off))
            far = q + u * 3.0 * r
            qq = np.array([a, b, q, on_axis, q])
            pp = np.array([a, b, p, near, far])
            rows = np.arange(2, len(qq))
            pair = np.array([[0, 1]])
            full, arc, starts, ends = row_arcs(
                pp, qq, pair, pair, np.zeros(len(rows), dtype=np.int64), rows, rows, r
            )
            truth = np.linalg.norm(turned(a, b, qq[rows], thetas) - pp[rows], axis=2) <= r
            for k in range(len(rows)):
                if full[k] or not arc[k]:
                    kinds["full" if full[k] else "empty"] += 1
                    assert (truth[:, k] == full[k]).all()
                    continue
                kinds["arc"] += 1
                inside = (thetas - starts[k]) % TWO_PI <= (ends[k] - starts[k]) % TWO_PI
                wrong = thetas[inside != truth[:, k]]
                gap = np.minimum(
                    *(np.abs((wrong - end + np.pi) % TWO_PI - np.pi) for end in (starts[k], ends[k]))
                )
                assert (gap <= 1e-6).all()
        assert kinds["full"] == 100 and kinds["empty"] >= 100 and kinds["arc"] >= 40, kinds

    def test_point_arc_has_equal_ends(self):
        # Heights and distances agree exactly, so at radius 0 the one turn
        # taking q onto p is an arc whose ends coincide.
        qq = np.array([[0.0, 0, 0], [0.0, 0, 1], [1.0, 0, 0.5]])
        pp = np.array([[0.0, 0, 0], [0.0, 0, 2], [0.0, 1, 0.5]])
        pair, one = np.array([[0, 1]]), np.array([2])
        full, arc, starts, ends = row_arcs(pp, qq, pair, pair, np.array([0]), one, one, 0.0)
        assert not full[0] and arc[0]
        assert starts[0] == ends[0]

    def test_exact_rows_within_radius_at_60_digits(self):
        # Every row that all-pairs da_exact screens on the pinned-shape exact
        # instances is within the radius at 60 digits, and _cyl_arcs, as the
        # screen calls it, gives each an arc or a full row.
        seen = []
        for m, k in ((10, 6), (12, 7)):
            for seed in range(1, 9):
                inst = generate_instance(GenSpec(m=m, n=m, k=k, eps=0.0, exact=True), seed=seed)
                batches = recorded_batches(lambda: da_exact(inst.P, inst.Q))
                seen += [(inst.P, inst.Q, *screen[:3]) for *_, screens in batches for screen in screens]
        rows = 0
        with localcontext() as ctx:
            ctx.prec = 60
            for pp, qq, (_, table, model, ids, g, qs, ps, _, radius), src, bases in seen:
                full, arc, _, _ = da._cyl_arcs(pp, table, model, ids, g, qs, ps, radius)
                assert (full | arc).all()
                for (a, b), (i, j), q, p in zip(src[g], bases[g], qs, ps):
                    hq, rq = exact_cylinder(qq[a], qq[b], qq[q])
                    hp, rp = exact_cylinder(pp[i], pp[j], pp[p])
                    assert (hq - hp) ** 2 + (rq - rp) ** 2 <= Decimal(radius) ** 2
                    rows += 1
        assert rows > 1000


class TestGatheredSolve:
    """The arc solve and the winner's motions from the call and batch
    tables equal, bit for bit, the reference's per-base solve."""

    @staticmethod
    def same_arcs(got, want):
        return all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    def test_recorded_screens(self):
        # The screens of the 18 tolerant pinned calls and of da_exact on the
        # 8 pinned exact instances.
        checked = 0
        for qq, (pp, table, model, ids, g, qs, ps, _, radius), pairs, bases in pinned_screens():
            got = da._cyl_arcs(pp, table, model, ids, g, qs, ps, radius)
            assert self.same_arcs(got, cyl_arcs(pp, qq, pairs, bases, g, qs, ps, radius))
            checked += len(qs)
        assert checked > 80_000

    def test_recorded_winner_motions(self):
        for pp, qq, scene, model, _, tied, _ in pinned_winner_inputs():
            src, bases, angles, kq, kp = (np.array([t[c] for t in tied]) for c in range(5))
            rot, tr = da._motions(*da._gather(scene, kq), *da._gather(model, kp), angles)
            want_rot, want_tr = motions(pp, qq, src, bases, angles)
            assert rot.tobytes() == want_rot.tobytes()
            assert tr.tobytes() == want_tr.tobytes()

    @pytest.mark.parametrize("scale", [1e-9, 1e-3, 1.0, 1e3, 1e6])
    def test_random_rows(self, scale):
        # Random pairs, bases and rows at every kind of row; bases share
        # source pairs and model pairs, as a batch's do.
        rng = np.random.default_rng(int(-np.log10(scale) + 20))
        kinds = set()
        for _ in range(20):
            pp, qq, src, bases, g, qs, ps, radius = random_bases(rng, scale)
            got = row_arcs(pp, qq, src, bases, g, qs, ps, radius)
            assert self.same_arcs(got, cyl_arcs(pp, qq, src, bases, g, qs, ps, radius))
            full, arc = got[:2]
            kinds |= {"full"} if full.any() else set()
            kinds |= {"arc"} if arc.any() else set()
            kinds |= {"empty"} if (~full & ~arc).any() else set()
            angles = rng.uniform(-TWO_PI, 2 * TWO_PI, len(src))
            every = np.arange(len(src))
            scene, model = da._frames(qq, src), da._frames(pp, bases)
            rot, tr = da._motions(*da._gather(scene, every), *da._gather(model, every), angles)
            want_rot, want_tr = motions(pp, qq, src, bases, angles)
            assert rot.tobytes() == want_rot.tobytes()
            assert tr.tobytes() == want_tr.tobytes()
        assert kinds == {"full", "arc", "empty"}


def with_repeat(X, k):
    return X if k is None else np.vstack([X, X[k]])


# Fingerprints of da_match (all pairs), expander_da and da_exact on the m=n=12,
# k=6, seed-3 tolerant and exact instances with point P[k] and Q[l] appended
# again, keyed by (k, l) (None: nothing appended). They are the outcomes of
# the per-row frames, which raised DegeneratePair only for a screened base or
# a winner whose pair has coincident endpoints.
REPEATED_POINTS = {
    (0, None): ((7, 7, "b132e709c2ed95b7"), (9, 7, "425b2971076d77c2"), (6, 6, "762044fcd7d68c5d")),
    (None, 0): ((8, 8, "a545030d81ae10a0"), (10, 8, "a7ec4ab7f9e2f185"), (7, 7, "7b0503c4a7f61480")),
    (0, 0): (DegeneratePair, DegeneratePair, DegeneratePair),
    (3, 3): (DegeneratePair, DegeneratePair, (6, 6, "762044fcd7d68c5d")),
}


class TestRepeatedPoints:
    @pytest.mark.parametrize("k, l", list(REPEATED_POINTS))
    def test_outcome_pinned(self, k, l):
        tol = generate_instance(GenSpec(m=12, n=12, k=6, eps=0.3, noise=0.3), seed=3)
        ex = generate_instance(GenSpec(m=12, n=12, k=6, eps=0.0, exact=True), seed=3)
        P, Q = with_repeat(tol.P, k), with_repeat(tol.Q, l)
        runs = (
            lambda: da_match(P, Q, MatchParams(0.3)),
            lambda: expander_da(P, Q, 0.3, degree=8, alpha=0.05, seed=3),
            lambda: da_exact(with_repeat(ex.P, k), with_repeat(ex.Q, l)),
        )
        for run, want in zip(runs, REPEATED_POINTS[k, l]):
            if want is DegeneratePair:
                with pytest.raises(DegeneratePair):
                    run()
            else:
                assert fingerprint(run()) == want


class TestExactModeOptimum:
    def test_votes_and_size_equal_brute_force(self):
        # Unguarded planted exact instances; with Pigeonhole(4) the optimum
        # (at least k = 5) exceeds n / 4, so both sources must reach it.
        for seed in range(40):
            m = 9 + seed % 4
            inst = generate_instance(
                GenSpec(m=m, n=m, k=5, eps=0.0, exact=True, lcp_guard=False), seed=seed
            )
            truth = exact_lcp_bruteforce(inst.P, inst.Q).lcp_size
            for src in (AllPairs(), Pigeonhole(4)):
                for res in (
                    da_match(inst.P, inst.Q, MatchParams(0.0, pair_source=src)),
                    da_exact(inst.P, inst.Q, pairs=src),
                ):
                    assert (res.votes, res.size) == (truth, truth), (seed, src)
                    assert res.max_residual <= 1e-12


class TestDaExact:
    def test_five_point_modal_angle(self):
        P, Q, _ = five_point_instance()
        res = da_exact(P, Q)
        assert res.votes == 5  # modal multiplicity 3, plus the base pair
        assert res.size == 5

    def test_equal_sets_identity(self, rng):
        P = rng.uniform(-5, 5, size=(9, 3))
        res = da_exact(P, P)
        assert res.size == 9
        assert np.abs(res.motion.rotation - np.eye(3)).max() <= 1e-9

    def test_pigeonhole_matches_all_pairs(self):
        for seed in range(6):
            inst = generate_instance(
                GenSpec(m=12, n=12, k=7, eps=0.0, exact=True), seed=seed
            )
            full = da_exact(inst.P, inst.Q, pairs=AllPairs())
            sampled = da_exact(inst.P, inst.Q, pairs=Pigeonhole(4))
            assert full.size == sampled.size

    def test_tau_controls_matching(self):
        inst = generate_instance(GenSpec(m=10, n=9, k=5, eps=0.0, exact=True), seed=17)
        res = da_exact(inst.P, inst.Q, ExactParams(tau=1e-9))
        assert res.size == 5


class TestExpanderDa:
    def test_degree_too_small(self):
        inst = generate_instance(GenSpec(m=10, n=10, k=6, eps=0.2), seed=0)
        with pytest.raises(DegreeTooSmall):
            expander_da(inst.P, inst.Q, eps=0.2, degree=100, alpha=4, seed=0)

    @pytest.mark.parametrize("alpha", [float("nan"), 0.0, -0.0, -0.05, float("inf")])
    def test_alpha_outside_zero_to_inf_rejected(self, alpha):
        # NaN would pass the degree check, which compares against it.
        inst = generate_instance(GenSpec(m=10, n=10, k=6, eps=0.2), seed=0)
        with pytest.raises(ValueError, match="alpha"):
            expander_da(inst.P, inst.Q, eps=0.2, degree=8, alpha=alpha, seed=0)

    def test_tiny_slack_forces_full_recovery(self):
        # 50 n / sqrt(d) < 1 forces the degenerate complete-graph source.
        inst = generate_instance(GenSpec(m=24, n=24, k=9, eps=0.3), seed=5)
        n = len(inst.Q)
        degree = (50 * n) ** 2 + 1
        res = expander_da(inst.P, inst.Q, eps=inst.eps, degree=degree, alpha=4, seed=1)
        assert res.votes >= 9
        assert res.size >= 9
        assert res.max_residual <= 6 * inst.eps

    def test_zero_noise_zero_residual(self):
        inst = generate_instance(
            GenSpec(m=12, n=8, k=8, eps=0.2, noise=0.0, clearance=2.0), seed=6
        )
        n = len(inst.Q)
        res = expander_da(
            inst.P, inst.Q, eps=inst.eps, degree=(50 * n) ** 2 + 1, alpha=1.01, seed=2
        )
        assert res.votes >= 8
        # The planted copy is exactly rigid, so the refit certificate is clean.
        assert res.max_residual <= 1e-7

    def test_real_expander_small_alpha(self):
        # A genuine (non-degenerate) expander run: alpha < 1 keeps the degree
        # precondition satisfiable at desk scale; no size guarantee applies.
        inst = generate_instance(GenSpec(m=16, n=16, k=10, eps=0.25), seed=7)
        res = expander_da(inst.P, inst.Q, eps=inst.eps, degree=8, alpha=0.05, seed=3)
        assert res.max_residual <= 6 * inst.eps
        assert res.size >= 2
