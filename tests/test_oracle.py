from itertools import permutations

import numpy as np
import pytest

from lcpmatch import oracle
from lcpmatch.errors import EmptySet, SizeMismatch, TooLarge
from lcpmatch.geometry import (
    RigidMotion,
    as_points,
    collinear_mask,
    min_interpoint_distance,
    motion_from_bases,
    motions_from_bases,
    nearest_matches,
    pairwise_distances,
)
from lcpmatch.oracle import (
    OracleResult,
    GenSpec,
    Instance,
    bottleneck_distance,
    exact_lcp_bruteforce,
    generate_instance,
    verify_motion,
)

from conftest import random_motion, random_points
from reference import _criterion_2_shapes, _edge_cases, _planted_generic, fill_points


class TestBruteforceLcp:
    def test_identical_sets(self, rng):
        P = random_points(rng, 7)
        assert exact_lcp_bruteforce(P, P).lcp_size == 7

    def test_uncongruent_floor(self, rng):
        P = random_points(rng, 5, span=1.0)
        Q = random_points(rng, 5, span=1000.0)
        # A single point always matches; two need agreeing pair lengths.
        assert exact_lcp_bruteforce(P, Q).lcp_size <= 2

    def test_planted_exact_instance(self):
        inst = generate_instance(GenSpec(m=9, n=8, k=5, eps=0.0, exact=True), seed=21)
        res = exact_lcp_bruteforce(inst.P, inst.Q)
        assert res.lcp_size == 5
        check = verify_motion(inst.P, inst.Q, res.motion, 1e-9)
        assert check.size == 5

    def test_witness_verifies(self, rng):
        P = random_points(rng, 6)
        mu = random_motion(rng)
        Q = mu.inverse().apply(P[:4])
        res = exact_lcp_bruteforce(P, Q)
        assert res.lcp_size == 4
        assert verify_motion(P, Q, res.motion, 1e-9).size == 4

    def test_symmetric_under_transposed_enumeration(self):
        # Swapping P and Q transposes every (q-triplet, p-triplet) pair the
        # enumeration visits; the largest common point set is the same.
        for seed in range(50):
            inst = generate_instance(GenSpec(m=7, n=6, k=4, eps=0.0, exact=True), seed=seed)
            forward = exact_lcp_bruteforce(inst.P, inst.Q).lcp_size
            assert forward == exact_lcp_bruteforce(inst.Q, inst.P).lcp_size

    def test_guard(self):
        big = np.random.default_rng(0).uniform(size=(40, 3))
        with pytest.raises(TooLarge):
            exact_lcp_bruteforce(big, big)


def _scalar_bruteforce(P, Q, tau=1e-9):
    """The brute force as a scalar loop: a dense key compare per q triplet, then
    motion_from_bases and nearest_matches for each congruent triplet pair.

    Returns the result, the congruent (q, p) triplet rows in the order the loop
    visits them, and each row's match count.
    """
    pp, qq = as_points(P), as_points(Q)
    best_size = 1
    best_motion = RigidMotion(np.eye(3), pp[0] - qq[0])
    best_matched = ((0, 0),)
    pair_floor = oracle._best_pair_floor(pp, qq, tau)
    if pair_floor is not None:
        best_size, best_motion, best_matched = 2, pair_floor[0], pair_floor[1]
    rows, counts = [], []
    if len(pp) >= 3 and len(qq) >= 3:
        p_trips, p_keys = _triplets_and_keys(pp)
        q_trips, q_keys = _triplets_and_keys(qq)
        for qi in range(len(q_keys)):
            for pi in np.flatnonzero((np.abs(q_keys[qi] - p_keys) <= tau).all(axis=1)):
                mu = motion_from_bases(qq[q_trips[qi]], pp[p_trips[pi]])
                pairs, _ = nearest_matches(pp, qq, mu, tau)
                rows.append((qi, pi))
                counts.append(len(pairs))
                if len(pairs) > best_size:
                    best_size, best_motion, best_matched = len(pairs), mu, tuple(pairs)
    result = OracleResult(best_size, best_motion, best_matched)
    return result, np.array(rows, dtype=np.int64).reshape(-1, 2), np.array(counts, dtype=np.int64)


def _triplets_and_keys(pts):
    trips = np.array(list(permutations(range(len(pts)), 3)), dtype=np.int64)
    trips = trips[~collinear_mask(pts, trips)]
    d = pairwise_distances(pts)
    keys = np.column_stack(
        [d[trips[:, 0], trips[:, 1]], d[trips[:, 0], trips[:, 2]], d[trips[:, 1], trips[:, 2]]]
    )
    return trips, keys


def _same_result(a, b):
    return (
        a.lcp_size == b.lcp_size
        and a.matched == b.matched
        and a.motion.rotation.tobytes() == b.motion.rotation.tobytes()
        and a.motion.translation.tobytes() == b.motion.translation.tobytes()
    )


class TestBatchedBruteforce:
    """The array passes of exact_lcp_bruteforce against the scalar loop they replace."""

    @pytest.mark.parametrize("family", [_criterion_2_shapes, _planted_generic, _edge_cases])
    def test_equals_scalar_loop(self, family):
        for P, Q in family():
            ref, rows, counts = _scalar_bruteforce(P, Q)
            assert _same_result(exact_lcp_bruteforce(P, Q), ref)
            if len(P) < 3 or len(Q) < 3:
                continue
            p_trips, p_keys = oracle._noncollinear_triplets(P)
            q_trips, q_keys = oracle._noncollinear_triplets(Q)
            qi, pi = oracle._congruent_pairs(q_keys, p_keys, 1e-9)
            assert np.array_equal(np.column_stack([qi, pi]).reshape(-1, 2), rows)
            if len(qi):
                rot, tr = motions_from_bases(Q[q_trips[qi]], P[p_trips[pi]])
                assert np.array_equal(oracle._match_counts(P, Q, rot, tr, 1e-9), counts)

    def test_families_cover_the_cases(self):
        edges = list(_edge_cases())
        assert len(list(_criterion_2_shapes())) + len(list(_planted_generic())) + len(edges) >= 300
        counts = [_scalar_bruteforce(P, Q)[2] for P, Q in edges]
        assert min(len(c) for c in counts) == 0 and max(len(c) for c in counts) > 1000
        # Grid cases tie many rows at the top count, so first-at-top decides the winner.
        assert max((c == c.max()).sum() for c in counts if len(c)) > 100

    def test_window_equals_dense_compare(self):
        # Keys within 1.5*tau of a few shared centres, so that windows hold rows on
        # both sides of the test and out of index order, with centres at tau's
        # scale and far above it; then keys at tau and just past it.
        rng = np.random.default_rng(3)
        for trial in range(100):
            for tau in (1e-9, 1.0, 1e6):
                base = rng.uniform(0.0, (4.0 if trial % 2 else 1e4) * tau, size=(4, 3))
                p_keys, q_keys = (
                    np.abs(base[rng.integers(0, 4, r)] + rng.uniform(-1.5 * tau, 1.5 * tau, (r, 3)))
                    for r in (40, 30)
                )
                if trial == 0:
                    q_keys = np.vstack([p_keys + tau, np.nextafter(p_keys + tau, np.inf), p_keys])
                qi, pi = oracle._congruent_pairs(q_keys, p_keys, tau)
                dense = np.argwhere((np.abs(q_keys[:, None] - p_keys[None]) <= tau).all(axis=2))
                assert np.array_equal(np.column_stack([qi, pi]).reshape(-1, 2), dense)

    def test_result_independent_of_cell_budget(self, monkeypatch):
        cases = list(_criterion_2_shapes())[:10] + list(_edge_cases())
        default = [exact_lcp_bruteforce(P, Q) for P, Q in cases]
        monkeypatch.setattr(oracle, "_VERIFY_CELLS", 1)
        for (P, Q), res in zip(cases, default):
            assert _same_result(exact_lcp_bruteforce(P, Q), res)


IDENTITY = RigidMotion(np.eye(3), np.zeros(3))


class TestVerifyMotion:
    def test_empty_model_raises(self, rng):
        with pytest.raises(EmptySet):
            verify_motion(np.empty((0, 3)), random_points(rng, 4), IDENTITY, 1.0)

    def test_empty_scene_matches_nothing(self, rng):
        res = verify_motion(random_points(rng, 4), np.empty((0, 3)), IDENTITY, 1.0)
        assert res.size == 0 and res.max_residual == 0.0

    def test_identity_radius_zero(self, rng):
        P = random_points(rng, 6)
        res = verify_motion(P, P, IDENTITY, 0.0)
        assert res.size == 6
        assert res.max_residual == 0.0

    def test_planted_motion_recovers_planted_set(self):
        inst = generate_instance(GenSpec(m=12, n=10, k=6, eps=0.5), seed=5)
        res = verify_motion(inst.P, inst.Q, inst.truth.motion.inverse(), inst.truth.noise)
        assert set(res.matched) >= set(inst.truth.pairs)

    def test_radius_below_min_residual_empty(self, rng):
        P = random_points(rng, 5)
        Q = P + 1.0
        res = verify_motion(P, Q, IDENTITY, 0.5)
        assert res.size == 0

    def test_dedup_is_injective(self, rng):
        P = np.array([[0.0, 0, 0], [10.0, 0, 0]])
        Q = np.array([[0.1, 0, 0], [-0.1, 0, 0], [10.0, 0, 0]])
        res = verify_motion(P, Q, IDENTITY, 1.0)
        assert res.size == 3  # Hausdorff count: both near-origin qs match p0
        ps = [p for _, p in res.dedup_matched]
        assert len(ps) == len(set(ps)) == 2
        # Greedy keeps the smaller residual for the contested target.
        assert (0, 0) not in res.dedup_matched or (1, 0) not in res.dedup_matched


    @pytest.mark.parametrize("radius", [np.nan, -1e-12, np.inf, -np.inf])
    def test_radius_must_be_finite_and_nonnegative(self, rng, radius):
        P = random_points(rng, 4)
        with pytest.raises(ValueError):
            verify_motion(P, P, IDENTITY, radius)


def directed_hausdorff(P, Q) -> float:
    """The directed Hausdorff distance from Q to P: max over q of min over p of |pq|."""
    diff = np.asarray(Q)[:, None, :] - np.asarray(P)[None, :, :]
    return float(np.sqrt((diff * diff).sum(axis=2)).min(axis=1).max())


class TestBottleneck:
    def test_identical(self, rng):
        P = random_points(rng, 6)
        assert bottleneck_distance(P, P) == 0.0

    def test_forced_injection(self):
        P = [[0, 0, 0], [10, 0, 0]]
        Q = [[1, 0, 0], [9, 0, 0]]
        assert bottleneck_distance(P, Q) == pytest.approx(1.0)

    def test_matches_factorial_oracle(self, rng):
        for _ in range(30):
            nq = int(rng.integers(2, 7))
            mp = int(rng.integers(nq, 8))
            P = random_points(rng, mp, span=3.0)
            Q = random_points(rng, nq, span=3.0)
            d = np.sqrt(((Q[:, None, :] - P[None, :, :]) ** 2).sum(-1))
            brute = min(
                max(d[q, perm[q]] for q in range(nq))
                for perm in permutations(range(mp), nq)
            )
            assert bottleneck_distance(P, Q) == pytest.approx(float(brute))

    def test_size_mismatch(self, rng):
        with pytest.raises(SizeMismatch):
            bottleneck_distance(random_points(rng, 3), random_points(rng, 5))

    def test_empty_sets_raise(self, rng):
        empty = np.empty((0, 3))
        for P, Q in ((random_points(rng, 3), empty), (empty, empty), (empty, random_points(rng, 2))):
            with pytest.raises(EmptySet):
                bottleneck_distance(P, Q)

    def test_bottleneck_dominates_hausdorff(self, rng):
        for _ in range(20):
            P = random_points(rng, 8)
            Q = random_points(rng, 5)
            assert bottleneck_distance(P, Q) >= directed_hausdorff(P, Q) - 1e-12

    def test_hausdorff_bottleneck_agree_under_tolerant_separation(self):
        # With interpoint separation above twice the radius, a Hausdorff match
        # within eps is automatically injective, so the two distances do not
        # merely cross the eps threshold together: they coincide below it.
        for seed in range(20):
            inst = generate_instance(GenSpec(m=12, n=9, k=9, eps=0.4), seed=300 + seed)
            planted_q = [q for q, _ in inst.truth.pairs]
            moved = inst.truth.motion.inverse().apply(inst.Q[planted_q])
            h = directed_hausdorff(inst.P, moved)
            b = bottleneck_distance(inst.P, moved)
            assert h <= inst.eps
            assert (h <= inst.eps) == (b <= inst.eps)
            assert b == pytest.approx(h, abs=1e-9)


class TestGenerator:
    def test_rigid_copy_when_k_equals_n(self):
        inst = generate_instance(GenSpec(m=10, n=6, k=6, eps=0.0, exact=True), seed=2)
        planted_p = [p for _, p in inst.truth.pairs]
        img = inst.truth.motion.apply(inst.P[planted_p])
        q_order = [q for q, _ in inst.truth.pairs]
        assert np.abs(img - inst.Q[q_order]).max() <= 1e-9

    def test_tolerant_precondition_enforced(self):
        inst = generate_instance(GenSpec(m=14, n=12, k=7, eps=0.4), seed=9)
        assert min_interpoint_distance(inst.P) > 2 * inst.eps
        assert min_interpoint_distance(inst.Q) > 2 * inst.eps

    def test_seeded_determinism(self):
        spec = GenSpec(m=11, n=9, k=5, eps=0.3)
        a = generate_instance(spec, seed=77)
        b = generate_instance(spec, seed=77)
        assert np.array_equal(a.P, b.P)
        assert np.array_equal(a.Q, b.Q)
        assert a.truth.pairs == b.truth.pairs

    def test_noise_within_bound(self):
        inst = generate_instance(GenSpec(m=12, n=10, k=6, eps=0.5, noise=0.3), seed=13)
        img = inst.truth.motion.apply(inst.P)
        for q, p in inst.truth.pairs:
            assert np.linalg.norm(inst.Q[q] - img[p]) <= 0.3 + 1e-12

    def test_exact_instances_on_grid(self):
        inst = generate_instance(GenSpec(m=9, n=7, k=4, eps=0.0, exact=True), seed=4)
        assert np.array_equal(inst.P, np.round(inst.P))
        assert inst.truth.noise == 0.0

    def test_json_roundtrip(self, tmp_path):
        inst = generate_instance(GenSpec(m=8, n=7, k=4, eps=0.25), seed=6)
        text = inst.to_json()
        back = Instance.from_json(text)
        assert np.array_equal(back.P, inst.P)
        assert np.array_equal(back.Q, inst.Q)
        assert back.truth.pairs == inst.truth.pairs
        assert back.digest() == inst.digest()

    def test_schema_fields(self):
        inst = generate_instance(GenSpec(m=8, n=7, k=4, eps=0.25), seed=6)
        d = inst.to_dict()
        assert set(d) == {"eps", "P", "Q", "truth"}
        assert set(d["truth"]) == {"rotation", "translation", "pairs", "k", "noise"}
        assert len(d["truth"]["rotation"]) == 9
        assert len(d["truth"]["translation"]) == 3


# Instance.digest()[:16] per (spec, seed), recorded before the generator's
# rejection tests were batched (the last three specs: before its candidates
# were drawn in blocks); they must reproduce every instance bit for bit.
PINNED_SPECS = {
    "tol-default": GenSpec(m=12, n=16, k=6, eps=0.3),
    "tol-bench": GenSpec(m=16, n=24, k=8, eps=0.3, noise=0.3),
    "tol-min_sep": GenSpec(m=12, n=16, k=6, eps=0.3, min_sep=1.5),
    "tol-clearance": GenSpec(m=12, n=16, k=6, eps=0.3, clearance=2.5),
    "tol-box": GenSpec(m=12, n=16, k=6, eps=0.2, noise=0.1, box=25.0),
    "exact-guard": GenSpec(m=10, n=10, k=6, eps=0.0, exact=True),
    "exact-guard-mn": GenSpec(m=9, n=12, k=5, eps=0.0, exact=True),
    "exact-noguard": GenSpec(m=12, n=12, k=7, eps=0.0, exact=True, lcp_guard=False),
    # Small grids, where the collinearity rejection fires.
    "exact-small-box": GenSpec(m=10, n=10, k=6, eps=0.0, exact=True, box=4.0),
    "exact-small-box-noguard": GenSpec(
        m=12, n=12, k=7, eps=0.0, exact=True, box=5.0, lcp_guard=False
    ),
    # A tight box that rejects many candidates, sets that span several blocks
    # of the sampler, and the collinearity rejection at 40 points.
    "tol-tight-box": GenSpec(m=16, n=24, k=8, eps=0.3, noise=0.3, box=3.5),
    "tol-many-blocks": GenSpec(m=100, n=100, k=30, eps=0.3),
    "exact-noguard-40": GenSpec(m=40, n=40, k=12, eps=0.0, exact=True, lcp_guard=False),
}
PINNED_DIGESTS = {
    ("tol-default", 1): "75c729703399f445",
    ("tol-default", 2): "423b333b80317c98",
    ("tol-default", 3): "a1727cd9a902ffe2",
    ("tol-bench", 1): "174f357d7e7b713f",
    ("tol-bench", 2): "1251c59508747d9f",
    ("tol-bench", 3): "9d010944a7ddf197",
    ("tol-min_sep", 1): "d227a1e675d0ef06",
    ("tol-min_sep", 2): "0afee44e77e508d0",
    ("tol-min_sep", 3): "1b129350420c0d7e",
    ("tol-clearance", 1): "964d10a5cd2ae06c",
    ("tol-clearance", 2): "fe25f71b55141dca",
    ("tol-clearance", 3): "f9263ee604c1893b",
    ("tol-box", 1): "80ca7573b2ea7b81",
    ("tol-box", 2): "42288cb36b81bd91",
    ("tol-box", 3): "7f967528abea414b",
    ("exact-guard", 1): "272079d77d3ecc6e",
    ("exact-guard", 2): "102770c8edca6b3f",
    ("exact-guard", 3): "1b14b60bade647a9",
    ("exact-guard-mn", 1): "bac5588aa56c5e40",
    ("exact-guard-mn", 2): "21250e9a51f2a43d",
    ("exact-guard-mn", 3): "db73655d611c7c9f",
    ("exact-noguard", 1): "f5f8122dd7ec0134",
    ("exact-noguard", 2): "2949c0c8924d4130",
    ("exact-noguard", 3): "8176872f5446ff35",
    ("exact-small-box", 1): "23b33312e12c0176",
    ("exact-small-box", 2): "83dccdc14a242dde",
    ("exact-small-box", 3): "8b7d63b3a5231ae6",
    ("exact-small-box-noguard", 1): "1855451a11869e3c",
    ("exact-small-box-noguard", 2): "68b371ad76c264da",
    ("exact-small-box-noguard", 3): "234d933c86b5bfc8",
    ("tol-tight-box", 1): "53a83ef4e02118c6",
    ("tol-tight-box", 2): "c0699c666b587795",
    ("tol-tight-box", 3): "fe1ccc34fb936ce8",
    ("tol-many-blocks", 1): "97961b8fba6c9443",
    ("tol-many-blocks", 2): "3285902467c19c2e",
    ("tol-many-blocks", 3): "22d87edb284e6198",
    ("exact-noguard-40", 1): "2524459960cedc78",
    ("exact-noguard-40", 2): "f4901a005c7235d6",
    ("exact-noguard-40", 3): "202d56f175f1973f",
}


@pytest.mark.parametrize("name, seed", sorted(PINNED_DIGESTS))
def test_pinned_generator_digest(name, seed):
    inst = generate_instance(PINNED_SPECS[name], seed=seed)
    assert inst.digest()[:16] == PINNED_DIGESTS[name, seed]


class TestBlockSampler:
    """oracle._fill_points draws candidates in blocks and rewinds the
    generator; the output must be that of one draw per candidate."""

    DRAWS = {
        "uniform": lambda rng, rows: rng.uniform(0.0, 7.5, size=rows),
        "integers-4": lambda rng, rows: rng.integers(0, 4, size=rows),
        "integers-13": lambda rng, rows: rng.integers(0, 13, size=rows),
    }

    @pytest.mark.parametrize("kind", sorted(DRAWS))
    @pytest.mark.parametrize("used", [0, 1, 7, 24])
    def test_rng_block_contract(self, kind, used):
        # The installed numpy must keep the contract the sampler rests on: a
        # (B, 3) block equals B successive size-3 draws, and restoring the
        # state and redrawing `used` rows leaves the generator where `used`
        # single draws leave it, the buffered 32-bit half included.
        draw = self.DRAWS[kind]
        block_rng = np.random.default_rng([5, 1])
        single_rng = np.random.default_rng([5, 1])
        draw(block_rng, 1)  # start off an even count of 32-bit halves
        draw(single_rng, 1)
        state = block_rng.bit_generator.state
        block = draw(block_rng, (24, 3))
        singles = np.array([draw(single_rng, 3) for _ in range(24)])
        assert block.dtype == singles.dtype
        assert block.tobytes() == singles.tobytes()
        assert block_rng.bit_generator.state == single_rng.bit_generator.state

        block_rng.bit_generator.state = state
        draw(block_rng, (used, 3))
        single_rng = np.random.default_rng([5, 1])
        draw(single_rng, 1)
        for _ in range(used):
            draw(single_rng, 3)
        assert block_rng.bit_generator.state == single_rng.bit_generator.state
        assert draw(block_rng, 5).tobytes() == draw(single_rng, 5).tobytes()

    @staticmethod
    def recipe(seed):
        """Random _fill_points arguments: tight and loose boxes, the grid
        with the collinearity rejection, accepted points with a clearance
        set, and budgets that run out inside a block, at its end or never."""
        pick = np.random.default_rng(seed)
        grid = bool(seed % 3 == 0)
        count = int(pick.integers(1, 90))
        box = float(pick.choice([3.0, 5.0, 12.0]))
        # Grid points lie exactly 1 and 2 apart, on the boundary of the test.
        sep = float(pick.choice([1.0, 2.0] if grid else [0.3, 1.0, 1.7]))
        kwargs = {}
        if not grid and seed % 2:
            images = pick.uniform(0.0, box, size=(int(pick.integers(1, 12)), 3))
            kwargs = dict(
                existing=images,
                clearance_from=images,
                clearance=float(pick.choice([0.5, sep, 2.5])),
                origin=images.min(axis=0) - 0.25 * box,
            )
        budget = int(pick.choice([1, count, count + 8, 64, 65, 200, 2000]))
        return (count, box, grid, sep, grid), kwargs, budget

    @pytest.mark.parametrize("seed", range(24))
    def test_equals_one_candidate_at_a_time(self, seed):
        args, kwargs, budget = self.recipe(seed)
        got_budget, want_budget = [budget], [budget]
        got_rng, want_rng = np.random.default_rng([seed, 9]), np.random.default_rng([seed, 9])
        got = oracle._fill_points(got_rng, *args, budget=got_budget, **kwargs)
        want = fill_points(want_rng, *args, budget=want_budget, **kwargs)
        if want is None:
            assert got is None
            return
        assert got is not None and got.tobytes() == want.tobytes()
        assert got_budget == want_budget
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("grid", [False, True])
    def test_budget_spent_on_the_last_candidate(self, grid):
        # A budget that reaches 0 on the candidate completing the fill fails
        # it and one unit more lets it through, as one draw at a time does.
        args = (12, 4.0, grid, 1.0, grid)
        left = [10**4]
        fill_points(np.random.default_rng(3), *args, budget=left)
        used = 10**4 - left[0]
        assert used > 12
        for budget in (used, used + 1):
            got = oracle._fill_points(np.random.default_rng(3), *args, budget=[budget])
            want = fill_points(np.random.default_rng(3), *args, budget=[budget])
            assert (got is None) == (want is None) == (budget == used)
            assert want is None or got.tobytes() == want.tobytes()

    def test_recipes_cover_the_cases(self):
        # The recipes reach a budget that runs out, fills that reject
        # candidates, and fills within one block and over several.
        seen = set()
        for seed in range(24):
            args, kwargs, budget = self.recipe(seed)
            left = [budget]
            pts = fill_points(np.random.default_rng([seed, 9]), *args, budget=left, **kwargs)
            if pts is None:
                seen.add("budget runs out")
                continue
            used = budget - left[0]
            seen.add("rejects" if used > args[0] else "rejects none")
            seen.add("several blocks" if used > oracle._BLOCK else "one block")
        assert seen == {
            "budget runs out",
            "rejects",
            "rejects none",
            "several blocks",
            "one block",
        }
