"""One reference per kernel, and what the tests share.

Each kernel test compares the kernel with a function here, at the kernel's
own contract: the same bits where bit-equality is its contract, a
brute-force property where it is not. A new kernel is compared with what is
here, not with a copy of the code it replaces.

DA, per source pair, per base, per q: `pair_rows` finds a pair's candidate
rows by brute force over every (q, i, j, p); `scalar_overlap` scores a base
through the scalar arc path (pair_canonical_motion, dihedral_interval) and
`stab`, the sweep by brute force over the arc pieces, which `screen` runs
as the screen's loop. `cyl_arcs` and `motions` solve the arcs and the
winner's motions in frames built per base, the arithmetic the gathered
kernels reproduce bit for bit; `select_winner` and `refine` take the winner
step one motion at a time; `turned` is the rotation about a line, by
Rodrigues' formula, that the arcs stand for. Exact family: `congruent_rows`
keeps the search's rows by geometry.collinear_mask of each side, then sorts
them; `alignment` and `geometric_hashing_counts` score row by row, on the
generic numpy forms of its kernels below them, `is_collinear` among them.
`dense_lambda` is the expander graphs' second eigenvalue from a full
eigendecomposition, and `diam_k` the long-edge lemma's diameter after
deletions, by brute force.
Generator: `fill_points` samples as oracle._fill_points does, one candidate
per Generator call, each tested alone against every accepted point.

The pinned instances come from test_pinned_outputs and the tracer from
test_perfbench_names, which stay as they are; test modules take them from
here and import no other test module.
"""

import math
from contextlib import contextmanager
from dataclasses import replace
from functools import lru_cache
from itertools import combinations, product

import numpy as np
import pytest

from lcpmatch import da, exact
from lcpmatch.da import MatchParams, da_exact, da_match
from lcpmatch.errors import DegenerateBasis, DegeneratePair, TooFewPoints, TooLarge
from lcpmatch.exact import ExactParams
from lcpmatch.geometry import (
    COLLINEAR_REL,
    TWO_PI,
    RigidMotion,
    as_point,
    as_points,
    collinear_mask,
    cross,
    dihedral_interval,
    least_squares_motion,
    motion_from_bases,
    pair_canonical_motion,
    pairwise_distances,
    row_norms,
)
from lcpmatch.index import DistanceRows, _set_bits
from lcpmatch.oracle import GenSpec, _collinear_with_any_pair, generate_instance, random_rotation
from lcpmatch.result import build_match_result

from conftest import random_motion, random_points
from test_perfbench_names import tracing  # noqa: F401
from test_pinned_outputs import (  # noqa: F401
    EXACT_INSTANCES,
    TOLERANT_CALLS,
    TOLERANT_SEEDS,
    exact_instance,
    fingerprint,
    tolerant_instance,
)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------


def five_point_instance():
    """Five common points plus distractors on both sides, exactly congruent.

    Mirrors the classic picture: the planted motion is discoverable through
    any pair of the common set and collects k - 2 = 3 votes per base pair.
    """
    common = np.array([[0, 0, 0], [4, 0, 0], [0, 5, 0], [1, 2, 7], [6, 3, 2]], dtype=float)
    p_extra = np.array([[20, 1, 3], [25, 7, 1], [22, 13, 9]], dtype=float)
    q_extra = np.array([[-30, 5, 2], [-28, -9, 4]], dtype=float)
    mu = RigidMotion(random_rotation(np.random.default_rng(424242)), np.array([3.0, -17.0, 6.0]))
    return np.vstack([common, p_extra]), np.vstack([mu.apply(common), q_extra]), mu


# The exact families below are named as the test ids that run on them read.


def _criterion_2_shapes():
    # The instances of acceptance criterion 2, without the guard that calls the oracle.
    for i in range(200):
        m, n = 8 + (i % 5), 8 + ((i // 5) % 5)
        spec = GenSpec(m=m, n=n, k=4 + (i % (min(m, n) - 3)), eps=0.0, exact=True, lcp_guard=False)
        inst = generate_instance(spec, seed=2000 + i)
        yield inst.P, inst.Q


def _planted_generic():
    # Every other copy is perturbed by up to 2e-10 a coordinate, so residuals and
    # key differences spread up to about tau instead of sitting at rounding level.
    rng = np.random.default_rng(5)
    for i in range(100):
        m, n = (int(x) for x in rng.integers(3, 12, size=2))
        k = int(rng.integers(3, min(m, n) + 1))
        P = rng.uniform(-5.0, 5.0, (m, 3))
        copy = random_motion(rng, 3.0).apply(P[:k]) + (i % 2) * rng.uniform(-2e-10, 2e-10, (k, 3))
        Q = np.vstack([copy, rng.uniform(-5.0, 5.0, (n - k, 3))])
        yield P, Q[rng.permutation(n)]


def _edge_cases():
    rng = np.random.default_rng(6)
    line = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
    # All collinear, with and without equal pair lengths, against lines and generic sets.
    yield np.outer([0.0, 1.0, 3.0, 7.0], line), np.outer([0.0, 2.0, 3.0], [0.0, 0.6, 0.8])
    yield np.outer([0.0, 1.0, 3.0, 7.0, 12.0], line), random_points(rng, 6)
    yield random_points(rng, 6), np.outer([5.0, 6.0, 8.0, 12.0], line)
    # m or n below 3.
    for m, n in ((1, 1), (1, 5), (5, 1), (2, 2), (2, 6), (6, 2)):
        P = random_points(rng, m)
        yield P, np.vstack([P[: min(m, n)], random_points(rng, n - min(m, n))])
    # Integer grids: many equal lengths, many congruent triplets and tied counts.
    cube = np.array(list(product(range(3), repeat=3)), dtype=np.float64)
    for _ in range(12):
        m, n = (int(x) for x in rng.integers(6, 10, size=2))
        signed = np.eye(3)[rng.permutation(3)] * rng.choice([-1.0, 1.0], 3)
        shift = rng.integers(-5, 6, size=3).astype(np.float64)
        yield cube[rng.choice(27, m, replace=False)], cube[rng.choice(27, n, replace=False)] @ signed.T + shift
    # No congruent triplet.
    for _ in range(3):
        yield random_points(rng, 7, span=1.0), random_points(rng, 6, span=1000.0)


# ---------------------------------------------------------------------------
# DA: candidate rows
# ---------------------------------------------------------------------------


def pair_rows(dp, dq, a, b, length, slack):
    """Sorted rows (i, j, q, p) of source pair (a, b) of length `length`, by
    brute force over every (q, i, j, p) of the model and scene distance
    matrices dp and dq: |ij| in the closed slab of the length, |ip| and |jp|
    within the slack of |aq| and |bq|, q outside (a, b), p outside (i, j)."""
    q, i, j, p = np.ix_(*(np.arange(k) for k in (len(dq), len(dp), len(dp), len(dp))))
    ok = (length - slack <= dp[i, j]) & (dp[i, j] <= length + slack)
    ok = ok & (np.abs(dp[i, p] - dq[a, q]) <= slack) & (np.abs(dp[j, p] - dq[b, q]) <= slack)
    ok &= (q != a) & (q != b) & (i != j) & (p != i) & (p != j)
    q, i, j, p = np.nonzero(ok)
    return sorted(zip(i.tolist(), j.tolist(), q.tolist(), p.tolist()))


def batch_groups(per_pair):
    """_base_rows of a batch by brute force from the pair_rows of each of
    its pairs, as `unpacked` gives it: (owner, bases, bounds, sizes, qs, ps)
    as lists, groups by (pair, base), bounds their distinct-q counts, rows
    by group, q, then p."""
    rows = [(k, *row) for k, pair in enumerate(per_pair) for row in pair]
    groups = {}
    for k, i, j, q, p in rows:
        groups.setdefault((k, i, j), []).append(q)
    return (
        [k for k, _, _ in groups],
        [[i, j] for _, i, j in groups],
        [len(set(qs)) for qs in groups.values()],
        [len(qs) for qs in groups.values()],
        [row[3] for row in rows],
        [row[4] for row in rows],
    )


def unpacked(owner, bases, bounds, sizes, cuts, cols, values, width):
    """A _base_rows result with every group's bytes unpacked, as lists:
    (owner, bases, bounds, sizes, qs, ps)."""
    bits = _set_bits(cols, values)
    qs = bits // (8 * width)
    return tuple(x.tolist() for x in (owner, bases, bounds, sizes, qs, bits - qs * (8 * width)))


# ---------------------------------------------------------------------------
# DA: arcs and motions
# ---------------------------------------------------------------------------


def turned(a, b, x, angles):
    """The points x, of shape (3,) or (N, 3), turned about the directed line
    a -> b by each of `angles` (Rodrigues): shape (len(angles), *x.shape)."""
    u = (b - a) / np.linalg.norm(b - a)
    v = x - a
    h = np.multiply.outer(v @ u, u)
    c, s = np.cos(angles), np.sin(angles)
    return a + h + np.multiply.outer(c, v - h) + np.multiply.outer(s, np.cross(u, v))


def frames(points, pairs):
    """The axis frame of every row of `pairs`, with no call or batch table:
    (frames, origins), raising DegeneratePair on coincident endpoints."""
    origins = points[pairs[:, 0]]
    d = points[pairs[:, 1]] - origins
    length = np.sqrt((d * d).sum(axis=1))
    if (length == 0.0).any():
        raise DegeneratePair("pair endpoints coincide")
    u = d / length[:, None]
    e1 = np.zeros_like(u)
    e1[np.arange(len(u)), np.argmin(np.abs(u), axis=1)] = 1.0
    e1 -= (e1 * u).sum(axis=1)[:, None] * u
    e1 /= np.sqrt((e1 * e1).sum(axis=1))[:, None]
    return np.stack([e1, cross(u, e1), u], axis=1), origins


def cylinder(frames, origins, points, g, idx):
    """Height, distance and azimuth of points[idx] about axis g, per row."""
    v, f = points[idx] - origins[g], frames[g]
    x, y, h = (f[:, k, 0] * v[:, 0] + f[:, k, 1] * v[:, 1] + f[:, k, 2] * v[:, 2] for k in range(3))
    return h, np.hypot(x, y), np.arctan2(y, x)


def cyl_arcs(pp, qq, src, bases, g, qs, ps, radius):
    """_cyl_arcs with both sides per row: base g[r] is bases[g[r]] of source
    pair src[g[r]], frames built per base. (full, arc, starts, ends)."""
    hq, rq, aq = cylinder(*frames(qq, src), qq, g, qs)
    hp, rp, ap = cylinder(*frames(pp, bases), pp, g, ps)
    dh, dr = hq - hp, rq - rp
    s = radius * radius - dh * dh - dr * dr
    prod = 4.0 * rq * rp
    full = s >= prod
    arc = ~full & (s >= 0.0)
    half = 2.0 * np.arcsin(np.sqrt(np.divide(s, prod, out=np.zeros_like(s), where=arc)))
    centre = ap - aq
    return full, arc, centre - half, centre + half


def motions(pp, qq, src, bases, angles):
    """The motion of each base turned by its angle, from frames built per base."""
    (fq, qa), (fp, pi) = frames(qq, src), frames(pp, bases)
    c, s = np.cos(angles)[:, None], np.sin(angles)[:, None]
    turned = np.stack([c * fq[:, 0] - s * fq[:, 1], s * fq[:, 0] + c * fq[:, 1], fq[:, 2]], axis=1)
    rot = fp.transpose(0, 2, 1) @ turned
    return rot, pi - (rot @ qa[:, :, None])[:, :, 0]


def scalar_arcs(pp, qq, ab, ij, qs, ps, radius):
    """(full, arc, starts, ends) of the rows (q, p) of base ij = (i, j) of
    source pair ab = (a, b), by the scalar arc path: the base's
    pair_canonical_motion and a dihedral_interval per row."""
    (a, b), (i, j) = ab, ij
    phi = pair_canonical_motion(pp[i], pp[j], qq[a], qq[b])
    ivs = [dihedral_interval(pp[i], pp[j], phi.apply(qq[q]), pp[p], radius) for q, p in zip(qs, ps)]
    kinds = np.array([iv.kind for iv in ivs])
    ends = (np.array([getattr(iv, x) for iv in ivs], dtype=float) for x in ("start", "end"))
    return (kinds == "full", kinds == "arc", *ends)


def scalar_overlap(pp, qq, ab, ij, qs, ps, radius):
    """The DA vote of one base through the scalar arc path: the most q whose
    scalar_arcs hold one angle."""
    arcs = scalar_arcs(pp, qq, ab, ij, qs, ps, radius)
    return int(stab(np.zeros(len(qs), dtype=np.int64), qs, *arcs, 1)[0][0])


# ---------------------------------------------------------------------------
# DA: the sweep and the screen
# ---------------------------------------------------------------------------


def wrap(theta):
    """geometry._wrap over an array: theta % (2*pi), with 2*pi set to 0.0."""
    t = theta % TWO_PI
    return np.where(t >= TWO_PI, 0.0, t)


def split(owner, start, end):
    """geometry._segments over arrays: (owner, start, end) of the pieces,
    main pieces first, an arc reaching 2*pi also covering 0 from 0."""
    stop = start + (end - start) % TWO_PI
    over = stop >= TWO_PI
    return (
        np.concatenate([owner, owner[over]]),
        np.concatenate([start, np.zeros(int(over.sum()))]),
        np.concatenate([np.where(over, TWO_PI, stop), stop[over] - TWO_PI]),
    )


def run_end(pieces, x):
    """The end of the union of overlapping `pieces` that holds x, or None."""
    runs = []
    for s, e in sorted(pieces):
        if runs and s <= runs[-1][1]:
            runs[-1][1] = max(runs[-1][1], e)
        else:
            runs.append([s, e])
    return next((e for s, e in runs if s <= x <= e), None)


def middle_of_peak(x, pieces):
    """The middle of the peak interval that starts at x: it ends where the
    first q counted at x closes. `pieces` holds (q, start, end) of every q
    without a full row."""
    per_q = {}
    for q, s, e in pieces:
        per_q.setdefault(q, []).append((s, e))
    ends = [run_end(ps, x) for ps in per_q.values()]
    return (x + min(e for e in ends if e is not None)) / 2


def stab(g, qs, full, arc, starts, ends, n_bases, todo=None):
    """_stab by brute force, a base at a time (those where `todo` is True):
    arcs wrapped and split at 2*pi into closed pieces, a piece ending at
    2*pi also covering 0. At each piece start x, count the distinct q with
    a piece containing x, plus the q with a full row; the angle is the
    middle of the peak interval from the smallest x at the maximum, 0.0
    with no pieces. Returns (overlap, angle) arrays, 0 where not computed."""
    g, qs = np.asarray(g).tolist(), np.asarray(qs).tolist()
    whole, pieces = [set() for _ in range(n_bases)], [[] for _ in range(n_bases)]
    for r in np.flatnonzero(full).tolist():
        whole[g[r]].add(qs[r])
    rows = np.flatnonzero(arc)
    for r, s, e in zip(*(x.tolist() for x in split(rows, wrap(starts[rows]), wrap(ends[rows])))):
        pieces[g[r]].append((qs[r], s, e))
    overlap, angle = np.zeros(n_bases, dtype=np.int64), np.zeros(n_bases)
    for base in range(n_bases):
        if todo is not None and not todo[base]:
            continue
        own = [(q, s, e) for q, s, e in pieces[base] if q not in whole[base]]
        counts = {
            x: len(whole[base]) + len({q for q, s, e in own if s <= x <= e}) for _, x, _ in own
        }
        overlap[base] = max(counts.values(), default=len(whole[base]))
        first = min((x for x in counts if counts[x] == overlap[base]), default=None)
        angle[base] = 0.0 if first is None else middle_of_peak(first, own)
    return overlap, angle


def screen(rows, n_bases, floor, bound):
    """_screen's loop over `stab`: the bases at the highest `bound` first,
    then those whose bound reaches the floor their overlaps raise; -1 for
    the rest. rows = (g, qs, full, arc, starts, ends)."""
    overlap, angle = np.full(n_bases, -1), np.zeros(n_bases)
    todo = bound == max(floor, bound.max())
    while todo.any():
        got = stab(*rows, n_bases, todo)
        overlap[todo], angle[todo] = got[0][todo], got[1][todo]
        floor = max(floor, int(overlap.max()))
        todo = (bound >= floor) & (overlap < 0)
    return overlap, angle


def stab_rows(rows, n_bases):
    """_stab inputs from rows (base, q, kind, start, end), kind in full/arc/empty."""
    rows = sorted(rows, key=lambda r: r[:2])
    g = np.array([r[0] for r in rows], dtype=np.int64)
    qs = np.array([r[1] for r in rows], dtype=np.int64)
    kinds = np.array([r[2] for r in rows])
    starts = np.array([r[3] for r in rows], dtype=float)
    ends = np.array([r[4] for r in rows], dtype=float)
    return g, qs, kinds == "full", kinds == "arc", starts, ends, n_bases


def random_row_sets(seed, count, marks=None):
    """Random _stab inputs; with `marks`, half the arcs end on those angles."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n_bases = int(rng.integers(1, 4))
        rows = []
        for _ in range(int(rng.integers(0, 20))):
            kind = rng.choice(["full", "arc", "arc", "arc", "empty"])
            if marks is not None and rng.random() < 0.5:
                start, end = rng.choice(marks, 2)
            else:
                start, end = rng.uniform(0, TWO_PI, 2)
            rows.append((int(rng.integers(n_bases)), int(rng.integers(4)), kind, start, end))
        yield stab_rows(rows, n_bases)


def kernel_stab(g, qs, full, arc, starts, ends, n_bases):
    """da._stab over every base of the rows, their pieces built first."""
    return da._stab(da._pieces(g, qs, full, arc, starts, ends), np.ones(n_bases, dtype=bool))


def kernel_bounds(g, qs, full, arc, starts, ends, n_bases):
    """da._bin_bounds of the rows, their pieces built first."""
    return da._bin_bounds(da._pieces(g, qs, full, arc, starts, ends), n_bases)


# ---------------------------------------------------------------------------
# DA: the winner step
# ---------------------------------------------------------------------------


def select_winner(pp, qq, scene, model, top, tied, radius, fits):
    """The winner step one tied motion at a time: motions from frames built
    per base, verified by build_match_result, refined by `refine`, the best
    taken by ((-size, max_residual), q pair, p pair, angle). The tied
    motions share the dict of refits `fits`."""
    scored = []
    src, bases, angles = (np.array([t[c] for t in tied]) for c in range(3))
    for (ab, ij, angle, *_), rot, tr in zip(tied, *motions(pp, qq, src, bases, angles)):
        result = build_match_result(pp, qq, RigidMotion(rot, tr), radius, top + 2, (ab, ij))
        result = replace(result, angle=angle)
        result = refine(pp, qq, result, radius, fits)
        scored.append((((-result.size, result.max_residual), ab, ij, angle), result))
    return min(scored, key=lambda s: s[0])[1]


def refine(pp, qq, result, radius, fits, rounds=8):
    """Up to `rounds` rounds of least-squares refit on the injective matches,
    each kept only when it verifies strictly better; `fits` holds the
    verified fit of each matched set fitted so far (None if degenerate)."""
    for _ in range(rounds):
        matched = result.dedup_matched
        if len(matched) < 3:
            return result
        if matched not in fits:
            q, p = np.array(matched).T
            try:
                fit = least_squares_motion(qq[q], pp[p])
            except DegenerateBasis:
                fit = None
            fits[matched] = None if fit is None else build_match_result(pp, qq, fit, radius, 0)
        if fits[matched] is None:
            return result
        polished = replace(
            fits[matched], votes=result.votes, base_pair=result.base_pair, angle=result.angle
        )
        rank = (-result.size, result.max_residual - 1e-15)
        if not (-polished.size, polished.max_residual) < rank:
            return result
        result = polished
    return result


# ---------------------------------------------------------------------------
# DA: kernel inputs and recorded calls
# ---------------------------------------------------------------------------


def tables(pp, qq, src, bases):
    """(table, model, ids) for bases bases[k] of source pairs src[k], as
    _vote builds them: one scene-table row per distinct source pair, and
    the frames of the distinct model pairs."""
    (pairs, tq), (models, tp) = (np.unique(x, axis=0, return_inverse=True) for x in (src, bases))
    table = da._cyl_table(qq, da._frames(qq, pairs), np.arange(len(pairs)))
    return table, da._frames(pp, models), np.column_stack([tq.reshape(-1), tp.reshape(-1)])


def random_bases(rng, scale):
    """Random (pp, qq, src, bases, g, qs, ps, radius) at a coordinate scale:
    bases sharing source pairs and model pairs, as a batch's do, and 200
    rows sorted by base."""
    m, n = (int(x) for x in rng.integers(4, 12, size=2))
    pp = rng.uniform(-scale, scale, (m, 3)) + rng.uniform(-scale, scale, 3)
    qq = rng.uniform(-scale, scale, (n, 3))
    n_bases = int(rng.integers(1, 30))
    src = np.stack([rng.choice(n, 2, replace=False) for _ in range(n_bases // 3 + 1)])
    mod = np.stack([rng.choice(m, 2, replace=False) for _ in range(n_bases // 2 + 1)])
    src = src[rng.integers(0, len(src), n_bases)]
    bases = mod[rng.integers(0, len(mod), n_bases)]
    g = np.sort(rng.integers(0, n_bases, 200))
    qs, ps = rng.integers(0, n, 200), rng.integers(0, m, 200)
    return pp, qq, src, bases, g, qs, ps, scale * rng.uniform(0.0, 3.0)


@contextmanager
def recording(module, *names):
    """The calls of module.<name>, for each of `names`, made inside: (name,
    args, result) in the order they return."""
    calls = []

    def recorder(name, fn):
        def call(*args):
            result = fn(*args)
            calls.append((name, args, result))
            return result

        return call

    with pytest.MonkeyPatch.context() as patch:
        for name in names:
            patch.setattr(module, name, recorder(name, getattr(module, name)))
        yield calls


def recorded_batches(run):
    """The DA batches of run(): per _base_rows call, (args, result, screens),
    screens holding (args, pairs, bases, result) of the _screen calls that
    follow it, pairs[k] = (a, b) and bases[k] = (i, j) of base k. A batch's
    scene table has a row per pair owning a group whose bound reaches the
    floor of its first screen, in pair order."""
    with recording(da, "_base_rows", "_screen") as calls:
        run()
    batches = []
    for name, args, result in calls:
        if name == "_base_rows":
            batches.append((args, result, []))
            continue
        (search, _, _, src, _), (owner, _, bounds, *_), screens = batches[-1]
        if not screens:
            used = np.unique(owner[bounds >= args[7]])
        tq, tp = args[3].T
        screens.append((args, src[used[tq]], search.pairs[tp], result))
    return batches


def pinned_runs():
    """(instance, run) of the tolerant pinned calls (da_match over all,
    pigeonhole and expander pairs, m=16, n=24) and of da_exact on the pinned
    exact instances."""
    runs = [
        (tolerant_instance(seed), lambda P, Q, seed=seed, call=call: call(P, Q, seed))
        for seed in TOLERANT_SEEDS
        for call in TOLERANT_CALLS.values()
    ]
    return runs + [(exact_instance(*key), da_exact) for key in EXACT_INSTANCES]


@lru_cache(maxsize=None)
def pinned_screens():
    """(qq, args, pairs, bases) of every _screen call of the pinned runs."""
    return [
        (inst.Q, args, pairs, bases)
        for inst, run in pinned_runs()
        for *_, screens in recorded_batches(lambda: run(inst.P, inst.Q))
        for args, pairs, bases, _ in screens
    ]


@lru_cache(maxsize=None)
def pinned_winner_inputs():
    """The _select_winner arguments of the pinned runs, and of one all-pairs
    call at an eps so far below the noise that no base votes and over 200
    bases tie at 0."""
    with recording(da, "_select_winner") as calls:
        for inst, run in pinned_runs():
            run(inst.P, inst.Q)
        inst = tolerant_instance(12)
        da_match(inst.P, inst.Q, MatchParams(0.015))
    return [args for _, args, _ in calls]


# ---------------------------------------------------------------------------
# expander graphs and the exact family
# ---------------------------------------------------------------------------


def dense_lambda(g):
    """estimate_lambda by the full eigendecomposition of the adjacency,
    one copy of the trivial eigenvalue d dropped."""
    eig = np.sort(np.linalg.eigvalsh(g.adjacency()))[::-1]
    assert eig[0] == pytest.approx(g.d, abs=1e-8)
    return float(np.abs(eig[1:]).max())


# Triplets that the frame tests refuse and collinear_mask flags.
DEGENERATE_TRIPLETS = [
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]],  # collinear
    [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]],  # coincident
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.5e-9, 0.0]],  # height below 1e-9
]


def congruent_rows(pp, qq, ab, tau):
    """(pos, tq, tp) of exact._congruent_rows: the search's rows less those
    with a collinear scene or model triplet by geometry.collinear_mask, in
    (pos, q, i, j, p) order."""
    dq = pairwise_distances(qq)
    pos, q, i, j, p = DistanceRows(pp).query(dq, ab, dq[ab[:, 0], ab[:, 1]], tau)
    tq, tp = np.column_stack([ab[pos], q]), np.column_stack([i, j, p])
    keep = ~(collinear_mask(qq, tq) | collinear_mask(pp, tp))
    pos, tq, tp = pos[keep], tq[keep], tp[keep]
    lex = np.lexsort((*tp.T[::-1], tq[:, 2], pos))
    return pos[lex], tq[lex], tp[lex]


def alignment(P, Q, tau=1e-9):
    """Row by row alignment: (top count, first row reaching it, its result),
    each row scored by its own motion."""
    exact._require_sizes(P, Q, 3, 3)
    tq, tp = exact._congruent_triplets(P, Q, ExactParams(tau=tau))[:2]
    best = None
    for r in range(len(tq)):
        mu = motion_from_bases(Q[tq[r]], P[tp[r]])
        ok = np.linalg.norm(mu.apply(Q)[:, None] - P[None], axis=2).min(axis=1) <= tau
        ok[tq[r]] = False
        if best is None or ok.sum() > best[0]:
            best = (int(ok.sum()), r, mu)
    count, row, mu = best
    return count, row, build_match_result(P, Q, mu, tau, votes=count)


def geometric_hashing_counts(P, Q, tau=1e-9):
    """Row by row geometric hashing: every congruent row's fourth-point
    votes, a (q4, p4) pair voting when its three distances to the row's
    triplets agree within tau and its orientation signs are equal."""
    tq, tp = exact._congruent_triplets(P, Q, ExactParams(tau=tau))[:2]
    dq, dp = pairwise_distances(Q), pairwise_distances(P)
    sq, sp = fourth_point_signs(Q, dq, tq), fourth_point_signs(P, dp, tp)
    counts = np.zeros(len(tq), dtype=np.int64)
    for r in range(len(tq)):
        for q4 in set(range(len(Q))) - set(tq[r]):
            for p4 in set(range(len(P))) - set(tp[r]):
                close = (np.abs(dq[q4, tq[r]] - dp[p4, tp[r]]) <= tau).all()
                counts[r] += bool(close and sq[r, q4] == sp[r, p4])
    return counts


def geometric_hashing(P, Q, tau=1e-9):
    """(top count, first row reaching it) of geometric_hashing_counts."""
    counts = geometric_hashing_counts(P, Q, tau)
    return int(counts.max()), int(np.argmax(counts))


def scored_rows(matcher, P, Q):
    """(tq, tp, counts) of the rows that matcher scores through exact._best_row."""
    with recording(exact, "_best_row") as calls:
        matcher(P, Q)
    _, (_, _, tq, tp, score, _), _ = calls[-1]
    return tq, tp, score(slice(0, len(tq)))


def unique_rows(keys):
    """np.unique(axis=0)'s (first, inverse, counts) of the rows of `keys`."""
    _, first, inverse, counts = np.unique(
        keys, axis=0, return_index=True, return_inverse=True, return_counts=True
    )
    return first, inverse.reshape(-1), counts


def fourth_point_signs(pts, d, trips):
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


def is_collinear(a, b, c, rel=COLLINEAR_REL):
    """geometry.collinear_mask of one triplet of points, on np.linalg.norm."""
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


def triplet_frame(trip):
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


def diam_k(S, k):
    """Minimum diameter of S after deleting k points, by brute force over all
    C(|S|, k) removals; guarded so the enumeration stays at desk scale."""
    pts = as_points(S)
    n = len(pts)
    if not 0 <= k < n:
        raise ValueError("need 0 <= k < |S|")
    if n - k < 2:
        raise TooFewPoints("at least two points must remain")
    if math.comb(n, k) > 10**6:
        raise TooLarge(f"C({n}, {k}) removals exceed the brute-force cap")
    d = pairwise_distances(pts)
    keep = (np.setdiff1d(np.arange(n), removed) for removed in combinations(range(n), k))
    return min(float(d[np.ix_(s, s)].max()) for s in keep)


def fill_points(
    rng,
    count,
    box,
    grid,
    sep,
    reject_collinear,
    existing=None,
    clearance_from=None,
    clearance=0.0,
    budget=None,
    origin=None,
):
    """oracle._fill_points one candidate at a time: each is drawn by its own
    size-3 call, charged to the budget, tested against every accepted point
    and the clearance set, and stacked onto the accepted points."""
    pts = np.empty((0, 3)) if existing is None else existing
    near = np.empty((0, 3)) if clearance_from is None else clearance_from
    added = 0
    while added < count:
        if budget is not None:
            budget[0] -= 1
            if budget[0] <= 0:
                return None
        if grid:
            cand = rng.integers(0, int(box) + 1, size=3).astype(np.float64)
        else:
            cand = rng.uniform(0.0, box, size=3)
        if origin is not None:
            cand = cand + origin
        if len(pts) and row_norms(cand - pts).min() <= sep:
            continue
        if len(near) and row_norms(cand - near).min() <= clearance:
            continue
        if reject_collinear and _collinear_with_any_pair(cand, pts):
            continue
        pts = np.vstack([pts, cand])
        added += 1
    return pts
