"""Tolerant matching by dihedral-angle interval voting.

For each source pair (q1, q2) that survives the pair-length filter, every
remaining q proposes candidate bases (p1, p2) through one batched search of
the model distance rows (index.DistanceRows): (p1, p2, p) is a candidate
when its triangle (|p1 p2|, |p1 p|, |p2 p|) is within the slack of (|q1 q2|,
|q1 q|, |q2 q|) in every coordinate. Per base, a canonical motion phi takes
q1 to p1 and q2 onto the ray p1 -> p2; the residual freedom is a rotation
about that axis, and each matched pair (q, p) admits a closed arc of
rotation angles keeping phi(q) within the report radius of p. The angle
stabbing the most arcs, counting each q once, fixes the motion; the base
pair itself contributes the "+2".

Source pairs are taken in batches, one search for the candidate rows of
every pair in a batch, and one loop (_tied_bases) walks them in every
mode. A batch's bases go from the highest distinct-q count, which bounds
their overlap, to the lowest; the best overlap so far is a floor, and the
batch stops at the first base whose bound is below it. Tolerant bases are
scored in array passes (the screen), a chunk of rows a pass: canonical
motions for every base, the arc of every matched (q, p), a tighter bound
(the most q whose arcs touch one of _BINS equal bins of the circle), and
one stabbing sweep segmented by base over the bases whose bound reaches the
floor, in which each (base, q) counts wherever one of its arcs is open
(_stab). Only the bases tied at the best overlap over all pairs are
rescored, their motions and coefficients by the scalar helpers and then
all of them by the same sweep, so the winner's motion and angle carry the
scalar arithmetic bit for bit. When the radius is down at rounding level
(eps = 0), arcs hinge on the last bit, and the same loop scores one base
at a time that way instead; exact mode scores one base at a time by its
own modal window. Tied winners are re-verified, polished by an iterated
least-squares refit on their injective matches (kept only when it
verifies at least as well; each matched set is fitted once), and the
best certificate is returned.

Guarantee shape: with all pairs and the tolerant precondition (minimum
interpoint distance above 2*eps), the diameter pair of the optimal matched
set passes the filter and votes the full set at radius 4*eps, so the winner
is at least as large as the optimum. The exact-mode variant (zero noise)
replaces arcs by single angles and votes by sorting them. The expander
variant draws source pairs from a verified expander graph and widens the
radius to 6*eps by default, trading a bounded size slack for fewer pairs.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import (
    DegenerateBasis,
    DegeneratePair,
    DegreeTooSmall,
    NoCandidatePairs,
    TooFewPoints,
)
from .exact import ExactParams
from .geometry import (
    TWO_PI,
    RigidMotion,
    as_points,
    cross,
    least_squares_motion,
    motion_from_bases,
    pair_canonical_motion,
    pairwise_distances,
    rotation_about_line,
    rotation_distance_coeffs,
)
# perfbench/tracing.py wraps these names here; no matcher calls them.
from .geometry import max_overlap_angle, union_intervals  # noqa: F401
from .index import DistanceRows
from .index import build_pair_dict, build_triplet_index  # noqa: F401
from .result import MatchResult, build_match_result
from .sampling import AllPairs, Expander, PairSource, materialize_pairs


@dataclass(frozen=True)
class MatchParams:
    """Tolerance, pair source, and certificate radius factor for da_match.

    The report factor scales eps into the certificate radius (4 for the
    plain matcher, 6 for the expander variant).
    """

    eps: float
    pair_source: PairSource = AllPairs()
    report_factor: float = 4.0

    def __post_init__(self):
        if not 0 <= self.eps < np.inf:
            raise ValueError("eps must be finite and >= 0")
        if not 0 < self.report_factor < np.inf:
            raise ValueError("report_factor must be finite and positive")


# Cells (third scene points times third model points times model pairs in
# the length slab) that the source pairs of one batch may span, at least one
# pair a batch. A cell yields at most one candidate row, so this bounds the
# row builder's output.
_BATCH_CELLS = 1 << 20
# Rows of one _screen call, at least one base a call; this bounds the
# screen's per-row temporaries and lets the floor rise between calls.
_SCREEN_ROWS = 1 << 11
# Equal bins of the circle for the screen's per-base overlap bound.
_BINS = 8
# Angles within this many radians of each other vote as one in exact mode.
_ANGLE_TOL = 1e-7


def _live_pairs(source, qq, search, slack):
    """The source pairs that pass the length filter, long pairs first.

    A pair passes when its length slab in the DistanceRows `search` is not
    empty. Returns (src, lengths): pairs (a, b) and their lengths |ab|. A
    diameter pair of the optimum is the pair the guarantee rides on, and
    finding it early raises the skip floor.
    """
    src = np.array(materialize_pairs(source, len(qq)), dtype=np.int64).reshape(-1, 2)
    d = qq[src[:, 0]] - qq[src[:, 1]]
    # The per-vector np.linalg.norm, bit for bit; a row-wise sum of squares
    # rounds differently.
    lengths = np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])
    order = np.lexsort((src[:, 1], src[:, 0], -lengths))
    lo, hi = search.slab(lengths[order], slack)
    order = order[hi > lo]
    if len(order) == 0:
        raise NoCandidatePairs("no source pair length matches any model pair")
    return src[order], lengths[order]


def _numeric_fuzz(pp, qq) -> float:
    """Absolute slack standing in for zero when eps == 0, scaled to the data."""
    span = max(
        float(pp.max() - pp.min()) if len(pp) else 0.0,
        float(qq.max() - qq.min()) if len(qq) else 0.0,
        1.0,
    )
    return 1e-9 * span


@dataclass(frozen=True)
class _Candidate:
    overlap: int  # matched points beyond the base pair
    q_pair: tuple[int, int]
    p_pair: tuple[int, int]
    angle: float
    motion: RigidMotion  # phi, the canonical motion of the base
    window: tuple[tuple[int, int], ...] = ()  # exact mode: the (q, p) voting at angle


def _arc_table(c0, c1, c2, radius: float):
    """Vectorized interval solve: masks and arc endpoints per matched pair."""
    amp = np.hypot(c1, c2)
    rr = radius * radius
    scale = np.maximum(np.maximum(c0, rr), 1e-300)
    const = amp <= 1e-14 * scale
    safe_amp = np.where(const, 1.0, amp)
    t = (rr - c0) / safe_amp
    full = (const & (c0 <= rr)) | (~const & (t >= 1.0))
    empty = (const & (c0 > rr)) | (~const & (t < -1.0))
    arc = ~(full | empty)
    phi0 = np.arctan2(c2, c1)
    delta = np.arccos(np.clip(t, -1.0, 1.0))
    starts = (phi0 + delta) % TWO_PI
    ends = (phi0 + TWO_PI - delta) % TWO_PI
    return full, arc, starts, ends


def _base_coeffs(pp, qq, a, b, base, qs, ps):
    """The canonical motion phi of one base and its rows' rotation_distance_coeffs.

    Returns (phi, c0, c1, c2), the coefficients as 1-d arrays.
    """
    i, j = base
    phi = pair_canonical_motion(pp[i], pp[j], qq[a], qq[b])
    img = phi.apply(qq[qs])
    return phi, *(np.atleast_1d(c) for c in rotation_distance_coeffs(pp[i], pp[j], img, pp[ps]))


def _base_candidates(pp, qq, tied, radius):
    """The bases (a, b, base, qs, ps) of `tied` as _Candidates, by one _stab.

    Each base's phi and coefficients come from the scalar helpers
    (_base_coeffs), so a winner's motion and angle carry their arithmetic
    bit for bit; one arc solve and one sweep then score every base.
    """
    heads = [_base_coeffs(pp, qq, *t) for t in tied]
    coeffs = (np.concatenate(c) for c in zip(*(h[1:] for h in heads)))
    g = np.repeat(np.arange(len(tied)), [len(t[3]) for t in tied])
    qs = np.concatenate([t[3] for t in tied])
    overlap, angle = _stab(g, qs, *_arc_table(*coeffs, radius), len(tied))
    return [
        _Candidate(o, (a, b), tuple(base), psi, h[0])
        for (a, b, base, _, _), h, o, psi in zip(tied, heads, overlap.tolist(), angle.tolist())
    ]


def _run_starts(*columns):
    """True at row 0 and wherever a row differs from the previous one in any column."""
    new = np.zeros(len(columns[0]), dtype=bool)
    new[:1] = True
    for col in columns:
        new[1:] |= col[1:] != col[:-1]
    return new


def _canonical_motions(p1, p2, q1, q2, nq_len):
    """pair_canonical_motion for many model pairs (p1, p2) and scene pairs (q1, q2).

    `nq_len` holds |q1 q2| as the scalar helper computes it. Returns the
    rotations (G, 3, 3), translations (G, 3) and unit axes p1 -> p2 (G, 3).
    Batched reductions may differ from the scalar helper in the last bit.
    """
    dp = p2 - p1
    dq = q2 - q1
    np_len = np.sqrt((dp * dp).sum(axis=1))
    if (nq_len < 1e-12).any() or (np_len < 1e-12).any():
        raise DegeneratePair("pair endpoints coincide")
    v = dp / np_len[:, None]
    u = dq / nq_len[:, None]
    cr = cross(u, v)
    s = np.sqrt((cr * cr).sum(axis=1))
    d = (v * u).sum(axis=1)
    # Rodrigues about cr/s by angle atan2(s, d) where the directions differ.
    turn = s > 1e-12
    ax = cr / np.where(turn, s, 1.0)[:, None]
    norm_sd = np.hypot(s, d)
    cos_t = d / norm_sd
    sin_t = s / norm_sd
    skew = np.zeros((len(v), 3, 3))
    skew[:, 0, 1], skew[:, 0, 2], skew[:, 1, 2] = -ax[:, 2], ax[:, 1], -ax[:, 0]
    skew[:, 1, 0], skew[:, 2, 0], skew[:, 2, 1] = ax[:, 2], -ax[:, 1], ax[:, 0]
    eye = np.eye(3)
    rot = (
        ax[:, :, None] * ax[:, None, :] * (1.0 - cos_t)[:, None, None]
        + cos_t[:, None, None] * eye
        + sin_t[:, None, None] * skew
    )
    # Antiparallel: the pi-rotation about the coordinate axis least parallel
    # to v, orthogonalized against it.
    pick = np.zeros_like(v)
    pick[np.arange(len(v)), np.argmin(np.abs(v), axis=1)] = 1.0
    w = pick - (pick * v).sum(axis=1)[:, None] * v
    w /= np.sqrt((w * w).sum(axis=1))[:, None]
    flip = 2.0 * w[:, :, None] * w[:, None, :] - eye
    rot = np.where(turn[:, None, None], rot, np.where((d > 0.0)[:, None, None], eye, flip))
    return rot, p1 - (rot @ q1[:, :, None])[:, :, 0], v


def _screen(pp, qq, src, lengths, bases, g, qs, ps, floor, radius):
    """Overlap and stabbing angle of many bases at once; overlap -1 for a base
    whose _bin_bounds bound is below the floor.

    The coefficients come from one array pass (_row_coeffs) and may differ
    from the scalar helpers' in the last bit; _base_candidates runs the same
    _stab on the scalar ones. Base k, bases[k] = (i, j), belongs
    to source pair src[k] = (a, b) of length lengths[k]; row r pairs scene
    point qs[r] with model point ps[r] under base g[r], rows sorted by (g,
    qs, ps). The bases at the highest bound are stabbed first and raise the
    floor, then the others that reach it; _stab scores a subset of bases as
    the stacked call does. Returns (overlap, angle) per base.
    """
    coeffs = _row_coeffs(pp, qq, src, lengths, bases, g, qs, ps)
    rows = (qs, *_arc_table(*coeffs, radius))
    bound = _bin_bounds(g, *rows, len(bases))
    overlap, angle = np.full(len(bases), -1), np.zeros(len(bases))
    todo = bound == max(floor, bound.max())
    while todo.any():
        keep = todo[g]
        local = np.cumsum(todo)[g[keep]] - 1
        overlap[todo], angle[todo] = _stab(local, *(x[keep] for x in rows), int(todo.sum()))
        floor = max(floor, int(overlap.max()))
        todo = (bound >= floor) & (overlap < 0)
    return overlap, angle


def _row_coeffs(pp, qq, src, lengths, bases, g, qs, ps):
    """rotation_distance_coeffs of every row, with its base's canonical motion
    and axis. The per-row temporaries are freed before the arc solve, and
    the in-place steps round as the expressions they stand for."""
    p1 = pp[bases[:, 0]]
    rot, tr, axis = _canonical_motions(
        p1, pp[bases[:, 1]], qq[src[:, 0]], qq[src[:, 1]], lengths
    )
    v = (rot[g] @ qq[qs][:, :, None])[:, :, 0]
    v += tr[g]  # the image of q
    u, a1 = axis[g], p1[g]
    v -= a1
    along = (v * u).sum(axis=1)[:, None] * u
    v -= along  # perp
    along += a1
    along -= pp[ps]  # rel
    return (
        (along * along).sum(axis=1) + (v * v).sum(axis=1),
        2.0 * (along * v).sum(axis=1),
        2.0 * (along * cross(u, v)).sum(axis=1),
    )


def _wrap_all(theta):
    """geometry._wrap over an array."""
    t = theta % TWO_PI
    return np.where(t >= TWO_PI, 0.0, t)


def _split(owner, start, end):
    """geometry._segments over arrays of arcs from `start` to `end`.

    An arc reaching 2*pi becomes the pieces (start, 2*pi) and (0, rest), so
    one ending exactly at 2*pi also covers 0. Returns the owner, start and
    end of every piece.
    """
    stop = start + (end - start) % TWO_PI
    over = stop >= TWO_PI
    return (
        np.concatenate([owner, owner[over]]),
        np.concatenate([start, np.zeros(int(over.sum()))]),
        np.concatenate([np.where(over, TWO_PI, stop), stop[over] - TWO_PI]),
    )


def _stab(g, qs, full, arc, starts, ends, n_bases):
    """Per-base angle stabbing the most arcs, counting each (base, q) once.

    Rows are sorted by (g, qs); each (base, q) is a key. A key with a full
    row counts at every angle. Arcs are split at 2*pi into closed pieces,
    and a key is open wherever one of its pieces is. The steps of a key
    with two or more pieces, in (angle, start before end) order, sum to 0,
    so one cumsum over all such keys gives each key's open count: the key
    opens where that count rises from 0 and closes where it falls back to
    0. The sweep visits each base's opens and closes in (angle, open before
    close) order and keeps the first angle where the running count peaks.
    Returns overlap and angle per base; a base with no pieces gets 0.0.
    """
    new = _run_starts(g, qs)
    key = np.cumsum(new) - 1
    key_base = g[new]
    is_full = np.zeros(len(key_base), dtype=bool)
    is_full[key[full]] = True
    arc = arc & ~is_full[key]
    owner, s, e = _split(key[arc], _wrap_all(starts[arc]), _wrap_all(ends[arc]))
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
        # Keep an open that leaves its key's count at 1 and a close at 0.
        inner = ev[count != (step[ev] > 0)]
        owner, pos, step = (np.delete(x, inner) for x in (owner, pos, step))
    ev_base = key_base[owner]
    order = np.lexsort((-step, pos, ev_base))
    ev_base, pos = ev_base[order], pos[order]
    count = np.cumsum(step[order])
    heads = np.flatnonzero(_run_starts(ev_base))
    peak = np.maximum.reduceat(count, heads)
    hit = np.flatnonzero(count == np.repeat(peak, np.diff(np.append(heads, len(pos)))))
    first_hit = hit[_run_starts(ev_base[hit])]
    overlap[ev_base[heads]] += peak
    angle[ev_base[heads]] = _wrap_all(pos[first_hit])
    return overlap, angle


def _bin_bounds(g, qs, full, arc, starts, ends, n_bases):
    """Per base, a bound on _stab's overlap from _BINS equal bins of the circle.

    Each (base, q) key touches the bins its _split pieces do, all of them
    for a full row, and a base's bound is its largest bin count. A piece
    [s, e] touches the bins from that of s to that of e, by a monotone bin
    index, so a key open at _stab's angle touches that angle's bin.
    """
    # One bit a bin; _BINS is a power of two up to 64.
    dtype = np.dtype(f"<u{max(_BINS // 8, 1)}")
    ones = dtype.type(np.iinfo(dtype).max)
    rows = np.flatnonzero(arc)
    owner, s, e = _split(rows, _wrap_all(starts[arc]), _wrap_all(ends[arc]))
    lo, hi = (np.minimum(x * (_BINS / TWO_PI), _BINS - 1).astype(dtype) for x in (s, e))
    piece = (ones >> (8 * dtype.itemsize - 1 - hi)) & (ones << lo)
    mask = np.where(full, ones, 0).astype(dtype)
    mask[rows] = piece[: len(rows)]
    mask[owner[len(rows) :]] |= piece[len(rows) :]  # the wrapped pieces from 0
    heads = np.flatnonzero(_run_starts(g, qs))
    keys = np.bitwise_or.reduceat(mask, heads).view(np.uint8).reshape(-1, dtype.itemsize)
    bins = np.unpackbits(keys, axis=1, bitorder="little")
    first = np.flatnonzero(_run_starts(g[heads]))
    bound = np.zeros(n_bases, dtype=np.int64)
    bound[g[heads[first]]] = np.add.reduceat(bins, first, axis=0, dtype=np.int64).max(axis=1)
    return bound


def _batches(lengths, search, slack, n):
    """Slices of consecutive source pairs that span at most _BATCH_CELLS cells
    each; a pair of length L spans (n - 2) * (m - 2) cells per model pair in
    the slab of L."""
    lo, hi = search.slab(lengths, slack)
    cells = (n - 2) * max(len(search.dists) - 2, 0) * (hi - lo)
    start, total = 0, 0
    for k, c in enumerate(cells.tolist()):
        if k > start and total + c > _BATCH_CELLS:
            yield slice(start, k)
            start, total = k, 0
        total += c
    yield slice(start, len(lengths))


def _base_rows(search, dists, slack, src, lengths):
    """Candidate bases of a batch of source pairs via one DistanceRows search.

    Source pair src[k] = (a, b) matches the triangle (|ab|, |aq|, |bq|) for
    every other scene point q, with |ab| = lengths[k] and the rest from
    `dists`, the scene distance matrix. Returns the arrays (qs, ps, owner,
    bases, cuts, bounds). Rows (qs[r], ps[r]) are the found (scene, model)
    points in the search's order: by pair, base, q, then p. Group g is base
    bases[g] = (i, j) of pair src[owner[g]] and owns rows cuts[g]:cuts[g +
    1]; bounds[g] is its distinct-q count, which bounds its overlap.
    """
    pos, qs, i, j, ps = search.query(dists, src, lengths, slack)
    new = _run_starts(pos, i, j)
    heads = np.flatnonzero(new)
    bounds = np.add.reduceat((new | _run_starts(qs)).astype(np.int64), heads)
    bases = np.column_stack([i[heads], j[heads]])
    return qs, ps, pos[heads], bases, np.append(heads, len(qs)), bounds


def _two_match(search, slack, length):
    """With no voting base, the base pair alone is a 2-match in both
    directions: the smallest (i, j) in the length slab, and (j, i)."""
    lo, hi = search.slab([length], slack)
    i, j = min(search.pairs[lo[0] : hi[0]].tolist())
    none = np.empty(0, dtype=np.int64)
    return [((i, j), none, none), ((j, i), none, none)]


def _setup(pp, qq, source, slack):
    """What the source-pair loop needs from one match's inputs.

    Returns (src, lengths, rows, batches, bare): the live source pairs and
    their lengths, the candidate-row builder of a batch, the batches, and
    the bare 2-matches of a pair length.
    """
    search = DistanceRows(pp)
    src, lengths = _live_pairs(source, qq, search, slack)
    rows = partial(_base_rows, search, pairwise_distances(qq), slack)
    batches = list(_batches(lengths, search, slack, len(qq)))
    return src, lengths, rows, batches, partial(_two_match, search, slack)


def _tied_bases(src, lengths, rows, batches, bare, score, chunk_rows: int):
    """The best overlap over all source pairs and every base tied at it.

    Each batch of source pairs takes its groups from one rows() call, the
    batch builder. They go by descending distinct-q bound, ties in (pair,
    base) order, in chunks of at most `chunk_rows` rows (at least one
    group), one score(src, lengths, bases, g, qs, ps, floor) call each,
    which returns the overlap of each base as _screen does: -1 for a base
    it prunes, which must then be below the floor. The floor starts at the
    best overlap of the batches before, or 0, and rises after every chunk;
    a batch stops at the first group whose bound is below it, since every
    later group's bound is lower. A base at the global maximum M has any
    bound >= M >= floor, so the tied set is never pruned. Returns M (-1 when
    no base was scored) and the (a, b, base, qs, ps) of every base at it. A
    pair with no voting base scores 0 with the bases bare(length) gives, or
    none when `bare` is None.
    """
    top, tied = -1, []
    for batch in batches:
        pairs, lens = src[batch], lengths[batch]
        qs, ps, owner, bases, cuts, bounds = rows(pairs, lens)
        # Groups and their rows in rank order; group t owns rows heads[t]:ends[t].
        order = np.argsort(-bounds, kind="stable")
        owner, bases, sizes = owner[order], bases[order], np.diff(cuts)[order]
        ends = np.cumsum(sizes)
        r = np.repeat(cuts[order] - (ends - sizes), sizes)
        r += np.arange(len(r))
        qs, ps = qs[r], ps[r]
        ranked, ends = (-bounds[order]).tolist(), ends.tolist()
        heads = [0] + ends[:-1]
        overlap = np.full(len(order), -1)
        floor, start = max(top, 0), 0
        while start < len(order) and -ranked[start] >= floor:
            # At most chunk_rows rows and at least one group, none below the floor.
            stop = bisect_right(ends, heads[start] + chunk_rows)
            stop = min(max(start + 1, stop), bisect_right(ranked, -floor))
            g = np.repeat(np.arange(stop - start), sizes[start:stop])
            k, rs = owner[start:stop], slice(heads[start], ends[stop - 1])
            overlap[start:stop] = score(
                pairs[k], lens[k], bases[start:stop], g, qs[rs], ps[rs], floor
            )
            floor, start = max(floor, int(overlap[start:stop].max())), stop
        empty = np.flatnonzero(np.bincount(owner, minlength=len(pairs)) == 0) if bare else ()
        found = max(int(overlap.max(initial=-1)), 0 if len(empty) else -1)
        if found > top:
            top, tied = found, []
        if found != top or top < 0:
            continue
        ab = pairs.tolist()
        for t in np.flatnonzero(overlap == top).tolist():
            group = slice(heads[t], ends[t])
            tied.append((*ab[owner[t]], tuple(bases[t].tolist()), qs[group], ps[group]))
        if top == 0:
            tied += [(*ab[k], *t) for k in empty for t in bare(lens[k])]
    return top, tied


def _scored_once(tied_bases, score):
    """Every base tied at the best overlap as a _Candidate, each scored once.

    tied_bases(score, chunk_rows) is _tied_bases over one match's pairs; it
    walks the bases one at a time, and score(a, b, base, qs, ps) gives each
    one's _Candidate (da_match scores a one-base list by _base_candidates),
    which is kept for the tied set; one_base ignores the floor. Only the
    bare 2-matches, which the walk does not score, are scored after it.
    """
    scored = {}

    def one_base(src, lengths, bases, g, qs, ps, floor):
        key = (*src[0].tolist(), tuple(bases[0].tolist()))
        scored[key] = score(*key, qs, ps)
        return scored[key].overlap

    _, tied = tied_bases(one_base, 0)
    return [scored[t[:3]] if t[:3] in scored else score(*t) for t in tied]


def _select_winner(pp, qq, candidates, radius, refine: bool = False) -> MatchResult:
    """The best verified certificate of the candidates tied at the top, each
    refined when asked; the tied winners share one dict of refits."""
    max_overlap = max(c.overlap for c in candidates)
    tied = [c for c in candidates if c.overlap == max_overlap]
    scored, fits = [], {}
    for c in tied:
        result = build_match_result(
            pp,
            qq,
            _full_motion(pp, qq, c),
            radius,
            votes=max_overlap + 2,
            base_pair=(c.q_pair, c.p_pair),
            angle=c.angle,
        )
        if refine:
            result = _refine_result(pp, qq, result, radius, fits)
        key = ((-result.size, result.max_residual), c.q_pair, c.p_pair, c.angle)
        scored.append((key, result))
    scored.sort(key=lambda s: s[0])
    return scored[0][1]


def _full_motion(pp, qq, c: _Candidate) -> RigidMotion:
    """The motion of a candidate: from the first non-degenerate matched basis
    of its window (full precision in exact mode), else phi turned by the angle."""
    (a, b), (i, j) = c.q_pair, c.p_pair
    for q, p in c.window:
        try:
            return motion_from_bases(qq[[a, b, q]], pp[[i, j, p]])
        except DegenerateBasis:
            continue
    return rotation_about_line(pp[i], pp[j], c.angle).compose(c.motion)


def _refine_result(pp, qq, result: MatchResult, radius: float, fits: dict) -> MatchResult:
    """Polish the winner by refitting on its injective matches.

    The voted angle sits at an arc boundary, so on clean data the raw motion
    certifies residuals near the radius even when an exact alignment exists.
    Iterated refit-and-reverify (each round is kept only when it verifies
    strictly better) walks to the aligned pose; the voted winner's guarantees
    carry over since a worse round is discarded. `fits` holds the verified
    fit of each matched set refitted so far (None if degenerate).
    """
    for _ in range(8):
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
        better = (-polished.size, polished.max_residual) < (
            -result.size,
            result.max_residual - 1e-15,
        )
        if not better:
            return result
        result = polished
    return result


def da_match(P, Q, params: MatchParams, threads: int = 1) -> MatchResult:
    """Dihedral-angle voting matcher with a pluggable pair source.

    With AllPairs and the tolerant precondition the returned raw size
    (votes) is at least the optimal matched-set size and every certified
    residual is at most report_factor * eps.

    Source pairs are searched in batches of at most _BATCH_CELLS cells, and
    _tied_bases screens each batch's bases by descending bound in chunks of
    at most _SCREEN_ROWS rows, the best overlap so far being the pruning
    floor, which _screen also applies to its _BINS-bin bound. The bases
    tied at the best overlap over all pairs are then rescored together by
    one _base_candidates call, and _select_winner verifies and refines
    them. At a rounding-level radius, or when a rescored tied base leaves
    the screen's maximum, the same loop scores every base once by
    _base_candidates, one base a call, instead (_scored_once). `threads` is
    accepted and ignored: matching runs in the calling thread.
    """
    pp, qq = as_points(P), as_points(Q)
    if len(pp) < 2 or len(qq) < 2:
        raise TooFewPoints("da_match needs at least 2 points per set")
    fuzz = _numeric_fuzz(pp, qq)
    slack = max(2.0 * params.eps, fuzz)
    radius = max(params.report_factor * params.eps, fuzz)
    tied_bases = partial(_tied_bases, *_setup(pp, qq, params.pair_source, slack))

    # Squared distances round to about 1e-16 * scale^2, scale the largest
    # coordinate. Below a radius of 1e-6 * scale (eps = 0 leaves only the
    # 1e-9 * span fuzz) an arc's existence hinges on the last bit, where the
    # screen's batched arithmetic and the scalar helpers can disagree on the
    # tied set; every base is then scored the scalar way.
    scale = max(float(np.abs(pp).max()), float(np.abs(qq).max()))
    screen = radius >= 1e-6 * scale
    if screen:
        top, tied = tied_bases(lambda *c: _screen(pp, qq, *c, radius)[0], _SCREEN_ROWS)
        # Only the bases tied at the global maximum are rescored by the
        # scalar path, whose arithmetic the winner's motion and angle carry.
        candidates = _base_candidates(pp, qq, tied, radius)
        # A tied base rescored off the screen's maximum is that same
        # disagreement, seen late.
        screen = all(c.overlap == top for c in candidates)
    if not screen:
        candidates = _scored_once(tied_bases, lambda *t: _base_candidates(pp, qq, [t], radius)[0])
    return _select_winner(pp, qq, candidates, radius, refine=True)


def da_exact(
    P,
    Q,
    params: ExactParams = ExactParams(),
    pairs: PairSource | Sequence[tuple[int, int]] = AllPairs(),
) -> MatchResult:
    """Exact-mode dihedral voting: each matched pair casts a single angle.

    The modal angle over the sorted angle list plays the role of the interval
    sweep; with pigeonhole pairs at ratio alpha and a true matched set larger
    than n/alpha, the winner matches the all-pairs run. _tied_bases scores
    the bases one at a time from the same batched rows as da_match, each
    keeping its modal window; only the tied winners build their motion from
    a matched basis.
    """
    pp, qq = as_points(P), as_points(Q)
    if len(pp) < 3 or len(qq) < 3:
        raise TooFewPoints("da_exact needs at least 3 points per set")
    fuzz = _numeric_fuzz(pp, qq)
    slack = max(params.tau, fuzz)
    radius = slack
    src, lengths, rows, batches, _ = _setup(pp, qq, pairs, slack)
    tied_bases = partial(_tied_bases, src, lengths, rows, batches, None)
    candidates = _scored_once(tied_bases, partial(_exact_base_candidate, pp, qq, radius=radius))
    if not candidates:
        raise NoCandidatePairs("source pairs passed the filter but found no bases")
    return _select_winner(pp, qq, candidates, radius)


def _exact_base_candidate(pp, qq, a, b, base, qs, ps, radius):
    phi, c0, c1, c2 = _base_coeffs(pp, qq, a, b, base, qs, ps)
    amp = np.hypot(c1, c2)
    const = amp <= 1e-14 * np.maximum(c0, 1e-300)
    rr = radius * radius
    always_q = {int(q) for q in qs[const & (c0 <= rr)]}
    ok = ~const & (c0 - amp <= rr)
    thetas = (np.arctan2(c2[ok], c1[ok]) + np.pi) % TWO_PI
    entries = sorted(
        (float(t), int(q), int(p)) for t, q, p in zip(thetas, qs[ok], ps[ok])
    )
    n_always = len(always_q)
    if not entries:
        return _Candidate(n_always, (a, b), tuple(base), 0.0, phi)

    angles = [e[0] for e in entries]
    ext = angles + [t + TWO_PI for t in angles]
    best_count, best_lo, best_hi = 0, 0, 0
    for lo in range(len(angles)):
        hi = bisect_right(ext, angles[lo] + _ANGLE_TOL, lo, lo + len(angles))
        distinct = len({entries[k % len(entries)][1] for k in range(lo, hi)})
        if distinct > best_count:
            best_count, best_lo, best_hi = distinct, lo, hi
    # Only a tied winner builds its motion from a matched basis of the window.
    window = tuple(entries[k % len(entries)][1:] for k in range(best_lo, best_hi))
    return _Candidate(best_count + n_always, (a, b), tuple(base), entries[best_lo][0], phi, window)


def expander_da(
    P,
    Q,
    eps: float,
    degree: int,
    alpha: float,
    seed: int,
    report_factor: float = 6.0,
    threads: int = 1,
) -> MatchResult:
    """Dihedral matcher over expander-sampled pairs with a widened radius.

    Requires degree > 2500 * alpha^2. When the optimum exceeds n/alpha the
    winner size falls short of it by at most (50 / sqrt(degree)) * n, with
    residuals at most report_factor * eps. `threads` is accepted and
    ignored, as by da_match.
    """
    if degree <= 2500.0 * alpha * alpha:
        raise DegreeTooSmall(
            f"degree {degree} must exceed 2500 * alpha^2 = {2500.0 * alpha * alpha:.1f}"
        )
    params = MatchParams(
        eps=eps, pair_source=Expander(degree, seed), report_factor=report_factor
    )
    return da_match(P, Q, params)
