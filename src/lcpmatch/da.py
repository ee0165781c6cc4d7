"""Tolerant matching by dihedral-angle interval voting.

For each source pair (q1, q2) that survives the pair-length filter, every
remaining q proposes candidate bases (p1, p2) through one batched search of
the model distance rows (index.DistanceRows): (p1, p2, p) is a candidate
when its triangle (|p1 p2|, |p1 p|, |p2 p|) is within the slack of (|q1 q2|,
|q1 q|, |q2 q|) in every coordinate. Per base, the motions taking q1 to p1
and q2 onto the ray p1 -> p2 differ by a turn about that axis. Each point
has cylinder coordinates (height, distance, azimuth) about its pair's axis
in a frame fixed by the axis alone, and a matched pair (q, p) stays within
the report radius on a closed arc of turns that follows from them with no
difference of large numbers (_cyl_arcs), so the arcs are as sound at
exact mode's rounding-level radius as at 4*eps. The turn stabbing the most
arcs, counting each q once, fixes the motion; the base pair itself
contributes the "+2".

What depends only on a pair is built once. Per call: the axis frames of
every live source pair and of every ordered model pair, in one _frames
call. Per batch: one search that keeps its rows as nonzero mask bytes
(_base_rows), each group's distinct-q bound and row count read off those
bytes, the bytes of the groups reaching the batch's starting floor put in
rank order, and the scene table (_cyl_table), the cylinder coordinates of
every scene point about each source pair that owns such a group. Per
chunk: the unpack of its groups' bytes into rows (groups the floor stops
are never unpacked), each row's scene side in three gathers from the
table, its model side about the base axis, its arc, and its (base, q) keys
and arc pieces (_pieces), built once for the bound and every sweep. A pair
with coincident endpoints keeps a placeholder frame and raises
DegeneratePair only when a screened base or a winner uses it.

Source pairs are taken in batches, one search for the candidate rows of
every pair in a batch, and one loop (_vote) walks them in every mode. A
batch's bases go from the highest distinct-q count, which bounds their
overlap, to the lowest; the best overlap so far is a floor, and the batch
stops at the first base whose bound is below it. A base at the best
overlap over all pairs has every bound at or above it, so no bound prunes
it. Bases are scored in array passes (the screen), a chunk of rows a pass:
the arc of every row, a tighter bound (the most q whose arcs touch one of
_BINS equal bins of the circle), and one stabbing sweep segmented by base
over the bases whose bound reaches the floor, in which each (base, q)
counts wherever one of its arcs is open and the angle is the middle of the
first peak interval (_stab). The bases tied at the best overlap over all
pairs keep that angle; their motions are built from the two axis frames,
gathered from the call's frames, verified in one batch, and polished by
rounds of least-squares refit on their injective matches (kept only when
it verifies better), each round fitting its new matched sets in one pass
(_fit) and verifying them in another, so each set is fitted once; only the
best certificate is packaged as a MatchResult. With no voting base at all, a
pair's base is a bare 2-match (_two_match) in da_match.

Guarantee shape: with all pairs and the tolerant precondition (minimum
interpoint distance above 2*eps), the diameter pair of the optimal matched
set passes the filter and votes the full set at radius 4*eps, so the winner
is at least as large as the optimum. The exact-mode variant (zero noise)
runs the same loop at slack and radius tau. The expander variant draws
source pairs from a verified expander graph and certifies at the wider
radius 6*eps, trading a bounded size slack for fewer pairs. Each entry point
fixes its radius; no parameter changes it.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePair, DegreeTooSmall, NoCandidatePairs, TooFewPoints
from .exact import ExactParams
from .geometry import (
    TWO_PI,
    RigidMotion,
    _nearest_batch,
    as_points,
    cross,
    pairwise_distances,
    row_norms,
)
# perfbench/tracing.py wraps these names here; no matcher calls them.
from .geometry import least_squares_motion, max_overlap_angle, union_intervals  # noqa: F401
from .geometry import motion_from_bases, pair_canonical_motion  # noqa: F401
from .geometry import rotation_about_line, rotation_distance_coeffs  # noqa: F401
from .index import DistanceRows, _set_bits, _slots
from .index import build_pair_dict, build_triplet_index  # noqa: F401
from .result import MatchResult, greedy_injective
from .result import build_match_result  # noqa: F401
from .sampling import AllPairs, Expander, PairSource, materialize_pairs


@dataclass(frozen=True)
class MatchParams:
    """Tolerance and pair source for da_match, which certifies at 4*eps."""

    eps: float
    pair_source: PairSource = AllPairs()

    def __post_init__(self):
        if not 0 <= self.eps < np.inf:
            raise ValueError("eps must be finite and >= 0")


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
# Cells (motions x scene x model points) of one verify pass over tied winners.
_VERIFY_CELLS = 1 << 14


def _live_pairs(source, qq, search, slack):
    """The source pairs that pass the length filter, long pairs first.

    A pair passes when its length slab in the DistanceRows `search` is not
    empty. Returns (src, lengths): pairs (a, b) and their lengths |ab|. A
    diameter pair of the optimum is the pair the guarantee rides on, and
    finding it early raises the skip floor.
    """
    src = np.array(materialize_pairs(source, len(qq)), dtype=np.int64).reshape(-1, 2)
    lengths = row_norms(qq[src[:, 0]] - qq[src[:, 1]])
    order = np.lexsort((src[:, 1], src[:, 0], -lengths))
    lo, hi = search.slab(lengths[order], slack)
    order = order[hi > lo]
    if len(order) == 0:
        raise NoCandidatePairs("no source pair length matches any model pair")
    return src[order], lengths[order]


def _numeric_fuzz(pp, qq) -> float:
    """Slack standing in for zero when eps == 0, relative to the data's span."""
    span = max(
        float(pp.max() - pp.min()) if len(pp) else 0.0,
        float(qq.max() - qq.min()) if len(qq) else 0.0,
    )
    return 1e-9 * span


def _run_starts(*columns):
    """True at row 0 and wherever a row differs from the previous one in any column."""
    new = np.zeros(len(columns[0]), dtype=bool)
    new[:1] = True
    for col in columns:
        new[1:] |= col[1:] != col[:-1]
    return new


def _frames(points, pairs):
    """The frame of each axis points[a] -> points[b], (a, b) in `pairs`.

    Returns (frames, origins, bad): rows (e1, e2, u) of a right-handed
    orthonormal frame, u along the axis, e1 from the coordinate axis least
    parallel to u (smallest index on ties) orthogonalized against it and
    e2 = u x e1, so a frame depends on the axis alone; the origins
    points[a]; and bad, True where the endpoints coincide, whose frame is a
    placeholder that _gather and _cyl_arcs refuse.
    """
    origins = points.take(pairs[:, 0], axis=0)
    d = points.take(pairs[:, 1], axis=0) - origins
    length = np.sqrt((d * d).sum(axis=1))
    bad = length == 0.0
    u = d / np.where(bad, 1.0, length)[:, None]
    e1 = np.zeros_like(u)
    e1[np.arange(len(u)), np.argmin(np.abs(u), axis=1)] = 1.0
    e1 -= (e1 * u).sum(axis=1)[:, None] * u
    e1 /= np.sqrt((e1 * e1).sum(axis=1))[:, None]
    return np.stack([e1, cross(u, e1), u], axis=1), origins, bad


def _refuse(bad):
    """Raise DegeneratePair when any selected axis has coincident endpoints."""
    if bad.any():
        raise DegeneratePair("pair endpoints coincide")


def _gather(axes, idx):
    """(frames, origins) of the _frames rows `idx`, refusing a degenerate one."""
    frames, origins, bad = axes
    _refuse(bad.take(idx))
    return frames.take(idx, axis=0), origins.take(idx, axis=0)


def _cylinder(frames, origins, points, g, idx):
    """Height, distance and azimuth of points[idx] about axis g in its frame."""
    v, f = points.take(idx, axis=0) - origins.take(g, axis=0), frames.take(g, axis=0)
    # Written out: summing a (rows, 3, 3) product over its last axis took
    # 2.5 times as long.
    x, y, h = (f[:, k, 0] * v[:, 0] + f[:, k, 1] * v[:, 1] + f[:, k, 2] * v[:, 2] for k in range(3))
    return h, np.hypot(x, y), np.arctan2(y, x)


def _cyl_table(points, axes, rows):
    """Height, distance and azimuth of every point about each axis `rows` of
    the _frames triple `axes`: ((h, r, az), bad), three (len(rows),
    len(points)) arrays by _cylinder's arithmetic element for element, one
    (rows, points) broadcast per operation, and the axes' bad flags."""
    frames, origins, bad = (x.take(rows, axis=0) for x in axes)
    v = [points[:, c] - origins[:, c, None] for c in range(3)]
    x, y, h = (
        frames[:, k, 0, None] * v[0] + frames[:, k, 1, None] * v[1] + frames[:, k, 2, None] * v[2]
        for k in range(3)
    )
    return (h, np.hypot(x, y), np.arctan2(y, x)), bad


def _cyl_arcs(pp, table, model, ids, g, qs, ps, radius):
    """The turns about the base axis that keep each row within `radius`.

    Base k has ids[k] = (tq, tp): its source pair (a, b) is row tq of the
    scene table `table` from _cyl_table, and its model pair (i, j) row tp
    of the _frames triple `model`. Row r pairs scene point qs[r] with model
    point ps[r] under base g[r]: the scene side is three gathers from the
    table, the model side _cylinder of pp[ps] about the base axis. Turned by
    angle t in the axis frames, q - q_a lands at distance^2 (h_q - h_p)^2 +
    r_q^2 + r_p^2 - 2 r_q r_p cos(az_q + t - az_p) from p - p_i. So with s =
    radius^2 - (h_q - h_p)^2 - (r_q - r_p)^2 the row is full when s >= 4 r_q
    r_p, empty when s < 0, and otherwise holds the arc centred on az_p -
    az_q of half-width 2 asin(sqrt(s / (4 r_q r_p))), whose ends coincide
    when s is 0. Raises DegeneratePair when a base or its source pair has
    coincident endpoints. Returns (full, arc, starts, ends) per row.
    """
    (cyl, bad), (tq, tp) = table, ids.T
    _refuse(bad[tq])
    flat = tq[g] * cyl[0].shape[1] + qs
    hq, rq, aq = (x.take(flat) for x in cyl)
    hp, rp, ap = _cylinder(*_gather(model, tp), pp, g, ps)
    dh, dr = hq - hp, rq - rp
    s = radius * radius - dh * dh - dr * dr
    prod = 4.0 * rq * rp
    full = s >= prod
    arc = ~full & (s >= 0.0)
    half = 2.0 * np.arcsin(np.sqrt(np.divide(s, prod, out=np.zeros_like(s), where=arc)))
    centre = ap - aq
    return full, arc, centre - half, centre + half


def _motions(fq, qa, fp, pi, angles):
    """The motion of each base turned by its angle, as (rotations, translations).

    Rotation F_p^T Rz(angle) F_q in the axis frames fp[k] of the base and
    fq[k] of its source pair, and translation p_i - R q_a from their
    origins pi[k] and qa[k].
    """
    c, s = np.cos(angles)[:, None], np.sin(angles)[:, None]
    turned = np.stack([c * fq[:, 0] - s * fq[:, 1], s * fq[:, 0] + c * fq[:, 1], fq[:, 2]], axis=1)
    rot = fp.transpose(0, 2, 1) @ turned
    return rot, pi - (rot @ qa[:, :, None])[:, :, 0]


def _screen(pp, table, model, ids, g, qs, ps, floor, radius):
    """Overlap and stabbing angle of many bases at once; overlap -1 for a base
    whose _bin_bounds bound is below the floor.

    Base k has ids[k] = (tq, tp), its source pair's row of the batch's scene
    table `table` and its model pair's row of the call's frames `model`;
    row r pairs scene point qs[r] with model point ps[r] under base g[r],
    rows sorted by (g, qs, ps). A call is one chunk, and it computes only
    what depends on the rows: the arcs (_cyl_arcs, with the model side of
    each row), their pieces (_pieces, built once), the bounds and the
    sweeps. The bases at the highest bound are stabbed first and raise the
    floor, then the others that reach it; _stab scores a subset of bases as
    a call on that subset alone does. Returns (overlap, angle) per base.
    """
    pieces = _pieces(g, qs, *_cyl_arcs(pp, table, model, ids, g, qs, ps, radius))
    bound = _bin_bounds(pieces, len(ids))
    overlap, angle = np.full(len(ids), -1), np.zeros(len(ids))
    todo = bound == max(floor, bound.max())
    while todo.any():
        overlap[todo], angle[todo] = (x[todo] for x in _stab(pieces, todo))
        floor = max(floor, int(overlap.max()))
        todo = (bound >= floor) & (overlap < 0)
    return overlap, angle


def _wrap_all(theta):
    """geometry._wrap over an array with |theta| < 4*pi (_cyl_arcs keeps to
    3*pi): theta % (2*pi), 2*pi set to 0.0, bit for bit in one add of k*2*pi,
    exact for k = -1 (Sterbenz), the modulo's one rounded add for k = 1, and
    for k = 2 the rounding of the sum it rounds after an exact add of 2*pi;
    k = 0 adds +0.0, turning -0.0 to 0.0 as the modulo does."""
    k = (theta < 0).view(np.int8) + (theta <= -TWO_PI).view(np.int8)
    t = theta + (k - (theta >= TWO_PI).view(np.int8)) * TWO_PI
    t[t >= TWO_PI] = 0.0
    return t


def _split(owner, start, end):
    """geometry._segments over arrays of arcs from `start` to `end` in [0, 2*pi).

    An arc reaching 2*pi becomes the pieces (start, 2*pi) and (0, rest), so
    one ending exactly at 2*pi also covers 0. Returns the owner, start and
    end of every piece, main pieces first. (end - start) % (2*pi) is one add.
    """
    d = end - start
    stop = start + (d + (d < 0) * TWO_PI)
    over = stop >= TWO_PI
    return (
        np.concatenate([owner, owner[over]]),
        np.concatenate([start, np.zeros(int(over.sum()))]),
        np.concatenate([np.where(over, TWO_PI, stop), stop[over] - TWO_PI]),
    )


def _pieces(g, qs, full, arc, starts, ends):
    """What _bin_bounds and every _stab of a chunk read, rows sorted by (g, qs):
    the full rows, each (base, q) key's first row, base and whether it has a
    full row, the arc rows, and each _split piece's row, key, start and end."""
    new = _run_starts(g, qs)
    heads = np.flatnonzero(new)
    key = np.cumsum(new) - 1
    is_full = np.zeros(len(heads), dtype=bool)
    is_full[key[full]] = True
    rows = np.flatnonzero(arc)
    owner, s, e = _split(rows, _wrap_all(starts[rows]), _wrap_all(ends[rows]))
    return full, heads, g.take(heads), is_full, rows, owner, key.take(owner), s, e


def _stab(pieces, todo):
    """Per-base angle stabbing the most arcs, counting each (base, q) once.

    A key with a full row counts at every angle; the others sweep their
    closed pieces, and a key is open wherever one of its pieces is. The
    steps of a key with two or more pieces, in (angle, start before end)
    order, sum to 0, so one cumsum over all such keys gives each key's open
    count: the key opens where that count rises from 0 and closes where it
    falls back to 0. The sweep visits each base's opens and closes in
    (angle, open before close) order. The running count first peaks at an
    open, and the next event, a close, ends that peak interval; its middle
    is the angle, so no key counted there sits at the end of its arc unless
    the interval is a point. Returns overlap and angle per base from the
    chunk's _pieces, read where `todo` is True; a base with no pieces gets 0.0.
    """
    _, _, key_base, is_full, _, _, key, s, e = pieces
    keep = todo.take(key_base.take(key)) & ~is_full.take(key)
    owner, pos = key[keep], np.concatenate([s[keep], e[keep]])
    overlap, angle = np.bincount(key_base[is_full], minlength=len(todo)), np.zeros(len(todo))
    if len(owner) == 0:
        return overlap, angle
    multi = np.bincount(owner).take(owner) > 1
    ev = np.flatnonzero(np.concatenate([multi, multi]))
    step = np.concatenate([np.ones_like(owner), -np.ones_like(owner)])
    owner = np.concatenate([owner, owner])
    if len(ev):
        ev = ev[np.lexsort((-step[ev], pos[ev], owner[ev]))]
        count = np.cumsum(step[ev])
        # Keep an open that leaves its key's count at 1 and a close at 0.
        keep = np.ones(len(pos), dtype=bool)
        keep[ev[count != (step[ev] > 0)]] = False
        owner, pos, step = owner[keep], pos[keep], step[keep]
    ev_base = key_base.take(owner)
    order = np.lexsort((-step, pos, ev_base))
    ev_base, pos = ev_base.take(order), pos.take(order)
    count = np.cumsum(step.take(order))
    new = _run_starts(ev_base)
    heads = np.flatnonzero(new)
    peak = np.maximum.reduceat(count, heads)
    hit = np.flatnonzero(count == peak.take(np.cumsum(new) - 1))
    first_hit = hit[_run_starts(ev_base.take(hit))]
    mid = 0.5 * (pos.take(first_hit) + pos.take(first_hit + 1))
    overlap[ev_base[heads]] += peak
    angle[ev_base[heads]] = np.where(mid >= TWO_PI, 0.0, mid)
    return overlap, angle


def _bin_bounds(pieces, n_bases):
    """Per base, a bound on _stab's overlap from _BINS equal bins of the circle.

    Each (base, q) key touches the bins its _split pieces do, all of them
    for a full row, and a base's bound is its largest bin count. A piece
    [s, e] touches the bins from that of s to that of e, by a monotone bin
    index, so a key open at _stab's angle touches that angle's bin.
    """
    full, heads, key_base, _, rows, owner, _, s, e = pieces
    # One bit a bin; _BINS is a power of two up to 64.
    dtype = np.dtype(f"<u{max(_BINS // 8, 1)}")
    ones = dtype.type(np.iinfo(dtype).max)
    lo, hi = (np.minimum(x * (_BINS / TWO_PI), _BINS - 1).astype(dtype) for x in (s, e))
    piece = (ones >> (8 * dtype.itemsize - 1 - hi)) & (ones << lo)
    mask = np.where(full, ones, 0).astype(dtype)
    mask[rows] = piece[: len(rows)]
    mask[owner[len(rows) :]] |= piece[len(rows) :]  # the wrapped pieces from 0
    keys = np.bitwise_or.reduceat(mask, heads).view(np.uint8).reshape(-1, dtype.itemsize)
    bins = np.unpackbits(keys, axis=1, bitorder="little")
    first = np.flatnonzero(_run_starts(key_base))
    bound = np.zeros(n_bases, dtype=np.int64)
    bound[key_base[first]] = np.add.reduceat(bins, first, axis=0, dtype=np.int64).max(axis=1)
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
    """Candidate bases of a batch of source pairs via one DistanceRows search,
    kept as its nonzero mask bytes.

    Source pair src[k] = (a, b) matches the triangle (|ab|, |aq|, |bq|) for
    every other scene point q, with |ab| = lengths[k] and the rest from
    `dists`, the scene distance matrix. Returns (owner, bases, bounds, sizes,
    cuts, cols, values, width). Group g, in (pair, base) order, is base
    bases[g] = (i, j) of pair src[owner[g]]; bounds[g] is its distinct-q
    count, which bounds its overlap, and sizes[g] its row count, both read
    off the bytes. It owns bytes cuts[g]:cuts[g + 1]: byte k is values[k]
    at byte index cols[k] of the group's (q, p) bits, p padded to 8 * width,
    so _set_bits(cols, values) of a run of groups gives q * 8 * width + p
    of their rows (q, p), by group, q, then p.
    """
    pos, i, j, width, flat, values = search.nonzero_bytes(dists, src, lengths, slack)
    cell = flat // width  # the (entry, q) of each byte
    e = cell // len(dists)
    heads = np.flatnonzero(_run_starts(e))
    bounds = np.add.reduceat(_run_starts(cell).astype(np.int64), heads)
    # ones[v]: the set bits of byte value v.
    ones = np.unpackbits(np.arange(256, dtype=np.uint8)).reshape(256, 8).sum(1, dtype=np.uint8)
    sizes = np.add.reduceat(ones.take(values), heads, dtype=np.int64)
    cols, e = flat - e * (len(dists) * width), e[heads]
    bases = np.column_stack([i[e], j[e]])
    return pos[e], bases, bounds, sizes, np.append(heads, len(flat)), cols, values, width


def _two_match(search, slack, length):
    """With no voting base, the base pair alone is a 2-match in both
    directions: the smallest (i, j) in the length slab, and (j, i)."""
    lo, hi = search.slab([length], slack)
    i, j = min(search.pairs[lo[0] : hi[0]].tolist())
    return [(i, j), (j, i)]


def _select_winner(pp, qq, scene, model, top, tied, radius) -> MatchResult:
    """The best verified certificate of the bases `tied` at overlap `top`.

    Each (q pair, p pair, angle, kq, kp) gets its motion from _motions, with
    the frames of row kq of `scene` and row kp of `model`, the _frames
    triples of the source pairs and the model pairs, and _refine verifies
    and polishes them all. The best is the largest, then the smallest
    residual, then the smallest (q pair, p pair, angle); only it becomes a
    MatchResult, with votes top + 2, from its already verified rows.
    """
    angles, kq, kp = (np.array([t[c] for t in tied]) for c in (2, 3, 4))
    rot, tr = _motions(*_gather(scene, kq), *_gather(model, kp), angles)
    rot, tr, certs, at = _refine(pp, qq, rot, tr, radius)
    ranks = [((-len(certs[c][0]), certs[c][2]), *t[:3]) for c, t in zip(at, tied)]
    k = ranks.index(min(ranks))
    (_, ab, ij, angle), c = ranks[k], at[k]
    return MatchResult(RigidMotion(rot[c], tr[c]), *certs[c], top + 2, radius, (ab, ij), angle)


def _certificates(nn, res, radius):
    """Per motion verified by _nearest_batch, what build_match_result would
    certify: (matched, dedup_matched, max_residual)."""
    ok = res <= radius
    # Matched residuals are >= 0, so a row's max over them, or 0.0 for none.
    top_res = np.where(ok, res, 0.0).max(axis=1).tolist()
    row, q = np.nonzero(ok)
    pairs, out, start = list(zip(q.tolist(), nn[row, q].tolist())), [], 0
    for k, end in enumerate(np.cumsum(ok.sum(axis=1)).tolist()):
        matched, start = tuple(pairs[start:end]), end
        # greedy_injective keeps every pair, in order, when no p repeats.
        unique = len({p for _, p in matched}) == len(matched)
        dedup = matched if unique else greedy_injective(matched, res[k, ok[k]])
        out.append((matched, dedup, top_res[k]))
    return out


def _refine(pp, qq, rot, tr, radius: float):
    """Verify the motions (rot[k], tr[k]) at `radius` and polish each by up to
    8 rounds of least-squares refit, each on the injective matches of the
    one before, kept only while its (-size, max_residual) is strictly below
    the last. The voted motion rests on one base pair and one angle, so on
    clean data it certifies residuals up to the radius even when an exact
    alignment exists; a worse round is discarded, so the voted guarantees
    carry over. A round fits its new matched sets in one _fit pass and
    verifies them in one _nearest_batch pass, so each set is fitted once.
    Returns (rot, tr, certs, at): the given motions then every fit, their
    _certificates, and the motion each chain k ends on.
    """
    certs = _certificates(*_nearest_batch(pp, qq, rot, tr, _VERIFY_CELLS), radius)
    at, live, fits = list(range(len(certs))), list(range(len(certs))), {}
    for _ in range(8):
        live = [k for k in live if len(certs[at[k]][1]) >= 3]
        if not live:
            break
        new = [m for m in dict.fromkeys(certs[at[k]][1] for k in live) if m not in fits]
        if new:
            fit_rot, fit_tr = _fit(pp, qq, new)
            fits.update(zip(new, range(len(certs), len(certs) + len(new))))
            certs += _certificates(*_nearest_batch(pp, qq, fit_rot, fit_tr, _VERIFY_CELLS), radius)
            rot, tr = np.concatenate([rot, fit_rot]), np.concatenate([tr, fit_tr])
        rank = [(-len(matched), res) for matched, _, res in certs]
        step = {k: fits[certs[at[k]][1]] for k in live}
        live = [k for k, c in step.items() if rank[c] < (rank[at[k]][0], rank[at[k]][1] - 1e-15)]
        for k in live:
            at[k] = step[k]
    return rot, tr, certs, at


def _fit(pp, qq, sets):
    """least_squares_motion of each matched set (q, p) of `sets`, bit for bit,
    as (rotations, translations): each set's centroids and cross-covariance
    are formed as it forms them, and the SVD, determinant and products run
    stacked."""
    cross_cov, ca, cb = [], [], []
    for q, p in (np.array(matched).T for matched in sets):
        a, b = qq.take(q, axis=0), pp.take(p, axis=0)
        ca.append(np.add.reduce(a, 0) / len(a))
        cb.append(np.add.reduce(b, 0) / len(b))
        cross_cov.append((a - ca[-1]).T @ (b - cb[-1]))
    u, _, vt = np.linalg.svd(np.stack(cross_cov))
    rot = vt.transpose(0, 2, 1) @ u.transpose(0, 2, 1)
    flip = np.linalg.det(rot) < 0
    if flip.any():
        vt[flip, -1, :] *= -1.0
        rot[flip] = vt[flip].transpose(0, 2, 1) @ u[flip].transpose(0, 2, 1)
    return rot, np.array(cb) - (rot @ np.array(ca)[:, :, None])[:, :, 0]


def _vote(pp, qq, source, slack, radius, bare: bool) -> MatchResult:
    """The best overlap over the live source pairs of `source`, and the winner
    _select_winner makes of every base tied at it.

    Per call, the axis frames of every live source pair and of every ordered
    model pair are built once, in one _frames call. Each batch of pairs from
    _batches takes its groups, as packed bytes, from one _base_rows search,
    puts the bytes of the groups reaching the batch's starting floor (the
    only groups it can screen) in rank order, and builds one scene table
    (_cyl_table): the cylinder coordinates of every scene point about each
    pair that owns such a group. The groups go by descending distinct-q
    bound, ties in (pair, base) order, to _screen in chunks of at most
    _SCREEN_ROWS rows (at least one group), each chunk's rows unpacked from
    its bytes only then; _screen returns overlap -1 for a base it prunes,
    one below the floor. The floor starts at the best overlap of the
    batches before, or 0, and rises after every chunk; a batch stops at the
    first group whose bound is below it, since every later group's bound is
    lower. A base at the global maximum M has any bound >= M >= floor, so
    the tied set is never pruned. With `bare`, a pair with no voting base
    scores 0 at angle 0.0 with the two bases of _two_match, a 2-match.
    """
    search = DistanceRows(pp)
    src, lengths = _live_pairs(source, qq, search, slack)
    dists = pairwise_distances(qq)
    axes = _frames(np.concatenate([qq, pp]), np.concatenate([src, search.pairs + len(qq)]))
    scene, model = tuple(x[: len(src)] for x in axes), tuple(x[len(src) :] for x in axes)
    # pid[i, j]: the row of model pair (i, j) in search.pairs and in `model`.
    pid = np.zeros((len(pp), len(pp)), dtype=np.int64)
    pid[search.pairs[:, 0], search.pairs[:, 1]] = np.arange(len(search.pairs))
    top, tied = -1, []
    for batch in _batches(lengths, search, slack, len(qq)):
        pairs, lens = src[batch], lengths[batch]
        owner, bases, bounds, sizes, cuts, cols, values, width = _base_rows(
            search, dists, slack, pairs, lens
        )
        # Groups in rank order; group t has rows heads[t]:ends[t] of the ranked rows.
        # A stable sort gives one permutation; on a narrow dtype numpy sorts by radix.
        order = np.argsort((-bounds).astype(np.min_scalar_type(-len(qq))), kind="stable")
        owner, bases, sizes = owner[order], bases.take(order, axis=0), sizes[order]
        ranked, ends = (-bounds[order]).tolist(), np.cumsum(sizes).tolist()
        heads = [0] + ends[:-1]
        overlap, angle = np.full(len(order), -1), np.zeros(len(order))
        floor, start = max(top, 0), 0
        reach = bisect_right(ranked, -floor)
        # The bytes of the groups that reach the floor in rank order; group t
        # owns bytes at[t]:at[t + 1], unpacked only when a chunk screens it.
        nbytes = np.diff(cuts)[order[:reach]]
        at = np.append(0, np.cumsum(nbytes))
        r = np.repeat(cuts[order[:reach]] - at[:-1], nbytes)
        r += np.arange(len(r))
        cols, values = cols[r], values[r]
        # Base t has ids[t]: its pair's table row and its model pair's row.
        used, slot = _slots(owner[:reach], len(pairs))
        table = _cyl_table(qq, scene, batch.start + used)
        ids = np.column_stack([slot, pid[bases[:reach, 0], bases[:reach, 1]]])
        while start < len(order) and -ranked[start] >= floor:
            # At most _SCREEN_ROWS rows and at least one group, none below the floor.
            stop = bisect_right(ends, heads[start] + _SCREEN_ROWS)
            stop = min(max(start + 1, stop), bisect_right(ranked, -floor))
            g = np.repeat(np.arange(stop - start), sizes[start:stop])
            bits = _set_bits(cols[at[start] : at[stop]], values[at[start] : at[stop]])
            qs = bits // (8 * width)
            overlap[start:stop], angle[start:stop] = _screen(
                pp, table, model, ids[start:stop], g, qs, bits - qs * (8 * width), floor, radius
            )
            floor, start = max(floor, int(overlap[start:stop].max())), stop
        empty = np.flatnonzero(np.bincount(owner, minlength=len(pairs)) == 0) if bare else ()
        found = max(int(overlap.max(initial=-1)), 0 if len(empty) else -1)
        if found > top:
            top, tied = found, []
        if found != top or top < 0:
            continue
        ab, first = pairs.tolist(), batch.start
        for t in np.flatnonzero(overlap == top).tolist():
            k, ij = int(owner[t]), tuple(bases[t].tolist())
            tied.append((tuple(ab[k]), ij, float(angle[t]), first + k, int(ids[t, 1])))
        if top == 0:
            for k in empty:
                for b in _two_match(search, slack, lens[k]):
                    tied.append((tuple(ab[k]), b, 0.0, first + k, int(pid[b])))
    if not tied:
        raise NoCandidatePairs("source pairs passed the filter but found no bases")
    return _select_winner(pp, qq, scene, model, top, tied, radius)


def da_match(P, Q, params: MatchParams) -> MatchResult:
    """Dihedral-angle voting matcher with a pluggable pair source.

    With AllPairs and the tolerant precondition the returned raw size
    (votes) is at least the optimal matched-set size and every certified
    residual is at most 4 * eps.

    Source pairs are searched in batches of at most _BATCH_CELLS cells, and
    _vote screens each batch's bases by descending bound in chunks of at
    most _SCREEN_ROWS rows, the best overlap so far being the pruning floor,
    which _screen also applies to its _BINS-bin bound. The bases
    tied at the best overlap over all pairs keep their screened angle, and
    _select_winner builds, verifies and refines their motions. At eps = 0
    the radius is 1e-9 times the data's span, and the same screen votes.
    """
    return _tolerant(P, Q, params, 4.0, "da_match")


def _tolerant(P, Q, params: MatchParams, factor: float, caller: str) -> MatchResult:
    """Tolerant DA at slack 2 * eps and radius factor * eps, each at least
    the data's numeric fuzz; the factor is fixed by the public entry point
    `caller`, which the TooFewPoints error names."""
    pp, qq = as_points(P), as_points(Q)
    if len(pp) < 2 or len(qq) < 2:
        raise TooFewPoints(f"{caller} needs at least 2 points per set")
    fuzz = _numeric_fuzz(pp, qq)
    slack = max(2.0 * params.eps, fuzz)
    radius = max(factor * params.eps, fuzz)
    return _vote(pp, qq, params.pair_source, slack, radius, bare=True)


def da_exact(
    P,
    Q,
    params: ExactParams = ExactParams(),
    pairs: PairSource | Sequence[tuple[int, int]] = AllPairs(),
) -> MatchResult:
    """Exact-mode dihedral voting: da_match's screen and winner selection at
    slack and radius tau (at least 1e-9 times the data's span).

    With zero noise each true match's arc is a sliver of width about
    2 * tau / r about the true turn, and the screen votes these slivers as
    it votes tolerant arcs. With pigeonhole pairs at ratio alpha and a true
    matched set larger than n/alpha, the winner matches the all-pairs run.
    A pair with no voting base is no 2-match here: NoCandidatePairs is
    raised when no pair has one.
    """
    pp, qq = as_points(P), as_points(Q)
    if len(pp) < 3 or len(qq) < 3:
        raise TooFewPoints("da_exact needs at least 3 points per set")
    radius = max(params.tau, _numeric_fuzz(pp, qq))
    return _vote(pp, qq, pairs, radius, radius, bare=False)


def expander_da(P, Q, eps: float, degree: int, alpha: float, seed: int) -> MatchResult:
    """Dihedral matcher over expander-sampled pairs, certified at 6 * eps.

    Requires degree > 2500 * alpha^2. When the optimum exceeds n/alpha the
    winner size falls short of it by at most (50 / sqrt(degree)) * n, with
    residuals at most 6 * eps.
    """
    if not 0 < alpha < np.inf:
        raise ValueError("alpha must be finite and positive")
    if degree <= 2500.0 * alpha * alpha:
        raise DegreeTooSmall(
            f"degree {degree} must exceed 2500 * alpha^2 = {2500.0 * alpha * alpha:.1f}"
        )
    params = MatchParams(eps=eps, pair_source=Expander(degree, seed))
    return _tolerant(P, Q, params, 6.0, "expander_da")
