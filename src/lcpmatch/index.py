"""Preprocessing dictionaries: pair lengths, distance rows and a sorted-key join.

DistanceRows is the one candidate search of every matcher: it finds each
model triplet (i, j, p) congruent within a slack to a scene triplet (a, b,
q) from the model distance matrix, its ordered pairs sorted by length, and
bit-packed masks of the model distance rows, m^2 n / 8 bytes per scene
point searched. A mask is built by one outer subtraction of scene and
model distance rows and one flat bit pack; a search ANDs the masks of its
length-slab entries, taken in (pair, i, j) order, and unpacks only the
nonzero bytes, so its rows come out grouped by base. The length slab of a
pair is also DA's pair-length filter. The pair dictionary answers "which
pairs of P have length within a slack of L" by binary search on a sorted
length array. A KeyIndex holds float keys sorted on their first coordinate
and joins a batch of query keys against them; the triplet index is the
ordered triplets of P with their triangle keys in a KeyIndex. No matcher
calls the pair dictionary or those two; perfbench/tracing.py wraps them.
All are immutable after construction and safe for concurrent readers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import TooFewPoints
from .geometry import FloatArray, as_points, pairwise_distances

IntArray = NDArray[np.int64]


def ordered_pairs_and_lengths(P) -> tuple[IntArray, FloatArray]:
    """All index pairs (i < j) of P with their lengths, in index order."""
    pts = as_points(P)
    i, j = np.triu_indices(len(pts), k=1)
    lengths = np.linalg.norm(pts[i] - pts[j], axis=1)
    return np.column_stack([i, j]).astype(np.int64), lengths


def ordered_triplets_and_keys(P) -> tuple[IntArray, FloatArray]:
    """All ordered triplets (i, j, k) of distinct indices with triangle keys.

    Triplets come out in lexicographic order; the key of (i, j, k) is
    (|p_i p_j|, |p_i p_k|, |p_j p_k|).
    """
    pts = as_points(P)
    m = len(pts)
    if m < 3:
        raise TooFewPoints("triplet enumeration needs at least 3 points")
    idx = np.arange(m)
    i, j, k = idx[:, None, None], idx[:, None], idx
    # np.nonzero lists the distinct-index cube in C order, that is lexicographically.
    trips = np.column_stack(np.nonzero((i != j) & (i != k) & (j != k))).astype(np.int64)
    dists = pairwise_distances(pts)
    keys = np.column_stack(
        [
            dists[trips[:, 0], trips[:, 1]],
            dists[trips[:, 0], trips[:, 2]],
            dists[trips[:, 1], trips[:, 2]],
        ]
    )
    return trips, keys


@dataclass(frozen=True, eq=False)
class PairDict:
    """Sorted pair-length dictionary over all pairs (i < j) of P."""

    lengths: FloatArray
    pairs: IntArray

    def __len__(self) -> int:
        return len(self.lengths)

    def query_range(self, length: float, slack: float) -> list[tuple[int, int]]:
        """Exactly the pairs with length in [length - slack, length + slack]."""
        lo = int(np.searchsorted(self.lengths, length - slack, side="left"))
        hi = int(np.searchsorted(self.lengths, length + slack, side="right"))
        return [(int(i), int(j)) for i, j in self.pairs[lo:hi]]

    def any_in_range(self, length: float, slack: float) -> bool:
        lo = int(np.searchsorted(self.lengths, length - slack, side="left"))
        hi = int(np.searchsorted(self.lengths, length + slack, side="right"))
        return hi > lo


def build_pair_dict(P) -> PairDict:
    pts = as_points(P)
    if len(pts) < 2:
        raise TooFewPoints("pair dictionary needs at least 2 points")
    pairs, lengths = ordered_pairs_and_lengths(pts)
    order = np.argsort(lengths, kind="stable")
    return PairDict(lengths[order], pairs[order])


# Cells of one float compare that builds DistanceRows masks (scene distances
# x model distances padded to whole bytes, at least one byte of them), and
# bytes of one AND of their gathered rows (slab pairs x scene points x mask
# bytes, at least one slab pair); bounds the search's working memory.
_MASK_CELLS = 1 << 16


class DistanceRows:
    """The model distance matrix with its ordered pairs sorted by length.

    `dists` is pairwise_distances(P); `pairs` lists every ordered pair
    (i, j), i != j, by ascending dists[i, j] (stable, so in index order
    among equal lengths) and `lengths` holds those lengths. Immutable after
    construction, so concurrent readers are safe.
    """

    __slots__ = ("dists", "pairs", "lengths")

    def __init__(self, P):
        self.dists = pairwise_distances(as_points(P))
        i, j = np.nonzero(~np.eye(len(self.dists), dtype=bool))
        order = np.argsort(self.dists[i, j], kind="stable")
        self.pairs = np.column_stack([i[order], j[order]])
        self.lengths = self.dists[self.pairs[:, 0], self.pairs[:, 1]]

    def slab(self, lengths, slack: float) -> tuple[IntArray, IntArray]:
        """(lo, hi) per length L: pairs[lo:hi] have length in [L - slack, L + slack]."""
        lengths = np.asarray(lengths, dtype=np.float64)
        return (
            np.searchsorted(self.lengths, lengths - slack, side="left"),
            np.searchsorted(self.lengths, lengths + slack, side="right"),
        )

    def query(self, scene_dists, src, lengths, slack: float):
        """Every congruent (pos, q, i, j, p) of the source pairs `src`.

        Source pair src[pos] = (a, b) of length lengths[pos] yields model
        triplet (i, j, p) for scene point q when dists[i, j] lies in the
        closed slab [L - slack, L + slack], abs(dists[i, p] - scene_dists[a,
        q]) <= slack and abs(dists[j, p] - scene_dists[b, q]) <= slack, with
        q not in {a, b} and p not in {i, j}: the triangle-key test of
        (|ab|, |aq|, |bq|) against (|ij|, |ip|, |jp|), float for float.
        The slab entries (pos, i, j) are sorted before the masks of (a, i)
        and (b, j) are ANDed, and only the nonzero bytes of each AND are
        unpacked, so the five int64 arrays come out ordered by pos, i, j, q,
        then p.
        """
        scene_dists = np.asarray(scene_dists, dtype=np.float64)
        src = np.asarray(src, dtype=np.int64).reshape(-1, 2)
        m, n = len(self.dists), len(scene_dists)
        lo, hi = self.slab(lengths, slack)
        count = hi - lo
        pos = np.repeat(np.arange(len(src)), count)
        # Slab pair k of pos runs over lo[pos] ... hi[pos] - 1.
        k = np.arange(len(pos)) + np.repeat(lo - (np.cumsum(count) - count), count)
        i, j = self.pairs[k].T
        order = np.argsort((pos * m + i) * m + j)
        pos, i, j = pos[order], i[order], j[order]
        used, slot = np.unique(src, return_inverse=True)
        masks = self._masks(scene_dists, used, slack)
        # Mask rows of (a, i) and (b, j) in the (used point, model row) layout.
        slot = slot.reshape(-1, 2)[pos] * m
        row_a, row_b = slot[:, 0] + i, slot[:, 1] + j
        width = masks.shape[2]
        step = max(1, _MASK_CELLS // (n * width))
        parts = [np.empty(0, dtype=np.int64)]
        for s in range(0, len(pos), step):
            both = masks[row_a[s : s + step]] & masks[row_b[s : s + step]]
            flat = np.flatnonzero(both != 0)
            # unpackbits gives 0 or 1 per bit, so the bool view is exact.
            bits = np.unpackbits(both.take(flat), bitorder="little").view(bool)
            hit = np.flatnonzero(bits)
            parts.append((s * n * width + flat[hit >> 3]) * 8 + (hit & 7))
        # Bit index into the (entry, q, p) bits, p padded to whole bytes.
        hit = np.concatenate(parts)
        e = hit // (8 * n * width)
        q_p = hit - e * (8 * n * width)
        q = q_p // (8 * width)
        return pos[e], q, i[e], j[e], q_p - q * (8 * width)

    def _masks(self, scene_dists, points, slack: float):
        """Packed third-point masks, as (len(points) * m, n, ceil(m / 8)) bytes.

        Bit p (little bit order) of row u * m + i, scene point q, is set when
        abs(scene_dists[points[u], q] - dists[i, p]) <= slack, p != i and
        q != points[u]; abs(x - y) == abs(y - x) bit for bit, so this is
        the compare of the query's docstring. The model matrix is padded to
        whole bytes, and its diagonal set, with NaN, which fails every
        compare. The compare is the outer difference of the scene values
        (u, q) and the model cells (i, p), taken in blocks of at most
        _MASK_CELLS cells (whole bytes of model cells, at least one byte)
        into one reused buffer. Its bits are packed flat, in (u, q, i, p)
        order, and transposed to (u, i, q, p) once.
        """
        m, n = len(self.dists), len(scene_dists)
        width = (m + 7) // 8
        model = np.full((m, 8 * width), np.nan)
        model[:, :m] = self.dists
        np.fill_diagonal(model, np.nan)
        model = model.reshape(-1)
        scene = scene_dists[points].reshape(-1)
        cols = max(8, min(len(model), _MASK_CELLS // 8 * 8))
        step = max(1, _MASK_CELLS // cols)
        # Every compare reuses one buffer; a fresh one per block pays page faults.
        cells = np.empty(min(step, len(scene)) * cols)
        out = np.empty((len(scene), len(model) // 8), dtype=np.uint8)
        for s in range(0, len(scene), step):
            for c in range(0, len(model), cols):
                a, b = scene[s : s + step], model[c : c + cols]
                diff = cells[: a.size * b.size].reshape(a.size, b.size)
                ok = np.abs(np.subtract.outer(a, b, out=diff), out=diff) <= slack
                packed = np.packbits(ok, bitorder="little").reshape(a.size, -1)
                out[s : s + step, c // 8 : (c + cols) // 8] = packed
        out = out.reshape(len(points), n, m, width)
        out[np.arange(len(points)), points] = 0
        # To (u, i, q) order, moving each q's `width` bytes as one item.
        by_row = np.ascontiguousarray(out.view(f"V{width}").transpose(0, 2, 1, 3))
        return by_row.view(np.uint8).reshape(-1, n, width)


# Cells (queries x window rows) that one broadcast compare of KeyIndex.join
# may test, which bounds its working memory.
_JOIN_CELLS = 1 << 16


class KeyIndex:
    """Float keys sorted on their first coordinate, joined against queries.

    `order` lists the key rows by ascending first coordinate (stable) and
    `columns` holds the sorted keys one contiguous row per coordinate.
    Immutable after construction, so concurrent readers are safe.
    """

    __slots__ = ("order", "columns")

    def __init__(self, keys):
        keys = np.asarray(keys, dtype=np.float64)
        self.order = np.argsort(keys[:, 0], kind="stable")
        self.columns = np.ascontiguousarray(keys[self.order].T)

    def join(self, queries, slack: float) -> tuple[IntArray, IntArray]:
        """Every (query row, key row) pair within `slack` in every coordinate.

        The pairs come out in lexicographic order. The first coordinate is
        the closed slab [q - slack, q + slack] found by binary search; every
        other coordinate passes when abs(key - q) <= slack. Queries are
        visited in first-coordinate order, a batch at a time, each batch
        tested against its shared slab window one coordinate at a time.
        """
        queries = np.asarray(queries, dtype=np.float64)
        first = self.columns[0]
        lo = np.searchsorted(first, queries[:, 0] - slack, side="left")
        hi = np.searchsorted(first, queries[:, 0] + slack, side="right")
        live = np.flatnonzero(hi > lo)
        live = live[np.argsort(queries[live, 0], kind="stable")]
        lo, hi = lo[live], hi[live]
        q_parts, k_parts = [], []
        s = 0
        while s < len(live):
            # Grow the batch while batch size times window width fits the budget.
            ahead = hi[s : s + max(1, _JOIN_CELLS // (hi[s] - lo[s]))] - lo[s]
            cost = np.arange(1, len(ahead) + 1) * ahead
            e = s + max(1, int(np.searchsorted(cost, _JOIN_CELLS, side="right")))
            a, b = lo[s], hi[e - 1]
            rows = live[s:e]
            pos = np.arange(a, b)
            mask = (pos >= lo[s:e, None]) & (pos < hi[s:e, None])
            for c in range(1, len(self.columns)):
                diff = self.columns[c, a:b] - queries[rows, c, None]
                mask &= np.abs(diff, out=diff) <= slack
            qi, ki = np.nonzero(mask)
            q_parts.append(rows[qi])
            k_parts.append(self.order[a + ki])
            s = e
        if not q_parts:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        qi, ki = np.concatenate(q_parts), np.concatenate(k_parts)
        lex = np.lexsort((ki, qi))
        return qi[lex], ki[lex]


@dataclass(frozen=True, eq=False)
class TripletIndex:
    """Triangle keys of every ordered triplet of P in one KeyIndex.

    Degenerate (collinear) triplets are stored too: interval voting matches
    points near the base axis through them, and callers that need a motion
    basis filter collinear entries themselves. Rows of `index` are rows of
    `triplets`.
    """

    triplets: IntArray
    index: KeyIndex

    def __len__(self) -> int:
        return len(self.triplets)

    def query_box_indices(self, key, slack: float) -> IntArray:
        """Ascending rows whose key lies within `slack` of `key` per coordinate."""
        return self.index.join(np.reshape(key, (1, -1)), slack)[1]

    def slab_rows(self, lo: float, hi: float) -> IntArray:
        """Row indices with first key coordinate in [lo, hi], by binary search."""
        a = int(np.searchsorted(self.index.columns[0], lo, side="left"))
        b = int(np.searchsorted(self.index.columns[0], hi, side="right"))
        return self.index.order[a:b]


def build_triplet_index(P) -> TripletIndex:
    pts = as_points(P)
    if len(pts) < 3:
        raise TooFewPoints("triplet index needs at least 3 points")
    trips, keys = ordered_triplets_and_keys(pts)
    return TripletIndex(trips, KeyIndex(keys))
