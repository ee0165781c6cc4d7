"""Preprocessing dictionaries: pair lengths, distance rows and triplet keys.

DistanceRows is the one candidate search of every matcher: it finds each
model triplet (i, j, p) congruent within a slack to a scene triplet (a, b,
q) from the model distance matrix, its ordered pairs sorted by length, and
bit-packed masks of the model distance rows, m^2 n / 8 bytes per scene
point searched. A mask is built by one outer subtraction of scene and
model distance rows and one flat bit pack; a search ANDs the masks of its
length-slab entries, taken in (pair, i, j) order, in blocks, and keeps
the nonzero bytes (nonzero_bytes). query unpacks all of them at once, its
rows grouped by base; the DA matcher keeps the bytes and unpacks a base's
rows only when it screens that base. The length slab of a pair is also
DA's pair-length filter. The pair dictionary answers "is
there a pair of P with length within a slack of L" by binary search on a
sorted length array; the triplet index holds the ordered triplets of P
with their triangle keys and answers box and first-key queries by one
mask over all keys. No matcher calls those two; perfbench/tracing.py
wraps them. All are immutable after construction and safe for concurrent
readers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import TooFewPoints
from .geometry import FloatArray, as_points, pairwise_distances

IntArray = NDArray[np.int64]


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

    def any_in_range(self, length: float, slack: float) -> bool:
        lo = int(np.searchsorted(self.lengths, length - slack, side="left"))
        hi = int(np.searchsorted(self.lengths, length + slack, side="right"))
        return hi > lo


def build_pair_dict(P) -> PairDict:
    pts = as_points(P)
    if len(pts) < 2:
        raise TooFewPoints("pair dictionary needs at least 2 points")
    i, j = np.triu_indices(len(pts), k=1)
    lengths = np.linalg.norm(pts[i] - pts[j], axis=1)
    order = np.argsort(lengths, kind="stable")
    return PairDict(lengths[order], np.column_stack([i[order], j[order]]).astype(np.int64))


def _set_bits(flat, values):
    """The set bits of the bytes `values` at byte indices `flat`, as ascending
    bit indices 8 * flat + bit (little bit order)."""
    # unpackbits gives 0 or 1 per bit, so the bool view is exact.
    hit = np.flatnonzero(np.unpackbits(values, bitorder="little").view(bool))
    return flat[hit >> 3] * 8 + (hit & 7)


def _slots(x, size: int):
    """np.unique(x, return_inverse=True) of ints 0 <= x < size by a presence
    table: (used, slot), slot shaped like x, used[slot] == x."""
    present = np.zeros(size, dtype=bool)
    present[x] = True
    return np.flatnonzero(present), (np.cumsum(present) - 1)[x]


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

    def nonzero_bytes(self, scene_dists, src, lengths, slack: float):
        """The slab entries of the source pairs `src` and the nonzero bytes
        of their AND masks.

        Returns (pos, i, j, width, flat, values). Entry e is model pair
        (i[e], j[e]) in the length slab of src[pos[e]] = (a, b), entries
        sorted by (pos, i, j). The masks of (a, i) and (b, j) are ANDed a
        block of at most _MASK_CELLS bytes of entries at a time, and the
        nonzero bytes of all blocks are kept: the byte at index flat[k] of
        the (entry, q, byte) layout, `width` bytes a q, is values[k],
        ascending. Bit p % 8 (little bit order) of byte p // 8 of (e, q) is
        set exactly when (q, p) passes query's test under entry e.
        """
        scene_dists = np.asarray(scene_dists, dtype=np.float64)
        src = np.asarray(src, dtype=np.int64).reshape(-1, 2)
        m, n = len(self.dists), len(scene_dists)
        lo, hi = self.slab(lengths, slack)
        count = hi - lo
        pos = np.repeat(np.arange(len(src)), count)
        # Slab pair k of pos runs over lo[pos] ... hi[pos] - 1.
        k = np.arange(len(pos)) + np.repeat(lo - (np.cumsum(count) - count), count)
        i, j = self.pairs.take(k, axis=0).T
        order = np.argsort((pos * m + i) * m + j)
        pos, i, j = pos[order], i[order], j[order]
        used, slot = _slots(src, n)
        masks = self._masks(scene_dists, used, slack)
        # Mask rows of (a, i) and (b, j) in the (used point, model row) layout.
        slot = slot[pos] * m
        row_a, row_b = slot[:, 0] + i, slot[:, 1] + j
        width = masks.shape[2]
        step = max(1, _MASK_CELLS // (n * width))
        flats, values = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.uint8)]
        for s in range(0, len(pos), step):
            both = masks.take(row_a[s : s + step], axis=0) & masks.take(row_b[s : s + step], axis=0)
            flat = np.flatnonzero(both != 0)
            flats.append(s * n * width + flat)
            values.append(both.take(flat))
        return pos, i, j, width, np.concatenate(flats), np.concatenate(values)

    def query(self, scene_dists, src, lengths, slack: float):
        """Every congruent (pos, q, i, j, p) of the source pairs `src`.

        Source pair src[pos] = (a, b) of length lengths[pos] yields model
        triplet (i, j, p) for scene point q when dists[i, j] lies in the
        closed slab [L - slack, L + slack], abs(dists[i, p] - scene_dists[a,
        q]) <= slack and abs(dists[j, p] - scene_dists[b, q]) <= slack, with
        q not in {a, b} and p not in {i, j}: the triangle-key test of
        (|ab|, |aq|, |bq|) against (|ij|, |ip|, |jp|), float for float.
        The five int64 arrays come out ordered by pos, i, j, q, then p.
        """
        pos, i, j, width, flat, values = self.nonzero_bytes(scene_dists, src, lengths, slack)
        # Bit index into the (entry, q, p) bits, p padded to whole bytes.
        hit = _set_bits(flat, values)
        n = len(scene_dists)
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


@dataclass(frozen=True, eq=False)
class TripletIndex:
    """Every ordered triplet of P, collinear ones included, with its triangle
    key from ordered_triplets_and_keys; rows of `keys` are rows of `triplets`."""

    triplets: IntArray
    keys: FloatArray

    def __len__(self) -> int:
        return len(self.triplets)

    def query_box_indices(self, key, slack: float) -> IntArray:
        """Ascending rows whose key lies within `slack` of `key` per coordinate."""
        return np.flatnonzero((np.abs(self.keys - key) <= slack).all(axis=1))

    def slab_rows(self, lo: float, hi: float) -> IntArray:
        """Ascending rows with first key coordinate in the closed [lo, hi]."""
        first = self.keys[:, 0]
        return np.flatnonzero((first >= lo) & (first <= hi))


def build_triplet_index(P) -> TripletIndex:
    pts = as_points(P)
    if len(pts) < 3:
        raise TooFewPoints("triplet index needs at least 3 points")
    return TripletIndex(*ordered_triplets_and_keys(pts))
