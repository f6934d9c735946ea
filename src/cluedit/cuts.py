"""Ordered small cuts: enumeration, its feasibility test, counting bounds.

A k-cut of G is an ordered bipartition (V1, V2) of the vertex set with at
most k crossing edges; V1 and V2 may be empty.  Small graphs need no
search: the k-cuts are exactly the masks S with m - e(S) - e(V - S) <= k,
read off one 2^n table of inside-edge counts.  Larger graphs branch vertex
by vertex on an explicit stack and prune a branch as soon as a max-flow
test shows that no completion stays within k, so every surviving branch
emits at least one cut (polynomial delay).  The max-flow works on the
graph's bitmask rows: its residual network is one int per vertex and each
breadth-first layer is one mask.  Either route hands its cuts over as
arrays, in ascending order of the side-1 mask (``cluedit cuts`` shows
them by side-1 size, then mask): side 1 as rows of uint64 words, and as
int64 the crossing count and e(V1), the number of edges inside side 1,
which the solver's DP reads as they are.  The filter route reads both
counts off its table; the branching route carries them on its stack,
since a vertex joining side 1 adds its edges into side 1, the count the
branch already takes for the other child's crossing.

The cap on the number of k-cuts is exact counting, finite for every p and
k: a YES instance is a cluster graph H of at most p cliques with at most k
pairs toggled, so each of its k-cuts crosses at most 2k edges of H, and
`cut_count_bound` counts the ways to cut p cliques across at most 2k of
their edges.  More k-cuts than that proves the instance NO.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .graph import Graph, bits

# up to this vertex count enumeration filters all 2^n masks instead of
# branching with max-flow tests: far cheaper per kernel while 2^n is small,
# and past it the table's time and memory outgrow the flow search
_FILTER_N = 16


def min_cut_leq(g: Graph, a: int, b: int, k: int) -> bool:
    """True iff the minimum edge cut separating vertex sets a and b is <= k.

    a and b are disjoint vertex masks.  Unit capacities in both directions,
    contracted super-source/super-sink, giving up as soon as k+1 augmenting
    paths exist.  Everything is a bitmask over ``g.rows``: bit v of
    ``out[u]`` is set while u sends a unit to v, which saturates the arc
    u->v, and each path comes from a breadth-first search whose layers are
    masks.  Empty a or b cuts nothing, so always True.
    """
    if a & b or (a | b) >> g.n:  # a negative mask shifts to nonzero too
        raise ValueError("sides must be disjoint vertex masks of g")
    if k < 0:
        raise ValueError("k must be >= 0")
    if a == 0 or b == 0:
        return True
    rows = g.rows
    out = [0] * g.n
    for _ in range(k + 1):
        layers = [a]
        seen = frontier = a
        while not frontier & b:
            reach = 0
            for u in bits(frontier):
                reach |= rows[u] & ~out[u]
            frontier = reach & ~seen
            if not frontier:
                return True  # max flow == paths found so far <= k
            seen |= frontier
            layers.append(frontier)
        # back-trace from the lowest reached b-vertex through the layers
        v = (frontier & b & -(frontier & b)).bit_length() - 1
        for layer in reversed(layers[:-1]):
            u = next(u for u in bits(layer & rows[v]) if not out[u] >> v & 1)
            if out[v] >> u & 1:
                out[v] ^= 1 << u  # cancel the unit v sends back to u
            else:
                out[u] |= 1 << v
            v = u
    return False


# the masks 0 .. 2^16 - 1, shared by every table build, which ANDs slices
# of them with the neighbour rows instead of making an arange per vertex
_IDS = np.arange(1 << 16, dtype=np.uint16)
_IDS.flags.writeable = False


def _neighbours_in(row: int, size: int) -> np.ndarray:
    """|N & S| for every mask S below *size*, a power of two, where N is
    the mask *row*; uint8.  Ids past 2^16 split into a high and a low
    half, whose counts add."""
    if size <= len(_IDS):
        return np.bitwise_count(_IDS[:size] & (row & (size - 1)))
    high = _neighbours_in(row >> 16, size >> 16)
    return (high[:, None] + _neighbours_in(row, len(_IDS))).ravel()


def edges_inside_table(g: Graph) -> np.ndarray:
    """e[S] = number of g-edges with both ends in mask S, for all S.

    Size 2^n; callers guard n.  Built by doubling: for S below bit v,
    e[S | v] = e[S] + |N(v) & S|.  The dtype is the narrowest unsigned one
    that holds m, uint8 up to m = 255, which covers every graph of at most
    23 vertices.
    """
    table = np.zeros(1 << g.n, dtype=np.min_scalar_type(g.m))
    for v, row in enumerate(g.rows):
        half = 1 << v
        table[half:2 * half] = table[:half] + _neighbours_in(row, half)
    return table


@dataclass
class EnumStats:
    """Work counters.  On the branching route ``explored`` counts branch
    decisions and ``pruned`` the children cut off; a dead end is a kept
    branch whose two children are both pruned, and exact pruning leaves
    none, which by induction on depth means every kept subtree emits a
    cut (polynomial delay).  On the filter route ``explored`` counts the
    2^n masks scored and ``pruned`` those crossing more than k edges."""

    explored: int = 0
    pruned: int = 0
    emitted: int = 0
    dead_ends: int = 0


def _words(masks, n: int) -> np.ndarray:
    """The masks as a (len(masks), W) uint64 array, W = max(1, ceil(n / 64)):
    word i of a row holds vertices 64 i .. 64 i + 63."""
    if n <= 64:
        return np.array(masks, dtype=np.uint64).reshape(-1, 1)
    width = (n + 63) // 64
    raw = b"".join(m.to_bytes(8 * width, "little") for m in masks)
    return np.frombuffer(raw, dtype="<u8").astype(np.uint64).reshape(-1, width)


def _mask(row: np.ndarray) -> int:
    """The python-int mask of one row of `_words`."""
    return int.from_bytes(row.astype("<u8").tobytes(), "little")


def _members(words: np.ndarray, n: int) -> np.ndarray:
    """The rows of `_words` as a (rows, n) uint8 array of membership bits,
    vertex 0 first."""
    return np.unpackbits(words.astype("<u8").view(np.uint8), axis=1,
                         count=n, bitorder="little")


def _sizes(words: np.ndarray) -> np.ndarray:
    """The number of vertices in each row of `_words`, as int64."""
    return np.bitwise_count(words).sum(axis=1, dtype=np.int64)


def _lowest(words: np.ndarray, n: int) -> np.ndarray:
    """The lowest vertex of each row of `_words`; n for an empty row."""
    # trailing zeros of each word, 64 for a zero word
    zeros = np.bitwise_count(~words & (words - 1)).astype(np.int64)
    low = zeros[:, 0]
    for i in range(1, words.shape[1]):
        low = np.where(low == 64 * i, low + zeros[:, i], low)
    return np.minimum(low, n)


def _keys(words: np.ndarray) -> np.ndarray:
    """One sortable key per row of `_words`, ordered as the masks are: the
    word itself, or all words as one big-endian byte string."""
    if words.shape[1] == 1:
        return words[:, 0]
    wide = np.ascontiguousarray(words[:, ::-1].astype(">u8"))
    return wide.view(np.dtype((np.void, 8 * words.shape[1]))).ravel()


@dataclass
class CutIndex:
    """All k-cuts of a graph, in a deterministic order.

    Row i of ``words`` is side 1 of the i-th cut, in the layout of
    `_words`, ``crossing_counts[i]`` (int64) its crossing count and
    ``inside_counts[i]`` (int64) the number of edges inside side 1.  The
    rows are sorted by mask value, so the order is a property of the cut
    set alone; it fixes what ``masks`` lists.  ``cluedit cuts`` shows the
    same cuts by (side-1 size, mask).  The solver's DP reads the rows as a
    set: it sorts them by mask itself, and its tie-break is the smallest
    parent prefix, not a row position.  ``masks`` and ``crossing`` read the
    same cuts as Python ints.
    """

    words: np.ndarray
    crossing_counts: np.ndarray
    inside_counts: np.ndarray
    stats: EnumStats = field(default_factory=EnumStats)

    @property
    def masks(self) -> list[int]:
        if self.words.shape[1] == 1:
            return self.words[:, 0].tolist()
        return [_mask(row) for row in self.words]

    @property
    def crossing(self) -> list[int]:
        return self.crossing_counts.tolist()

    def __len__(self) -> int:
        return len(self.words)


def enumerate_k_cuts(g: Graph, k: int, cap: int | None = None) -> CutIndex | None:
    """Enumerate every ordered k-cut of g exactly once, or abort.

    Returns None when there are more than *cap* cuts; cap None lists
    them all.  The cuts come sorted by side-1 mask, whichever route finds
    them.  Up to ``_FILTER_N`` vertices nothing branches: every mask is
    scored against ``m - e(S) - e(V - S) <= k``.  Beyond, a branching over
    the vertices in descending-degree order (ties by id) runs on an
    explicit stack and keeps a child only if ``min_cut_leq`` finds a
    completion within k.  The degree order only steers the pruning:
    high-degree vertices placed first make the flow test bite early.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if cap is not None and cap < 1:
        raise ValueError("cap must be >= 1")
    n = g.n
    stats = EnumStats()
    if n <= _FILTER_N:
        inside = edges_inside_table(g)
        # in the table's unsigned dtype: e(S) + e(V - S) <= m, so no
        # difference wraps
        crossing = (g.m - inside) - inside[::-1]
        masks = np.flatnonzero(crossing <= k)  # ascending
        if cap is not None and masks.size > cap:
            return None
        stats.explored = 1 << n
        stats.emitted = masks.size
        stats.pruned = stats.explored - stats.emitted
        return CutIndex(masks.astype(np.uint64).reshape(-1, 1),
                        crossing[masks].astype(np.int64),
                        inside[masks].astype(np.int64), stats)

    rows = g.rows
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    found: list[tuple[int, int, int]] = []  # (side 1, crossing, inside)
    # depth, side 1, side 2, crossing and inside edges so far
    stack = [(0, 0, 0, 0, 0)]
    while stack:
        depth, side1, side2, crossing, inside = stack.pop()
        if depth == n:
            found.append((side1, crossing, inside))
            if cap is not None and len(found) > cap:
                return None
            continue
        v = order[depth]
        bit = 1 << v
        height = len(stack)
        # v's edges into side 1 lie inside it when v joins side 1, and
        # cross the cut when v joins side 2
        to1, to2 = (rows[v] & side1).bit_count(), (rows[v] & side2).bit_count()
        for s1, s2, extra, gain in ((side1 | bit, side2, to2, to1),
                                    (side1, side2 | bit, to1, 0)):
            stats.explored += 1
            if crossing + extra > k or not min_cut_leq(g, s1, s2, k):
                stats.pruned += 1
            else:
                stack.append((depth + 1, s1, s2, crossing + extra,
                              inside + gain))
        if len(stack) == height:
            stats.dead_ends += 1
    stats.emitted = len(found)
    found.sort()  # by side 1, which no two cuts share
    return CutIndex(_words([c[0] for c in found], n),
                    np.array([c[1] for c in found], dtype=np.int64),
                    np.array([c[2] for c in found], dtype=np.int64), stats)


# ---------------------------------------------------------------------------
# counting bound


@functools.cache
def cut_count_bound(p: int, k: int) -> int:
    """B(p, 2k), the enumeration cap for a p/k instance: no graph within k
    edits of a cluster graph on at most p cliques has more k-cuts.

    Let G = H xor F, where H is a cluster graph of p' <= p cliques and
    |F| <= k.  A k-cut of G crosses at most k edges of G and at most k
    deleted ones, so at most 2k edges of H.  A cut putting a of the s
    vertices of a clique on side 1 crosses a(s - a) of its edges, so it
    crosses x_i edges of clique i in at most f(x_i) ways, where f(0) = 2
    and for x >= 1 f(x) is the largest, over s, of the sum of C(s, a) over
    the 1 <= a < s with a(s - a) = x (only s <= x + 1 contributes).  Hence

        #k-cuts(G) <= B(p', 2k) = sum over x in N^p' with sum x <= 2k
                                  of prod f(x_i),

    and B is monotone in p because f(0) >= 1, so one cap also serves
    at-most mode.  The sum runs over j, the number of cliques a cut
    splits: j <= 2k since each split crosses an edge, and each of the
    other p - j cliques contributes f(0) = 2.  So
    B(p, t) = sum over j of C(p, j) f(0)^(p-j) S_j(t), where S_j(t) sums
    prod f(x_i) over the x in {1, 2, ..}^j with sum x <= t: O(k^3)
    big-int steps whatever p is.
    """
    if p < 0 or k < 0:
        raise ValueError("need p, k >= 0")
    t = 2 * k
    f = [2] + [0] * t
    for s in range(2, t + 2):
        ways = [0] * (t + 1)
        for a in range(1, s):
            if a * (s - a) <= t:
                ways[a * (s - a)] += comb(s, a)
        f = list(map(max, f, ways))
    split = [1] + [0] * t  # split[x]: the part of S_j from sums exactly x
    total = 0
    for j in range(min(p, t) + 1):
        total += comb(p, j) * f[0] ** (p - j) * sum(split)
        split = [sum(split[i] * f[x - i] for i in range(x)) for x in range(t + 1)]
    return total
