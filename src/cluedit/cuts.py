"""Ordered small cuts: enumeration, counting bounds.

A k-cut of G is an ordered bipartition (V1, V2) of the vertex set with at
most k crossing edges; V1 and V2 may be empty.  The cuts are listed by
vertex-id ranges.  A range of at most ``LEAF`` vertices needs no search:
its k-cuts are exactly the masks S with m - e(S) - e(V - S) <= k.  The
ones without its last vertex are read off the 2^(n-1) table of
inside-edge counts of the rest of the range, and the others are their
complements, which cross the same edges.  A longer range [lo, hi) joins
the lists of its halves A = [lo, mid) and B = [mid, hi): the restriction
of a k-cut to a half is a k-cut of that half, because the crossing edges
of G[A] are crossing edges of G, so every k-cut is a pair of listed
half-cuts.  With d(X) the number of edges from X to the other half,

    crossing(S_A + S_B) = cr_A(S_A) + cr_B(S_B) + d(S_A) + d(S_B)
                          - 2 e(S_A, S_B),
    e(S_A + S_B) = e(S_A) + e(S_B) + e(S_A, S_B),

and e(S_A, S_B) for every pair is one matrix product of the halves'
membership matrices with the adjacency block between them.  Every list
is handed over as arrays, in ascending order of the side-1 mask
(``cluedit cuts`` shows them by side-1 size, then mask): side 1 as rows
of uint64 words, and as int64 the crossing count and e(V1), the number of
edges inside side 1, which the solver's DP reads as they are, in that
order.  The time is polynomial in n and in the longest list, that of G or
of a range it is joined from; a list comes out whole, so there is no
polynomial delay.

The cap on the number of k-cuts is exact counting, finite for every p and
k: a YES instance is a cluster graph H of at most p cliques with at most k
pairs toggled, so each of its k-cuts crosses at most 2k edges of H, and
`cut_count_bound` counts the ways to cut p cliques across at most 2k of
their edges.  More k-cuts than that proves the instance NO.  The same
holds for every range A the list is joined from: if G is within k edits F
of H, then G[A] is within the edits of F inside A, at most k, of H[A], a
cluster graph of at most p cliques.  So a range whose list exceeds the
bound is a proven NO too, and an abort there is as sound as one on G.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from math import comb
from typing import Sequence

import numpy as np

from .graph import Graph, _retired

# a vertex range of at most this many vertices is listed from its
# 2^(n-1) table; past it the table's time and memory outgrow joining two
# halves
LEAF = 16

# the join scores at most this many pairs of half-cuts at a time, so its
# float64 scores take 256 KiB whatever the lists' lengths; larger blocks
# join no faster and raise the process's peak memory
_PAIRS = 1 << 15


# no enumeration runs a max-flow test since the join lists every cut;
# bench/spans.py patches the name
min_cut_leq = _retired


# the masks 0 .. 255, shared by every table build, which ANDs slices of
# them with the neighbour rows instead of making an arange per vertex;
# bytes, because numpy counts the bits of uint8 arrays several times
# faster than those of uint16 arrays
_IDS = np.arange(1 << 8, dtype=np.uint8)
_IDS.flags.writeable = False


def _neighbours_in(row: int, size: int) -> np.ndarray:
    """|N & S| for every mask S below *size*, a power of two, where N is
    the mask *row*; uint8.  Ids past 2^8 split into a high part and the
    low byte, whose counts add."""
    if size <= len(_IDS):
        return np.bitwise_count(_IDS[:size] & (row & (size - 1)))
    high = _neighbours_in(row >> 8, size >> 8)
    return (high[:, None] + _neighbours_in(row, len(_IDS))).ravel()


def edges_inside_table(rows: Sequence[int]) -> np.ndarray:
    """e[S] = number of edges with both ends in mask S, for all S, in the
    graph on n = len(rows) vertices whose neighbour masks are *rows*.

    Size 2^n; callers guard n.  Built by doubling: for S below bit v,
    e[S | v] = e[S] + |N(v) & S|, so e of the whole set is the edge count
    m.  The dtype is the narrowest unsigned one that holds m, uint8 up to
    m = 255, which covers every graph of at most 23 vertices.
    """
    m = sum(map(int.bit_count, rows)) // 2
    table = np.zeros(1 << len(rows), dtype=np.min_scalar_type(m))
    for v, row in enumerate(rows):
        half = 1 << v
        table[half:2 * half] = table[:half] + _neighbours_in(row, half)
    return table


@dataclass
class EnumStats:
    """Work counters.  ``explored`` counts the 2^n masks each table
    decides (it scores half of them and takes the rest as complements)
    plus the pairs of half-cuts scored in each join, ``pruned`` those of
    them crossing more than k edges, and ``emitted`` the cuts listed."""

    explored: int = 0
    pruned: int = 0
    emitted: int = 0


def _words(masks, n: int) -> np.ndarray:
    """The masks as a (len(masks), W) uint64 array, W = max(1, ceil(n / 64)):
    word i of a row holds vertices 64 i .. 64 i + 63."""
    width = max(1, (n + 63) // 64)
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


def _pack(members: np.ndarray) -> np.ndarray:
    """The rows of a `_members` array of n >= 1 vertices back in the
    layout of `_words`."""
    packed = np.packbits(members, axis=1, bitorder="little")
    packed = np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8)))
    return packed.view("<u8").astype(np.uint64)


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
    ``inside_counts[i]`` (int64) the number of edges inside side 1.
    `enumerate_k_cuts` guarantees that the rows ascend by side-1 mask, so
    the order is a property of the cut set alone; the solver's DP and
    ``cluedit cuts`` rely on it and sort nothing back into it.
    """

    words: np.ndarray
    crossing_counts: np.ndarray
    inside_counts: np.ndarray
    stats: EnumStats = field(default_factory=EnumStats)

    def __len__(self) -> int:
        return len(self.words)


def enumerate_k_cuts(g: Graph, k: int, cap: int | None = None) -> CutIndex | None:
    """Enumerate every ordered k-cut of g exactly once, or abort.

    Returns None when the list of g, or of any vertex range it is joined
    from, has more than *cap* cuts; cap None lists them all.  The cuts
    come in ascending side-1 mask order, which the callers rely on.  Up to
    ``LEAF`` vertices nothing is joined: every mask is decided by
    ``m - e(S) - e(V - S) <= k``.  Beyond, the lists of the id ranges
    [0, n // 2) and [n // 2, n), each listed the same way, are joined (see
    the module docstring).  The time is polynomial in n and in the longest
    of these lists, and nothing is returned before the whole list: there
    is no polynomial delay.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if cap is not None and cap < 1:
        raise ValueError("cap must be >= 1")
    stats = EnumStats()
    listed = _list(g, 0, g.n, k, cap, stats)
    if listed is None:
        return None
    stats.emitted = len(listed[0])
    return CutIndex(*listed, stats)


def _list(g: Graph, lo: int, hi: int, k: int, cap: int | None,
          stats: EnumStats):
    """The k-cuts of G[lo:hi] as (words, crossing, inside), vertex lo as
    bit 0 and sorted by mask, or None past *cap*.

    A range of at most ``LEAF`` vertices scores only the masks S without
    its last vertex z, from the table of the range without z:
    crossing(S) = m' - e(S) - e(V' - S) + |N(z) & S|, where V' and m' are
    that range's vertices and edges.  The other cuts are their
    complements V - S, which hold z, have the same crossing count and
    e(V - S) = m - crossing(S) - e(S).  Every complement is a larger mask
    than every S, so the complements in reverse follow the S in order.
    """
    if hi - lo > LEAF:
        return _join(g, lo, hi, k, cap, stats)
    if hi == lo:
        # the empty range: one cut, both sides empty
        stats.explored += 1
        return (np.zeros((1, 1), np.uint64), np.zeros(1, np.int64),
                np.zeros(1, np.int64))
    half = 1 << hi - lo - 1
    inside = edges_inside_table([row >> lo & half - 1
                                 for row in g.rows[lo:hi - 1]])
    rest_m = int(inside[-1])
    last = g.rows[hi - 1] >> lo & half - 1
    # in the table's unsigned dtype: e(S) + e(V' - S) <= m', so no
    # difference wraps, and crossing(S) <= C(LEAF, 2) fits in uint8
    crossing = (rest_m - inside) - inside[::-1] + _neighbours_in(last, half)
    masks = np.flatnonzero(crossing <= k)  # ascending
    if cap is not None and 2 * masks.size > cap:
        return None
    stats.explored += 2 * half
    stats.pruned += 2 * (half - masks.size)
    crossing = crossing[masks].astype(np.int64)
    inside = inside[masks].astype(np.int64)
    m = rest_m + last.bit_count()
    return (np.concatenate((masks, 2 * half - 1 - masks[::-1]))
            .astype(np.uint64).reshape(-1, 1),
            np.concatenate((crossing, crossing[::-1])),
            np.concatenate((inside, (m - crossing - inside)[::-1])))


def _join(g: Graph, lo: int, hi: int, k: int, cap: int | None,
          stats: EnumStats):
    """`_list` of [lo, hi), joined from the lists of its two halves."""
    mid = (lo + hi) // 2
    low = _list(g, lo, mid, k, cap, stats)
    high = low and _list(g, mid, hi, k, cap, stats)  # None if low is
    if high is None:
        return None
    (words_a, cr_a, in_a), (words_b, cr_b, in_b) = low, high
    n_b = hi - mid
    member_a, member_b = _members(words_a, mid - lo), _members(words_b, n_b)
    # edge[u, v]: vertex lo + u is adjacent to vertex mid + v
    edge = _members(_words([row >> mid & (1 << n_b) - 1
                            for row in g.rows[lo:mid]], n_b), n_b)
    # to_a[j, u]: edges from side 1 of high cut j to vertex lo + u; every
    # count here is below 2^53, so the float64 products are exact
    to_a = member_b @ edge.T.astype(np.float64)
    flat_a = member_a.T.astype(np.float64)
    # cr + d for each half-cut
    base_a = cr_a + member_a @ edge.sum(axis=1, dtype=np.int64)
    base_b = cr_b + to_a.sum(axis=1).astype(np.int64)
    rows = max(1, _PAIRS // len(words_a))
    parts, kept = [], 0
    # blocks of high cuts in ascending order, and the low cuts ascending
    # in each, so the pairs come out sorted by the joined mask
    for start in range(0, len(words_b), rows):
        # the crossing count of each pair, with e(S_A, S_B) from to_a
        score = (base_b[start:start + rows, None] + base_a
                 - 2 * (to_a[start:start + rows] @ flat_a))
        j, i = np.nonzero(score <= k)
        kept += len(j)
        if cap is not None and kept > cap:
            return None
        parts.append((start + j, i, score[j, i].astype(np.int64)))
    j, i, crossing = (np.concatenate(col) for col in zip(*parts))
    stats.explored += len(words_a) * len(words_b)
    stats.pruned += len(words_a) * len(words_b) - kept
    inside = in_a[i] + in_b[j] + (base_a[i] + base_b[j] - crossing) // 2
    joined = np.hstack((member_a[i], member_b[j]))
    return _pack(joined), crossing, inside


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
