"""Graphs, clusterings and edit sets for cluster editing.

Vertices are 0..n-1.  A graph is stored as one form: its vertex count and
the ascending int64 array of keys u·n + v over its edges uv with u < v,
O(n + m) words.  Every builder makes keys: the text readers, `from_edges`,
`apply_edits` (a merge of two key arrays), `cluster_graph_of`,
`induced_subgraph` and the reduction generators.  The clique scan of the
reduction rules (`clique_components`), the kernel extraction and the
solver's certificate check read the keys, so a large input on which the
rules leave a small kernel is solved in O(n + m) time and memory.

The rows, one arbitrary-precision bitmask per vertex, n bits wide, are a
view derived from the keys on first use by `_rows_of_keys`, the one place
rows are built.  A row costs O(n/64) words whatever its degree: the cut
enumeration and the early NO are bit operations on them, which suits the
small kernels the solver works on.  The DP reads neither form: it reads
the cut list's uint64 words, through the `cuts` helpers.

An edit set F is itself a `Graph` on the same vertices, whose edges are the
pairs to toggle: the edited graph is G xor F (`apply_edits`) and the cost
is F.m.

The text format has two readers, and both give keys in O(n + m) words.
The canonical text that `format_graph` writes, of any length, is read in
bulk with numpy; every other text, and every text that breaks a rule, goes
to the line reader, which alone raises, so each error names its line.
"""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from itertools import combinations, groupby
from operator import itemgetter
from typing import Iterable, Iterator

import numpy as np

# the solve allocates arrays of n entries whatever the edge count (the clique
# scan's labels and degrees), so a larger header is rejected as bad input
# rather than left to exhaust memory; the limit also keeps each id in int32
# and each key u·n + v in int64
MAX_PARSE_VERTICES = 10**7


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of *mask* in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Simple undirected graph on vertices 0..n-1: its vertex count and the
    ascending int64 array ``keys`` of u·n + v over its edges uv, u < v.

    ``Graph(n, keys)`` trusts the keys; `from_edges` checks its pairs.
    ``rows[v]``, the open-neighbourhood bitmask of v, is derived from the
    keys on first use.  Two graphs are equal when they have the same n and
    the same keys.  Instances are immutable; edit operations return new
    graphs.
    """

    n: int
    keys: np.ndarray

    def __init__(self, n: int, keys: np.ndarray) -> None:
        vars(self).update(n=n, keys=keys)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"Graph is immutable: cannot set {name!r}")

    @functools.cached_property
    def rows(self) -> tuple[int, ...]:
        return _rows_of_keys(self.n, self.keys)

    @property
    def m(self) -> int:
        return len(self.keys)

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        keys: set[int] = set()
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"bad edge ({u}, {v}) for n={n}")
            key = min(u, v) * n + max(u, v)
            if key in keys:
                raise ValueError(f"duplicate edge ({u}, {v})")
            keys.add(key)
        return Graph(n, np.array(sorted(keys), np.int64))

    @staticmethod
    def empty(n: int) -> "Graph":
        return Graph(n, np.zeros(0, np.int64))

    def has_edge(self, u: int, v: int) -> bool:
        # a binary search for the key; u == v has none, and the range test
        # keeps an id outside 0..n-1 from aliasing another pair's key
        lo, hi = min(u, v), max(u, v)
        key = lo * self.n + hi
        at = int(self.keys.searchsorted(key))
        return 0 <= lo < hi < self.n and at < len(self.keys) and int(self.keys[at]) == key

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) with u < v, lexicographically."""
        u, v = np.divmod(self.keys, self.n)
        return zip(u.tolist(), v.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.keys, other.keys)

    def __hash__(self) -> int:
        return hash((self.n, self.m))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Clustering:
    """Partition of 0..n-1 into clusters with dense ids 0..c-1."""

    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        # ids from 0 whose distinct count is max + 1 are exactly 0..c-1
        if (min(self.assignment, default=0) < 0
                or len(set(self.assignment)) != self.c):
            raise ValueError("cluster ids must be dense 0..c-1 and nonempty")

    # a cached value, not a field: equality and hashing read the assignment
    @functools.cached_property
    def c(self) -> int:
        return max(self.assignment, default=-1) + 1

    @staticmethod
    def from_blocks(n: int, blocks: Iterable[Iterable[int]]) -> "Clustering":
        """The clustering whose clusters are the nonempty blocks, in order:
        the one partition builder.  Raises ValueError unless the blocks
        tile 0..n-1: no id outside it, none in two blocks, none missing."""
        assignment = [-1] * n
        c = 0
        try:
            for block in blocks:
                hit = False
                for v in block:
                    # one test per vertex: an id >= n raises IndexError
                    if v < 0 or assignment[v] != -1:
                        raise ValueError(f"vertex {v} in two blocks" if v >= 0
                                         else f"vertex {v} outside 0..{n - 1}")
                    assignment[v] = c
                    hit = True
                c += hit
        except IndexError:
            raise ValueError(f"vertex {v} outside 0..{n - 1}") from None
        if -1 in assignment:
            raise ValueError("blocks do not cover all vertices")
        return Clustering(tuple(assignment))

    def cluster_masks(self) -> list[int]:
        masks = [0] * self.c
        for v, a in enumerate(self.assignment):
            masks[a] |= 1 << v
        return masks

    def sizes(self) -> list[int]:
        sz = [0] * self.c
        for a in self.assignment:
            sz[a] += 1
        return sz


# ---------------------------------------------------------------------------
# operations

def _retired(*args, **kwargs):
    """Stands in for a function that no solve runs any more, under the
    name the benchmark's tracer still patches."""
    raise NotImplementedError("retired: no solve calls this; the name stays "
                              "for bench/spans.py (ROADMAP item 4)")


# no solve runs a breadth-first search (the clique components come from
# clique_components); bench/spans.py patches the name
connected_components = _retired


def clique_components(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The clique components of g, read off its keys: (heads, sizes).

    heads holds the smallest vertex of each clique component, ascending,
    and sizes its vertex count.  A component is its head and the head's
    neighbours.

    Let label(v) = min N[v], the least of v and its neighbours, and S_L
    the set of vertices labelled L.  S_L is a clique component iff
    label(L) = L, |S_L| = deg(L) + 1, and no edge at S_L joins two vertices
    that differ in label or in degree.  If: each x != L in S_L is adjacent
    to L, so deg(x) = deg(L); every neighbour of x, and of L, is labelled
    L, and S_L - x has only deg(L) vertices, so N(x) = S_L - x.  Only if:
    every vertex of a clique component C has closed neighbourhood C, so
    all of C is labelled min C and has degree |C| - 1, and no edge leaves
    C.  The labels take one ``np.minimum.at``, and the whole scan O(n + m).
    """
    n = g.n
    low, high = np.divmod(g.keys, n)
    label = np.arange(n)
    # low < high, so an edge can lower the label of its higher end only
    np.minimum.at(label, high, low)
    degree = np.bincount(low, minlength=n) + np.bincount(high, minlength=n)
    size = np.bincount(label, minlength=n)
    odd = (label[low] != label[high]) | (degree[low] != degree[high])
    spoilt = np.zeros(n, bool)
    spoilt[label[low[odd]]] = spoilt[label[high[odd]]] = True
    heads = np.flatnonzero((label == np.arange(n)) & (size == degree + 1)
                           & ~spoilt)
    return heads, size[heads]


def is_cluster_graph(g: Graph) -> bool:
    """True iff every connected component induces a clique (no induced P3)."""
    return int(clique_components(g)[1].sum()) == g.n


def apply_edits(g: Graph, edits: Graph) -> Graph:
    """g with every edge of *edits* toggled: the symmetric difference.

    Applying the same edits twice gives g back, and for two graphs g and h
    on the same vertices apply_edits(g, h).m is their edit distance.
    """
    if g.n != edits.n:
        raise ValueError(f"vertex count mismatch: {g.n} vs {edits.n}")
    return Graph(g.n, np.setxor1d(g.keys, edits.keys, assume_unique=True))


def cluster_graph_of(n: int, cl: Clustering) -> Graph:
    """The graph whose edges are the pairs inside each cluster of cl."""
    if len(cl.assignment) != n:
        raise ValueError("clustering size mismatch")
    blocks: list[list[int]] = [[] for _ in range(cl.c)]
    for v, a in enumerate(cl.assignment):
        blocks[a].append(v)
    return Graph(n, np.array(sorted(u * n + v for block in blocks
                                    for u, v in combinations(block, 2)),
                             np.int64))


def clustering_to_edit_set(g: Graph, cl: Clustering) -> Graph:
    """The unique edit set turning g into the cluster graph of cl."""
    return apply_edits(g, cluster_graph_of(g.n, cl))


def induced_subgraph(g: Graph, keep) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on the ascending vertex ids *keep*, with its new ->
    old id map.  Read off g's keys: the renumbering keeps the order of
    ids, and so of keys."""
    keep = np.asarray(keep, dtype=np.int64)
    size = len(keep)
    new_of = np.full(g.n, -1, np.int64)
    new_of[keep] = np.arange(size)
    low, high = np.divmod(g.keys, g.n)
    low, high = new_of[low], new_of[high]
    inside = (low >= 0) & (high >= 0)
    return (Graph(size, low[inside] * size + high[inside]),
            tuple(keep.tolist()))


# ---------------------------------------------------------------------------
# text format: "c" comments, "p cep <n> <m>" header, "e <u> <v>" with 1-based
# ids; parse_graph also reads PACE 2021 edge lines, a bare "<u> <v>"

def _format_rows(g: Graph) -> Iterator[str]:
    """The text of g in pieces: the header, then each vertex's edge lines."""
    yield f"p cep {g.n} {g.m}\n"
    for u, row in groupby(g.edges(), key=itemgetter(0)):
        yield "".join(f"e {u + 1} {v + 1}\n" for _, v in row)


def format_graph(g: Graph) -> str:
    return "".join(_format_rows(g))


def parse_graph(text: str) -> Graph:
    """The graph of a text in the format above.

    Two readers give the same graph.  Canonical text, as `format_graph`
    writes it, of any length is read in bulk; any other text, and any
    canonical text that breaks a rule, is read line by line.  Only the line
    reader raises, so every ValueError names the line at fault and reads
    the same whichever form the text took.
    """
    return _parse_canonical(text) or _parse_lines(text)

# the header and "e u v" lines only, single spaces, ASCII digits ([0-9]: \d
# would admit other scripts); 8 digits hold every id up to
# MAX_PARSE_VERTICES, and a longer id is left to the line reader, whose
# int() reads any length where int32 would overflow.  The edge lines are
# checked by searching for a newline that no canonical line or the end
# follows, not by one match of a repeated group: re keeps a backtracking
# frame per pass of the group, about 30 bytes per character of text
_CANONICAL_HEADER = re.compile(r"p cep ([0-9]{1,8}) ([0-9]{1,8})\n")
_NONCANONICAL_LINE = re.compile(r"\n(?!e [0-9]{1,8} [0-9]{1,8}\n|\Z)")


def _parse_canonical(text: str) -> Graph | None:
    """The graph of a canonical text, or None to leave the text to
    _parse_lines.

    Two regex scans, one numpy conversion of the 2m ids, and one sort of
    the m keys, on which a self-loop or a repeated edge, in either
    direction, is a key twice or one with equal ends: O(n + m) words and,
    apart from the sort, time, with no row built.  None also when the text
    breaks a rule the line reader enforces: an edge count other than the
    header's, too many vertices, an id out of range, a self-loop or a
    repeated edge.
    """
    hit = _CANONICAL_HEADER.match(text)
    if hit is None:
        return None
    body = hit.end()
    if _NONCANONICAL_LINE.search(text, body - 1):
        return None
    n, m = int(hit[1]), int(hit[2])
    if n > MAX_PARSE_VERTICES:
        return None
    ends = np.fromstring(text[body:].replace("e", ""), dtype=np.int32, sep=" ")
    if len(ends) != 2 * m:
        return None
    ends -= 1
    if m and (ends.min() < 0 or ends.max() >= n):
        return None
    u, v = ends[0::2].astype(np.int64), ends[1::2]
    keys = np.minimum(u, v) * n + np.maximum(u, v)
    keys.sort()
    if (u == v).any() or (keys[1:] == keys[:-1]).any():
        return None
    return Graph(n, keys)


def _rows_of_keys(n: int, keys: np.ndarray) -> tuple[int, ...]:
    """The rows of the graph on 0..n-1 with edge keys *keys*.

    Up to _LOOP_EDGES edges, as on a kernel or a small input, the rows are
    built one edge at a time.  Beyond, each non-isolated row is built once,
    by one ``int.from_bytes`` and a shift, from a byte buffer that holds
    the row from its lowest neighbour's byte to its highest's.  The buffer
    is built for a block of rows at a time, so besides the finished rows
    this takes O(n + m) words and a buffer, with its one copy, of at most
    _ROW_BLOCK_BYTES bytes or one row.
    """
    if len(keys) <= _LOOP_EDGES:
        rows = [0] * n
        for key in keys.tolist():
            u, v = divmod(key, n)
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return tuple(rows)
    # ids in int32, which holds every n the readers admit, so that the sort
    # and the blocks move half the bytes
    u, v = (x.astype(np.int32) for x in np.divmod(keys, n))
    # each edge once from either end, grouped by the row it sets a bit in
    src, dst = np.concatenate((u, v)), np.concatenate((v, u))
    del u, v
    order = np.argsort(src)
    src, dst = src[order], dst[order]
    # each edge array is dropped once used, so the blocks below run beside
    # 9 bytes per edge end, those of at and bit
    del order
    first = np.flatnonzero(np.diff(src, prepend=-1))  # each live row's start
    live = src[first].tolist()
    first = np.append(first, len(src))
    # a row's bytes run from its lowest neighbour's to its highest's
    low = np.minimum.reduceat(dst, first[:-1]) >> 3
    bounds = np.zeros(len(live) + 1, np.int64)
    np.cumsum((np.maximum.reduceat(dst, first[:-1]) >> 3) - low + 1,
              out=bounds[1:])
    del src
    at = np.repeat(bounds[:-1] - low, np.diff(first))
    at += dst >> 3
    bit = (1 << (dst & 7)).astype(np.uint8)
    del dst
    rows = [0] * n
    from_bytes = int.from_bytes
    a = 0
    while a < len(live):
        # rows a..b-1: at most _ROW_BLOCK_BYTES of buffer, or one row
        b = max(a + 1, int(np.searchsorted(
            bounds, bounds[a] + _ROW_BLOCK_BYTES, side="right")) - 1)
        base = bounds[a]
        buf = np.zeros(bounds[b] - base, np.uint8)
        np.bitwise_or.at(buf, at[first[a]:first[b]] - base,
                         bit[first[a]:first[b]])
        raw = buf.tobytes()
        for w, lo, hi, shift in zip(live[a:b], (bounds[a:b] - base).tolist(),
                                    (bounds[a + 1:b + 1] - base).tolist(),
                                    (low[a:b] << 3).tolist()):
            rows[w] = from_bytes(raw[lo:hi], "little") << shift
        a = b
    return tuple(rows)


# byte buffer that _rows_of_keys fills per block of rows
_ROW_BLOCK_BYTES = 1 << 18

# the edge count up to which _rows_of_keys sets bits one edge at a time: the
# block builder's few dozen numpy calls cost about 43 us on a 14-vertex
# kernel that the loop builds in 5.5 us, and the two break even at some
# 500-1000 edges on sparse graphs of 100-1000 vertices
_LOOP_EDGES = 512


def _parse_lines(text: str) -> Graph:
    """Read *text* line by line, raising ValueError at the first fault.

    The keys seen so far are kept in a set, which catches a repeated edge,
    in either direction, at its line: O(n + m) words, with no row built.
    """
    n = m = None
    keys: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise ValueError(f"line {lineno}: duplicate header")
            if len(fields) != 4 or fields[1] != "cep":
                raise ValueError(f"line {lineno}: malformed header {line!r}")
            try:
                n, m = int(fields[2]), int(fields[3])
            except ValueError:
                raise ValueError(f"line {lineno}: malformed header {line!r}") from None
            if n < 0 or m < 0:
                raise ValueError(f"line {lineno}: negative counts")
            if n > MAX_PARSE_VERTICES:
                raise ValueError(f"line {lineno}: {n} vertices exceed the "
                                 f"limit of {MAX_PARSE_VERTICES}")
        elif fields[0] == "e" or fields[0].isdigit():
            ends = fields[1:] if fields[0] == "e" else fields
            if n is None:
                raise ValueError(f"line {lineno}: edge before header")
            if len(ends) != 2:
                raise ValueError(f"line {lineno}: malformed edge {line!r}")
            try:
                u, v = int(ends[0]) - 1, int(ends[1]) - 1
            except ValueError:
                raise ValueError(f"line {lineno}: malformed edge {line!r}") from None
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise ValueError(f"line {lineno}: vertex out of range in {line!r}")
            key = u * n + v if u < v else v * n + u
            if key in keys:
                raise ValueError(f"line {lineno}: duplicate edge {line!r}")
            keys.add(key)
        else:
            raise ValueError(f"line {lineno}: unknown record {line!r}")
    if n is None:
        raise ValueError("missing header")
    if len(keys) != m:
        raise ValueError(f"header claims {m} edges, found {len(keys)}")
    return Graph(n, np.sort(np.fromiter(keys, np.int64, len(keys))))


def write_graph(g: Graph, path) -> None:
    """Write format_graph(g) to *path* without holding the whole text."""
    with open(path, "w") as fh:
        fh.writelines(_format_rows(g))


def read_graph(path) -> Graph:
    with open(path) as fh:
        return parse_graph(fh.read())
