"""Graphs, clusterings and edit sets for cluster editing.

Vertices are 0..n-1.  A graph is its rows, one arbitrary-precision
bitmask per vertex; membership tests, symmetric difference and the
clique-component test are all bit operations, which keeps even reduction
outputs with millions of edges workable.  Edge sets are never materialized
wholesale: ``edges()`` iterates, and ``n`` and ``m`` are derived from the
rows (their count and half their popcount).

An edit set F is itself a `Graph` on the same vertices, whose edges are the
pairs to toggle: the edited graph is G xor F (`apply_edits`) and the cost
is F.m.

The text format has two readers.  The canonical text that `format_graph`
writes is read in bulk with numpy once it is a kilobyte or longer, and
each of its rows is built once by ``int.from_bytes`` rather than rewritten
once per edge; every other text, and every text that breaks a rule, goes
to the line reader, which alone raises, so each error names its line.
"""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Iterator

import numpy as np

# each header vertex costs a row before any edge is read, so a larger header
# is rejected as bad input rather than left to exhaust memory
MAX_PARSE_VERTICES = 10**7


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of *mask* in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    ``rows[v]`` is the open-neighbourhood bitmask of v, and n and m are
    read off the rows.  Instances are immutable; edit operations return
    new graphs.
    """

    rows: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def m(self) -> int:
        return sum(map(int.bit_count, self.rows)) // 2

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"bad edge ({u}, {v}) for n={n}")
            if rows[u] >> v & 1:
                raise ValueError(f"duplicate edge ({u}, {v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(tuple(rows))

    @staticmethod
    def empty(n: int) -> "Graph":
        return Graph((0,) * n)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) with u < v, lexicographically.

        Each row with a higher neighbour is read once, as a binary string
        searched for its ones, so a row costs its width and not its width
        per set bit.
        """
        for u, row in enumerate(self.rows):
            above = row >> (u + 1)
            if not above:
                continue
            text = f"{above:b}"[::-1]
            i = text.find("1")
            while i >= 0:
                yield (u, u + 1 + i)
                i = text.find("1", i + 1)


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

def connected_components(g: Graph) -> list[int]:
    """Component vertex masks, ordered by smallest contained vertex id."""
    seen = 0
    out = []
    for v in range(g.n):
        if seen >> v & 1:
            continue
        comp = 1 << v
        frontier = comp
        while frontier:
            grow = 0
            for u in bits(frontier):
                grow |= g.rows[u]
            frontier = grow & ~comp
            comp |= grow
        out.append(comp)
        seen |= comp
    return out


def clique_component_masks(g: Graph) -> dict[int, list[int]]:
    """The components of g that are cliques, by smallest vertex: each
    component's mask maps to its vertices in ascending order.

    A closed row R = rows[v] | 1 << v contains v, and R is a clique
    component iff every vertex of R, and no other, has closed row R: so iff
    exactly |R| vertices have it.  One hash per row groups the vertices by
    closed row, and the dict keeps each row at its first, smallest, vertex.
    """
    members: dict[int, list[int]] = {}
    for v, row in enumerate(g.rows):
        members.setdefault(row | 1 << v, []).append(v)
    return {r: vs for r, vs in members.items() if len(vs) == r.bit_count()}


def is_cluster_graph(g: Graph) -> bool:
    """True iff every connected component induces a clique (no induced P3)."""
    return sum(map(int.bit_count, clique_component_masks(g))) == g.n


def apply_edits(g: Graph, edits: Graph) -> Graph:
    """g with every edge of *edits* toggled: the symmetric difference.

    Applying the same edits twice gives g back, and for two graphs g and h
    on the same vertices apply_edits(g, h).m is their edit distance.
    """
    if g.n != edits.n:
        raise ValueError(f"vertex count mismatch: {g.n} vs {edits.n}")
    return Graph(tuple(map(int.__xor__, g.rows, edits.rows)))


def cluster_graph_of(n: int, cl: Clustering) -> Graph:
    if len(cl.assignment) != n:
        raise ValueError("clustering size mismatch")
    masks = cl.cluster_masks()
    return Graph(tuple(masks[cl.assignment[v]] ^ (1 << v) for v in range(n)))


def clustering_to_edit_set(g: Graph, cl: Clustering) -> Graph:
    """The unique edit set turning g into the cluster graph of cl."""
    return apply_edits(g, cluster_graph_of(g.n, cl))


def induced_subgraph(g: Graph, keep: int) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on the vertex mask *keep*, with new -> old id map."""
    old = list(bits(keep))
    new_of = {o: i for i, o in enumerate(old)}
    rows = []
    for o in old:
        row = 0
        for u in bits(g.rows[o] & keep):
            row |= 1 << new_of[u]
        rows.append(row)
    return Graph(tuple(rows)), tuple(old)


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
    writes it, of at least _BULK_MIN_CHARS characters is read in bulk; any
    other text, and any canonical text that breaks a rule, is read line by
    line.  Only the line reader raises, so every ValueError names the line
    at fault and reads the same whichever form the text took.
    """
    g = _parse_canonical(text) if len(text) >= _BULK_MIN_CHARS else None
    return _parse_lines(text) if g is None else g


# below about a kilobyte the line reader is faster: the bulk reader pays a
# fixed cost of a few dozen numpy calls, which with cold caches matches what
# the line reader spends on some 900 characters
_BULK_MIN_CHARS = 1 << 10

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
    """The graph of a canonical text, or None to leave it to _parse_lines.

    Two regex scans, one numpy conversion of the 2m ids, vectorised checks,
    then each non-isolated row once, by one ``int.from_bytes`` and a shift,
    from a byte buffer that holds the row from its lowest neighbour's byte
    to its highest's.  The buffer is built for a block of rows at a time,
    so besides the finished rows the reader takes O(n + m) words and a
    buffer, with its one copy, of at most _ROW_BLOCK_BYTES bytes or one row.
    None also when the text breaks a rule the line reader enforces: an
    edge count other than the header's, too many vertices, an id out of
    range, a self-loop or a repeated edge.
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
    if not m:
        return Graph.empty(n)
    ends -= 1
    if ends.min() < 0 or ends.max() >= n:
        return None
    u, v = ends[0::2], ends[1::2]
    # each edge once from either end, grouped by the row it sets a bit in
    src, dst = np.concatenate((u, v)), np.concatenate((v, u))
    order = np.argsort(src)
    src, dst = src[order], dst[order]
    # each edge array is dropped once used, so the blocks below run beside
    # 9 bytes per edge end, not 30
    del ends, u, v, order
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
    g = Graph(tuple(rows))
    # a repeated edge sets no new bit and a self-loop one, so the rows'
    # popcount falls short of 2m
    return g if g.m == m else None


# byte buffer that _parse_canonical fills per block of rows
_ROW_BLOCK_BYTES = 1 << 18


def _parse_lines(text: str) -> Graph:
    """Read *text* line by line, raising ValueError at the first fault."""
    n = m = None
    rows: list[int] = []
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
            rows = [0] * n
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
            if rows[u] >> v & 1:
                raise ValueError(f"line {lineno}: duplicate edge {line!r}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        else:
            raise ValueError(f"line {lineno}: unknown record {line!r}")
    if n is None:
        raise ValueError("missing header")
    g = Graph(tuple(rows))
    if g.m != m:
        raise ValueError(f"header claims {m} edges, found {g.m}")
    return g


def write_graph(g: Graph, path) -> None:
    """Write format_graph(g) to *path* without holding the whole text."""
    with open(path, "w") as fh:
        fh.writelines(_format_rows(g))


def read_graph(path) -> Graph:
    with open(path) as fh:
        return parse_graph(fh.read())
