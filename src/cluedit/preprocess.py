"""Reduction rules that shrink the cluster count before the solver runs.

An exact-p instance with p much larger than k must already contain many
finished clusters: at most 2k clusters can touch an edit pair, so p - 2k of
them sit in the input as isolated clique components.  The rules reject when
those are missing (Rule 1) and otherwise peel guaranteed-safe components --
an isolated vertex when 2k+1 of them exist (Rule 2), a largest isolated
clique when 2k+1 nontrivial ones exist (Rule 3) -- until p' <= 6k.

At-most mode peels with the same Rules 2 and 3, thresholds and order, but
has no Rule 1 and no ``p_exceeds_n`` reject: a clustering of n vertices has
at most n clusters, so p' is clamped to n' instead.  The peel stays sound
there.  Let S be a solution with at most p clusters and cost <= k that
touches the peeled clique Q (some edit has an end in Q).  The k edits touch
at most 2k components, so among the >= 2k+1 cliques of Q's pool some Q'
with |Q'| <= |Q| is untouched, and Q' is a cluster of S.  Map Q' injectively
into Q, give each vertex of Q' the cluster S gives its image, and make Q a
cluster of its own.  Each edit of the new clustering maps to a distinct
edit of S (Q and Q' are components, so a pair at Q' maps to the pair at its
image), so the cost does not rise, and dropping the cluster Q leaves at
most |S| - 1 clusters on the other vertices.  The count may drop by more
than one, which is why exact mode needs Rule 1 and p' > 6k instead.

Applied one at a time, with Rule 3 before Rule 2, the rules need no
re-scan of the graph: each deletion removes one clique component and lowers
p by one, and no deletion makes a new clique component.  So the number of
clique components minus p never changes and Rule 1 needs checking only
once, on entry.  The deletions are then fixed by one scan of the clique
components over the graph's keys (`clique_components`, which labels each
vertex by the least vertex of its closed neighbourhood): the nontrivial
cliques from largest to smallest, ties by smallest vertex, then the
isolated vertices by id, each rule for as long as its 2k+1 threshold and
p' > 6k allow.  One ``induced_subgraph``, also over the keys, builds the
kernel, whose bitmask rows, as wide as the kernel, are built when
`early_no` first reads them.  Apart from sorting the cliques by size this
is O(n + m) time and memory whichever text reader gave the graph, and the
input's own n-bit rows are never read.

`early_no` runs on the kernel, after the rules.  It proves NO without
listing cuts, from more than 2k + p' closed-twin classes or from k + 1
conflict triples (induced paths u-w-v) of which no two share a vertex
pair; its docstring holds both proofs.  Packings of conflict triples are
the standard lower bound of exact cluster-editing solvers (Boecker,
Briesemeister and Klau, Algorithmica 2011).

`lift_clustering` takes a clustering of the kernel back to the input: each
cluster through ``vertex_map``, then each removed component as a cluster
of its own.  `Clustering.from_blocks` builds the result, so the check that
every input vertex lands in exactly one cluster is the builder's.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# connected_components is graph's retired stub, imported only because
# bench/spans.py patches it by name here
from .graph import (Clustering, Graph, bits, clique_components,
                    connected_components, induced_subgraph)


@dataclass(frozen=True)
class Instance:
    """A (p-)cluster-editing decision instance.

    mode "exact" asks for exactly p clusters, "at_most" for up to p.
    Reduction can legitimately drive p to 0 (k = 0 peels every required
    cluster), so p >= 0 here; the CLI rejects user-level p < 1.
    """

    g: Graph
    p: int
    k: int
    mode: str = "exact"

    def __post_init__(self) -> None:
        if self.p < 0:
            raise ValueError("p must be >= 0")
        if self.k < 0:
            raise ValueError("k must be >= 0")
        if self.mode not in ("exact", "at_most"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class PreprocessOutcome:
    """Reduced instance plus the log needed to lift solutions back.

    *reason* names the rejection ("rule1" or "p_exceeds_n") and is None
    for a kernel; *removed* lists the deleted components with their rules.
    """

    reason: str | None
    instance: Instance | None
    vertex_map: tuple[int, ...]  # reduced id -> original id
    removed: list[tuple[str, tuple[int, ...]]]

    @property
    def rejected(self) -> bool:
        return self.reason is not None

    @property
    def rules_applied(self) -> list[str]:
        """The rule of each deletion in order, then "rule1" if it rejected."""
        applied = [rule for rule, _ in self.removed]
        return applied + ["rule1"] if self.reason == "rule1" else applied


def preprocess(inst: Instance) -> PreprocessOutcome:
    """Apply Rules 1-3 until p' <= 6k; equivalence-preserving in both modes.

    Exact mode also rejects when the reduced graph has fewer vertices than
    clusters demanded; at-most mode has no Rule 1 and clamps p' to the
    reduced vertex count.  ``removed`` lists the deleted components in the
    order the rules take them one at a time.
    """
    g, p, k, mode = inst.g, inst.p, inst.k, inst.mode
    removed: list[tuple[str, tuple[int, ...]]] = []
    vmap = None
    if p > 6 * k:
        heads, sizes = clique_components(g)
        if mode == "exact" and len(heads) < p - 2 * k:
            return PreprocessOutcome("rule1", None, tuple(range(g.n)), [])
        # the nontrivial cliques largest first, ties by smallest vertex,
        # then the singletons by id: heads ascend and the sort is stable
        order = np.argsort(-sizes, kind="stable")
        nontrivial = int(np.count_nonzero(sizes > 1))
        picked, rules = [], []
        for rule, pool in (("rule3", order[:nontrivial]),
                           ("rule2", order[nontrivial:])):
            fire = min(max(0, len(pool) - 2 * k), p - 6 * k)
            picked.append(pool[:fire])
            rules += [rule] * fire
            p -= fire
        if rules:
            picked = np.concatenate(picked)
            head, count = heads[picked], sizes[picked]
            ends = np.cumsum(count)
            # each component is its head, then the head's neighbours, which
            # all lie above it: the run of keys from the head's first key
            rank = np.arange(ends[-1]) - np.repeat(ends - count, count)
            members = np.repeat(head, count)
            tail = rank > 0
            first = np.repeat(g.keys.searchsorted(head * g.n) - 1, count)
            members[tail] = g.keys[first[tail] + rank[tail]] % g.n
            flat, bounds = members.tolist(), ends.tolist()
            removed = [(rule, tuple(flat[a:b])) for rule, a, b
                       in zip(rules, [0] + bounds, bounds)]
            keep = np.ones(g.n, bool)
            keep[members] = False
            g, vmap = induced_subgraph(g, np.flatnonzero(keep))
    if vmap is None:
        vmap = tuple(range(g.n))
    if p > g.n:
        if mode == "exact":
            return PreprocessOutcome("p_exceeds_n", None, vmap, removed)
        p = g.n
    return PreprocessOutcome(None, Instance(g, p, k, mode), vmap, removed)


# the centres of the packing hold at most this many neighbour pairs, and so
# at most this many conflict triples: a centre of degree d can hold
# d(d - 1)/2 of them, and a dense neighbourhood of a few thousand vertices
# would list millions, in time and memory far beyond the cut enumeration
# that the check is meant to spare
_TRIPLES = 1 << 16


def early_no(g: Graph, p: int, k: int
             ) -> tuple[str, list[tuple[int, int, int]]] | None:
    """A proof that no k edits make g a cluster graph of at most p cliques,
    found without listing cuts, or None.

    Returns ("class_count", []) or ("conflict_triples", the k + 1 triples
    (u, w, v) of its packing).  Both proofs hold in either mode, so they
    prove an exact-mode instance NO too.  The solver runs this on the
    kernel, whose conflict triples are exactly the input's, because
    preprocessing removes only clique components.

    Class count.  Closed twins are vertices with equal closed rows
    ``rows[v] | 1 << v``.  Take a solution of cost <= k with at most p
    clusters.  A vertex no edit touches keeps its row, so its closed row is
    its cluster's mask: the untouched vertices of a cluster are one class.
    The k edits touch at most 2k vertices, so there are at most 2k + p
    classes, and more is a proven NO.

    Conflict triples.  A conflict triple u-w-v is an induced path: uw and
    wv are edges and uv is not.  No cluster graph holds one, so a solution
    edits one of its three pairs, and triples that share no vertex pair
    need distinct edits.  So k + 1 of them, pairwise sharing no pair,
    prove NO.  Any subset of the graph's triples is still such a proof, so
    the packing only takes centres w from one vertex per class, at most
    2k + p rows once the count has passed, and skips a centre whose
    neighbour pairs, d(d - 1)/2 at degree d, would take those of the
    centres before it past ``_TRIPLES``.  It lists the triples at those
    centres and takes them greedily, fewest shared pairs first: in
    ascending order of the summed number of listed triples that hold each
    of their three pairs, ties by (u, w, v), stopping at k + 1.
    """
    rows, n, most = g.rows, g.n, 2 * k + p
    # the classes, which stop once their count proves NO, and the centres:
    # the first vertex of each class, skipping one whose neighbour pairs,
    # which bound the triples listed at it, no longer fit in _TRIPLES
    classes: set[int] = set()
    taken, room, centres = [], _TRIPLES, 0
    for v, row in enumerate(rows):
        closed = row | 1 << v
        if closed in classes:
            continue
        classes.add(closed)
        if len(classes) > most:
            return "class_count", []
        pairs = row.bit_count() * (row.bit_count() - 1) // 2
        if pairs <= room:
            room -= pairs
            taken.append(v)
            centres |= 1 << v
    # the listed triples u-w-v (u < v), and for each its count times n
    # plus u, so that a stable sort by it orders them by (count, u, w, v)
    triples, keys = [], []
    # held[v] at centre w: n times the listed triples that hold the edge
    # vw, those at w (one per vertex of N(w) - N[v]) and, if v is a
    # centre, those at v
    held = [0] * n
    for w in taken:
        row = rows[w]
        # each v in N(w) in ascending order, paired with the earlier
        # vertices of N(w) it is not adjacent to, whose held is already
        # set at w.  The bit loops are `bits` written out: its generators
        # cost a sixth of the check
        rest = row
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            miss = row & ~rows[v] ^ low
            if not miss:
                continue
            tail = held[v] = n * (miss.bit_count() + (centres >> v & 1 and (
                rows[v] & ~row ^ 1 << w).bit_count()))
            # the non-edge uv is held by one triple per centre next to both
            common = rows[v] & centres
            earlier = miss & low - 1
            while earlier:
                bit = earlier & -earlier
                earlier ^= bit
                u = bit.bit_length() - 1
                keys.append(held[u] + u + tail
                            + n * (common & rows[u]).bit_count())
                triples.append((u, w, v))
    if len(triples) <= k:
        return None
    # partners[x]: the vertices y whose pair xy a packed triple holds
    partners = [0] * n
    packing = []
    for i in sorted(range(len(keys)), key=keys.__getitem__):
        u, w, v = triples[i]
        if partners[u] & (1 << w | 1 << v) or partners[w] >> v & 1:
            continue
        partners[u] |= 1 << w | 1 << v
        partners[w] |= 1 << u | 1 << v
        partners[v] |= 1 << u | 1 << w
        packing.append(triples[i])
        if len(packing) > k:
            return "conflict_triples", packing
    return None


def lift_clustering(outcome: PreprocessOutcome, cl: Clustering,
                    original_n: int) -> Clustering:
    """Map a clustering of the reduced graph back to the original vertices,
    re-attaching every removed component as its own cluster."""
    vmap = outcome.vertex_map
    blocks = [[vmap[v] for v in bits(mask)] for mask in cl.cluster_masks()]
    blocks += [vertices for _, vertices in outcome.removed]
    return Clustering.from_blocks(original_n, blocks)
