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
once, on entry.  The deletions are then fixed by one pass over the clique
components (`clique_component_masks`, one OR and one hash per row, which
also lists each component's vertices): the nontrivial cliques from largest
to smallest, then the isolated vertices by id, each rule for as long as its
2k+1 threshold and p' > 6k allow.  One ``induced_subgraph`` builds the
kernel.  Apart from sorting the cliques by size this is O(n + m) row
operations.
"""
from __future__ import annotations

from dataclasses import dataclass

# connected_components is not used here; bench/spans.py patches it by name
from .graph import (Clustering, Graph, clique_component_masks,
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
    identity = tuple(range(g.n))
    full = keep = (1 << g.n) - 1
    removed: list[tuple[str, tuple[int, ...]]] = []
    if p > 6 * k:
        cliques = clique_component_masks(g)
        if mode == "exact" and len(cliques) < p - 2 * k:
            return PreprocessOutcome("rule1", None, identity, [])
        # largest first; the stable sort keeps ties in component order
        nontrivial = sorted((c for c in cliques if c.bit_count() > 1),
                            key=int.bit_count, reverse=True)
        singletons = [c for c in cliques if c.bit_count() == 1]
        for rule, pool in (("rule3", nontrivial), ("rule2", singletons)):
            fire = min(max(0, len(pool) - 2 * k), p - 6 * k)
            for c in pool[:fire]:
                removed.append((rule, tuple(cliques[c])))
                keep ^= c
            p -= fire

    vmap = identity
    if keep != full:
        g, vmap = induced_subgraph(g, keep)
    if p > g.n:
        if mode == "exact":
            return PreprocessOutcome("p_exceeds_n", None, vmap, removed)
        p = g.n
    return PreprocessOutcome(None, Instance(g, p, k, mode), vmap, removed)


def lift_clustering(outcome: PreprocessOutcome, cl: Clustering,
                    original_n: int) -> Clustering:
    """Map a clustering of the reduced graph back to the original vertices,
    re-attaching every removed component as its own cluster."""
    assignment = [-1] * original_n
    for reduced_v, orig_v in enumerate(outcome.vertex_map):
        assignment[orig_v] = cl.assignment[reduced_v]
    next_id = cl.c
    for _, vertices in outcome.removed:
        for v in vertices:
            assignment[v] = next_id
        next_id += 1
    if any(a == -1 for a in assignment):
        raise ValueError("lift does not cover the original vertex set")
    return Clustering(tuple(assignment))

