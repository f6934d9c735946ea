"""Seeded instance generators for the benchmark's four workloads.

Every instance is named by a key such as ``planted_dense/17``; the key seeds
its own ``random.Random``, so the same key always gives the same graph text.
The pool of keys each workload draws from, with the answer and cost the
solver gave for each, is recorded in ``reference.json`` by
``make_reference.py``.  A run's ``--seed`` only chooses which pool members
make up the batch and in which order they run.

Each workload loads a different layer of the solver pipeline:

* ``planted_dense`` -- exact mode, random planted p-clusterings with t pairs
  toggled, n 14-16, p 3-5, k 6-10, both k >= t and k < t.  There are 10^2 to
  10^4 cuts, so the DP cost blocks do almost all the work while enumeration
  runs on the cheap suffix-subset table.
* ``bridged_cliques`` -- exact mode, 2-4 cliques in a chain, neighbours
  joined by 1-2 edges, p = number of cliques and k = number of joining edges.
  There are only 4-16 cuts, so the min-cut feasibility test over wide rows
  dominates and the DP is trivial.  The batch always holds the two
  600-cliques instance (n = 1200) as a robustness probe.
* ``many_clusters`` -- exact mode with k = 1: 200-500 isolated cliques of
  size 1-6 plus a small planted core.  p is the component count (YES) or
  above what Rule 1 allows (NO).  Preprocessing does nearly all the work.
* ``at_most`` -- at-most mode on planted graphs with n 16-30, which re-runs
  preprocessing, enumeration and the DP once per p' <= p.
"""
from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass

WORKLOADS = ("planted_dense", "bridged_cliques", "many_clusters", "at_most")

PROBE_KEY = "bridged_cliques/probe"

# (clique count, min size, max size, min joining edges, max joining edges)
# per stratum of bridged_cliques.  Total n stays within 100-215: two
# 200-cliques already take 10 s per solve, longer than a whole pass should.
# Solve time grows with the cube of the clique size, so each shape keeps
# its sizes within a few percent.
BRIDGED_SHAPES = (
    (2, 55, 58, 1, 1),
    (2, 55, 58, 2, 2),
    (2, 72, 75, 1, 1),
    (2, 92, 95, 1, 1),
    (3, 36, 38, 1, 1),
    (3, 42, 44, 2, 2),
    (4, 27, 29, 1, 1),
    (2, 104, 107, 1, 1),
)


@dataclass(frozen=True)
class Case:
    """One generated instance, as the program receives it."""

    key: str
    text: str                  # graph in the "p cep <n> <m>" edge-list format
    p: int
    k: int
    mode: str                  # "exact" or "at_most"
    witness_cost: int | None   # edits from a planted p-clustering, if known

    def digest(self) -> str:
        h = hashlib.sha256(f"{self.p} {self.k} {self.mode}\n".encode())
        h.update(self.text.encode())
        return h.hexdigest()[:16]


def _format(n: int, edges: list[tuple[int, int]], rng: random.Random) -> str:
    """Edge-list text with vertex ids shuffled, so no layout is favoured."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    lines = [f"p cep {n} {len(edges)}"]
    lines += [f"e {perm[u]} {perm[v]}" for u, v in edges]
    return "\n".join(lines) + "\n"


def _labels(rng: random.Random, n: int, p: int) -> list[int]:
    """A random assignment of n vertices to p nonempty clusters."""
    labels = list(range(p)) + [rng.randrange(p) for _ in range(n - p)]
    rng.shuffle(labels)
    return labels


def _planted(rng: random.Random, n: int, p: int,
             t: int) -> list[tuple[int, int]]:
    """Edges of a planted p-clustering with t distinct vertex pairs toggled."""
    labels = _labels(rng, n, p)
    pairs = list(itertools.combinations(range(n), 2))
    toggled = set(rng.sample(pairs, t))
    return [e for e in pairs if (labels[e[0]] == labels[e[1]]) != (e in toggled)]


def _clique(first: int, size: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(first, first + size), 2))


def planted_dense(key: str, rng: random.Random) -> Case:
    n = rng.randint(14, 16)
    p = rng.randint(3, 5)
    k = rng.randint(6, 10)
    t = rng.randint(k - 2, k) if rng.random() < 0.5 else k + rng.randint(1, 2)
    return Case(key, _format(n, _planted(rng, n, p, t), rng), p, k, "exact", t)


def at_most(key: str, rng: random.Random) -> Case:
    n = rng.randint(16, 30)
    p = rng.randint(2, 4)
    k = rng.randint(2, 6)
    t = rng.randint(k - 1, k) if rng.random() < 0.75 else k + rng.randint(1, 2)
    return Case(key, _format(n, _planted(rng, n, p, t), rng), p, k, "at_most", t)


def bridged_cliques(key: str, rng: random.Random) -> Case:
    if key == PROBE_KEY:
        sizes, lo, hi = [600, 600], 1, 1
    else:
        count, smin, smax, lo, hi = BRIDGED_SHAPES[int(key.split("/")[1])]
        sizes = [rng.randint(smin, smax) for _ in range(count)]
    starts = list(itertools.accumulate([0] + sizes[:-1]))
    edges = [e for first, size in zip(starts, sizes) for e in _clique(first, size)]
    joins = 0
    for a in range(len(sizes) - 1):
        picked: set[tuple[int, int]] = set()
        want = rng.randint(lo, hi)
        while len(picked) < want:
            picked.add((starts[a] + rng.randrange(sizes[a]),
                        starts[a + 1] + rng.randrange(sizes[a + 1])))
        edges += sorted(picked)
        joins += want
    # the cliques themselves cost `joins` deletions and are the p clusters
    return Case(key, _format(sum(sizes), edges, rng), len(sizes), joins,
                "exact", joins)


def many_clusters(key: str, rng: random.Random) -> Case:
    isolated = rng.randint(200, 500)
    edges: list[tuple[int, int]] = []
    n = 0
    for _ in range(isolated):
        size = rng.randint(1, 6)
        edges += _clique(n, size)
        n += size
    # core: a planted clustering with one edge deleted inside a cluster of
    # size >= 3, so it keeps its component count and costs exactly 1
    core_n, core_p = rng.randint(6, 8), rng.randint(2, 3)
    labels = [0, 0, 0] + _labels(rng, core_n - 3, core_p)
    core = [(u, v) for u, v in itertools.combinations(range(core_n), 2)
            if labels[u] == labels[v]]
    big = [e for e in core if labels[e[0]] == 0]
    core.remove(rng.choice(big))
    edges += [(n + u, n + v) for u, v in core]
    n += core_n
    components = isolated + core_p
    if rng.random() < 0.5:
        p, witness = components, 1
    else:
        # Rule 1 needs p - 2k clique components; the core has core_p - 1
        p, witness = components + rng.randint(2, 5), None
    return Case(key, _format(n, edges, rng), p, 1, "exact", witness)


_GENERATORS = {
    "planted_dense": planted_dense,
    "bridged_cliques": bridged_cliques,
    "many_clusters": many_clusters,
    "at_most": at_most,
}


def generate(key: str) -> Case:
    """The instance named *key*; the same key always gives the same case."""
    workload = key.split("/")[0]
    return _GENERATORS[workload](key, random.Random(key))


def candidate_keys(workload: str):
    """Keys make_reference.py tries, in order, when it fills a pool."""
    if workload == "bridged_cliques":
        for j in itertools.count():
            for shape in range(len(BRIDGED_SHAPES)):
                yield f"{workload}/{shape}/{j}"
    else:
        for i in itertools.count():
            yield f"{workload}/{i}"
