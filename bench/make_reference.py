"""Record the benchmark's instance pools and their reference answers.

    python3 bench/make_reference.py [workload ...]

For each workload this generates candidate instances in key order, solves
each one with the package as it stands, and writes ``reference.json``: the
pool split into strata, and per instance its digest, answer, cost and the
seconds of its fastest of two solves here.  ``run.py`` draws one
instance per stratum; the instances of a stratum cost about the same, so
every batch has the same cost profile and two seeds give comparable
metrics.

Run it only to change the pools; the recorded answers are the reference
that later versions of the solver must reproduce.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import cluedit.graph  # noqa: E402
from cluedit.cuts import enumerate_k_cuts  # noqa: E402

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# per group of candidates: (strata, low quantile, high quantile).  run.py
# draws one instance per stratum, so the strata counts are the batch sizes.
# Strata sit at evenly spaced quantiles of the group's cost between the two
# bounds.  A batch whose costs span two orders of magnitude has a median and
# tail that hinge on one or two instances, so each band spans about 4x in
# cost; planted_dense and at_most take the upper half, where the DP and the
# 2^n tables do the work, and many_clusters the middle of its YES instances.
# many_clusters groups by planted answer, bridged_cliques by shape (see
# workloads.BRIDGED_SHAPES), and at_most puts n = 17..20 in groups of their
# own: there the DP builds a 2^n table, whose size sets the peak memory.
LAYOUT = {
    "planted_dense": {"all": (15, 0.5, 0.95)},
    "bridged_cliques": {str(s): (1, 0.0, 1.0)
                        for s in range(len(workloads.BRIDGED_SHAPES))},
    "many_clusters": {"no": (2, 0.0, 1.0), "yes": (5, 0.3, 0.7)},
    "at_most": {"17": (1, 0.0, 1.0), "18": (1, 0.0, 1.0),
                "19": (1, 0.0, 1.0), "20": (1, 0.0, 1.0),
                "other": (11, 0.5, 0.95)},
}
PER_STRATUM = 4
# candidates solved per instance kept: a stratum is the PER_STRATUM
# candidates nearest to one evenly spaced quantile of the group's cost, so
# instances of one stratum cost about the same and every batch has the same
# cost profile whatever the seed
WIDEN = 2
# a candidate's cost is the fastest of this many solves
TIMINGS = 2

# planted_dense keeps instances with at most this many cuts; one instance
# above it can take over a minute, longer than a whole benchmark run
CUT_LIMIT = 3000


def _group(case) -> str:
    workload = case.key.split("/")[0]
    if workload == "bridged_cliques":
        return case.key.split("/")[1]
    if workload == "many_clusters":
        return "yes" if case.witness_cost is not None else "no"
    if workload == "at_most":
        n = case.text.split()[2]
        return n if n in ("17", "18", "19", "20") else "other"
    return "all"


def _record(case) -> dict:
    try:
        times = []
        for _ in range(TIMINGS):
            t0 = time.perf_counter()
            inst, res, text = harness.run_op(case, spans.NullTracer())
            times.append(time.perf_counter() - t0)
    except RecursionError as exc:
        # the two 600-cliques probe: two cliques joined by one edge are not
        # a cluster graph, so the planted cost of 1 is the optimum
        g = cluedit.graph.parse_graph(case.text)
        if case.witness_cost != 1 or cluedit.graph.is_cluster_graph(g):
            raise
        return {"key": case.key, "digest": case.digest(), "answer": "yes",
                "cost": 1, "ref_s": None,
                "source": f"planted witness; solver raised {type(exc).__name__}"}
    out = json.loads(text)
    ref = {"key": case.key, "digest": case.digest(), "answer": out["answer"],
           "cost": out["cost"], "ref_s": round(min(times), 4),
           "source": "solver"}
    problem = harness.check(case, ref, inst, res, text)
    if problem:
        raise SystemExit(f"{case.key}: {problem}")
    return ref


def _strata(entries: list[dict], count: int, low: float,
            high: float) -> list[list[dict]]:
    """*count* blocks of PER_STRATUM entries around evenly spaced quantiles
    of cost between *low* and *high*."""
    entries = sorted(entries, key=lambda e: (e["ref_s"], e["key"]))
    blocks = []
    for j in range(count):
        q = low + (j + 0.5) * (high - low) / count
        lo = round(q * len(entries) - PER_STRATUM / 2)
        lo = min(max(lo, 0), len(entries) - PER_STRATUM)
        blocks.append(entries[lo:lo + PER_STRATUM])
    return blocks


def _pool(workload: str) -> list[list[dict]]:
    layout = LAYOUT[workload]
    want = {g: round(n * PER_STRATUM * WIDEN / (hi - lo))
            for g, (n, lo, hi) in layout.items()}
    groups: dict[str, list[dict]] = {g: [] for g in layout}
    for key in workloads.candidate_keys(workload):
        if all(len(groups[g]) == want[g] for g in layout):
            break
        case = workloads.generate(key)
        group = groups[_group(case)]
        if len(group) == want[_group(case)]:
            continue
        if workload == "planted_dense":
            g = cluedit.graph.parse_graph(case.text)
            if enumerate_k_cuts(g, case.k, CUT_LIMIT) is None:
                continue
        group.append(_record(case))
        print(f"  {key}: {group[-1]['answer']} {group[-1]['cost']} "
              f"{group[-1]['ref_s']}s", flush=True)
    strata = [s for g, spec in layout.items() for s in _strata(groups[g], *spec)]
    if workload == "bridged_cliques":
        strata.append([_record(workloads.generate(workloads.PROBE_KEY))])
    return strata


def main(argv: list[str]) -> int:
    """Record the pools of the workloads named in *argv*, or of all."""
    path = HERE / "reference.json"
    out = {"cut_limit": CUT_LIMIT, "per_stratum": PER_STRATUM,
           "widen": WIDEN, "timings": TIMINGS, "workloads": {}}
    if argv:
        out["workloads"] = json.loads(path.read_text())["workloads"]
    for workload in argv or workloads.WORKLOADS:
        print(workload, flush=True)
        out["workloads"][workload] = _pool(workload)
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
