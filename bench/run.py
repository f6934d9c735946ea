"""Benchmark for the exact p-cluster-editing solver.

    python3 bench/run.py --workload planted_dense --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One process, one thread, one client in a closed loop: the next operation
starts only when the previous one has finished.  An operation is what
``cluedit solve`` does in its process (see harness.py).  ``--seed`` picks one
instance from each stratum of the workload's recorded pool and the order
they run in; a pass runs every instance of that batch once, and complete
passes repeat until ``--seconds`` have gone by.  A correctness gate runs after
every operation, outside the timer.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics:

  solve_s.p50   median seconds per operation
  solve_s.tail  a fixed high percentile per workload (TAIL_PERCENTILE);
                passes go on until ten samples lie beyond it, and the
                report line above states the sample count
  batch_s       median seconds of one complete pass over the batch
  ok_frac       share of operations that returned a correct, verified
                answer (1 - failed/attempted)
  setup_s       median of three set-ups, each of which imports the package
                (in a fresh interpreter), generates the batch and runs one
                warm-up operation
  peak_rss_mb   peak resident memory of the process

With ``--trace 1`` passes alternate untraced and traced (see spans.py) and
the last line reports the per-layer metrics, per pass over the batch.
Stage times (``preprocess.s``, ``cuts.enumerate_s``, ``solver.lift_s``,
``solver.verify_s``) include their callees; ``solver.dp_s`` is the self
time of ``solve_exact_p``; every other time is a leaf.
``trace.overhead_s`` is the traced minus the untraced median pass time.

The result says ``"correct": false`` when an answer, cost or certificate is
wrong, or when a result or deterministic counter differs between two passes
over the same instance.  A wrong answer, cost or certificate and an
exception each count as a failed operation.  Without the package under
``src/`` the run exits 1 and prints no result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# stage metric expected to dominate each workload's traced time
PREDICTED = {"planted_dense": "solver.dp_s",
             "bridged_cliques": "cuts.enumerate_s",
             "many_clusters": "preprocess.s"}
STAGES = ("cli.parse_s", "cli.report_s", "preprocess.s", "cuts.enumerate_s",
          "solver.dp_s", "solver.lift_s", "solver.verify_s")

# counters that must repeat exactly on every traced pass over an instance
DETERMINISTIC = ("cuts.explored", "cuts.pruned", "cuts.emitted",
                 "solver.dp_states", "preprocess.rules_fired",
                 "cuts.min_cut.calls")

# the tail percentile per workload, fixed so that two versions of the
# program are compared at the same percentile: the highest of p75 and p90
# that a run of 20-30 s puts ten samples beyond
TAIL_PERCENTILE = {"planted_dense": 90, "bridged_cliques": 75,
                   "many_clusters": 75, "at_most": 90}

SETUP_REPEATS = 3
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import cluedit.solver; "
                "print(time.perf_counter() - t)")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment() -> dict:
    """Where the numbers come from: code version, machine, interpreter."""
    import numpy
    digest = hashlib.sha256()
    for path in sorted((SRC / "cluedit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": _git_sha(), "src_sha256": digest.hexdigest()[:16],
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__}


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def choose_batch(workload: str, seed: int, strata: list[list[dict]]):
    """One reference entry per stratum, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    batch = [stratum[rng.randrange(len(stratum))] for stratum in strata]
    rng.shuffle(batch)
    return batch


def generate_batch(workloads, refs: list[dict]):
    cases = [workloads.generate(ref["key"]) for ref in refs]
    for case, ref in zip(cases, refs):
        if case.digest() != ref["digest"]:
            raise SystemExit(f"error: {case.key} no longer matches its "
                             "reference; rerun make_reference.py")
    return cases


class Run:
    """Outcomes of every operation in one benchmark run."""

    def __init__(self, harness, cases, refs) -> None:
        self.harness = harness
        self.cases, self.refs = cases, refs
        self.attempted = 0
        self.failures: Counter = Counter()
        self.wrong: list[str] = []
        self.signatures: dict[str, set] = defaultdict(set)

    def op(self, i: int, tracer) -> int:
        """Run and gate operation i; returns its duration in ns."""
        case, ref = self.cases[i], self.refs[i]
        error = None
        t0 = time.perf_counter_ns()
        try:
            inst, res, text = self.harness.run_op(case, tracer)
        except Exception as exc:  # a crash is a failed operation, not a stop
            error = exc
        dt = time.perf_counter_ns() - t0
        self.attempted += 1
        if error is not None:
            self.failures[f"{case.key}: raised {type(error).__name__}"] += 1
            self.signatures[case.key].add(type(error).__name__)
            return dt
        problem = self.harness.check(case, ref, inst, res, text)
        if problem:
            self.failures[f"{case.key}: {problem}"] += 1
            self.wrong.append(f"{case.key}: {problem}")
        self.signatures[case.key].add(self.harness.signature(res))
        return dt

    def nondeterministic(self) -> list[str]:
        return [key for key, sigs in self.signatures.items() if len(sigs) > 1]


def import_seconds() -> float:
    """Seconds to import the package in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode:
        raise SystemExit(f"error: cannot import the package: {proc.stderr}")
    return float(proc.stdout)


def setup(workload: str, seed: int):
    """Import, generate the batch and warm up, SETUP_REPEATS times.

    Returns the loaded modules, the batch and the median set-up seconds.
    Import time is taken in a fresh interpreter each time, since a module
    is imported only once per process.
    """
    sys.path.insert(0, str(SRC))
    try:
        import cluedit
        import harness
        import spans
        import workloads
    except ImportError as exc:
        raise SystemExit(f"error: cannot import the package from {SRC}: {exc}")
    if not Path(cluedit.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported cluedit from {cluedit.__file__}, "
                         f"not from {SRC}")
    reference = json.loads((HERE / "reference.json").read_text())
    strata = reference["workloads"][workload]
    refs = choose_batch(workload, seed, strata)
    warm_ref = strata[0][0]
    reps = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cases = generate_batch(workloads, refs)
        warm = Run(harness, generate_batch(workloads, [warm_ref]), [warm_ref])
        warm.op(0, spans.NullTracer())
        elapsed = time.perf_counter() - t0
        reps.append(elapsed + import_seconds())
        if warm.failures:
            raise SystemExit(f"error: warm-up failed: {list(warm.failures)}")
    return harness, spans, cases, refs, statistics.median(reps)


def measure(run: Run, spans, seconds: float, pct: int) -> dict:
    """Untraced complete passes until *seconds* have gone by and at least
    ten samples lie beyond the tail percentile *pct*."""
    null = spans.NullTracer()
    deadline = time.perf_counter() + seconds
    need = math.ceil(10 / (1 - pct / 100))
    samples: list[int] = []
    passes: list[int] = []
    while len(samples) < need or time.perf_counter() < deadline:
        durations = [run.op(i, null) for i in range(len(run.cases))]
        samples += durations
        passes.append(sum(durations))
    tail = statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]
    return {"samples": samples, "passes": passes, "tail": tail,
            "beyond": sum(x > tail for x in samples)}


def measure_traced(run: Run, spans, seconds: float) -> dict:
    """Alternate untraced and traced complete passes; at least two of each."""
    null, tracer = spans.NullTracer(), spans.Tracer()
    deadline = time.perf_counter() + seconds
    plain: list[int] = []
    traced: list[int] = []
    per_case: dict[int, list[tuple[int, int, Counter]]] = defaultdict(list)
    while len(traced) < 2 or time.perf_counter() < deadline:
        plain.append(sum(run.op(i, null) for i in range(len(run.cases))))
        total = 0
        with tracer.installed():
            for i in range(len(run.cases)):
                first = len(tracer.spans)
                tracer.counts.clear()
                total += run.op(i, tracer)
                per_case[i].append((first, len(tracer.spans),
                                    Counter(tracer.counts)))
        traced.append(total)
    return {"plain": plain, "traced": traced, "per_case": per_case,
            "tracer": tracer}


def layer_metrics(traced: dict, run: Run) -> tuple[dict, list[str]]:
    """Per-layer metrics per pass, plus notes on the checks they allow."""
    notes = []
    inc: Counter = Counter()
    own: Counter = Counter()
    counts: Counter = Counter()
    tracer = traced["tracer"]
    for i, reps in traced["per_case"].items():
        key = run.cases[i].key
        times = [tracer.self_times(lo, hi) for lo, hi, _ in reps]
        for name in {n for t in times for n in t[0]}:
            inc[name] += statistics.median(t[0][name] for t in times)
            own[name] += statistics.median(t[1][name] for t in times)
        first = reps[0][2]
        for r in reps[1:]:
            if any(r[2][c] != first[c] for c in DETERMINISTIC):
                run.wrong.append(f"{key}: counters differ between passes")
                break
        counts.update(first)
    ns = 1e-9
    emitted, explored = counts["cuts.emitted"], counts["cuts.explored"]
    kernels = counts["preprocess.kernels"]
    m = {
        "cli.parse_s": (inc["cli.parse"] * ns, "s"),
        "cli.report_s": (inc["cli.report"] * ns, "s"),
        "graph.components_calls": (counts["graph.components.calls"], "count"),
        "graph.components_s": (inc["graph.components"] * ns, "s"),
        "graph.induced_subgraph_s": (inc["graph.induced_subgraph"] * ns, "s"),
        "preprocess.s": (inc["preprocess"] * ns, "s"),
        "preprocess.rules_fired": (counts["preprocess.rules_fired"], "count"),
        "preprocess.rejects": (counts["preprocess.rejects"], "count"),
        "preprocess.kernel_n": (
            counts["preprocess.kernel_n_total"] / kernels if kernels else 0.0,
            "vertices"),
        "cuts.enumerate_s": (inc["cuts.enumerate"] * ns, "s"),
        "cuts.enumerations": (counts["cuts.enumerate.calls"], "count"),
        "cuts.explored": (explored, "count"),
        "cuts.pruned": (counts["cuts.pruned"], "count"),
        "cuts.emitted": (emitted, "count"),
        "cuts.yield": (emitted / explored if explored else 0.0, "ratio"),
        "cuts.aborted": (counts["cuts.aborted"], "count"),
        "cuts.feasibility_calls": (counts["cuts.min_cut.calls"], "count"),
        "cuts.min_cut_s": (inc["cuts.min_cut"] * ns, "s"),
        "cuts.inside_table_s": (inc["cuts.inside_table"] * ns, "s"),
        "solver.dp_s": (own["solver.exact"] * ns, "s"),
        "solver.dp_states": (counts["solver.dp_states"], "count"),
        "solver.exact_calls": (counts["solver.exact.calls"], "count"),
        "solver.lift_s": (inc["solver.lift"] * ns, "s"),
        "solver.verify_s": (inc["solver.verify"] * ns, "s"),
        "trace.overhead_s": ((statistics.median(traced["traced"])
                              - statistics.median(traced["plain"])) * ns, "s"),
    }
    names = sorted(own, key=lambda n: -own[n])
    notes.append("self time per pass, by span: " + ", ".join(
        f"{n} {own[n] * ns:.4f}s" for n in names))
    return m, notes


def stage_notes(workload: str, m: dict, traced: dict) -> list[str]:
    dominant = max(STAGES, key=lambda s: m[s][0])
    notes = [f"dominant stage: {dominant} ({m[dominant][0]:.4f} s per pass)"]
    if workload in PREDICTED:
        want = PREDICTED[workload]
        verdict = "agrees" if dominant == want else "DISAGREES"
        notes.append(f"prediction {want}: {verdict}")
    if workload == "at_most":
        same = 0
        for i, reps in traced["per_case"].items():
            c = reps[0][2]
            same += c["cuts.enumerate.calls"] == c["solver.exact.calls"]
        notes.append(f"cuts.enumerations == p' tried (solve_exact_p calls) "
                     f"on {same} of {len(traced['per_case'])} instances")
    return notes


def run_one(args) -> int:
    t_start = time.perf_counter()
    harness, spans, cases, refs, setup_s = setup(args.workload, args.seed)
    run = Run(harness, cases, refs)
    print(f"workload {args.workload} seed {args.seed}: {len(cases)} instances "
          f"per pass, closed loop, one client")
    if args.trace:
        traced = measure_traced(run, spans, args.seconds)
        raw, notes = layer_metrics(traced, run)
        notes += stage_notes(args.workload, raw, traced)
        passes = len(traced["plain"]) + len(traced["traced"])
    else:
        pct = TAIL_PERCENTILE[args.workload]
        timed = measure(run, spans, args.seconds, pct)
        ns = 1e-9
        raw = {
            "solve_s.p50": (statistics.median(timed["samples"]) * ns, "s"),
            "solve_s.tail": (timed["tail"] * ns, "s"),
            "batch_s": (statistics.median(timed["passes"]) * ns, "s"),
            "ok_frac": (1 - sum(run.failures.values()) / run.attempted, "ratio"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }
        notes = [f"solve_s.tail is p{pct} of {len(timed['samples'])} samples, "
                 f"{timed['beyond']} beyond it"]
        passes = len(timed["passes"])
    failed = sum(run.failures.values())
    unstable = run.nondeterministic()
    correct = not run.wrong and not unstable
    for name, (value, unit) in raw.items():
        print(f"  {name:26s} {value:14.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    print(f"  attempted {run.attempted}, failed {failed} "
          f"(failed_frac {failed / run.attempted:.4f}), passes {passes}")
    for what, count in sorted(run.failures.items()):
        print(f"  failure x{count}: {what}")
    for key in unstable:
        print(f"  nondeterministic result: {key}")
    print(f"  correct: {str(correct).lower()}")
    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace,
                      "wall_s": time.perf_counter() - t_start}))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in raw.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"error: {workload} printed no result "
                  f"(exit {proc.returncode})", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
