"""Closed-loop benchmark of the divmatch solver.

    python3 bench/run.py --workload ladder-class --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

One caller on one core solves the next instance only after the previous
one returns. A run imports the package from this checkout's ``src/``,
builds the workload's instances (see workloads.py), runs the known-bad
self-check, then makes ``--seconds`` worth of passes over the instances
(a count fixed by the workload's nominal pass time), checking every
output. Its last line of output is a JSON result: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1`` (layer entry
points wrapped, see tracer.py). Metric names and units come from
BENCHMARK.json. ``--workload all`` runs each workload in its own process,
in both modes when tracing, and reports the tracing overhead. See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import probe
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
# Set-ups per run: at least this many, and until this many seconds have
# passed, so that a set-up of a few milliseconds is timed many times.
SETUP_REPEATS = 7
SETUP_SECONDS = 2.0
# The untraced solve times seen around the spans may exceed the span
# accounting by the wrappers' own cost, never by more than this share.
ACCOUNTING_TOLERANCE = 0.01

clock = time.perf_counter
cpu_clock = time.thread_time


@dataclass
class Pass:
    """Totals of one pass over a workload's instances."""

    solve_s: float = 0.0  # wall clock of every solve, raised ones too
    # per instance (wall start, wall end, CPU seconds); None where raised
    solve_times: list = field(default_factory=list)
    verify_times: list = field(default_factory=list)
    objective_sum: int = 0
    iterations: int = 0
    attempted: int = 0
    failed: int = 0
    certified: int = 0
    budget_exceeded: int = 0
    gap_sum: int = 0
    reasons: Counter = field(default_factory=Counter)
    wrong: list = field(default_factory=list)


def fresh_import():
    """Import divmatch from this checkout as if for the first time."""
    for name in [m for m in sys.modules if m.split(".")[0] == "divmatch"]:
        del sys.modules[name]
    dm = importlib.import_module("divmatch")
    importlib.import_module("divmatch.cli")
    if Path(dm.__file__).resolve().parent != (SRC / "divmatch").resolve():
        raise ImportError(f"divmatch was imported from {dm.__file__}")
    return dm


def recompute(inst, assignment):
    """Objective of a worker -> team list, computed from the instance alone;
    None when the list is not a feasible assignment."""
    t = inst.t
    if len(assignment) != inst.n or any(
            type(i) is not int or not 0 <= i <= t for i in assignment):
        return None
    sizes = Counter(assignment)
    if any(sizes[i] != inst.teams[i - 1].demand for i in range(1, t + 1)):
        return None
    cost = 0
    members = Counter()
    for x, i in enumerate(assignment):
        if i == 0:
            continue
        key = x if inst.costs.mode == "worker" else inst.workers[x][0]
        cost += inst.costs.table[i - 1][key]
        for k, v in enumerate(inst.workers[x]):
            members[i, k, v] += 1
    lambdas = inst.weights.lambdas
    return inst.weights.lambda0 * cost + sum(
        lambdas[k] * m * m for (_, k, _), m in members.items())


def judge(dm, inst, report, stats: Pass):
    """Check one returned solve; the failure it shows, or None."""
    value = report.breakdown.objective
    stats.iterations += report.iterations
    doc = dm.cli.solution_to_dict(inst, report)
    recomputed = recompute(inst, doc["assignment"])
    if recomputed is None:
        stats.wrong.append("solution is not a feasible assignment")
        return "infeasible"
    if recomputed != value or doc["objective"] != value:
        stats.wrong.append(f"objective {value} reported, {doc['objective']} "
                           f"serialized, {recomputed} recomputed")
        return "mismatch"
    stats.objective_sum += value
    try:
        best = dm.oracle.enumerate_optimal(inst).optimal_objective
    except dm.oracle.BudgetExceededError:
        stats.budget_exceeded += 1
        best = None
    else:
        stats.certified += 1
        if value < best:
            stats.wrong.append(f"objective {value} below the oracle's {best}")
            return "below-oracle"
        stats.gap_sum += value - best
    if report.termination != "optimal":
        return "not-optimal"
    if best is not None and value > best:
        return "gap"
    return None


def run_instance(dm, inst, stats: Pass) -> None:
    stats.attempted += 1
    start, cpu = clock(), cpu_clock()
    try:
        report = dm.solver.solve(inst)
    except Exception as exc:  # a raised solve is a counted failure
        report, reason = None, "raised"
        print(f"solve raised {type(exc).__name__}: {exc}", file=sys.stderr)
    solved, solved_cpu = clock(), cpu_clock()
    stats.solve_s += solved - start
    if report is None:
        stats.solve_times.append(None)
        stats.verify_times.append(None)
    else:
        try:
            reason = judge(dm, inst, report, stats)
        except Exception as exc:  # the output could not be checked
            reason = "check-raised"
            stats.wrong.append(f"checking raised {type(exc).__name__}: {exc}")
        stats.solve_times.append((start, solved, solved_cpu - cpu))
        stats.verify_times.append((start, clock(), cpu_clock() - cpu))
    if reason is not None:
        stats.failed += 1
        stats.reasons[reason] += 1


def measure(name, seed, seconds, trace):
    """One run of one workload: (metric values, Pass list, self-check
    Pass, problems that make the result incorrect, notes to print).
    The run makes ``seconds // pass_s`` passes (at least one), where
    ``pass_s`` is the workload's nominal pass time."""
    build, pass_s = workloads.WORKLOADS[name]
    spans = tracer.Tracer() if trace else None
    setup_times, setup_spans = [], []
    with probe.SpeedProbe() as speed:
        setup_end = clock() + SETUP_SECONDS
        while len(setup_times) < SETUP_REPEATS or clock() < setup_end:
            if spans:
                spans.uninstall()
            start, cpu = clock(), cpu_clock()
            dm = fresh_import()
            if spans:
                spans.install(dm)
            instances = build(dm, seed)
            setup_times.append((start, clock(), cpu_clock() - cpu))
            if spans:
                setup_spans.append(spans.snapshot()[0])

        known = Pass()
        for inst in workloads.known_bad(dm):
            run_instance(dm, inst, known)
        if spans:
            spans.snapshot()

        # A fixed number of passes, so that a seed always makes the same
        # work and the same failures.
        passes, pass_spans = [], []
        first = clock()
        for _ in range(max(1, int(seconds // pass_s))):
            stats = Pass()
            for inst in instances:
                run_instance(dm, inst, stats)
            passes.append(stats)
            if spans:
                pass_spans.append(spans.snapshot())
        last = clock()

    problems = []
    if known.certified + known.reasons["raised"] != len(workloads.KNOWN_BAD):
        problems.append("known-bad self-check reached no verdict")
    for stats in passes:
        problems.extend(stats.wrong)
    solve_times = instance_seconds(passes, speed.idle_seconds)
    if not solve_times:
        problems.append("no solve returned")
        solve_times = [0.0]
    solve_s = pass_seconds(passes, "solve_times", speed.idle_seconds)
    def wall(times):
        return statistics.median(sum(t[1] - t[0] for t in getattr(p, times)
                                     if t is not None) for p in passes)
    notes = [f"wall clock, median pass: solve {wall('solve_times'):.4f} s, "
             f"verify {wall('verify_times'):.4f} s; mean host slowdown "
             f"{speed.slowdown(first, last):.3f}"]

    med = statistics.median
    if not spans:
        values = {
            "setup_s": med([speed.idle_seconds(t) for t in setup_times]),
            "solve_s": solve_s,
            "p95_instance_s": percentile(solve_times, 0.95),
            "verify_s": pass_seconds(passes, "verify_times",
                                     speed.idle_seconds),
            "objective_sum": passes[0].objective_sum,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return values, passes, known, problems, notes

    rows = []
    for stats, (totals, counts) in zip(passes, pass_spans):
        accounted = tracer.solve_accounted_s(totals)
        if not (0 <= stats.solve_s - accounted
                <= ACCOUNTING_TOLERANCE * stats.solve_s + 1e-3):
            problems.append(f"spans account for {accounted:.4f} s of "
                            f"{stats.solve_s:.4f} s of solving")
        row = tracer.layer_metrics(totals, counts)
        row.update({
            "solver.iterations": stats.iterations,
            "oracle.budget_exceeded": stats.budget_exceeded,
            "oracle.certified": stats.certified,
            "oracle.gap_sum": stats.gap_sum,
        })
        rows.append(row)
    values = {key: med([row[key] for row in rows]) for key in rows[0]}
    values["solver.solve_s"] = solve_s
    for key, span in (("instance.generate_s", "instance.generate"),
                      ("instance.parse_s", "instance.parse")):
        values[key] = med([totals[span].total_s for totals in setup_spans])
    return values, passes, known, problems, notes


def pass_seconds(passes, times, seconds):
    """Median over the passes of a pass's total of the timed records
    ``times``: its CPU total, turned into seconds by ``seconds`` at once
    over the interval from its first record to its last. Raised solves are
    failures and have no time."""
    totals = []
    for stats in passes:
        timed = [t for t in getattr(stats, times) if t is not None]
        if timed:
            totals.append(seconds((timed[0][0], timed[-1][1],
                                   sum(t[2] for t in timed))))
    return statistics.median(totals) if totals else 0.0


def instance_seconds(passes, seconds):
    """Per instance that never raised, the median of its times over the
    passes, each timed record turned into seconds by ``seconds``."""
    per_instance = zip(*(stats.solve_times for stats in passes))
    return [statistics.median(map(seconds, row)) for row in per_instance
            if None not in row]


def percentile(values, share):
    """Nearest-rank percentile."""
    ranked = sorted(values)
    return ranked[max(0, math.ceil(share * len(ranked)) - 1)]


def src_lines() -> int:
    """Line count of the library, as ``wc -l src/divmatch/*.py`` gives it."""
    return sum(path.read_bytes().count(b"\n")
               for path in (SRC / "divmatch").glob("*.py"))


def run_one(args, spec) -> int:
    group = "per_layer" if args.trace else "end_to_end"
    values, passes, known, problems, notes = measure(
        args.workload, args.seed, args.seconds, args.trace)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[group]}
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    first = passes[0]
    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace}: {len(passes)} pass(es) of "
          f"{first.attempted} instances")
    for name, metric in metrics.items():
        print(f"  {name:<24} {metric['value']:>14.6g} {metric['unit']}")
    print(f"checks per pass: attempted {first.attempted}, failed "
          f"{first.failed} (fail_frac {first.failed / first.attempted:.4f}; "
          f"{dict(first.reasons)}), certified {first.certified}, "
          f"oracle.budget_exceeded {first.budget_exceeded}, "
          f"gap_sum {first.gap_sum}")
    print(f"known-bad self-check: failed {known.failed}/{known.attempted} "
          f"({dict(known.reasons)}; gap_sum {known.gap_sum} over "
          f"{known.certified} certified)")
    print(f"src lines (wc -l src/divmatch/*.py, not gated): {src_lines()}")
    for note in notes:
        print(note)
    for problem in problems[:10]:
        print(f"INCORRECT: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; with tracing, untraced and
    traced, reporting the overhead. Ends with one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        solve_s = {}
        for trace in ((0, 1) if args.trace else (0,)):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  check=False)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                print(f"error: workload {name} failed", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                combined["metrics"][f"{name}/{metric}"] = entry
            solve_s[trace] = result["metrics"][
                "solver.solve_s" if trace else "solve_s"]["value"]
        if args.trace:
            extra = solve_s[1] - solve_s[0]
            print(f"{name}: tracing overhead {extra:+.3f} s "
                  f"({extra / solve_s[0]:+.1%} of untraced solve_s)")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "divmatch" / "__init__.py").is_file() or \
            not SPEC.is_file():
        print(f"error: needs src/divmatch and BENCHMARK.json under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
