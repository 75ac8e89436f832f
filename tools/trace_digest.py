"""Same-results digest of the solver over the benchmark's instances.

    python3 tools/trace_digest.py --workload all --seed 1

Solves every instance of a workload once, in order, with the package from
this checkout's ``src/`` and the instances of ``bench/workloads.py``
(``known-bad`` is its ``KNOWN_BAD`` list). ``n400`` is acceptance criterion
7's largest rungs, n=400 and t=75 at generator seeds 1 and 7, and ``n800``
the same shape at n=800 and t=150, generator seed 1, whatever ``--seed``
says. ``per-worker`` is the ladder's (20,80) and (25,100) rungs in worker
costs, each worker's cost in each team raised by a 0..2 offset drawn from a
generator seeded with the ladder's seed, so that every worker is a type of
its own; it too ignores ``--seed``. ``exact`` is the three class-ladder
rungs and the two per-worker rungs, each at lambdas (1, 0) and (0, 1),
whatever ``--seed`` says: with one weighted feature every solve takes the
exact path, whose cancels ``negcycle.negative_cycle`` finds. ``gaps`` is
two four-team instances that have ended above the optimum, whatever
``--seed`` says. ``oracle-edge`` is nine instances near the oracle's
budget, whatever ``--seed`` says: six per-worker ones, most of whose
workers are types of their own, so that a team has many candidate
sub-multisets, two class-cost ones with many workers per type, and one
team of 8 among 16 single-worker types whose 12,870 splits all tie.
Prints one line per workload: the instance count, the number of solves
that raised, the sum of the final objectives, the number of solves that
ended ``proved_optimal``, a sha256 over each solve's assignment, trace
(each record's index, source, cycle length, claimed and exact gains and
objective after), termination, ``refinement_complete``,
``proved_optimal`` and objective, and an
``oracle_sha256`` over each instance's exhaustive oracle result with every
optimum collected (optimal objective, first optimal matrix, number of
optima and the optima in order). A solve that raises, or an oracle call
over its budget, adds its exception's type and message to its digest
instead. Two checkouts that print the same lines made the same searches
and the same oracle enumerations, so a change meant to keep results can be
checked against its parent by running this script in both.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import divmatch  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = {name: build for name, (build, _) in workloads.WORKLOADS.items()}
WORKLOADS["known-bad"] = lambda dm, seed: workloads.known_bad(dm)
WORKLOADS["n400"] = lambda dm, seed: [
    dm.generate_reviewer_instance(75, [80] * 5, "balanced", 4, seed=rung)
    for rung in (1, 7)]
WORKLOADS["n800"] = lambda dm, seed: [
    dm.generate_reviewer_instance(150, [160] * 5, "balanced", 4, seed=1)]
PER_WORKER_RUNGS = ((20, 80), (25, 100))


def per_worker(dm) -> list:
    """The per-worker rungs: ladder instances whose worker costs each get a
    seeded 0..2 offset per team."""
    out = []
    for inst in workloads.ladder(dm, PER_WORKER_RUNGS, "worker"):
        rng = random.Random(workloads.LADDER_SEED)
        table = tuple(tuple(u + rng.randint(0, 2) for u in row)
                      for row in inst.costs.table)
        out.append(dataclasses.replace(
            inst, costs=dm.instance.CostModel("worker", table)))
    return out


WORKLOADS["per-worker"] = lambda dm, seed: per_worker(dm)


def exact(dm) -> list:
    """The class-ladder and per-worker rungs, each with one weighted
    feature at a time, so that every solve takes the exact path."""
    rungs = workloads.ladder(dm, workloads.CLASS_LADDER, "class")
    return [dataclasses.replace(inst, weights=dm.TradeoffWeights(
                inst.weights.lambda0, lambdas))
            for inst in rungs + per_worker(dm) for lambdas in ((1, 0), (0, 1))]


WORKLOADS["exact"] = lambda dm, seed: exact(dm)


def gaps(dm) -> list:
    """The known four-team gaps: README's open one (94 against 92) and one
    the sweep's triples close (90 against 86)."""
    shapes = (((2, 3, 1, 3), "balanced", 446922281, (3, 3)),
              ((5, 4, 4, 3, 2), "random", 161720, (3, 1)))
    return [dataclasses.replace(
                dm.generate_reviewer_instance(4, list(clusters), genders, 2,
                                              seed=seed),
                weights=dm.TradeoffWeights(2, lambdas))
            for clusters, genders, seed, lambdas in shapes]


WORKLOADS["gaps"] = lambda dm, seed: gaps(dm)
# (papers, reviewers, demand, seed) of the per-worker oracle-edge instances,
# and (papers, clusters, demand, seed, (lambda0, lambdas)) of the class ones.
EDGE_WORKER = ((1, 20, 10, 1), (1, 22, 11, 2), (2, 14, 5, 3), (3, 11, 3, 4),
               (2, 13, 6, 5), (1, 18, 6, 6))
EDGE_CLASS = ((2, [6, 6, 4], 6, 13, (2, (1, 3))),
              (2, [8, 8], 8, 11, (1, (1, 1))))
EDGE_TIES = (16, 8)  # (reviewers, demand) of the one whose splits all tie


def edge_worker(dm, papers, n, demand, seed):
    """A reviewer instance of ``n`` reviewers in clusters of ``n // 4``
    (and one of the rest), in worker costs, each cost raised by a 0..2
    offset drawn from a generator seeded with ``seed``, in table order: so
    most workers are types of their own."""
    clusters = [n // 4] * 4 + ([n % 4] if n % 4 else [])
    inst = dm.convert_cost_mode(dm.generate_reviewer_instance(
        papers, clusters, "balanced", demand, seed=seed), "worker")
    rng = random.Random(seed)
    table = tuple(tuple(u + rng.randint(0, 2) for u in row)
                  for row in inst.costs.table)
    return dataclasses.replace(
        inst, costs=dm.instance.CostModel("worker", table))


def edge_ties(dm, n, demand):
    """One team of ``demand`` among ``n`` workers, each of a value of its
    own, at equal worker costs and no diversity weight: every split ties,
    so no bound prunes."""
    return dm.instance_from_dict({
        "features": [{"name": "c", "values": [f"v{i}" for i in range(n)]}],
        "workers": [[i] for i in range(n)],
        "teams": [{"name": "t1", "demand": demand}],
        "costs": {"mode": "worker", "u": [[0] * n]},
        "lambda0": 1, "lambdas": [0]})


def oracle_edge(dm) -> list:
    """Instances whose oracle search space is near its budget: the
    per-worker ones of :func:`edge_worker`, then class costs with new
    weights, then one of :func:`edge_ties`."""
    out = [edge_worker(dm, *shape) for shape in EDGE_WORKER]
    return out + [dataclasses.replace(
        dm.generate_reviewer_instance(papers, clusters, "balanced", demand,
                                      seed=seed),
        weights=dm.TradeoffWeights(*weights))
        for papers, clusters, demand, seed, weights in EDGE_CLASS] + \
        [edge_ties(dm, *EDGE_TIES)]


WORKLOADS["oracle-edge"] = lambda dm, seed: oracle_edge(dm)


def solve_record(inst) -> list:
    """What a solve returned, as JSON-ready values; or what it raised."""
    try:
        report = divmatch.solve(inst)
    except Exception as exc:  # a raised solve is part of the result
        return ["raised", type(exc).__name__, str(exc)]
    return [report.assignment,
            [[r.index, r.source, r.cycle_len, r.claimed, r.exact,
              r.objective_after] for r in report.trace],
            report.termination, report.refinement_complete,
            report.proved_optimal, report.breakdown.objective]


def oracle_record(inst) -> list:
    """What the oracle returned with every optimum collected, as JSON-ready
    values; or the budget error it raised."""
    try:
        result = divmatch.enumerate_optimal(inst, collect_optima=True)
    except divmatch.BudgetExceededError as exc:
        return ["raised", type(exc).__name__, str(exc)]
    return [result.optimal_objective, result.matrix, result.num_optima,
            result.optima]


def digest(instances) -> dict:
    sha, oracle_sha = hashlib.sha256(), hashlib.sha256()
    raised = objective_sum = proved = 0
    for inst in instances:
        record = solve_record(inst)
        if record[0] == "raised":
            raised += 1
        else:
            objective_sum += record[-1]
            proved += record[-2]
        sha.update(json.dumps(record).encode())
        sha.update(b"\n")
        oracle_sha.update(json.dumps(oracle_record(inst)).encode())
        oracle_sha.update(b"\n")
    return {"instances": len(instances), "raised": raised,
            "objective_sum": objective_sum, "proved": proved,
            "sha256": sha.hexdigest(),
            "oracle_sha256": oracle_sha.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = digest(WORKLOADS[name](divmatch, args.seed))
        print(f"{name} seed={args.seed} "
              + " ".join(f"{key}={value}" for key, value in result.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
