"""The same-results digest runs from the command line on the benchmark's
known-bad instances, on acceptance criterion 7's
n=400 rungs and on its shape at n=800; its per-worker rungs give every
worker a type of its own, its exact rungs all take the exact path, and
its gaps are the known four-team gaps; its oracle-edge instances sit near
the oracle's budget."""

import dataclasses
import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import divmatch
from divmatch.auxgraph import MAX_GRAPH_BYTES, graph_price
from divmatch.oracle import BudgetExceededError, enumerate_optimal
from divmatch.solver import solve
from helpers import known_bad_instances, load_module

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "trace_digest.py"
LINE = re.compile(r"known-bad seed=3 instances=(\d+) "
                  r"raised=(\d+) objective_sum=(\d+) proved=(\d+) "
                  r"sha256=([0-9a-f]{64}) oracle_sha256=([0-9a-f]{64})")


def test_digest_of_known_bad_runs_and_repeats():
    argv = [sys.executable, str(SCRIPT), "--workload", "known-bad",
            "--seed", "3"]
    runs = [subprocess.run(argv, capture_output=True, text=True, check=True,
                           timeout=120).stdout for _ in range(2)]
    assert runs[0] == runs[1]
    match = LINE.fullmatch(runs[0].strip())
    assert match, runs[0]
    count, raised, objective_sum, proved, solve_sha, oracle_sha = \
        match.groups()
    instances = known_bad_instances()
    assert (int(count), int(raised)) == (len(instances), 0)
    # Two of the three end proved: one by the flow proof, and one because
    # its re-split sweep covered every row that holds workers.
    assert (int(objective_sum), int(proved)) == (331, 2)
    reports = [solve(inst) for inst in instances]
    assert int(objective_sum) == sum(r.breakdown.objective for r in reports)
    assert int(proved) == sum(r.proved_optimal for r in reports)
    # The solve digest hashes, one JSON line per instance, the assignment,
    # every trace record with its source, the termination, both flags and
    # the objective.
    sha = hashlib.sha256()
    for report in reports:
        sha.update(json.dumps([
            report.assignment,
            [[r.index, r.source, r.cycle_len, r.claimed, r.exact,
              r.objective_after] for r in report.trace],
            report.termination, report.refinement_complete,
            report.proved_optimal, report.breakdown.objective]).encode())
        sha.update(b"\n")
    assert solve_sha == sha.hexdigest()
    # The oracle digest hashes, one JSON line per instance, the optimum,
    # the first optimal matrix, the number of optima and every optimum. It
    # is pinned too, since in-process calls change along with the oracle.
    assert oracle_sha == \
        "1075adbd2cd80d913770aaea25a31029708791c0a4546d0d84758e70fd178da2"
    sha = hashlib.sha256()
    for inst in instances:
        result = enumerate_optimal(inst, collect_optima=True)
        sha.update(json.dumps([result.optimal_objective, result.matrix,
                               result.num_optima, result.optima]).encode())
        sha.update(b"\n")
    assert oracle_sha == sha.hexdigest()


def _digest_line(workload):
    argv = [sys.executable, str(SCRIPT), "--workload", workload, "--seed",
            "5"]
    return subprocess.run(argv, capture_output=True, text=True, check=True,
                          timeout=300).stdout.strip()


def _budget_errors_sha256(instances):
    """The oracle digest of instances that all exceed the oracle's budget:
    it hashes their budget errors."""
    sha = hashlib.sha256()
    for inst in instances:
        with pytest.raises(BudgetExceededError) as error:
            enumerate_optimal(inst, collect_optima=True)
        sha.update(json.dumps(["raised", "BudgetExceededError",
                               str(error.value)]).encode())
        sha.update(b"\n")
    return sha.hexdigest()


def test_digest_of_n400_solves_criterion_7_rungs_whatever_the_seed():
    line = _digest_line("n400")
    # n=400/t=75 at generator seeds 1 and 7; their final objectives sum to
    # 3466, and both are proved optimal. Both exceed the oracle's budget,
    # so the oracle digest hashes the two budget errors.
    match = re.fullmatch(r"n400 seed=5 instances=2 raised=0 "
                         r"objective_sum=3466 proved=2 sha256=[0-9a-f]{64} "
                         r"oracle_sha256=([0-9a-f]{64})", line)
    assert match, line
    assert match.group(1) == _budget_errors_sha256(
        divmatch.generate_reviewer_instance(75, [80] * 5, "balanced", 4,
                                            seed=rung) for rung in (1, 7))


def test_digest_of_n800_ends_proved_whatever_the_seed():
    line = _digest_line("n800")
    # Criterion 7's shape at n=800/t=150, generator seed 1, ends proved at
    # 3506; the oracle digest hashes its budget error.
    match = re.fullmatch(r"n800 seed=5 instances=1 raised=0 "
                         r"objective_sum=3506 proved=1 sha256=[0-9a-f]{64} "
                         r"oracle_sha256=([0-9a-f]{64})", line)
    assert match, line
    assert match.group(1) == _budget_errors_sha256([
        divmatch.generate_reviewer_instance(150, [160] * 5, "balanced", 4,
                                            seed=1)])


def test_per_worker_rungs_are_the_ladder_with_offset_worker_costs():
    tool = load_module("trace_digest", SCRIPT)
    rungs = tool.WORKLOADS["per-worker"](divmatch, 5)
    bases = tool.workloads.ladder(divmatch, tool.PER_WORKER_RUNGS, "worker")
    assert [inst.n for inst in rungs] == [80, 100]
    for inst, base in zip(rungs, bases):
        assert dataclasses.replace(inst, costs=base.costs) == base
        offsets = {u - v for row, base_row in zip(inst.costs.table,
                                                  base.costs.table)
                   for u, v in zip(row, base_row)}
        assert offsets == {0, 1, 2}
        assert divmatch.build_combination_index(inst).num_columns == inst.n
    assert rungs == tool.WORKLOADS["per-worker"](divmatch, 1)


def test_digest_of_exact_rungs_ends_proved_by_flow_cancels():
    line = _digest_line("exact")
    # The class-ladder and per-worker rungs at lambdas (1, 0) and (0, 1):
    # every solve takes the exact path and ends proved, and every step it
    # commits is a cancel of a cycle that ``negative_cycle`` found.
    match = re.fullmatch(r"exact seed=5 instances=10 raised=0 "
                         r"objective_sum=(\d+) proved=10 "
                         r"sha256=[0-9a-f]{64} oracle_sha256=[0-9a-f]{64}",
                         line)
    assert match, line
    tool = load_module("trace_digest", SCRIPT)
    rungs = tool.WORKLOADS["exact"](divmatch, 5)
    assert [(inst.n, inst.weights.lambdas) for inst in rungs] == [
        (n, lambdas) for n in (40, 100, 200, 80, 100)
        for lambdas in ((1, 0), (0, 1))]
    reports = [solve(inst) for inst in rungs]
    assert int(match.group(1)) == \
        sum(r.breakdown.objective for r in reports) == 3817
    assert all(r.proved_optimal for r in reports)
    assert {record.source for r in reports for record in r.trace} == {"flow"}


def test_digest_of_gaps_closes_one_of_two_whatever_the_seed():
    line = _digest_line("gaps")
    # The open four-team gap ends at 94 against 92, unproved; the sweep's
    # triples take the other from 90 to its optimum 86, proved.
    assert re.fullmatch(r"gaps seed=5 instances=2 raised=0 "
                        r"objective_sum=180 proved=1 sha256=[0-9a-f]{64} "
                        r"oracle_sha256=[0-9a-f]{64}", line), line


def test_digest_of_oracle_edge_ends_at_the_oracle_optima_whatever_the_seed():
    line = _digest_line("oracle-edge")
    # Six per-worker instances, most workers a type of their own, two
    # class-cost ones and one whose splits all tie: every solve ends
    # proved, at the oracle's optimum. The oracle digest is pinned, as its
    # search changes along with it.
    assert re.fullmatch(
        r"oracle-edge seed=5 instances=9 raised=0 "
        r"objective_sum=904 proved=9 sha256=[0-9a-f]{64} oracle_sha256="
        r"71b25dbd8857bdfda9f2f2e18bd3c5c646ae125fcb8b91fd47f8707fa50783cd",
        line), line
    tool = load_module("trace_digest", SCRIPT)
    instances = tool.WORKLOADS["oracle-edge"](divmatch, 5)
    assert [(inst.t, inst.n, inst.costs.mode) for inst in instances] == [
        (1, 20, "worker"), (1, 22, "worker"), (2, 14, "worker"),
        (3, 11, "worker"), (2, 13, "worker"), (1, 18, "worker"),
        (2, 16, "class"), (2, 16, "class"), (1, 16, "worker")]
    assert sum(enumerate_optimal(inst).optimal_objective
               for inst in instances) == 904


def test_every_digest_instance_is_under_the_graph_size_limit():
    # The digest's workloads include every benchmark instance and the
    # largest the tests solve; the size guard must refuse none of them.
    tool = load_module("trace_digest", SCRIPT)
    edges, size = max(graph_price(inst) for build in tool.WORKLOADS.values()
                      for inst in build(divmatch, 1))
    assert edges == 97_600  # the n800 rung
    assert size < MAX_GRAPH_BYTES / 10
