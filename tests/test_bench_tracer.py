"""The benchmark's tracer wraps and reads names of the package; solving
under it checks that every one of them still exists and still counts what
the benchmark reports."""

import importlib.util
from pathlib import Path

import divmatch as dm
import divmatch.cli  # noqa: F401  (the tracer wraps dm.cli)
from divmatch.solver import SolverConfig
from helpers import random_small_instance

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_match_the_solves_and_uninstall_restores():
    tracer = _load_tracer()
    instances = [dm.generate_reviewer_instance(10, [8] * 5, "balanced", 4,
                                               seed=1)]
    instances += [random_small_instance(seed) for seed in range(6)]
    solves = [(inst, ("gr", "bf")[n % 2]) for n, inst in enumerate(instances)]
    # Under gr this instance commits a walk and then a re-split.
    solves.append((dm.generate_reviewer_instance(3, [4] * 5, "balanced", 4,
                                                 seed=5), "gr"))
    spans = tracer.Tracer()
    spans.install(dm)
    patched = list(spans._patches)
    traced_build = dm.solver.build_aux_graph
    built = []

    def keep(*args, **kwargs):
        graph = traced_build(*args, **kwargs)
        built.append(graph)
        return graph

    dm.solver.build_aux_graph = keep
    try:
        # Only switch-graph solves commit through apply_moves; a solve with
        # at most one weighted feature cancels flow cycles and builds no
        # graph.
        iterations = exact_solves = 0
        switch_sources, exact_sources = [], []
        for inst, detector in solves:
            graphs = len(built)
            report = dm.solver.solve(inst, SolverConfig(detector=detector))
            sources = [record.source for record in report.trace]
            if sum(lam > 0 for lam in inst.weights.lambdas) >= 2:
                iterations += report.iterations
                switch_sources += sources
            else:
                assert len(built) == graphs
                exact_solves += 1
                exact_sources += sources
    finally:
        dm.solver.build_aux_graph = traced_build
        spans.uninstall()
    totals, counts = spans.snapshot()
    metrics = tracer.layer_metrics(totals, counts)

    assert iterations > 0
    assert exact_solves > 0
    assert metrics["auxgraph.apply_calls"] == iterations
    # The benchmark tells a walk commit from a re-split commit by the names
    # it wraps; the records' sources must count the same commits.
    assert metrics["solver.cycle_commits"] == \
        switch_sources.count("cycle") > 0
    assert metrics["solver.resplit_commits"] == \
        switch_sources.count("resplit") > 0
    assert set(exact_sources) == {"flow"}
    assert metrics["auxgraph.build_calls"] == len(built) > 0
    assert metrics["auxgraph.edges"] == sum(len(g.edges) for g in built)
    assert metrics["auxgraph.nodes"] == sum(g.node_count for g in built)
    assert metrics["negcycle.detect_calls"] > 0
    assert metrics["solver.spurious_walks"] >= 0
    assert patched
    for owner, attr, original in patched:
        current = owner[attr] if isinstance(owner, dict) \
            else getattr(owner, attr)
        assert current is original, attr


def test_checking_a_solve_adds_no_solve_time_under_the_tracer():
    # A traced run checks that the spans caused by solves account for the
    # solves' time. The benchmark's checks after a solve call the oracle and
    # the solution writer; a wrapped name either of them called would count
    # as solve time spent outside any solve.
    tracer = _load_tracer()
    instances = [random_small_instance(seed) for seed in range(6)]
    instances.append(dm.generate_reviewer_instance(2, [5, 5], "balanced", 4,
                                                   seed=1))
    reports = [dm.solver.solve(inst) for inst in instances]
    spans = tracer.Tracer()
    spans.install(dm)
    try:
        for inst, report in zip(instances, reports):
            dm.oracle.enumerate_optimal(inst)
            dm.cli.solution_to_dict(inst, report)
    finally:
        spans.uninstall()
    totals, _ = spans.snapshot()
    assert tracer.solve_accounted_s(totals) == 0
    assert set(totals) == {"oracle.enumerate", "cli.solution"}
    assert totals["oracle.enumerate"].calls == len(instances)
    assert totals["cli.solution"].calls == len(instances)
