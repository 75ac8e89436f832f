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
        for n, inst in enumerate(instances):
            detector = ("gr", "bf")[n % 2]
            graphs = len(built)
            report = dm.solver.solve(inst, SolverConfig(detector=detector))
            if sum(lam > 0 for lam in inst.weights.lambdas) >= 2:
                iterations += report.iterations
            else:
                assert len(built) == graphs
                exact_solves += 1
    finally:
        dm.solver.build_aux_graph = traced_build
        spans.uninstall()
    totals, counts = spans.snapshot()
    metrics = tracer.layer_metrics(totals, counts)

    assert iterations > 0
    assert exact_solves > 0
    assert metrics["auxgraph.apply_calls"] == iterations
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
