"""Spans around divmatch's layer entry points, installed from outside.

``Tracer.install`` replaces each public entry point listed in ``install``
with a wrapper that records a span: the call's duration and, through a
stack of open spans, the time of the spans it caused. A span's self time
is its duration minus that child time, so the self times of all spans
under one solve add up to the solve's duration. Totals per span name and
a few counters read off the results stay in memory; ``snapshot`` hands
them out and starts over, once per setup or pass.
"""

from __future__ import annotations

import time
from collections import defaultdict


class SpanTotals:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


def _count_graph(counts, args, graph):
    counts["auxgraph.nodes"] += graph.node_count
    counts["auxgraph.edges"] += len(graph.edges)


def _count_detect(counts, args, cycle):
    if cycle is None:
        counts["negcycle.detect_empty"] += 1
    else:
        counts["negcycle.cycles_found"] += 1


def _count_moves(counts, args, result):
    counts["auxgraph.moves"] += len(args[1])


class Tracer:
    def __init__(self):
        self._open: list[list[float]] = []  # child seconds of each open span
        self._patches = []
        self.totals = defaultdict(SpanTotals)
        self.counts = defaultdict(int)

    def install(self, dm) -> None:
        """Wrap the entry points of every layer of the package ``dm``."""
        solver = dm.solver
        self._patch(dm.instance, "generate_reviewer_instance",
                    "instance.generate")
        self._patch(dm.instance, "parse_instance", "instance.parse")
        self._patch(solver, "solve", "solver.solve")
        self._patch(solver, "build_aux_graph", "auxgraph.build", _count_graph)
        for name in dm.negcycle.DETECTORS:
            self._patch(dm.negcycle.DETECTORS, name, "negcycle.detect",
                        _count_detect)
        self._patch(solver, "objective", "objective.eval")
        self._patch(solver, "apply_and_update", "auxgraph.apply_and_update")
        self._patch(dm.auxgraph.AuxGraph, "apply_moves",
                    "auxgraph.apply_moves", _count_moves)
        self._patch(dm.oracle, "enumerate_optimal", "oracle.enumerate")
        self._patch(dm.cli, "solution_to_dict", "cli.solution")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            _set(owner, attr, original)

    def snapshot(self):
        """Totals and counters since the last snapshot; then start over."""
        if self._open:
            raise RuntimeError("snapshot taken inside an open span")
        totals, counts = self.totals, self.counts
        self.totals = defaultdict(SpanTotals)
        self.counts = defaultdict(int)
        return totals, counts

    def _patch(self, owner, attr, name, on_result=None):
        original = _get(owner, attr)
        self._patches.append((owner, attr, original))
        _set(owner, attr, self._wrap(name, original, on_result))

    def _wrap(self, name, fn, on_result):
        clock = time.perf_counter
        open_spans = self._open

        def traced(*args, **kwargs):
            children = [0.0]
            open_spans.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += elapsed
                span = self.totals[name]
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - children[0]
            if on_result is not None:
                on_result(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def layer_metrics(totals, counts) -> dict:
    """Per-layer metrics of one pass, named as in BENCHMARK.json."""
    def span(name):
        return totals.get(name) or SpanTotals()

    cycle_commits = span("auxgraph.apply_and_update").calls
    apply_calls = span("auxgraph.apply_moves").calls
    found = counts["negcycle.cycles_found"]
    return {
        # apply_and_update validates the walk, then calls apply_moves;
        # re-split commits call apply_moves directly.
        "auxgraph.apply_s": (span("auxgraph.apply_and_update").self_s
                             + span("auxgraph.apply_moves").total_s),
        "auxgraph.apply_calls": apply_calls,
        "auxgraph.moves": counts["auxgraph.moves"],
        "auxgraph.build_s": span("auxgraph.build").total_s,
        "auxgraph.build_calls": span("auxgraph.build").calls,
        "auxgraph.nodes": counts["auxgraph.nodes"],
        "auxgraph.edges": counts["auxgraph.edges"],
        "negcycle.detect_s": span("negcycle.detect").total_s,
        "negcycle.detect_calls": span("negcycle.detect").calls,
        "negcycle.detect_empty": counts["negcycle.detect_empty"],
        "negcycle.cycles_found": found,
        "objective.eval_s": span("objective.eval").total_s,
        "objective.eval_calls": span("objective.eval").calls,
        "solver.cycle_commits": cycle_commits,
        "solver.resplit_commits": apply_calls - cycle_commits,
        "solver.spurious_walks": found - cycle_commits,
        "solver.verify_yield": cycle_commits / found if found else 1.0,
        "solver.self_s": span("solver.solve").self_s,
        "oracle.enumerate_s": span("oracle.enumerate").total_s,
        "oracle.calls": span("oracle.enumerate").calls,
        "cli.solution_s": span("cli.solution").total_s,
    }


def solve_accounted_s(totals) -> float:
    """Self time of every span caused by solves, plus the solves' own."""
    outside = ("instance.generate", "instance.parse", "oracle.enumerate",
               "cli.solution")
    return sum(s.self_s for name, s in totals.items() if name not in outside)
