"""Command-line front door: solve, verify, generate, and report.

Exit codes: 0 solved to a fixed point, proved globally optimal where the
solution says ``proved_optimal`` (or report/gen succeeded), 1 invalid input
(bad file, bad format, infeasible parameters, an output path that cannot be
written), 2 iteration cap reached before convergence, 3 instance too large
for the verification oracle (verify still solves and prints the solve's
results first) or for the switch-graph's memory limit, 4 solver and oracle
disagree (verify only), 5 internal solver error (a broken solver invariant:
a bug, not bad input).
A failure is raised where it is found, as a :class:`CliError` with its exit
code, and :func:`main` prints it as one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass

from .auxgraph import GraphTooLargeError
from .instance import InvalidInstanceError, dump_instance, \
    generate_reviewer_instance, load_instance
from .objective import assignment_from_matrix, count_tensor
from .oracle import BudgetExceededError, DEFAULT_BUDGET, enumerate_optimal
from .solver import SolveReport, solve

__all__ = ["main", "entry", "BalanceReport", "balance_report",
           "solution_to_dict"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CAP = 2
EXIT_BUDGET = 3
EXIT_MISMATCH = 4
EXIT_INTERNAL = 5


class CliError(Exception):
    """A failure found by a command: :func:`main` prints its message as one
    ``error:`` line on stderr and exits with its ``code``."""

    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _configure_logging(level: str):
    numeric = {"quiet": logging.WARNING, "iter": logging.INFO,
               "debug": logging.DEBUG}[level]
    logging.basicConfig(stream=sys.stderr, level=numeric,
                        format="%(message)s")
    logging.getLogger("divmatch").setLevel(numeric)


# ---------------------------------------------------------------------------
# solution document
# ---------------------------------------------------------------------------

def solution_to_dict(inst, report: SolveReport) -> dict:
    w = report.assignment
    assign = assignment_from_matrix(inst, w)
    c = count_tensor(inst, w)
    by_team: list[list[int]] = [[] for _ in range(inst.t + 1)]
    for x, i in enumerate(assign):
        by_team[i].append(x)
    return {
        "mode": inst.costs.mode,
        "objective": report.breakdown.objective,
        "tu": report.breakdown.tu,
        "diversity": list(report.breakdown.diversity),
        "w": [list(row) for row in w],
        "c": [[list(vals) for vals in c[i]] for i in range(1, inst.t + 1)],
        "assignment": assign,
        "teams": [{"name": tm.name, "demand": tm.demand,
                   "workers": by_team[i + 1]}
                  for i, tm in enumerate(inst.teams)],
        "unassigned": by_team[0],
        "features": [{"name": f.name, "values": list(f.values)}
                     for f in inst.schema.features],
        "termination": report.termination,
        "refinement_complete": report.refinement_complete,
        "proved_optimal": report.proved_optimal,
        "iterations": report.iterations,
        "trace": [{"iter": r.index, "source": r.source,
                   "cycle_len": r.cycle_len, "claimed": r.claimed,
                   "exact": r.exact, "objective": r.objective_after}
                  for r in report.trace],
    }


# ---------------------------------------------------------------------------
# balance report
# ---------------------------------------------------------------------------

@dataclass
class BalanceReport:
    """Per-feature balance statistics of a solution.

    A team with demand d is perfectly balanced for a feature when its value
    histogram is the most even split of d over the feature's values, and
    fully skewed when all d members share one value. Teams with zero demand
    are excluded from the fractions.
    """

    per_team: list[dict]
    per_feature: list[dict]

    def text(self) -> str:
        lines = []
        for stats in self.per_feature:
            lines.append(
                f"feature {stats['feature']}: "
                f"{stats['balanced']}/{stats['eligible']} teams balanced "
                f"(fraction {stats['balanced_fraction']:.3f}), "
                f"{stats['fully_skewed']} fully skewed")
        return "\n".join(lines)


def balance_report(solution: dict) -> BalanceReport:
    features = solution["features"]
    teams = solution["teams"]
    c = solution["c"]
    per_team = []
    for i, tm in enumerate(teams):
        per_team.append({
            "name": tm["name"],
            "demand": tm["demand"],
            "histograms": {features[k]["name"]: list(c[i][k])
                           for k in range(len(features))},
        })
    per_feature = []
    for k, feat in enumerate(features):
        nvals = len(feat["values"])
        balanced = skewed = eligible = 0
        for i, tm in enumerate(teams):
            d = tm["demand"]
            if d == 0:
                continue
            eligible += 1
            counts = sorted(c[i][k])
            lo, extra = divmod(d, nvals)
            target = sorted([lo] * (nvals - extra) + [lo + 1] * extra)
            if counts == target:
                balanced += 1
            if max(counts) == d:
                skewed += 1
        per_feature.append({
            "feature": feat["name"],
            "balanced": balanced,
            "fully_skewed": skewed,
            "eligible": eligible,
            "balanced_fraction": balanced / eligible if eligible else 0.0,
        })
    return BalanceReport(per_team, per_feature)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _load(path: str):
    try:
        return load_instance(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read instance file {path!r}") from exc
    except InvalidInstanceError as exc:
        raise CliError(str(exc)) from exc


def _write(path: str, payload: str, mode: str = "w"):
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        raise CliError(f"cannot write {path!r}: {exc.strerror}") from exc


def _check_writable(path: str):
    """Check that an output file can be written, before the work that fills
    it: an existing file is opened without truncating it, and a file the
    check creates is removed again."""
    existed = os.path.lexists(path)
    _write(path, "", mode="a")
    if not existed:
        os.remove(path)


def _solve(inst, args) -> SolveReport:
    try:
        return solve(inst, max_iterations=args.max_iters)
    except GraphTooLargeError as exc:
        raise CliError(str(exc), EXIT_BUDGET) from exc
    except RuntimeError as exc:  # a broken solver invariant
        raise CliError(f"internal solver error: {exc}",
                       EXIT_INTERNAL) from exc


def cmd_solve(args) -> int:
    inst = _load(args.instance)
    if args.out:
        _check_writable(args.out)
    report = _solve(inst, args)
    payload = json.dumps(solution_to_dict(inst, report), indent=2) + "\n"
    if args.out:
        _write(args.out, payload)
        summary_stream = sys.stdout
    else:
        sys.stdout.write(payload)
        summary_stream = sys.stderr  # keep the machine output parseable
    print(f"objective {report.breakdown.objective} "
          f"({report.termination}, {report.iterations} iterations)",
          file=summary_stream)
    return EXIT_OK if report.termination == "optimal" else EXIT_CAP


def cmd_verify(args) -> int:
    inst = _load(args.instance)
    result = over = None
    try:
        result = enumerate_optimal(inst, budget=args.budget)
    except BudgetExceededError as exc:
        over = exc  # the solve still runs and reports, then exit 3
    report = _solve(inst, args)
    print(f"solver objective: {report.breakdown.objective}")
    if result is not None:
        print(f"oracle objective: {result.optimal_objective}")
    print(f"proved optimal: {'yes' if report.proved_optimal else 'no'}")
    if over is not None:
        raise CliError(str(over), EXIT_BUDGET) from over
    if report.termination != "optimal":
        print("solver stopped at the iteration cap", file=sys.stderr)
        return EXIT_CAP
    if report.breakdown.objective == result.optimal_objective:
        print("agreement: yes")
        return EXIT_OK
    print("agreement: NO", file=sys.stderr)
    return EXIT_MISMATCH


def cmd_report(args) -> int:
    try:
        with open(args.solution, encoding="utf-8") as fh:
            solution = json.load(fh)
        rep = balance_report(solution)
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(
            f"cannot read solution file {args.solution!r}") from exc
    except (ValueError, LookupError, TypeError, ZeroDivisionError,
            RecursionError) as exc:  # RecursionError: nested too deep
        raise CliError(f"malformed solution document: {exc}") from exc
    if args.out:
        _check_writable(args.out)
    print(rep.text())
    if args.out:
        _write(args.out, json.dumps({"per_team": rep.per_team,
                                     "per_feature": rep.per_feature},
                                    indent=2) + "\n")
    return EXIT_OK


def _parse_clusters(arg: str) -> list[int]:
    # "5x4" means 5 clusters of 4 reviewers; "4,4,3" lists sizes directly
    try:
        if "x" in arg:
            count, size = arg.split("x")
            return [int(size)] * int(count)
        return [int(part) for part in arg.split(",")]
    except ValueError as exc:
        raise CliError(f"bad --clusters value {arg!r}") from exc


def cmd_gen(args) -> int:
    try:
        inst = generate_reviewer_instance(
            papers=args.papers,
            reviewers_per_cluster=_parse_clusters(args.clusters),
            genders=args.genders,
            demand_per_paper=args.demand,
            seed=args.seed)
    except InvalidInstanceError as exc:
        raise CliError(str(exc)) from exc
    payload = dump_instance(inst)
    if args.out:
        _write(args.out, payload)
    else:
        sys.stdout.write(payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return value


def _add_solver_flags(p):
    p.add_argument("--max-iters", type=_positive_int, default=None,
                   dest="max_iters")
    p.add_argument("--log", choices=("quiet", "iter", "debug"),
                   default="quiet")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="divmatch",
                     description="Diversity-aware b-matching solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("instance")
    p.add_argument("--out", default=None)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify",
                       help="solve and compare against the exhaustive oracle")
    p.add_argument("instance")
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="balance statistics of a solution file")
    p.add_argument("solution")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("gen", help="generate a reviewer-style instance")
    p.add_argument("--papers", type=int, required=True)
    p.add_argument("--clusters", required=True,
                   help="cluster sizes, e.g. 5x4 or 4,4,4")
    p.add_argument("--demand", type=int, default=4)
    p.add_argument("--genders", choices=("balanced", "random"),
                   default="balanced")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _configure_logging(getattr(args, "log", "quiet"))
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
