"""Command-line front door: solve, verify, generate, and report.

Exit codes: 0 solved to a certified optimum (or report/gen succeeded),
1 invalid input (bad file, bad format, infeasible parameters, an output
path that cannot be written), 2 iteration cap reached before convergence,
3 instance too large for the verification oracle, 4 solver and oracle
disagree (verify only), 5 internal solver error (a broken solver
invariant: a bug, not bad input).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass

from .instance import InvalidInstanceError, build_combination_index, \
    dump_instance, generate_reviewer_instance, load_instance
from .objective import assignment_from_matrix, count_tensor
from .oracle import BudgetExceededError, DEFAULT_BUDGET, enumerate_optimal
from .solver import SolveReport, SolverConfig, solve

__all__ = ["main", "entry", "BalanceReport", "balance_report",
           "solution_to_dict"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CAP = 2
EXIT_BUDGET = 3
EXIT_MISMATCH = 4
EXIT_INTERNAL = 5

_DETECTOR_NAMES = {"bf": "bellman_ford", "gr": "goldberg_radzik"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


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
    index = build_combination_index(inst)
    w = report.assignment
    assign = assignment_from_matrix(inst, w, index)
    c = count_tensor(inst, w, index)
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
        "iterations": report.iterations,
        "trace": [{"iter": r.index, "cycle_len": r.cycle_len,
                   "claimed": r.claimed, "exact": r.exact,
                   "objective": r.objective_after} for r in report.trace],
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
        return load_instance(path), None
    except (OSError, UnicodeDecodeError):
        return None, f"error: cannot read instance file {path!r}"
    except InvalidInstanceError as exc:
        return None, f"error: {exc}"


def _write(path: str, payload: str, mode: str = "w") -> bool:
    """Write an output file; False after reporting why it cannot be."""
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        print(f"error: cannot write {path!r}: {exc.strerror}", file=sys.stderr)
        return False
    return True


def _writable(path: str) -> bool:
    """Whether an output file can be written, checked before the work that
    fills it: an existing file is opened without truncating it, and a file
    the check creates is removed again."""
    existed = os.path.lexists(path)
    if not _write(path, "", mode="a"):
        return False
    if not existed:
        os.remove(path)
    return True


def _solve(inst, args) -> SolveReport | None:
    """Solve with the command's flags; None after reporting an internal
    solver error."""
    cfg = SolverConfig(detector=_DETECTOR_NAMES[args.detector],
                       max_iterations=args.max_iters)
    try:
        return solve(inst, cfg)
    except RuntimeError as exc:  # a broken solver invariant
        print(f"error: internal solver error: {exc}", file=sys.stderr)
        return None


def cmd_solve(args) -> int:
    inst, err = _load(args.instance)
    if err:
        print(err, file=sys.stderr)
        return EXIT_INPUT
    if args.out and not _writable(args.out):
        return EXIT_INPUT
    report = _solve(inst, args)
    if report is None:
        return EXIT_INTERNAL
    doc = solution_to_dict(inst, report)
    payload = json.dumps(doc, indent=2) + "\n"
    if args.out:
        if not _write(args.out, payload):
            return EXIT_INPUT
        summary_stream = sys.stdout
    else:
        sys.stdout.write(payload)
        summary_stream = sys.stderr  # keep the machine output parseable
    print(f"objective {report.breakdown.objective} "
          f"({report.termination}, {report.iterations} iterations)",
          file=summary_stream)
    return EXIT_OK if report.termination == "optimal" else EXIT_CAP


def cmd_verify(args) -> int:
    inst, err = _load(args.instance)
    if err:
        print(err, file=sys.stderr)
        return EXIT_INPUT
    try:
        result = enumerate_optimal(inst, budget=args.budget)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    report = _solve(inst, args)
    if report is None:
        return EXIT_INTERNAL
    print(f"solver objective: {report.breakdown.objective}")
    print(f"oracle objective: {result.optimal_objective}")
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
    except (OSError, UnicodeDecodeError):
        print(f"error: cannot read solution file {args.solution!r}",
              file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, LookupError, TypeError, ZeroDivisionError) as exc:
        print(f"error: malformed solution document: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.out and not _writable(args.out):
        return EXIT_INPUT
    print(rep.text())
    if args.out:
        payload = json.dumps({"per_team": rep.per_team,
                              "per_feature": rep.per_feature}, indent=2)
        if not _write(args.out, payload + "\n"):
            return EXIT_INPUT
    return EXIT_OK


def _parse_clusters(arg: str) -> list[int]:
    # "5x4" means 5 clusters of 4 reviewers; "4,4,3" lists sizes directly
    try:
        if "x" in arg:
            count, size = arg.split("x")
            return [int(size)] * int(count)
        return [int(part) for part in arg.split(",")]
    except ValueError as exc:
        raise _UsageError(f"bad --clusters value {arg!r}") from exc


def cmd_gen(args) -> int:
    try:
        inst = generate_reviewer_instance(
            papers=args.papers,
            reviewers_per_cluster=_parse_clusters(args.clusters),
            genders=args.genders,
            demand_per_paper=args.demand,
            seed=args.seed)
    except InvalidInstanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    payload = dump_instance(inst)
    if args.out:
        if not _write(args.out, payload):
            return EXIT_INPUT
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
    p.add_argument("--detector", choices=("bf", "gr"), default="gr")
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
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _configure_logging(getattr(args, "log", "quiet"))
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
