import copy
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import divmatch.auxgraph
import divmatch.cli
import divmatch.negcycle
from divmatch.cli import balance_report, main, solution_to_dict
from divmatch.instance import dump_instance, generate_reviewer_instance, \
    parse_instance
from divmatch.solver import solve


def run(argv):
    return main([str(a) for a in argv])


def write_instance(path, doc):
    path.write_text(json.dumps(doc))
    return path


EIGHT_VS_SIXTEEN = {
    "features": [{"name": "c", "values": ["A", "B"]},
                 {"name": "g", "values": ["M", "F"]}],
    "workers": [[0, 0], [0, 0], [1, 1], [1, 1]],
    "teams": [{"name": "t1", "demand": 2}, {"name": "t2", "demand": 2}],
    "costs": {"mode": "class", "u": [[0, 0], [0, 0]]},
    "lambda0": 1, "lambdas": [1, 1],
}


def test_solve_writes_solution(tmp_path):
    inst = write_instance(tmp_path / "inst.json", EIGHT_VS_SIXTEEN)
    out = tmp_path / "sol.json"
    assert run(["solve", inst, "--out", out]) == 0
    sol = json.loads(out.read_text())
    assert sol["objective"] == 8
    assert sol["termination"] == "optimal"
    assert sol["w"][1:] == [[1, 1], [1, 1]]
    assert sorted(sol["teams"][0]["workers"] + sol["teams"][1]["workers"]) \
        == [0, 1, 2, 3]


def test_solve_missing_file(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run(["solve", missing]) == 1
    assert str(missing) in capsys.readouterr().err


def test_solve_invalid_instance(tmp_path, capsys):
    bad = dict(EIGHT_VS_SIXTEEN, teams=[{"name": "t1", "demand": 9}])
    inst = write_instance(tmp_path / "bad.json", bad)
    assert run(["solve", inst]) == 1
    assert "demand exceeds workers" in capsys.readouterr().err


def test_solve_rejects_a_feature_whose_values_are_a_string(tmp_path, capsys):
    features = [{"name": "c", "values": "AB"},
                {"name": "g", "values": ["M", "F"]}]
    bad = dict(EIGHT_VS_SIXTEEN, features=features)
    inst = write_instance(tmp_path / "bad.json", bad)
    assert run(["solve", inst]) == 1
    assert "feature values must be a list, got 'AB'" in \
        capsys.readouterr().err


def test_solve_iteration_cap_exit_code(tmp_path):
    inst = tmp_path / "gen.json"
    assert run(["gen", "--papers", 3, "--clusters", "5x4", "--demand", 4,
                "--seed", 5, "--out", inst]) == 0
    out = tmp_path / "sol.json"
    assert run(["solve", inst, "--max-iters", 1, "--out", out]) == 2
    sol = json.loads(out.read_text())
    assert sol["termination"] == "iteration-cap"
    assert sol["iterations"] == 1


def test_solve_cap_at_a_spurious_walk_fixed_point_is_optimal(tmp_path):
    # Three commits reach the fixed point; the walk detected after them is
    # only spuriously negative, so a cap of three iterations is not hit.
    inst = tmp_path / "gen.json"
    assert run(["gen", "--papers", 5, "--clusters", "4,3,1,5,4", "--genders",
                "random", "--demand", 2, "--seed", 1835, "--out", inst]) == 0
    out = tmp_path / "sol.json"
    assert run(["solve", inst, "--max-iters", 3, "--out", out]) == 0
    sol = json.loads(out.read_text())
    assert (sol["termination"], sol["iterations"], sol["objective"]) == \
        ("optimal", 3, 53)


def test_max_iters_below_one_is_an_input_error(tmp_path, capsys):
    inst = write_instance(tmp_path / "inst.json", EIGHT_VS_SIXTEEN)
    for command in ("solve", "verify"):
        for value in (0, -1):
            assert run([command, inst, "--max-iters", value]) == 1
            err = capsys.readouterr().err
            assert err == (f"error: argument --max-iters: expected a "
                           f"positive integer, got '{value}'\n")


def test_budget_below_one_is_an_input_error(tmp_path, capsys):
    # A budget below one used to be taken as given, so verify reported the
    # instance as too large for the oracle (exit 3) instead of bad input.
    inst = write_instance(tmp_path / "inst.json", EIGHT_VS_SIXTEEN)
    for value in (0, -1, "x"):
        assert run(["verify", inst, "--budget", value]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: argument --budget: expected a positive "
                       f"integer, got '{value}'\n")
    assert run(["verify", inst, "--budget", 1]) == 3
    assert run(["verify", inst, "--budget", 1000]) == 0


def run_cli_process(argv):
    """Run the CLI in a fresh interpreter, so that its logging set-up is
    its own; returns the completed process."""
    src = str(Path(divmatch.cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-m", "divmatch.cli"]
                          + [str(a) for a in argv],
                          capture_output=True, text=True, env=env, check=False)


def test_log_flag_controls_iteration_lines(tmp_path):
    # From the greedy start this instance commits a walk and a re-split.
    inst = tmp_path / "gen.json"
    assert run(["gen", "--papers", 3, "--clusters", "5x4", "--demand", 4,
                "--seed", 5, "--out", inst]) == 0
    out = tmp_path / "sol.json"
    loud = run_cli_process(["solve", inst, "--out", out, "--log", "iter"])
    assert loud.returncode == 0
    lines = [ln for ln in loud.stderr.splitlines() if ln.startswith("iter=")]
    sol = json.loads(out.read_text())
    assert len(lines) == sol["iterations"] == 2
    # Each line shows its commit's entry of the solution's trace.
    assert lines == [
        "iter={iter} source={source} cycle_len={cycle_len} "
        "claimed={claimed} exact={exact} objective={objective}".format(**entry)
        for entry in sol["trace"]]
    quiet = run_cli_process(["solve", inst, "--out", out, "--log", "quiet"])
    assert quiet.returncode == 0
    assert "iter=" not in quiet.stderr


def test_solve_detector_flag(tmp_path):
    inst = write_instance(tmp_path / "inst.json", EIGHT_VS_SIXTEEN)
    out_bf = tmp_path / "bf.json"
    out_gr = tmp_path / "gr.json"
    assert run(["solve", inst, "--detector", "bf", "--out", out_bf]) == 0
    assert run(["solve", inst, "--detector", "gr", "--out", out_gr]) == 0
    assert json.loads(out_bf.read_text())["objective"] == \
        json.loads(out_gr.read_text())["objective"] == 8


@pytest.mark.parametrize("name", ["bf", "gr"])
def test_detector_flag_selects_that_detector(tmp_path, monkeypatch, name):
    detectors = divmatch.negcycle.DETECTORS
    chosen = detectors[name]
    calls = []
    for key, detect in list(detectors.items()):
        def spy(g, detect=detect):
            calls.append(detect)
            return detect(g)
        monkeypatch.setitem(detectors, key, spy)
    # The greedy start of this instance is not proved optimal, so the
    # switch-graph is searched.
    inst = tmp_path / "inst.json"
    inst.write_text(dump_instance(generate_reviewer_instance(
        3, [4] * 5, "balanced", 4, seed=5)))
    assert run(["solve", inst, "--detector", name]) == 0
    assert calls and set(calls) == {chosen}


def test_solve_deterministic_output(tmp_path):
    inst = write_instance(tmp_path / "inst.json", EIGHT_VS_SIXTEEN)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["solve", inst, "--out", a])
    run(["solve", inst, "--out", b])
    assert a.read_bytes() == b.read_bytes()


def test_verify_small_instance_agrees(tmp_path, capsys):
    inst = write_instance(tmp_path / "inst.json", EIGHT_VS_SIXTEEN)
    assert run(["verify", inst]) == 0
    out = capsys.readouterr().out
    assert "solver objective: 8" in out
    assert "oracle objective: 8" in out
    assert "agreement: yes" in out


def test_verify_reports_whether_the_solve_proved_optimality(tmp_path,
                                                            capsys):
    inst = write_instance(tmp_path / "inst.json", EIGHT_VS_SIXTEEN)
    assert run(["verify", inst]) == 0
    out = capsys.readouterr().out
    assert "proved optimal: yes" in out
    assert "agreement: yes" in out
    # This fixed point is optimal but not proved: four teams and the pool
    # hold workers, so no re-split subset is the whole state.
    gen = tmp_path / "gen.json"
    assert run(["gen", "--papers", 4, "--clusters", "3,3,3", "--genders",
                "random", "--demand", 2, "--seed", 6, "--out", gen]) == 0
    assert run(["verify", gen]) == 0
    out = capsys.readouterr().out
    assert "proved optimal: no" in out
    assert "agreement: yes" in out


def test_verify_exits_2_when_the_solve_stops_at_the_cap(tmp_path, capsys):
    # This solve commits two walks, so a cap of one stops it early.
    gen = tmp_path / "gen.json"
    assert run(["gen", "--papers", 2, "--clusters", "3,3", "--genders",
                "random", "--demand", 2, "--seed", 8, "--out", gen]) == 0
    assert run(["verify", gen]) == 0
    capsys.readouterr()
    assert run(["verify", gen, "--max-iters", 1]) == 2
    captured = capsys.readouterr()
    assert captured.err == "solver stopped at the iteration cap\n"
    assert "agreement" not in captured.out


def test_verify_exits_4_when_the_solver_misses_the_optimum(tmp_path, capsys,
                                                          monkeypatch):
    inst = write_instance(tmp_path / "inst.json", EIGHT_VS_SIXTEEN)
    report = solve(parse_instance(json.dumps(EIGHT_VS_SIXTEEN)))
    worse = dataclasses.replace(report, breakdown=dataclasses.replace(
        report.breakdown, objective=report.breakdown.objective + 1))
    monkeypatch.setattr(divmatch.cli, "solve", lambda inst, cfg=None: worse)
    assert run(["verify", inst]) == 4
    captured = capsys.readouterr()
    assert "solver objective: 9" in captured.out
    assert "oracle objective: 8" in captured.out
    assert captured.err == "agreement: NO\n"


def test_verify_zero_gender_weight_configuration(tmp_path):
    doc = dict(EIGHT_VS_SIXTEEN, lambdas=[1, 0])
    inst = write_instance(tmp_path / "inst.json", doc)
    assert run(["verify", inst]) == 0


def test_verify_budget_exceeded(tmp_path, capsys):
    inst = tmp_path / "big.json"
    run(["gen", "--papers", 3, "--clusters", "5x4", "--demand", 4,
         "--seed", 7, "--out", inst])
    assert run(["verify", inst]) == 3
    assert "budget" in capsys.readouterr().err


def test_verify_over_the_budget_still_solves_and_reports(tmp_path, capsys):
    # The oracle refuses the instance, but the solve runs and prints its
    # objective and whether it proved it before the one error line.
    inst = write_instance(tmp_path / "inst.json", EIGHT_VS_SIXTEEN)
    assert run(["verify", inst, "--budget", 1]) == 3
    captured = capsys.readouterr()
    assert captured.out == "solver objective: 8\nproved optimal: yes\n"
    assert captured.err.startswith("error: ")
    assert "budget" in captured.err
    assert captured.err.count("\n") == 1


def test_solve_over_the_graph_size_limit_exits_3(tmp_path, capsys,
                                                 monkeypatch):
    # This instance's solve builds the switch-graph; with the limit below
    # its estimate the build is refused before anything is allocated.
    inst = tmp_path / "inst.json"
    run(["gen", "--papers", 3, "--clusters", "5x4", "--demand", 4,
         "--seed", 7, "--out", inst])
    monkeypatch.setattr(divmatch.auxgraph, "MAX_GRAPH_BYTES", 1000)
    assert run(["solve", inst]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the switch-graph has ")
    assert captured.err.endswith(" MiB limit\n")
    assert captured.err.count("\n") == 1


def test_gen_deterministic(tmp_path):
    a, b, c = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    run(["gen", "--papers", 3, "--clusters", "5x4", "--seed", 7, "--out", a])
    run(["gen", "--papers", 3, "--clusters", "5x4", "--seed", 7, "--out", b])
    run(["gen", "--papers", 3, "--clusters", "5x4", "--seed", 8, "--out", c])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_gen_without_out_prints_what_out_writes(tmp_path, capsys):
    argv = ["gen", "--papers", 2, "--clusters", "2,3", "--genders",
            "random", "--demand", 2, "--seed", 3]
    out = tmp_path / "gen.json"
    assert run(argv + ["--out", out]) == 0
    capsys.readouterr()
    assert run(argv) == 0
    assert capsys.readouterr().out == out.read_text()


def test_gen_golden(tmp_path):
    out = tmp_path / "g.json"
    assert run(["gen", "--papers", 2, "--clusters", "2,3", "--genders",
                "random", "--demand", 2, "--seed", 3, "--out", out]) == 0
    assert out.read_text() == """\
{
  "features": [
    {"name": "cluster", "values": ["cluster1", "cluster2"]},
    {"name": "gender", "values": ["M", "F"]}
  ],
  "workers": [
    [0, 0],
    [0, 0],
    [1, 1],
    [1, 1],
    [1, 0]
  ],
  "teams": [
    {"name": "paper1", "demand": 2},
    {"name": "paper2", "demand": 2}
  ],
  "costs": {"mode": "class", "u": [
    [9, 0],
    [7, 4]
  ]},
  "lambda0": 1,
  "lambdas": [1, 1]
}
"""


def test_gen_infeasible_params(tmp_path, capsys):
    assert run(["gen", "--papers", 6, "--clusters", "5x4", "--demand", 4,
                "--out", tmp_path / "x.json"]) == 1
    assert "infeasible" in capsys.readouterr().err


def test_gen_cluster_size_list(tmp_path):
    out = tmp_path / "g.json"
    assert run(["gen", "--papers", 2, "--clusters", "3,3,2", "--demand", 2,
                "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["features"][0]["values"]) == 3
    assert len(doc["workers"]) == 8


def test_gen_output_solves(tmp_path):
    inst = tmp_path / "g.json"
    run(["gen", "--papers", 2, "--clusters", "2x4", "--demand", 4,
         "--seed", 3, "--out", inst])
    assert run(["verify", inst]) == 0


def test_report_end_to_end(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    rep = tmp_path / "rep.json"
    run(["gen", "--papers", 2, "--clusters", "2x4", "--demand", 4,
         "--seed", 3, "--out", inst])
    run(["solve", inst, "--out", sol])
    assert run(["report", sol, "--out", rep]) == 0
    payload = json.loads(rep.read_text())
    assert {f["feature"] for f in payload["per_feature"]} == \
        {"cluster", "gender"}
    for team in payload["per_team"]:
        for counts in team["histograms"].values():
            assert sum(counts) == team["demand"]


def test_report_missing_file(tmp_path, capsys):
    assert run(["report", tmp_path / "missing.json"]) == 1
    assert "missing.json" in capsys.readouterr().err


def test_report_malformed_solution(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"objective": 3}')
    assert run(["report", bad]) == 1
    assert "malformed" in capsys.readouterr().err


@pytest.mark.parametrize("command, error", [
    ("solve", "error: malformed JSON"),
    ("verify", "error: malformed JSON"),
    ("report", "error: malformed solution document"),
])
def test_deeply_nested_document_is_an_input_error(tmp_path, capsys, command,
                                                   error):
    # Nested too deep for the JSON parser, which raises RecursionError.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000 + "\n")
    assert run([command, deep]) == 1
    err = capsys.readouterr().err
    assert err.startswith(error)
    assert err.count("\n") == 1


def solution_doc(team_hists, demand=4):
    return {
        "features": [{"name": "cluster", "values": ["c1", "c2"]},
                     {"name": "gender", "values": ["M", "F"]}],
        "teams": [{"name": f"p{i}", "demand": demand}
                  for i in range(len(team_hists))],
        "c": team_hists,
    }


def test_balance_report_all_balanced():
    rep = balance_report(solution_doc([
        [[2, 2], [2, 2]],
        [[2, 2], [2, 2]],
    ]))
    gender = next(s for s in rep.per_feature if s["feature"] == "gender")
    assert gender["balanced"] == 2
    assert gender["balanced_fraction"] == 1.0
    assert gender["fully_skewed"] == 0


def test_balance_report_fully_skewed():
    rep = balance_report(solution_doc([
        [[4, 0], [4, 0]],
    ]))
    gender = next(s for s in rep.per_feature if s["feature"] == "gender")
    assert gender["balanced"] == 0
    assert gender["fully_skewed"] == 1


def test_balance_report_excludes_empty_teams():
    doc = solution_doc([
        [[2, 2], [2, 2]],
        [[0, 0], [0, 0]],
    ])
    doc["teams"][1]["demand"] = 0
    rep = balance_report(doc)
    gender = next(s for s in rep.per_feature if s["feature"] == "gender")
    assert gender["eligible"] == 1
    assert gender["balanced_fraction"] == 1.0


def test_usage_error_maps_to_input_exit(capsys):
    assert main(["solve"]) == 1
    assert main(["gen", "--papers", "2", "--clusters", "zzz",
                 "--out", "/tmp/never.json"]) == 1


WORKER_INSTANCE = {
    "features": [{"name": "c", "values": ["A", "B"]}],
    "workers": [[0], [0], [1], [1]],
    "teams": [{"name": "t1", "demand": 2}, {"name": "t2", "demand": 2}],
    "costs": {"mode": "worker", "u": [[1, 9, 2, 8], [7, 2, 6, 1]]},
    "lambda0": 1, "lambdas": [1],
}


def test_solve_worker_mode_instance(tmp_path):
    inst = write_instance(tmp_path / "w.json", WORKER_INSTANCE)
    out = tmp_path / "sol.json"
    assert run(["solve", inst, "--out", out]) == 0
    sol = json.loads(out.read_text())
    assert sol["mode"] == "worker"
    assert len(sol["assignment"]) == 4
    assert sum(sol["c"][0][0]) == 2  # team histograms carry the demand
    assert run(["verify", inst]) == 0


def _raise_internal_error(inst, cfg=None):
    raise RuntimeError("detection keeps returning non-improving walks")


def test_internal_solver_error_exit_code(tmp_path, capsys, monkeypatch):
    inst = write_instance(tmp_path / "inst.json", EIGHT_VS_SIXTEEN)
    monkeypatch.setattr(divmatch.cli, "solve", _raise_internal_error)
    for command in ("solve", "verify"):
        assert run([command, inst]) == 5
        err = capsys.readouterr().err
        assert err == ("error: internal solver error: detection keeps "
                       "returning non-improving walks\n")


def test_output_in_a_missing_directory_is_an_input_error(tmp_path, capsys):
    inst = write_instance(tmp_path / "inst.json", EIGHT_VS_SIXTEEN)
    sol = tmp_path / "sol.json"
    assert run(["solve", inst, "--out", sol]) == 0
    missing = tmp_path / "no" / "such" / "out.json"
    for argv in (["solve", inst], ["report", sol],
                 ["gen", "--papers", 2, "--clusters", "2x4"]):
        capsys.readouterr()
        assert run(argv + ["--out", missing]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {str(missing)!r}")
        assert err.count("\n") == 1


def test_unwritable_output_fails_before_the_work(tmp_path, capsys,
                                                 monkeypatch):
    inst = write_instance(tmp_path / "inst.json", EIGHT_VS_SIXTEEN)
    sol = tmp_path / "sol.json"
    assert run(["solve", inst, "--out", sol]) == 0

    def must_not_solve(*args, **kwargs):
        raise AssertionError("solved before checking --out")

    monkeypatch.setattr(divmatch.cli, "solve", must_not_solve)
    missing = tmp_path / "no" / "out.json"
    capsys.readouterr()
    assert run(["solve", inst, "--out", missing]) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot write {str(missing)!r}: " \
                  "No such file or directory\n"
    assert run(["report", sol, "--out", missing]) == 1
    out, err = capsys.readouterr()
    assert out == ""  # the report is not printed before the failure
    assert err.startswith(f"error: cannot write {str(missing)!r}")


def test_output_check_leaves_files_alone_when_the_solve_fails(
        tmp_path, monkeypatch):
    inst = write_instance(tmp_path / "inst.json", EIGHT_VS_SIXTEEN)

    def broken_solve(*args, **kwargs):
        raise RuntimeError("invariant broken")

    monkeypatch.setattr(divmatch.cli, "solve", broken_solve)
    fresh = tmp_path / "fresh.json"
    assert run(["solve", inst, "--out", fresh]) == 5
    assert not fresh.exists()
    kept = tmp_path / "kept.json"
    kept.write_text("earlier output\n")
    assert run(["solve", inst, "--out", kept]) == 5
    assert kept.read_text() == "earlier output\n"


def test_solution_reports_refinement_completeness(tmp_path):
    inst = write_instance(tmp_path / "inst.json", EIGHT_VS_SIXTEEN)
    out = tmp_path / "sol.json"
    assert run(["solve", inst, "--out", out]) == 0
    sol = json.loads(out.read_text())
    assert sol["refinement_complete"] is True
    assert sol["proved_optimal"] is True


@pytest.mark.parametrize("hists, features", [
    ([[[2, 2], [2, 2]]], [{"name": "gender", "values": []}]),
    ([[[], []]], None),
    ([[[2, 2]]], None),
])
def test_report_on_inconsistent_solution(tmp_path, capsys, hists, features):
    doc = solution_doc(hists)
    if features is not None:
        doc["features"] = features
    path = tmp_path / "sol.json"
    path.write_text(json.dumps(doc))
    assert run(["report", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed solution document")
    assert err.count("\n") == 1


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats()
    | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=24)
SMALL_VALUES = st.integers(-2, 6) | st.sampled_from(
    [None, True, "A", "class", "worker", [], {}, [0], [[0, 1]], 1.5])


def _paths(node, prefix=()):
    yield prefix
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _mutated(data, doc):
    """``doc`` with one to three nodes replaced, emptied or deleted."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        if not path:
            return data.draw(JSON_VALUES)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            # a copy: later steps mutate in place, and ``sampled_from``
            # hands out the same list or dict object on every draw
            parent[path[-1]] = copy.deepcopy(
                data.draw(SMALL_VALUES | JSON_VALUES))
        else:
            del parent[path[-1]]
    return doc


FUZZ = settings(max_examples=120, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _exit_code(tmp_path, command, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return run([command, path])


@FUZZ
@given(doc=JSON_VALUES)
def test_solve_never_raises_on_arbitrary_json(tmp_path, doc):
    assert _exit_code(tmp_path, "solve", doc) in (0, 1)


@FUZZ
@given(data=st.data(), base=st.sampled_from([EIGHT_VS_SIXTEEN,
                                             WORKER_INSTANCE]))
def test_solve_never_raises_on_mutated_instances(tmp_path, data, base):
    assert _exit_code(tmp_path, "solve", _mutated(data, base)) in (0, 1)


@FUZZ
@given(data=st.data())
def test_report_never_raises_on_mutated_solutions(tmp_path, data):
    inst = parse_instance(json.dumps(EIGHT_VS_SIXTEEN))
    solution = solution_to_dict(inst, solve(inst))
    assert _exit_code(tmp_path, "report", _mutated(data, solution)) in (0, 1)
