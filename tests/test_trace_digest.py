"""The same-results digest runs from the command line on the benchmark's
known-bad instances, under every detector."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

import divmatch
from divmatch.negcycle import DETECTORS
from divmatch.solver import SolverConfig, solve

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "trace_digest.py"
WORKLOADS = ROOT / "bench" / "workloads.py"
LINE = re.compile(r"known-bad seed=3 detector=(\w+) instances=(\d+) "
                  r"raised=(\d+) objective_sum=(\d+) sha256=([0-9a-f]{64})")


def _known_bad():
    """The instances of bench/workloads.py's known-bad list."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.known_bad(divmatch)


@pytest.mark.parametrize("detector", sorted(DETECTORS))
def test_digest_of_known_bad_runs_and_repeats(detector):
    argv = [sys.executable, str(SCRIPT), "--workload", "known-bad",
            "--seed", "3", "--detector", detector]
    runs = [subprocess.run(argv, capture_output=True, text=True, check=True,
                           timeout=120).stdout for _ in range(2)]
    assert runs[0] == runs[1]
    match = LINE.fullmatch(runs[0].strip())
    assert match, runs[0]
    name, count, raised, objective_sum, _ = match.groups()
    instances = _known_bad()
    assert (name, int(count), int(raised)) == (detector, len(instances), 0)
    assert int(objective_sum) == sum(
        solve(inst, SolverConfig(detector=detector)).breakdown.objective
        for inst in instances)
