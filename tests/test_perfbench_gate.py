"""The benchmark's gate self-test and a traced benchmark iteration, run
from the main suite so that a manifest or verification-label change that
breaks the gate, or a rename that breaks the tracer, shows up here."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_gate_self_test():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "test_gate.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "gate self-test passed" in proc.stdout


def traced_iteration(workload: str) -> dict:
    """The record of one traced iteration at seed 0, checked clean."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "iteration.py"),
         "--workload", workload, "--seed", "0", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert all(messages == [] for messages in record["ops"].values()), record["ops"]
    return record


def test_traced_iteration_reaches_the_exact_kernel():
    """The tracer wraps ranges.exact_rank and ranges.exact_least_norm by
    name; a rename in ranges would leave the exact kernel untraced."""
    record = traced_iteration("lewy-verify")
    assert record["counters"]["linalg.exact_least_norm_calls"] > 0


def test_traced_iteration_pins_the_newton_path():
    """The eikonal range check's Newton solves, start by start: a kernel
    change that moves one Newton iterate changes these counts."""
    counters = traced_iteration("eikonal-float")["counters"]
    assert counters["newton.multistart_calls"] == 132
    assert counters["newton.starts"] == 1056
    assert counters["newton.iterations"] == 4036
