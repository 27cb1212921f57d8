"""The benchmark's gate self-test and a traced benchmark iteration, run
from the main suite so that a manifest or verification-label change that
breaks the gate, or a rename that breaks the tracer, shows up here."""

import json
import os
import subprocess
import sys

import pytest

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


def iteration(workload: str, trace: int) -> dict:
    """The record of one iteration at seed 0, checked clean: every
    pipeline step passes the gate, and seed 0 also checks every jet
    against reference_seed0.json."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "iteration.py"),
         "--workload", workload, "--seed", "0", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert all(messages == [] for messages in record["ops"].values()), record["ops"]
    return record


@pytest.mark.parametrize("workload", ["lewy-deep", "poisson-wide"])
def test_untraced_iteration_passes_the_gate(workload):
    """The jets of the deep Lewy levels and of the many Poisson stages,
    checked against the gate's independently written prolonged
    equations, as the benchmark runs them (untraced)."""
    ops = iteration(workload, 0)["ops"]
    assert {"construct", "manifest"} <= set(ops)


def test_traced_iteration_reaches_the_exact_kernel():
    """The tracer wraps ranges.exact_rank and ranges.exact_least_norm by
    name; a rename in ranges would leave the exact kernel untraced."""
    record = iteration("lewy-verify", 1)
    assert record["counters"]["linalg.exact_least_norm_calls"] > 0


def test_traced_iteration_pins_the_newton_path():
    """The eikonal range check's Newton solves, start by start: a kernel
    change that moves one Newton iterate changes these counts."""
    counters = iteration("eikonal-float", 1)["counters"]
    assert counters["newton.multistart_calls"] == 132
    assert counters["newton.starts"] == 264
    assert counters["newton.iterations"] == 530
