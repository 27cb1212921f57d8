"""The benchmark's gate self-test, run from the main suite so that a
manifest or verification-label change that breaks the gate shows up here."""

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
