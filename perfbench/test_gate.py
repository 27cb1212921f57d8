"""Self-test of the benchmark's correctness gate: editing one stored jet
value in a small manifest must make the gate report a failure.

    python3 perfbench/test_gate.py
    python3 -m pytest perfbench/test_gate.py
"""

import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import densepde  # noqa: E402
import gate  # noqa: E402
import workloads  # noqa: E402

COEFFICIENTS = (Fraction(1), Fraction(1))


def small_manifest():
    """A two-stage Poisson sequence and its manifest."""
    op = densepde.parse_pde_text(workloads.pde_text("poisson", COEFFICIENTS))
    points = densepde.DensePointStream(op.domain).prefix(2)
    seq = densepde.construct_sequence(op, points, [0, 1])
    return seq, densepde.sequence_to_json(seq)


def gate_failures(seq, data) -> list[str]:
    """Every gate check the benchmark applies to a constructed sequence
    and its manifest."""
    loaded = densepde.sequence_from_json(json.loads(json.dumps(data)))
    result = densepde.verify_solution(loaded.operator, loaded)
    return (
        gate.sequence_failures("poisson", COEFFICIENTS, loaded)
        + gate.round_trip_failures(seq, loaded)
        + gate.verify_failures(result, loaded)
        + gate.reference_failures(gate.jets_record(loaded), gate.jets_record(seq))
    )


def test_untouched_manifest_passes():
    seq, data = small_manifest()
    assert gate_failures(seq, data) == []


def test_one_edited_jet_value_fails():
    seq, data = small_manifest()
    values = data["stages"][1]["jets"][0]["values"]
    values["1;(2,0)"] = str(Fraction(values["1;(2,0)"]) + Fraction(1, 1024))
    failures = gate_failures(seq, data)
    kinds = {message.split(":")[0] for message in failures}
    assert {"stage 1 point 0", "manifest", "verify", "reference"} <= kinds, failures


if __name__ == "__main__":
    test_untouched_manifest_passes()
    test_one_edited_jet_value_fails()
    print("gate self-test passed")
