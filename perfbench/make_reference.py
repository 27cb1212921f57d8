"""Write reference_seed0.json: the jets every workload constructs at seed 0.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are known to be right; the
benchmark's gate then requires every later commit to reproduce them.
"""

import json
import os
import sys

import gate
import workloads
from spans import Tracer

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import densepde  # noqa: E402


def main() -> int:
    reference = {}
    for name in workloads.SPECS:
        inputs = workloads.draw_inputs(name, 0, lambda box, count: densepde.DensePointStream(box).prefix(count))
        outcome = workloads.Outcome()
        workloads.run_pipeline(densepde, workloads.build_operator(densepde, inputs), inputs, Tracer(), outcome)
        reference[name] = gate.jets_record(outcome.seq)
    with open(gate.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
