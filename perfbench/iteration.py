"""One benchmark iteration, run by run.py in a fresh interpreter so that
module-level caches start cold, as they do for a command-line user.

    python3 perfbench/iteration.py --workload NAME --seed N --trace 0|1 [--setup-only]

Prints one JSON line: per-step failure messages, the end-to-end times in
reference-host seconds (see hostclock.py) and raw, and with --trace 1 the
per-layer spans (reference-host seconds) and counters.  With --setup-only it stops
after set-up and prints only the set-up time.
"""

import time

import hostclock

CLOCK = hostclock.HostClock()
CLOCK.start()
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def node_count(e, expr_type) -> int:
    """Tree size of an expression, shared subtrees counted each time."""
    total, stack = 0, [e]
    while stack:
        node = stack.pop()
        total += 1
        for value in vars(node).values():
            if isinstance(value, expr_type):
                stack.append(value)
            elif isinstance(value, tuple):
                stack.extend(v for v in value if isinstance(v, expr_type))
    return total


def install_spans(tracer: Tracer):
    """Wrap the public functions where their callers look them up."""
    import densepde
    from densepde import construct, ranges, verify

    Expr = densepde.Expr

    def prolonged(t, args, system):
        t.count("jets.prolong_nodes", sum(node_count(e, Expr) for e in system.equations.values()))

    def shape(t, args, result):
        rows = args[0]
        t.maximum("linalg.max_rows", len(rows))
        t.maximum("linalg.max_cols", len(rows[0]) if rows else 0)

    def newton(t, args, result):
        best, runs = result
        t.count("newton.starts", len(runs))
        t.count("newton.iterations", sum(r.iterations for r in runs))
        t.count("newton.converged", sum(1 for r in runs if r.converged))

    def errors(t, args, sequences):
        t.count("verify.error_nodes", sum(node_count(w, Expr) for s in sequences for w in s.terms))

    def exact_ok(t, args, result):
        t.count("verify.exact_evals")

    for module in (construct, ranges):
        tracer.wrap(module, "prolong", "jets.prolong", prolonged)
        tracer.wrap(module, "solve_jets_triangular", "ranges.solve")
    tracer.wrap(construct, "make_bumps", "construct.make_bumps")
    tracer.wrap(construct, "taylor_from_jet", "construct.taylor")
    tracer.wrap(ranges, "linearize", "ranges.linearize")
    tracer.wrap(ranges, "rank_condition", "ranges.rank_condition")
    tracer.wrap(ranges, "exact_rank", "linalg.exact_rank", shape)
    tracer.wrap(ranges, "exact_least_norm", "linalg.exact_least_norm", shape)
    for name in ("float_rank", "float_least_norm", "residual_floor"):
        tracer.wrap(ranges, name, "linalg.float")
    tracer.wrap(ranges, "multistart_newton", "newton.multistart", newton)
    tracer.wrap(verify, "error_sequence", "verify.error_sequence", errors)
    tracer.wrap(verify, "check_vanishing", "verify.check_vanishing")
    tracer.wrap(verify, "differentiate", "expr.differentiate")
    tracer.wrap(verify, "evaluate_exact", "expr.evaluate_exact", exact_ok)
    tracer.wrap(verify, "evaluate_float", "expr.evaluate_float")


TIMED = {
    # per-layer metric: span name whose outermost time it reports
    "verify.error_sequence_s": "verify.error_sequence",
    "verify.check_vanishing_s": "verify.check_vanishing",
    "expr.differentiate_s": "expr.differentiate",
    "expr.evaluate_exact_s": "expr.evaluate_exact",
    "expr.evaluate_float_s": "expr.evaluate_float",
    "linalg.exact_least_norm_s": "linalg.exact_least_norm",
    "linalg.exact_rank_s": "linalg.exact_rank",
    "linalg.float_s": "linalg.float",
    "ranges.rank_condition_s": "ranges.rank_condition",
    "ranges.linearize_s": "ranges.linearize",
    "ranges.solve_s": "ranges.solve",
    "jets.prolong_s": "jets.prolong",
    "newton.multistart_s": "newton.multistart",
    "construct.make_bumps_s": "construct.make_bumps",
    "construct.taylor_s": "construct.taylor",
    "manifest.dump_s": "manifest.dump",
    "manifest.load_s": "manifest.load",
    "parser.parse_s": "parser.parse",
    "command.range_s": "range",
    "command.construct_s": "construct",
    "command.verify_s": "verify",
}
SELF_TIMED = {"verify.self_s": "verify", "construct.self_s": "construct"}
COUNTED = (
    "expr.differentiate_calls",
    "linalg.exact_least_norm_calls",
    "linalg.exact_rank_calls",
    "ranges.rank_condition_calls",
    "ranges.linearize_calls",
    "ranges.solve_calls",
    "jets.prolong_calls",
    "jets.prolong_nodes",
    "newton.multistart_calls",
    "newton.starts",
    "newton.iterations",
    "verify.exact_evals",
    "verify.error_nodes",
)


def layer_metrics(tracer: Tracer, at) -> tuple[dict, dict]:
    """(times in reference-host seconds, counters) of a traced iteration."""
    totals, selfs, counts = tracer.totals(at), tracer.self_times(at), tracer.counts
    times = {metric: totals.get(span, 0.0) for metric, span in TIMED.items()}
    times.update({metric: selfs.get(span, 0.0) for metric, span in SELF_TIMED.items()})
    counters = {name: counts.get(name, 0) for name in COUNTED}
    counters["verify.float_evals"] = counts.get("expr.evaluate_float_calls", 0)
    counters["linalg.max_rows"] = tracer.maxima.get("linalg.max_rows", 0)
    counters["linalg.max_cols"] = tracer.maxima.get("linalg.max_cols", 0)
    starts = counts.get("newton.starts", 0)
    counters["newton.converged_share"] = counts.get("newton.converged", 0) / starts if starts else 0.0
    return times, counters


NOT_RUN = ["did not complete"]


def check(inputs, outcome) -> dict[str, list[str]]:
    """Failure messages per pipeline step; a step that never produced its
    output fails."""
    spec, kind, coefficients = inputs.spec, inputs.spec.kind, inputs.coefficients
    ops = {}
    if spec.range_count:
        ops["range"] = NOT_RUN if outcome.report is None else gate.range_failures(
            kind, coefficients, outcome.report, inputs.range_points, spec.l_max
        )
    ops["construct"] = NOT_RUN if outcome.seq is None else gate.sequence_failures(kind, coefficients, outcome.seq)
    ops["manifest"] = NOT_RUN if outcome.loaded is None else gate.round_trip_failures(outcome.seq, outcome.loaded)
    if spec.verify_tol is not None:
        ops["verify"] = NOT_RUN if outcome.result is None else gate.verify_failures(outcome.result, outcome.loaded)
    return ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="stop after set-up and report its time")
    args = parser.parse_args(argv)

    tracer = Tracer()
    outcome = workloads.Outcome()
    error = None
    with tracer.span("setup"):
        sys.path.insert(0, SRC)
        import densepde

        if not os.path.abspath(densepde.__file__).startswith(SRC + os.sep):
            raise SystemExit(f"densepde imported from {densepde.__file__}, not from {SRC}")
        inputs = workloads.draw_inputs(
            args.workload, args.seed, lambda box, count: densepde.DensePointStream(box).prefix(count)
        )
        with tracer.span("parser.parse"):
            op = workloads.build_operator(densepde, inputs)
    if args.setup_only:
        CLOCK.stop()
        print(json.dumps({"setup_s": tracer.totals(CLOCK.at)["setup"], "raw_setup_s": tracer.totals()["setup"]}))
        return 0
    if args.trace:
        install_spans(tracer)
    try:
        workloads.run_pipeline(densepde, op, inputs, tracer, outcome)
    except Exception:
        error = traceback.format_exc()
        print(error, file=sys.stderr)
    end = time.perf_counter()
    CLOCK.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    tracer.restore()

    totals = tracer.totals(CLOCK.at)
    ops = check(inputs, outcome)
    if args.seed == 0 and outcome.seq is not None:
        reference = gate.load_reference()[args.workload]
        ops["construct"] += gate.reference_failures(gate.jets_record(outcome.seq), reference)
    if error is not None:
        first = next(name for name, msgs in ops.items() if msgs == NOT_RUN)
        ops[first] = [f"raised {error.strip().splitlines()[-1]}"]
    record = {
        "ops": ops,
        "e2e": {
            "wall_s": CLOCK.ref_seconds(T0, end),
            "setup_s": totals["setup"],
            "range_s": totals.get("range"),
            "construct_s": totals.get("construct"),
            "verify_s": totals.get("verify"),
            "peak_rss_mb": peak_rss_mb,
        },
        "raw": {"wall_s": end - T0, "setup_s": tracer.totals()["setup"], "calibrations": CLOCK.calibrations()},
        "verify_exact_label": int(outcome.result is not None and outcome.result.arithmetic == "exact"),
        "manifest_bytes": len(outcome.manifest.encode()) if outcome.manifest is not None else 0,
    }
    if args.trace:
        record["layers"], record["counters"] = layer_metrics(tracer, CLOCK.at)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
