"""densepde benchmark: time to a verdict on four workloads.

    python3 perfbench/run.py --workload lewy-verify --seed 0 --seconds 30 --trace 0

Runs the workload's pipeline (range -> construct -> manifest dump and
load -> verify, each where the workload has it) again and again, every
iteration in a fresh interpreter, one at a time, with single-threaded
BLAS, until the next iteration would not fit in --seconds.  Every
iteration's outputs go through the correctness gate in gate.py.

--trace 0 reports the end-to-end metrics of BENCHMARK.json as medians
over the iterations.  Times are in reference-host seconds: each iteration
measures the host's speed with a fixed calibration loop every 0.2 s and
rescales its wall time by it (hostclock.py), because on a shared host the
same code runs up to twice as slow for minutes at a time.  setup_s is
the median of SETUPS_PER_ITERATION set-ups alone after every iteration.
The raw wall-clock times are printed too, but are not metrics.

--trace 1 alternates traced and untraced iterations (at least two traced,
one untraced): it reports the per-layer metrics as medians over the
traced ones, checks that the counters repeat exactly, and reports the
traced/untraced wall-time gap as trace.overhead_share.

Each metric is printed by name with its unit, then the last line is one
JSON object {"correct", "attempted", "failed", "metrics"}.  An
"operation" is one pipeline step of one iteration; it fails when it
raises or when the gate rejects its output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import SPECS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARD_LIMIT_S = 165  # every run ends well inside the 180 s a run may take
SETUPS_PER_ITERATION = 3  # setup_s is the median of these set-ups alone
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # import from cached bytecode after the first iteration, as an installed
    # package does, whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def child_command(workload: str, seed: int, traced: bool) -> list[str]:
    return [
        sys.executable, os.path.join(HERE, "iteration.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
    ]


def run_iteration(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            child_command(workload, seed, traced), cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE, timeout=timeout, text=True,
        )
    except subprocess.TimeoutExpired:
        return {"crashed": f"iteration exceeded {timeout:.0f} s", "duration": time.perf_counter() - started}
    duration = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"iteration exited with code {proc.returncode}", "duration": duration}
    record = json.loads(lines[-1])
    record["duration"] = duration
    record["traced"] = traced
    return record


def setup_samples(workload: str, seed: int, count: int) -> tuple[list[dict], float]:
    """`count` set-ups alone, each in a fresh interpreter; the time they took."""
    started = time.perf_counter()
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            child_command(workload, seed, False) + ["--setup-only"],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, timeout=60, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        samples.append(json.loads(lines[-1]) if proc.returncode == 0 and lines else None)
    return samples, time.perf_counter() - started


def load_metric_specs() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "densepde", "__init__.py")):
        print(f"error: no densepde sources under {ROOT}/src", file=sys.stderr)
        return 2
    units = load_metric_specs()

    start = time.perf_counter()
    records: list[dict] = []
    setups: list[dict | None] = []
    while True:
        # --trace 1 alternates traced and untraced iterations, starting
        # traced, so three iterations give two traced and one untraced
        traced = bool(args.trace) and len(records) % 2 == 0
        remaining = HARD_LIMIT_S - (time.perf_counter() - start)
        records.append(run_iteration(args.workload, args.seed, traced, max(remaining, 1.0)))
        if "crashed" in records[-1]:
            break
        if not args.trace:
            # set-up alone, after the first iteration has written the
            # bytecode cache; its time counts towards the iteration's
            samples, took = setup_samples(args.workload, args.seed, SETUPS_PER_ITERATION)
            setups.extend(samples)
            records[-1]["duration"] += took
        next_end = time.perf_counter() - start + max(r["duration"] for r in records)
        if next_end > HARD_LIMIT_S - 10:
            break
        if next_end > args.seconds and (not args.trace or len(records) >= 3):
            break

    attempted = failed = 0
    problems = []
    for r in records:
        if "crashed" in r:
            attempted += 1
            failed += 1
            problems.append(r["crashed"])
            continue
        for step, messages in r["ops"].items():
            attempted += 1
            if messages:
                failed += 1
                problems.extend(f"{step}: {m}" for m in messages[:3])

    for sample in setups:
        attempted += 1
        if sample is None:
            failed += 1
            problems.append("set-up alone failed")
    setups = [s for s in setups if s is not None]

    ok = [r for r in records if "crashed" not in r]
    if args.trace:
        metrics, extra = layer_summary(ok, units["per_layer"])
        attempted += 1
        if extra:
            failed += 1
            problems.append(extra)
    else:
        metrics = {
            name: {"value": median([r["e2e"][name] for r in ok if r["e2e"][name] is not None]), "unit": unit}
            for name, unit in units["end_to_end"].items()
        }
        metrics["setup_s"]["value"] = median([s["setup_s"] for s in setups])
    for name, m in metrics.items():
        print(f"{name:30s} {m['value']:>14.6g} {m['unit']}")
    untraced = [r for r in ok if not r.get("traced")]
    for name in ("range_s", "construct_s", "verify_s"):
        # user-facing commands, kept out of BENCHMARK.json because not every
        # workload runs range and verify, and construct takes only a few
        # hundredths of a second on some: too noisy on a shared host
        values = [r["e2e"][name] for r in untraced if r["e2e"][name] is not None]
        if values:
            print(f"{name:30s} {median(values):>14.6g} s (untraced median, not a BENCHMARK.json metric)")
    untraced_walls = [r["e2e"]["wall_s"] for r in untraced]
    if untraced:
        raw_wall = median([r["raw"]["wall_s"] for r in untraced])
        print(f"{'raw wall_s':30s} {raw_wall:>14.6g} s (untraced median of wall-clock seconds, not a metric)")
    if setups:
        raw_setup = median([s["raw_setup_s"] for s in setups])
        print(f"{'raw setup_s':30s} {raw_setup:>14.6g} s (median of wall-clock seconds, not a metric)")
    print(f"iterations: {len(records)} ({len(untraced_walls)} untraced), {len(setups)} set-ups alone; medians over these")
    print(f"fail_share {failed}/{attempted} operations")
    print("untraced wall_s per iteration: " + " ".join(f"{w:.3f}" for w in untraced_walls))
    print("raw wall_s per iteration: " + " ".join(f"{r['raw']['wall_s']:.3f}" for r in untraced))
    for p in problems[:20]:
        print(f"FAILED {p}")
    correct = failed == 0 and len(ok) == len(records)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def layer_summary(records: list[dict], units: dict) -> tuple[dict, str]:
    """Per-layer metrics of a traced run, and a problem message when the
    counters did not repeat exactly between traced iterations."""
    traced = [r for r in records if r.get("traced")]
    untraced = [r for r in records if not r.get("traced")]
    values = {}
    for name in traced[0]["layers"] if traced else ():
        values[name] = median([r["layers"][name] for r in traced])
    counters = traced[0]["counters"] if traced else {}
    differing = sorted(n for r in traced[1:] for n in counters if r["counters"][n] != counters[n])
    values.update(counters)
    traced_wall = median([r["e2e"]["wall_s"] for r in traced])
    untraced_wall = median([r["e2e"]["wall_s"] for r in untraced])
    values["command.wall_s"] = traced_wall
    values["trace.overhead_share"] = traced_wall / untraced_wall - 1 if untraced_wall else 0.0
    values["verify.exact_label"] = records[0]["verify_exact_label"] if records else 0
    values["manifest.bytes"] = records[0]["manifest_bytes"] if records else 0
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()}
    if differing:
        return metrics, f"counters differ between traced iterations: {', '.join(sorted(set(differing)))}"
    print(f"counters repeat exactly across {len(traced)} traced iterations")
    return metrics, ""


if __name__ == "__main__":
    sys.exit(main())
