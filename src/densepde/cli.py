"""Command-line front end.

Subcommands: prolong, range, construct, verify, demo.  Exit codes:
0 success / verification passed, 1 mathematical failure (rank deficiency,
unsolvable point, verification FAIL), 2 usage or input-parsing error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone
from fractions import Fraction

from . import manifest as mf
from .construct import (
    ConstructionError,
    DensePointStream,
    construct_sequence,
)
from .expr import EvaluationError, ExactnessUnavailable
from .jets import load_pde_file, prolong
from .parser import ParseError, parse_rational
from .printer import point_text, to_text
from .ranges import NotLinearError, range_condition_check
from .systems import lewy_operator
from .verify import example_sequence, check_vanishing, verify_solution

USAGE_ERROR = 2
MATH_FAILURE = 1


def _header() -> dict:
    return {"created": datetime.now(timezone.utc).isoformat()}


def tolerance(text: str) -> float:
    """Type of the --tol options: a finite number >= 0."""
    value = float(text)
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number >= 0")
    return value


def non_negative(text: str) -> int:
    """Type of the integer options: a whole number >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a whole number >= 0")
    return value


def _parse_points(text: str, n: int) -> list[tuple[Fraction, ...]]:
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        coords = tuple(parse_rational(c.strip()) for c in chunk.split(","))
        if len(coords) != n:
            raise ValueError(
                f"point '{chunk}' has {len(coords)} coordinates, expected {n}"
            )
        points.append(coords)
    if not points:
        raise ValueError("no points given")
    return points


def _points_for(op, args) -> list[tuple[Fraction, ...]]:
    if args.points:
        return _parse_points(args.points, op.n)
    stream = DensePointStream(op.domain, args.scheme)
    return stream.prefix(args.count)


def _emit(args, name: str, data: dict):
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, name)
        mf.write_json(path, data, header=_header())
        print(f"wrote {path}")
    else:
        print(json.dumps(data, indent=2, sort_keys=True))


def cmd_prolong(args) -> int:
    op = load_pde_file(args.pde)
    sys_ = prolong(op, args.level)
    data = {
        "operator": mf.operator_to_json(op),
        "level": args.level,
        "equations": [
            {"equation": j, "index": str(p), "expr": to_text(e)}
            for j, p, e in sys_.items()
        ],
    }
    _emit(args, "prolonged.json", data)
    return 0


def cmd_range(args) -> int:
    op = load_pde_file(args.pde)
    points = _points_for(op, args)
    if args.arith == "float":
        points = [tuple(float(c) for c in a) for a in points]
    report = range_condition_check(op, points, args.level, tol=args.tol)
    data = report.to_json()
    _emit(args, "range.json", data)
    if not report.all_ok:
        bad = [e for e in report.entries if not e.ok]
        print(
            f"FAIL: {len(bad)} point/level pair(s) unsolvable, first at "
            f"point {point_text(bad[0].point)} level {bad[0].level}: {bad[0].detail}",
            file=sys.stderr,
        )
        return MATH_FAILURE
    print(f"OK: 0 in the range at {len(points)} point(s), levels 0..{args.level}")
    return 0


def cmd_construct(args) -> int:
    if args.resolution and not args.out:
        raise ValueError("--resolution needs --out")
    op = load_pde_file(args.pde)
    points = _points_for(op, args)
    if args.schedule:
        orders = [int(t) for t in args.schedule.split(",")]
    else:
        orders = [args.level] * len(points)
    if len(orders) != len(points):
        raise ValueError(
            f"schedule length {len(orders)} != point count {len(points)}"
        )
    try:
        seq = construct_sequence(op, points, orders, tol=args.tol)
    except ConstructionError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return MATH_FAILURE
    samples = mf.sample_grid(seq, args.resolution) if args.resolution else None
    _emit(args, "sequence.json", mf.sequence_to_json(seq))
    if samples is not None:
        path = os.path.join(args.out, "samples.csv")
        mf.write_atomic(path, samples)
        print(f"wrote {path}")
    print(
        f"constructed {seq.stage_count} stage(s), "
        f"arithmetic {'exact' if seq.exact else 'float'}"
    )
    return 0


def cmd_verify(args) -> int:
    seq = mf.load_sequence(args.manifest)
    result = verify_solution(
        seq.operator, seq, arithmetic=args.arith, tol=args.tol
    )
    if args.out:
        _emit(args, "verification.json", json.loads(result.to_json()))
    if result.passed:
        note = " (degenerate: empty sequence)" if result.degenerate else ""
        print(f"PASS: vanishing condition holds at every stage{note}")
        return 0
    for f in result.failures[:5]:
        print(f"FAIL: {f.describe()}", file=sys.stderr)
    return MATH_FAILURE


def cmd_demo(args) -> int:
    if args.which == "lewy":
        return _demo_lewy(args)
    return _demo_model(args)


def _demo_lewy(args) -> int:
    op = lewy_operator()
    print("The classical unsolvable first-order system on (-1,1)^3:")
    for g in op.equations:
        print("   ", to_text(g), "= 0")
    pts = DensePointStream(op.domain).prefix(2)
    report = range_condition_check(op, pts, 2)
    print(
        f"rank certificates at {len(pts)} dyadic points, levels 0..2: "
        f"{'all solvable (exact)' if report.all_ok else 'FAILED'}"
    )
    if not report.all_ok:
        return MATH_FAILURE
    seq = construct_sequence(op, pts, [1, 2])
    result = verify_solution(op, seq)
    print(
        f"constructed 2 stages; verification: "
        f"{'PASS' if result.passed else 'FAIL'} ({result.arithmetic})"
    )
    if args.out:
        _emit(args, "lewy-sequence.json", mf.sequence_to_json(seq))
    return 0 if result.passed else MATH_FAILURE


def _demo_model(args) -> int:
    points = [Fraction(0), Fraction(1, 2), Fraction(-1, 2)]
    orders = [2, 3, 4]
    seq = example_sequence(points, orders)
    print("Model sequence on the line:")
    for nu, w in enumerate(seq.terms):
        print(f"    w_{nu} =", to_text(w))
    # exponent l gives vanishing of derivatives up to order l - 1
    report = check_vanishing(
        seq, [(c,) for c in points], min(orders) - 1, arithmetic="exact"
    )
    for e in report.entries:
        print(
            f"    at x = {e.point[0]}: witness nu = {e.witness} "
            f"(all later terms vanish to order {e.order})"
        )
    if args.out:
        _emit(args, "model-vanishing.json", json.loads(report.to_json()))
    return 0 if report.holds else MATH_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densepde",
        description="Construct and verify generalized solutions of smooth "
        "nonlinear PDEs with dense singularities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("pde", help="PDE specification file")
        p.add_argument("--out", help="output directory (atomic JSON writes)")

    p = sub.add_parser("prolong", help="print the prolonged system")
    common(p)
    p.add_argument("--level", type=non_negative, default=1)
    p.set_defaults(func=cmd_prolong)

    p = sub.add_parser("range", help="check 0 is in the prolonged range")
    common(p)
    p.add_argument("--tol", type=tolerance, default=1e-12)
    p.add_argument("--level", type=non_negative, default=1, help="max prolongation level")
    p.add_argument("--points", help="semicolon-separated rational points")
    p.add_argument("--scheme", choices=("dyadic", "diagonal"), default="dyadic")
    p.add_argument("--count", type=int, default=4, help="dense points to draw")
    p.add_argument(
        "--arith", choices=("exact", "float"), default="exact",
        help="float downgrades rational points to doubles",
    )
    p.set_defaults(func=cmd_range)

    p = sub.add_parser("construct", help="build a staged solution sequence")
    common(p)
    p.add_argument("--tol", type=tolerance, default=1e-12)
    p.add_argument("--level", type=non_negative, default=1)
    p.add_argument("--schedule", help="comma-separated per-stage levels")
    p.add_argument("--points", help="semicolon-separated rational points")
    p.add_argument("--scheme", choices=("dyadic", "diagonal"), default="dyadic")
    p.add_argument("--count", type=int, default=2, help="dense points to draw")
    p.add_argument(
        "--resolution", type=non_negative, default=0,
        help="also sample on a uniform grid (CSV, needs --out)",
    )
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="re-verify a stored sequence manifest")
    p.add_argument("manifest", help="sequence manifest JSON")
    p.add_argument("--out", help="output directory")
    p.add_argument("--tol", type=tolerance, default=1e-10)
    p.add_argument("--arith", choices=("auto", "exact", "float"), default="auto")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("demo", help="narrative demonstrations")
    p.add_argument("which", choices=("lewy", "model"))
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ParseError, NotLinearError, ValueError, OSError, KeyError,
        ExactnessUnavailable, EvaluationError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
