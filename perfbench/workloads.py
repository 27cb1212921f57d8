"""The four benchmark workloads: their inputs, drawn from a seed, and the
pipeline each one runs through the public densepde API.

Seed 0 gives the canonical inputs.  Any other seed draws the right-hand
side coefficients from a small fixed set of rationals and the points from
the same dyadic levels as the canonical prefix, so rational sizes, and
with them the costs, stay comparable between seeds.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Spec:
    """What one workload runs.  `range_count` points are range-checked up
    to `l_max`; the first `len(schedule)` points are constructed with that
    schedule; `verify_tol` is None when the workload does not verify."""

    name: str
    kind: str  # lewy | poisson | eikonal
    range_count: int
    l_max: int
    schedule: tuple[int, ...]
    verify_tol: float | None


SPECS = {
    s.name: s
    for s in (
        # exact verify of the Lewy system: symbolic differentiate and
        # evaluate_exact inside verify take over 90 % of the time
        Spec("lewy-verify", "lewy", 0, 0, (0, 1, 2, 2), 1e-10),
        # deep exact prolongation: exact_rank dominates range and
        # exact_least_norm construct; no verify, so verify work cannot move it
        Spec("lewy-deep", "lewy", 2, 5, (3, 4, 5), None),
        # the only nonlinear, float path: multistart Newton base solves in
        # range (384 solves), tolerance-mode verify
        Spec("eikonal-float", "eikonal", 128, 2, (1, 1, 2, 2), 1e-9),
        # many stages: N(N+1)/2 = 78 re-solves, 12-piece glued functions,
        # the largest manifest; from stage 11 on the witness scan meets a
        # transition annulus, the known exact-label defect
        Spec("poisson-wide", "poisson", 0, 0, (1,) * 12, 1e-10),
    )
}

# right-hand sides: Lewy f = (c*x, c*y), Poisson 1 + x*y scaled per term,
# eikonal 1 + x^2 scaled per term (positive, so every point is solvable)
SIGNED = tuple(Fraction(t) for t in ("1", "-1", "2", "-2", "1/2", "3/2"))
POSITIVE = tuple(Fraction(t) for t in ("1", "2", "1/2", "3/2"))

DOMAIN = {
    "lewy": ((-1, 1), (-1, 1), (-1, 1)),
    "poisson": ((0, 1), (0, 1)),
    "eikonal": ((-1, 1), (-1, 1)),
}


@dataclass(frozen=True)
class Inputs:
    spec: Spec
    coefficients: tuple[Fraction, Fraction]
    points: tuple[tuple[Fraction, ...], ...]

    @property
    def range_points(self):
        return self.points[: self.spec.range_count]

    @property
    def construct_points(self):
        return self.points[: len(self.spec.schedule)]


def point_count(spec: Spec) -> int:
    return max(spec.range_count, len(spec.schedule))


def pde_text(kind: str, coefficients) -> str | None:
    """Problem text for parse_pde_text; None for the Lewy system, which is
    built by lewy_operator."""
    c0, c1 = (f"({c})" for c in coefficients)
    if kind == "poisson":
        return (
            "dim: 2\nvars: x y\norder: 2\ndomain: (0,1) (0,1)\n"
            f"eq: u_xx + u_yy - {c0} - {c1}*x*y\n"
        )
    if kind == "eikonal":
        return (
            "dim: 2\nvars: x y\norder: 1\ndomain: (-1,1) (-1,1)\n"
            f"eq: u_x^2 + u_y^2 - {c0} - {c1}*x^2\n"
        )
    return None


def dyadic_level(point, box) -> int:
    """The stream level d of a dyadic point: every unit coordinate is an
    odd multiple of 2^-d."""
    return max(
        ((c - lo) / (hi - lo)).denominator.bit_length() - 1
        for c, (lo, hi) in zip(point, box)
    )


def level_points(d: int, box) -> list[tuple[Fraction, ...]]:
    odds = [Fraction(i, 1 << d) for i in range(1, 1 << d, 2)]
    return [
        tuple(lo + (hi - lo) * t for t, (lo, hi) in zip(unit, box))
        for unit in itertools.product(odds, repeat=len(box))
    ]


def draw_inputs(name: str, seed: int, stream_prefix) -> Inputs:
    """Inputs of one workload.  `stream_prefix(box, count)` must return the
    canonical dense points (densepde's DensePointStream prefix)."""
    spec = SPECS[name]
    box = tuple((Fraction(lo), Fraction(hi)) for lo, hi in DOMAIN[spec.kind])
    canonical = stream_prefix(box, point_count(spec))
    if seed == 0:
        return Inputs(spec, (Fraction(1), Fraction(1)), tuple(canonical))
    rng = random.Random(f"{name}:{seed}")
    if spec.kind == "lewy":
        # one scale for both components: unequal ones make the error terms
        # up to a third larger, so costs would not compare between seeds
        scale = rng.choice(SIGNED)
        coefficients = (scale, scale)
    else:
        pool = POSITIVE if spec.kind == "eikonal" else SIGNED
        coefficients = (rng.choice(pool), rng.choice(pool))
    points = []
    for d, group in itertools.groupby(canonical, key=lambda p: dyadic_level(p, box)):
        points.extend(rng.sample(level_points(d, box), len(list(group))))
    return Inputs(spec, coefficients, tuple(points))


def build_operator(dp, inputs: Inputs):
    kind = inputs.spec.kind
    if kind == "lewy":
        a, b = inputs.coefficients
        return dp.lewy_operator(f"({a})*x", f"({b})*y")
    return dp.parse_pde_text(pde_text(kind, inputs.coefficients))


@dataclass
class Outcome:
    """What the pipeline produced, filled in as each step completes."""

    report: object = None
    seq: object = None
    manifest: str | None = None
    loaded: object = None
    result: object = None


def run_pipeline(dp, op, inputs: Inputs, tracer, outcome: Outcome):
    """range -> construct -> manifest dump and load -> verify, each step
    only where the workload runs it, as a user would from the CLI."""
    spec = inputs.spec
    if spec.range_count:
        with tracer.span("range"):
            outcome.report = dp.range_condition_check(op, inputs.range_points, spec.l_max)
    with tracer.span("construct"):
        outcome.seq = dp.construct_sequence(op, inputs.construct_points, spec.schedule)
    with tracer.span("manifest.dump"):
        outcome.manifest = json.dumps(dp.sequence_to_json(outcome.seq), indent=2, sort_keys=True)
    with tracer.span("manifest.load"):
        outcome.loaded = dp.sequence_from_json(json.loads(outcome.manifest))
    if spec.verify_tol is not None:
        with tracer.span("verify"):
            outcome.result = dp.verify_solution(
                outcome.loaded.operator, outcome.loaded, arithmetic="auto", tol=spec.verify_tol
            )
