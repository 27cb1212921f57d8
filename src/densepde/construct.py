"""Construction of generalized-solution sequences: dense point streams,
Taylor polynomials with prescribed jets, disjoint bump gluing, and the
staged sequences whose error terms vanish to growing order at the points
used.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

from .expr import (
    Bump,
    Const,
    Expr,
    Var,
    evaluate_float,
    simplify,
    spow,
    sprod,
    ssum,
    ONE,
    MINUS_ONE,
)
from .jets import Jet, PdeOperator, apply_operator, prolong
from .multiindex import MultiIndex, multi_indices, zero_index
from .parser import Context
from .ranges import JetSolveResult, solve_jets_triangular
from .taylor import jet_coefficients, series

Point = tuple[Fraction, ...]
Box = tuple[tuple[Fraction, Fraction], ...]


# ---------------------------------------------------------------------------
# dense point enumeration

@dataclass(frozen=True)
class DensePointStream:
    """Deterministic stream of distinct rational points, dense in the box.

    dyadic: per level d, all points with every coordinate an odd multiple
    of 2^-d across the interval, lexicographic within the level.
    diagonal: per-axis enumeration of all reduced fractions in (0, 1)
    ordered by denominator, combined by diagonal sweep over index sums.
    """

    box: Box
    scheme: str = "dyadic"

    def __post_init__(self):
        if self.scheme not in ("dyadic", "diagonal"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not self.box:
            raise ValueError("empty box")
        for lo, hi in self.box:
            if not lo < hi:
                raise ValueError("degenerate box interval")

    def _unit_points(self) -> Iterator[tuple[Fraction, ...]]:
        n = len(self.box)
        if self.scheme == "dyadic":
            for d in itertools.count(1):
                denom = 1 << d
                odds = [Fraction(i, denom) for i in range(1, denom, 2)]
                for combo in itertools.product(odds, repeat=n):
                    yield combo
        else:
            axis = _reduced_fractions()
            cache: list[Fraction] = []

            def at(i: int) -> Fraction:
                while len(cache) <= i:
                    cache.append(next(axis))
                return cache[i]

            for total in itertools.count(0):
                for combo in _compositions(total, n):
                    yield tuple(at(i) for i in combo)

    def points(self) -> Iterator[Point]:
        for unit in self._unit_points():
            yield tuple(
                lo + (hi - lo) * t for t, (lo, hi) in zip(unit, self.box)
            )

    def prefix(self, count: int) -> list[Point]:
        if count < 1:
            raise ValueError("count must be >= 1")
        return list(itertools.islice(self.points(), count))


def _reduced_fractions() -> Iterator[Fraction]:
    """1/2, 1/3, 2/3, 1/4, 3/4, 1/5, ... all reduced fractions in (0,1)."""
    for q in itertools.count(2):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                yield Fraction(p, q)


def _compositions(total: int, n: int) -> Iterator[tuple[int, ...]]:
    if n == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, n - 1):
            yield (head,) + rest


# ---------------------------------------------------------------------------
# bump functions

def _sqrt_lower(f: Fraction) -> Fraction:
    """Exact rational lower bound for sqrt(f), tight to about 2^-32."""
    if f < 0:
        raise ValueError("negative radicand")
    scale = 1 << 32
    return Fraction(math.isqrt(f.numerator * f.denominator * scale * scale),
                    f.denominator * scale)


SHRINK = Fraction(1, 2)


def make_bumps(
    points: Sequence[Point],
    box: Box,
    context: Context,
) -> list[Bump]:
    """Bump nodes (expr.Bump, in the context's space variables) with
    pairwise disjoint supports inside the box.

    r_out = SHRINK * min(half the distance to the nearest other point,
    distance to the box boundary); r_in = r_out / 2.
    """
    prefixes = bump_prefixes(points, box, context)
    return list(prefixes[-1]) if prefixes else []


def bump_prefixes(
    points: Sequence[Point],
    box: Box,
    context: Context,
) -> list[tuple[Bump, ...]]:
    """Entry nu: the bumps make_bumps gives for points[:nu + 1], from one
    pass.  Each pair's half distance is computed once, when the later
    point joins; every point keeps the running minimum of its boundary
    distance and its half distances to the points joined so far, and its
    bump is rebuilt only when that minimum shrinks."""
    pts = [tuple(Fraction(c) for c in p) for p in points]
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate points")
    for p in pts:
        if len(p) != len(box):
            raise ValueError(
                f"point {p}: dimension {len(p)}, box dimension {len(box)}"
            )
        if not all(lo < c < hi for c, (lo, hi) in zip(p, box)):
            raise ValueError(f"point {p} not strictly inside the box")
    limits: list[Fraction] = []
    bumps: list[Bump] = []
    out = []
    for nu, a in enumerate(pts):
        limit = min(min(c - lo, hi - c) for c, (lo, hi) in zip(a, box))
        for i, b in enumerate(pts[:nu]):
            half = _sqrt_lower(sum((ca - cb) ** 2 for ca, cb in zip(a, b))) / 2
            limit = min(limit, half)
            if half < limits[i]:
                limits[i] = half
                bumps[i] = _bump(context, b, half)
        limits.append(limit)
        bumps.append(_bump(context, a, limit))
        out.append(tuple(bumps))
    return out


def _bump(context: Context, center: Point, limit: Fraction) -> Bump:
    r_out = SHRINK * limit
    return Bump(center, r_out / 2, r_out, context.space_vars(), zero_index(context.n))


# ---------------------------------------------------------------------------
# Taylor polynomials from jets

def taylor_from_jet(context: Context, a: Point, jet: Jet) -> list[Expr]:
    """Per unknown, the polynomial with D^p P(a) = jet value at (u, p).
    Every monomial shares one node x_i - a_i per axis."""
    shifted = [ssum([Var(v), Const(-c)]) for v, c in zip(context.space_vars(), a)]
    out = []
    for coefficients in jet_coefficients(jet.values, context.k, exact=True):
        terms = []
        for p in multi_indices(context.n, jet.order):
            coeff = coefficients[p]
            if coeff == 0:
                continue
            monomial = [Const(coeff)]
            for base, count in zip(shifted, p.entries):
                if count:
                    monomial.append(spow(base, count))
            terms.append(sprod(monomial))
        out.append(ssum(terms))
    return out


class TaylorPolynomials:
    """The Taylor polynomial of each point's jet, built once for as long
    as the point keeps an equal jet (same order, same values): the stages
    of a sequence share one, so reading their glued functions in stage
    order expands each (point, jet) once.  A point whose jet changes gets
    a new polynomial."""

    def __init__(self, context: Context):
        self.context = context
        self._built: dict[Point, tuple[Jet, list[Expr]]] = {}

    def __call__(self, a: Point, jet: Jet) -> list[Expr]:
        hit = self._built.get(a)
        if hit is None or hit[0] != jet:
            hit = (jet, taylor_from_jet(self.context, a, jet))
            self._built[a] = hit
        return hit[1]


# ---------------------------------------------------------------------------
# assembled functions

@dataclass(frozen=True)
class AssembledFunction:
    """Finite sum of bump * polynomial pieces with disjoint supports,
    plus an optional global background term (bracket interpolation)."""

    context: Context
    pieces: tuple[tuple[Bump, Expr], ...]
    background: Expr | None = None

    def expression(self) -> Expr:
        return self._expression

    @cached_property
    def _expression(self) -> Expr:
        """The glued sum, built on first use and kept."""
        terms = [sprod([bump, poly]) for bump, poly in self.pieces]
        if self.background is not None:
            terms.append(self.background)
        return ssum(terms)

    def value(self, point: Sequence) -> float:
        assignment = {
            v: x for v, x in zip(self.context.space_vars(), point)
        }
        return evaluate_float(self.expression(), assignment)


class SolveFailure(Exception):
    def __init__(self, point: Point, result: JetSolveResult):
        self.point = point
        self.result = result
        super().__init__(
            f"{result.status} at point ({', '.join(str(c) for c in point)}): "
            f"residual floor {result.residual:.3g} {result.detail}"
        )


@dataclass(frozen=True)
class DiscreteSolve:
    """Result of solving on a finite point set: the jet at each point and
    the bumps centred on the points, both in point order.  The glued
    functions, one per unknown, are derived from them when first read,
    with the polynomials of `polynomials`."""

    jets: dict[Point, Jet]
    bumps: tuple[Bump, ...]
    level: int
    polynomials: TaylorPolynomials = field(repr=False, compare=False)

    @property
    def exact(self) -> bool:
        return all(j.exact for j in self.jets.values())

    @cached_property
    def functions(self) -> tuple[AssembledFunction, ...]:
        context = self.polynomials.context
        polys = [self.polynomials(b.center, self.jets[b.center]) for b in self.bumps]
        return tuple(
            AssembledFunction(
                context, tuple((bump, poly[unknown]) for bump, poly in zip(self.bumps, polys))
            )
            for unknown in range(context.k)
        )

    def component_series(
        self, point: Point, order: int, mode: str = "auto"
    ) -> list[dict[MultiIndex, Fraction | float]]:
        """Per unknown, taylor.series of the glued function at the point,
        read off the jets and bumps.  The supports are disjoint, so at most
        one holds the point; where none does, every series is empty.  At
        the bump's own centre the bump is 1 to every order, and c_p is the
        jet's D^p u / p! (|p| <= order), a Fraction unless mode is "float".
        Elsewhere in the support it is the series of that one bump *
        polynomial piece."""
        context = self.polynomials.context
        for bump in self.bumps:
            t = sum((x - c) ** 2 for x, c in zip(point, bump.center))
            if t < bump.r_out ** 2:
                break
        else:
            return [{} for _ in range(context.k)]
        jet = self.jets[bump.center]
        if t:  # off the centre: a later point of the sequence
            return [
                series(sprod([bump, poly]), point, order, mode)
                for poly in self.polynomials(bump.center, jet)
            ]
        return [
            {p: c for p, c in coefficients.items() if c and p.order <= order}
            for coefficients in jet_coefficients(jet.values, context.k, mode != "float")
        ]


def glue(
    op: PdeOperator,
    points: Sequence[Point],
    stage_jets: Sequence[dict[Point, Jet]],
    orders: Sequence[int],
) -> tuple[DiscreteSolve, ...]:
    """The stages of a sequence: stage nu glues the jets stage_jets[nu] at
    points[:nu + 1], solved at level orders[nu], with the bumps of that
    prefix.  The stages share one TaylorPolynomials and build no
    polynomial until their functions are read."""
    polynomials = TaylorPolynomials(op.context)
    prefixes = bump_prefixes(points, op.domain, op.context)
    return tuple(
        DiscreteSolve(jets, bumps, level, polynomials)
        for jets, bumps, level in zip(stage_jets, prefixes, orders)
    )


# ---------------------------------------------------------------------------
# staged sequences

@dataclass(frozen=True)
class SolutionSequence:
    """The staged sequence: stage nu solves on the points z_0..z_nu at
    prolongation level l_nu."""

    operator: PdeOperator
    points: tuple[Point, ...]
    orders: tuple[int, ...]
    stages: tuple[DiscreteSolve, ...]

    def __post_init__(self):
        if len(self.points) != len(self.orders) or len(self.points) != len(self.stages):
            raise ValueError("points, orders and stages must align")
        if any(b < a for a, b in zip(self.orders, self.orders[1:])):
            raise ValueError("order schedule must be non-decreasing")

    @property
    def stage_count(self) -> int:
        return len(self.stages)

    @property
    def exact(self) -> bool:
        return all(s.exact for s in self.stages)

    def stage_expressions(self, nu: int) -> list[Expr]:
        return [f.expression() for f in self.stages[nu].functions]


class ConstructionError(Exception):
    def __init__(self, stage: int, cause: SolveFailure, partial: SolutionSequence):
        self.stage = stage
        self.cause = cause
        self.partial = partial
        super().__init__(f"stage {stage} failed: {cause}")


def validate_schedule(orders: Sequence[int]):
    orders = list(orders)
    if any(l < 0 for l in orders):
        raise ValueError("levels must be >= 0")
    if any(b < a for a, b in zip(orders, orders[1:])):
        raise ValueError("order schedule must be non-decreasing")
    return orders


def construct_sequence(
    op: PdeOperator,
    points: Sequence[Point],
    orders: Sequence[int],
    tol: float = 1e-12,
    seed=None,
) -> SolutionSequence:
    """Build the staged sequence: stage nu uses points z_0..z_nu at level
    l_nu.  A failing stage raises ConstructionError carrying the partial
    sequence built so far.

    Each point is solved once, when a stage first uses it, at the last
    stage's level; stage nu reads each of its points' results at level
    l_nu (the triangular solve reports every level), and glue builds the
    stages from those jets."""
    pts = [tuple(Fraction(c) for c in p) for p in points]
    orders = validate_schedule(orders)
    if len(pts) != len(orders):
        raise ValueError("need one level per stage")
    top = prolong(op, orders[-1]) if orders else None
    solves: dict[Point, JetSolveResult] = {}
    stage_jets: list[dict[Point, Jet]] = []
    for nu, level in enumerate(orders):
        jets: dict[Point, Jet] = {}
        for a in pts[: nu + 1]:
            if a not in solves:
                solves[a] = solve_jets_triangular(top, a, seed=seed, tol=tol)
            res = solves[a].levels[level]
            if not res.solved:
                failure = SolveFailure(a, res)
                partial = SolutionSequence(
                    op, tuple(pts[:nu]), tuple(orders[:nu]),
                    glue(op, pts[:nu], stage_jets, orders[:nu]),
                )
                raise ConstructionError(nu, failure, partial) from failure
            jets[a] = res.jet
        stage_jets.append(jets)
    return SolutionSequence(
        op, tuple(pts), tuple(orders), glue(op, pts, stage_jets, orders)
    )


# ---------------------------------------------------------------------------
# bracket interpolation (convex combination of a sub/super solution pair)

@dataclass(frozen=True)
class BracketResult:
    function: AssembledFunction
    lambdas: dict[Point, float]
    residuals: dict[Point, float]


def bracket_interpolate(
    op: PdeOperator,
    f: Expr,
    u_minus: Expr,
    u_plus: Expr,
    points: Sequence[Point],
    ball: tuple[Point, Fraction] | None = None,
    tol: float = 1e-12,
) -> BracketResult:
    """Interpolate between a sub- and a supersolution so the equation
    holds at each given point, glued by a partition of unity that is 1
    near each point and sums to 1 everywhere.

    Requires T u_minus <= f <= T u_plus at every point (checked; violation
    is rejected naming the point).
    """
    if op.k != 1 or op.r != 1:
        raise ValueError("bracket interpolation applies to scalar operators")
    pts = [tuple(Fraction(c) for c in p) for p in points]
    if ball is not None:
        center, delta = ball
        for a in pts:
            d2 = sum((ca - cc) ** 2 for ca, cc in zip(a, center))
            if d2 >= Fraction(delta) ** 2:
                raise ValueError(f"point {a} outside the prescribed ball")

    def action(u: Expr, a: Point) -> float:
        return float(apply_operator(op, u, a)[0])

    f_at = {}
    assignment_of = lambda a: {
        v: x for v, x in zip(op.context.space_vars(), a)
    }
    for a in pts:
        f_at[a] = evaluate_float(f, assignment_of(a))
        lo = action(u_minus, a) - f_at[a]
        hi = action(u_plus, a) - f_at[a]
        where = "(" + ", ".join(str(c) for c in a) + ")"
        if lo > 0:
            raise ValueError(
                f"bracket violated at {where}: T u_minus exceeds f ({lo:+.3g})"
            )
        if hi < 0:
            raise ValueError(
                f"bracket violated at {where}: T u_plus below f ({hi:+.3g})"
            )

    lambdas: dict[Point, float] = {}
    residuals: dict[Point, float] = {}
    u_minus = simplify(u_minus)
    u_plus = simplify(u_plus)
    for a in pts:
        lo_l, hi_l = 0.0, 1.0

        def h(lam: float) -> float:
            u_lam = simplify(
                ssum([sprod([Const(Fraction(1 - lam)), u_minus]),
                      sprod([Const(Fraction(lam)), u_plus])])
            )
            return action(u_lam, a) - f_at[a]

        h_lo, h_hi = h(lo_l), h(hi_l)
        lam = 0.5
        for _ in range(200):
            lam = 0.5 * (lo_l + hi_l)
            val = h(lam)
            if abs(val) <= tol:
                break
            if (val < 0) == (h_lo < 0):
                lo_l, h_lo = lam, val
            else:
                hi_l, h_hi = lam, val
        lambdas[a] = lam
        residuals[a] = abs(h(lam))
        if residuals[a] > tol:
            raise ValueError(
                f"bisection stalled at {a}: residual {residuals[a]:.3g}"
            )

    bumps = make_bumps(pts, op.domain, op.context)
    u_of = {}
    for a in pts:
        lam = Fraction(lambdas[a])
        u_of[a] = simplify(
            ssum([sprod([Const(1 - lam), u_minus]), sprod([Const(lam), u_plus])])
        )
    pieces = tuple((bump, u_of[a]) for bump, a in zip(bumps, pts))
    # background: (1 - sum of bumps) * average of the interpolants,
    # so the partition weights are each 1 near their point and sum to 1
    avg = sprod([Const(Fraction(1, len(pts))), ssum(list(u_of.values()))])
    one_minus = ssum([ONE] + [sprod([MINUS_ONE, b]) for b in bumps])
    background = sprod([one_minus, avg])
    function = AssembledFunction(op.context, pieces, background=background)
    return BracketResult(function, lambdas, residuals)
