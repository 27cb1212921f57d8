"""Construction of generalized-solution sequences: dense point streams,
Taylor polynomials with prescribed jets, disjoint bump gluing, and the
staged sequences whose error terms vanish to growing order at the points
used.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

from .expr import Bump, Const, Expr, Var, evaluate_float, spow, sprod, ssum
from .frozen import Frozen
from .jets import Jet, PdeOperator, prolong
from .multiindex import MultiIndex, multi_indices, zero_index
from .parser import Context
from .printer import point_text
from .ranges import JetSolveResult, solve_jets_triangular
from .taylor import jet_coefficients, series

Point = tuple[Fraction, ...]
Box = tuple[tuple[Fraction, Fraction], ...]


# ---------------------------------------------------------------------------
# dense point enumeration

class DensePointStream(Frozen):
    """Deterministic stream of distinct rational points, dense in the box.

    dyadic: per level d, all points with every coordinate an odd multiple
    of 2^-d across the interval, lexicographic within the level.
    diagonal: per-axis enumeration of all reduced fractions in (0, 1)
    ordered by denominator, combined by diagonal sweep over index sums.
    """

    def __init__(self, box: Box, scheme: str = "dyadic"):
        if scheme not in ("dyadic", "diagonal"):
            raise ValueError(f"unknown scheme {scheme!r}")
        if not box:
            raise ValueError("empty box")
        for lo, hi in box:
            if not lo < hi:
                raise ValueError("degenerate box interval")
        self.__dict__.update(box=box, scheme=scheme)

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
                f"point {point_text(p)}: dimension {len(p)}, box dimension {len(box)}"
            )
        if not all(lo < c < hi for c, (lo, hi) in zip(p, box)):
            raise ValueError(f"point {point_text(p)} not strictly inside the box")
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

class AssembledFunction(Frozen):
    """Finite sum of bump * polynomial pieces with disjoint supports."""

    def __init__(self, context: Context, pieces: tuple[tuple[Bump, Expr], ...]):
        self.__dict__.update(context=context, pieces=pieces)

    def expression(self) -> Expr:
        return self._expression

    @cached_property
    def _expression(self) -> Expr:
        """The glued sum, built on first use and kept."""
        return ssum([sprod([bump, poly]) for bump, poly in self.pieces])

    def value(self, point: Sequence) -> float:
        assignment = {
            v: x for v, x in zip(self.context.space_vars(), point)
        }
        return evaluate_float(self.expression(), assignment)


class DiscreteSolve(Frozen):
    """Result of solving on a finite point set: the jet at each point and
    the bumps centred on the points, both in point order.  The glued
    functions, one per unknown, are derived from them when first read,
    with the polynomials of `polynomials`."""

    def __init__(
        self,
        jets: dict[Point, Jet],
        bumps: tuple[Bump, ...],
        level: int,
        polynomials: TaylorPolynomials,
    ):
        self.__dict__.update(jets=jets, bumps=bumps, level=level, polynomials=polynomials)

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

class SolutionSequence(Frozen):
    """The staged sequence: stage nu solves on the points z_0..z_nu at
    prolongation level l_nu."""

    def __init__(
        self,
        operator: PdeOperator,
        points: tuple[Point, ...],
        orders: tuple[int, ...],
        stages: tuple[DiscreteSolve, ...],
    ):
        if len(points) != len(orders) or len(points) != len(stages):
            raise ValueError("points, orders and stages must align")
        if any(b < a for a, b in zip(orders, orders[1:])):
            raise ValueError("order schedule must be non-decreasing")
        self.__dict__.update(operator=operator, points=points, orders=orders, stages=stages)

    @property
    def stage_count(self) -> int:
        return len(self.stages)

    @property
    def exact(self) -> bool:
        return all(s.exact for s in self.stages)

    def stage_expressions(self, nu: int) -> list[Expr]:
        return [f.expression() for f in self.stages[nu].functions]


class ConstructionError(Exception):
    """Stage `stage` could not solve its jet at `point`: `result` is that
    level's solve, and `partial` the sequence of the stages before it."""

    def __init__(self, stage: int, point: Point, result: JetSolveResult, partial: SolutionSequence):
        self.stage = stage
        self.point = point
        self.result = result
        self.partial = partial
        super().__init__(
            f"stage {stage} failed: {result.status} at point {point_text(point)}: "
            f"residual floor {result.residual:.3g} {result.detail}"
        )


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
                partial = SolutionSequence(
                    op, tuple(pts[:nu]), tuple(orders[:nu]),
                    glue(op, pts[:nu], stage_jets, orders[:nu]),
                )
                raise ConstructionError(nu, a, res, partial)
            jets[a] = res.jet
        stage_jets.append(jets)
    return SolutionSequence(
        op, tuple(pts), tuple(orders), glue(op, pts, stage_jets, orders)
    )
