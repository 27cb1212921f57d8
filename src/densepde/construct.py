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

from .expr import Bump, Const, Expr, Var, spow, sprod, ssum
from .frozen import Frozen
from .jets import Jet, PdeOperator, Point, prolong
from .multiindex import MultiIndex, multi_indices, zero_index
from .parser import Context
from .printer import point_text
from .ranges import JetSolveResult, solve_jets_triangular
from .taylor import jet_coefficients, series

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
        d = self.__dict__
        d["box"] = box
        d["scheme"] = scheme

    def points(self) -> Iterator[tuple[Fraction, ...]]:
        """The stream, as plain tuples.  Each unit coordinate is mapped
        into the box once per axis: one list of coordinates per axis and
        dyadic level, or per axis for the diagonal sweep."""
        box, n = self.box, len(self.box)
        if self.scheme == "dyadic":
            for d in itertools.count(1):
                denom = 1 << d
                odds = [Fraction(i, denom) for i in range(1, denom, 2)]
                yield from itertools.product(
                    *([lo + (hi - lo) * t for t in odds] for lo, hi in box)
                )
        else:
            unit = _reduced_fractions()
            axes: list[list[Fraction]] = [[] for _ in box]
            for total in itertools.count(0):
                t = next(unit)  # the sweep at `total` reads indices <= total
                for axis, (lo, hi) in zip(axes, box):
                    axis.append(lo + (hi - lo) * t)
                for combo in _compositions(total, n):
                    yield tuple(axis[i] for axis, i in zip(axes, combo))

    def prefix(self, count: int) -> list[tuple[Fraction, ...]]:
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
    points: Sequence[Sequence[Fraction]],
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
    points: Sequence[Sequence[Fraction]],
    box: Box,
    context: Context,
) -> list[tuple[Bump, ...]]:
    """Entry nu: the bumps make_bumps gives for points[:nu + 1], from one
    pass.  Each pair's half distance is computed once, when the later
    point joins; every point keeps the running minimum of its boundary
    distance and its half distances to the points joined so far, and its
    bump is rebuilt only when that minimum shrinks.

    The centres are the points as _checked_points gives them.  Each
    pair's squared distance is formed in integers, from the points'
    numerators over their own common denominators (_integral), and
    _sqrt_lower gets it as the reduced Fraction that Fraction arithmetic
    on the coordinates gives."""
    pts = _checked_points(points, box)
    integral = [_integral(p) for p in pts]
    limits: list[Fraction] = []
    bumps: list[Bump] = []
    out = []
    for nu, a in enumerate(pts):
        limit = min(min(c - lo, hi - c) for c, (lo, hi) in zip(a, box))
        xs, da = integral[nu]
        for i, (ys, db) in enumerate(integral[:nu]):
            d2 = Fraction(_cross_distance(xs, db, ys, da), (da * db) ** 2)
            half = _sqrt_lower(d2) / 2
            limit = min(limit, half)
            if half < limits[i]:
                limits[i] = half
                bumps[i] = _bump(context, pts[i], half)
        limits.append(limit)
        bumps.append(_bump(context, a, limit))
        out.append(tuple(bumps))
    return out


def _checked_points(points: Sequence[Sequence[Fraction]], box: Box) -> list[Point]:
    """The points as Points, a Point given kept as it is; ValueError
    unless they are distinct, of the box's dimension and strictly inside
    it."""
    pts = [p if isinstance(p, Point) else Point(map(Fraction, p)) for p in points]
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate points")
    for p in pts:
        if len(p) != len(box):
            raise ValueError(
                f"point {point_text(p)}: dimension {len(p)}, box dimension {len(box)}"
            )
        if not all(lo < c < hi for c, (lo, hi) in zip(p, box)):
            raise ValueError(f"point {point_text(p)} not strictly inside the box")
    return pts


def _integral(point: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """(numerators, d): the point's coordinates as integer numerators over
    d, the least common multiple of their own denominators."""
    d = math.lcm(*(c.denominator for c in point))
    return tuple(c.numerator * (d // c.denominator) for c in point), d


def _cross_distance(xs: tuple[int, ...], dy: int, ys: tuple[int, ...], dx: int) -> int:
    """The squared distance of the points xs / dx and ys / dy, times
    (dx * dy)^2: sum((x * dy - y * dx)^2), by cross-multiplication."""
    return sum((x * dy - y * dx) ** 2 for x, y in zip(xs, ys))


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
    as the point keeps the same Jet object: the stages of a sequence share
    one, and its stages of one level share each point's Jet, so reading
    their glued functions in stage order expands each (point, level)
    once.  A point whose Jet object changes gets a new polynomial."""

    def __init__(self, context: Context):
        self.context = context
        self._built: dict[Point, tuple[Jet, list[Expr]]] = {}

    def __call__(self, a: Point, jet: Jet) -> list[Expr]:
        hit = self._built.get(a)
        if hit is None or hit[0] is not jet:
            hit = (jet, taylor_from_jet(self.context, a, jet))
            self._built[a] = hit
        return hit[1]


class BumpScan:
    """Which bump of a stage holds a point, decided exactly, for the stages
    of one sequence.  It serves only the bumps of bump_prefixes: stage
    nu's bumps are centred on points[:nu + 1], in point order, so bump j
    of every stage has the same centre c_j, and r_out_j <= d_jk / 4 for
    every other centre c_k of the stage (SHRINK = 1/2 of at most half the
    distance).  A point z in bump j's open support then has
    d(z, c_k) >= d_jk - d(z, c_j) > 3 d_jk / 4 > d(z, c_j): c_j is its
    strictly nearest centre.  So the scan keeps, for each point it is
    asked about, a nearest centre of every prefix, one comparison per
    centre as the prefix grows, and tests only that bump.  Where two
    centres tie for nearest, no bump holds the point, and the test of
    either bump says so.

    Distances are compared in integers: the point and each centre are
    integer numerators over their own denominators (_integral), and
    d(z, c_j)^2 = S_j / (dz * d_j)^2 with the integer S_j of
    _cross_distance, so comparisons cross-multiply.  At most POINTS points
    keep their nearest centres; a point past that displaces the one that
    came first, so a large sampling grid does not leave the sequence's own
    points without theirs."""

    POINTS = 1024

    def __init__(self):
        self._centres: list[tuple[tuple[int, ...], int]] = []
        self._nearest: dict[Sequence, _Nearest] = {}

    def __call__(self, point: Sequence[Fraction], bumps: Sequence[Bump]) -> Bump | None:
        """The bump whose open support holds the point; None when no
        support does."""
        if not bumps:
            return None
        nearest = self._nearest.get(point)
        if nearest is None:
            nearest = self._nearest[point] = _Nearest(point)
            if len(self._nearest) > self.POINTS:
                del self._nearest[next(iter(self._nearest))]
        centres = self._centres
        while len(centres) < len(bumps):
            centres.append(_integral(bumps[len(centres)].center))
        j = nearest.among(centres, len(bumps))
        # d^2 = S_j / (dz * d_j)^2 against r_out^2
        bump, r = bumps[j], bumps[j].r_out
        held = nearest.distances[j] * r.denominator ** 2 < (
            r.numerator * nearest.scale * centres[j][1]
        ) ** 2
        return bump if held else None


class _Nearest:
    """One point's integer squared distances S_j to the centres (see
    BumpScan) and, per prefix length m, the index of its nearest centre
    among the first m, the first of them on a tie."""

    __slots__ = ("numerators", "scale", "distances", "prefixes")

    def __init__(self, point: Sequence[Fraction]):
        self.numerators, self.scale = _integral(point)
        self.distances: list[int] = []
        self.prefixes: list[int] = []

    def among(self, centres: list[tuple[tuple[int, ...], int]], m: int) -> int:
        """The nearest of the first m centres."""
        distances, prefixes = self.distances, self.prefixes
        while len(prefixes) < m:
            k = len(prefixes)
            cs, dc = centres[k]
            distances.append(_cross_distance(self.numerators, dc, cs, self.scale))
            b = prefixes[-1] if k else k
            # S_k / d_k^2 < S_b / d_b^2, the common dz^2 cancelled
            if distances[k] * centres[b][1] ** 2 < distances[b] * dc ** 2:
                b = k
            prefixes.append(b)
        return prefixes[m - 1]


# ---------------------------------------------------------------------------
# stages

class DiscreteSolve(Frozen):
    """Result of solving on a finite point set: the jet at each point and
    the bumps centred on the points, both in point order.  The glued
    functions, one Expr per unknown, sum bump * Taylor polynomial over the
    points; their supports are disjoint, so near any point at most one
    piece decides them, and `piece` is the one place that finds it.  The
    glued trees are built when first read, with the polynomials of
    `polynomials`, as the reference for the pieces; `scan` finds the bump
    that holds a point.  The stages of a sequence share both
    (SolutionSequence.stages)."""

    def __init__(
        self,
        jets: dict[Point, Jet],
        bumps: tuple[Bump, ...],
        polynomials: TaylorPolynomials,
        scan: BumpScan,
    ):
        d = self.__dict__
        d["jets"] = jets
        d["bumps"] = bumps
        d["polynomials"] = polynomials
        d["scan"] = scan

    @cached_property
    def exact(self) -> bool:
        return all(j.exact for j in self.jets.values())

    @cached_property
    def functions(self) -> tuple[Expr, ...]:
        polys = [self.polynomials(b.center, self.jets[b.center]) for b in self.bumps]
        return tuple(
            ssum([sprod([bump, poly[unknown]]) for bump, poly in zip(self.bumps, polys)])
            for unknown in range(self.polynomials.context.k)
        )

    def piece(self, point: Sequence[Fraction]) -> tuple[Jet, Bump | None] | None:
        """The bump * polynomial piece that decides the glued functions
        near the point, as (the jet at its centre, its bump).  At one of
        the stage's own points the bump is 1 to every order, so the piece
        is (that point's jet, None).  Elsewhere it is the bump whose open
        support holds the point, with the jet at its centre; None when no
        support does, where the functions vanish near the point."""
        jet = self.jets.get(point)
        if jet is not None:
            return jet, None
        bump = self.scan(point, self.bumps)
        return None if bump is None else (self.jets[bump.center], bump)

    def component_series(
        self, point: Point, order: int, mode: str = "auto"
    ) -> list[dict[MultiIndex, Fraction | float]]:
        """Per unknown, taylor.series of the glued function at the point,
        read off its piece: at one of the stage's own points c_p is the
        jet's D^p u / p! (|p| <= order), a Fraction unless mode is "float";
        elsewhere the series of the bump * polynomial piece, or empty
        where no piece holds the point."""
        context = self.polynomials.context
        piece = self.piece(point)
        if piece is None:
            return [{} for _ in range(context.k)]
        jet, bump = piece
        if bump is None:
            return [
                {p: c for p, c in coefficients.items() if c and p.order <= order}
                for coefficients in jet_coefficients(jet.values, context.k, mode != "float")
            ]
        return [
            series(sprod([bump, poly]), point, order, mode)
            for poly in self.polynomials(bump.center, jet)
        ]


# ---------------------------------------------------------------------------
# staged sequences

class SolutionSequence(Frozen):
    """The staged sequence: stage nu solves on the points z_0..z_nu at
    prolongation level l_nu = orders[nu], and jets[nu] holds its jet at
    each of them, {Point: Jet}.  That is all a sequence is: the bumps
    follow from the points, and the stages are glued from both when
    first read."""

    def __init__(
        self,
        operator: PdeOperator,
        points: Sequence[Point],
        orders: Sequence[int],
        jets: Sequence[dict[Point, Jet]],
    ):
        if not len(points) == len(orders) == len(jets):
            raise ValueError("points, orders and jets must align")
        validate_schedule(orders)
        d = self.__dict__
        d["operator"] = operator
        d["points"] = tuple(_checked_points(points, operator.domain))
        d["orders"] = tuple(orders)
        d["jets"] = tuple(jets)

    @property
    def stage_count(self) -> int:
        return len(self.points)

    @cached_property
    def exact(self) -> bool:
        return all(j.exact for jets in self.jets for j in jets.values())

    @cached_property
    def stages(self) -> tuple[DiscreteSolve, ...]:
        """Stage nu glues the jets jets[nu] at points[:nu + 1] with the
        bumps of that prefix.  The stages share one TaylorPolynomials and
        one BumpScan, and build no polynomial until their functions are
        read."""
        op = self.operator
        polynomials, scan = TaylorPolynomials(op.context), BumpScan()
        prefixes = bump_prefixes(self.points, op.domain, op.context)
        return tuple(
            DiscreteSolve(jets, bumps, polynomials, scan)
            for jets, bumps in zip(self.jets, prefixes)
        )


class ConstructionError(Exception):
    """Stage `stage` could not solve its jet at `point`: `result` is that
    level's solve, and `partial` the sequence of the stages before it."""

    def __init__(self, stage: int, point: Point, result: JetSolveResult, partial: SolutionSequence):
        self.stage = stage
        self.point = point
        self.result = result
        self.partial = partial
        # a failed residual check keeps its solved jet: its residual is that
        # jet's, which the detail gives, not a least-squares floor
        reason = result.detail if result.jet is not None else (
            f"residual floor {result.residual:.3g} {result.detail}"
        )
        super().__init__(
            f"stage {stage} failed: {result.status} at point {point_text(point)}: {reason}"
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
    l_nu (the triangular solve reports every level).  Each point is held
    as one Point, which every stage's jets, bumps and scan share."""
    pts = [Point(map(Fraction, p)) for p in points]
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
                partial = SolutionSequence(op, pts[:nu], orders[:nu], stage_jets)
                raise ConstructionError(nu, a, res, partial)
            jets[a] = res.jet
        stage_jets.append(jets)
    return SolutionSequence(op, pts, orders, stage_jets)
