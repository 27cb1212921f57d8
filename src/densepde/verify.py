"""Verification of generalized solutions: the vanishing condition on
sequences of error terms, and the classical one-dimensional model
sequence.

A sequence (w_nu) satisfies the vanishing condition at a point x for
derivative order l when some witness index nu exists with
D^p w_mu(x) = 0 for every mu >= nu and every |p| <= l.  Checks work on a
finite truncation of the sequence and report the witness found, so a PASS
is exhaustive up to the truncation.  Only a sequence's tail decides, as
in Rosinger's ideals, which are defined by vanishing from some index on:
at each point the one scan (_scan) reads the terms from the last one down
and stops at the first that does not vanish, whose index plus one is the
witness.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Callable, Sequence

from .expr import (
    Const,
    Expr,
    ExactnessUnavailable,
    Var,
    differentiate,
    evaluate_exact,
    evaluate_float,
    jet_variables,
    spow,
    sprod,
    ssum,
    substitute,
)
from .frozen import Frozen, Value
from .jets import PdeOperator, Point
from .multiindex import MultiIndex, multi_indices, zero_index
from .parser import Context
from .printer import point_text
from .taylor import MODES, derivative, jet_bindings, series

DEFAULT_FLOAT_TOL = 1e-10


class FunctionSequence(Frozen):
    """Finite truncation w_0, ..., w_N of a sequence of smooth functions.

    approximate[mu] marks terms whose coefficients came from float
    computations; their "zeros" are only meaningful to a tolerance even
    though the stored coefficients are rational.
    """

    def __init__(
        self,
        context: Context,
        terms: tuple[Expr, ...],
        approximate: tuple[bool, ...] | None = None,
    ):
        for w in terms:
            if jet_variables(w):
                raise ValueError("sequence terms must not contain jet variables")
        if approximate is not None and len(approximate) != len(terms):
            raise ValueError("need one approximate flag per term")
        d = self.__dict__
        d["context"] = context
        d["terms"] = terms
        d["approximate"] = approximate

    @property
    def truncation(self) -> int:
        return len(self.terms) - 1


# ---------------------------------------------------------------------------
# derivative cache

class _DerivativeTable:
    """All D^p of one expression up to a maximal order, computed once each
    by peeling the first nonzero axis."""

    def __init__(self, context: Context, base: Expr):
        self.context = context
        self.cache: dict[MultiIndex, Expr] = {zero_index(context.n): base}

    def get(self, p: MultiIndex) -> Expr:
        if p not in self.cache:
            axis = p.first_nonzero_axis()
            lower = self.get(p.minus_axis(axis))
            self.cache[p] = differentiate(lower, self.context.space(axis))
        return self.cache[p]


# ---------------------------------------------------------------------------
# vanishing reports

class VanishingEntry(Value):
    """A point's witness for one order: None when the last term does not
    vanish there, and whether every value the scan read there was
    exact."""

    _fields = ("point", "order", "witness", "exact")

    def __init__(self, point: Point, order: int, witness: int | None, exact: bool):
        d = self.__dict__
        d["point"] = point
        d["order"] = order
        d["witness"] = witness
        d["exact"] = exact

    @property
    def holds(self) -> bool:
        return self.witness is not None


class VanishingReport(Value):
    _fields = ("truncation", "arithmetic", "tolerance", "entries")

    def __init__(
        self,
        truncation: int,
        arithmetic: str,
        tolerance: float,
        entries: tuple[VanishingEntry, ...],
    ):
        d = self.__dict__
        d["truncation"] = truncation
        d["arithmetic"] = arithmetic
        d["tolerance"] = tolerance
        d["entries"] = entries

    @property
    def holds(self) -> bool:
        return all(e.holds for e in self.entries)

    def to_json(self) -> dict:
        return {
            "truncation": self.truncation,
            "arithmetic": self.arithmetic,
            "tolerance": self.tolerance,
            "entries": [
                {
                    "point": [str(c) for c in e.point],
                    "order": e.order,
                    "witness": e.witness,
                    "exact": e.exact,
                    "verified_range": [
                        e.witness, self.truncation
                    ] if e.witness is not None else None,
                }
                for e in self.entries
            ],
        }


def _scan(
    approximate: Sequence[bool],
    points: Sequence[Point],
    order: int,
    arithmetic: str,
    tol: float,
    term_series: Callable[[int, int, str], dict],
    stage_orders: Sequence[int] | None = None,
) -> tuple[VanishingReport, list]:
    """The one place a sequence is evaluated at points: term_series(mu,
    i, mode) gives the Taylor series of w_mu at z_i up to the order, and
    every D^p w_mu(z_i) = p! c_p (|p| <= order) is read off it.

    At each point the scan reads the terms from the last one down, and
    the witness is the last term with a nonzero D^p, plus one (None when
    that is the last term, 0 when none is).  Without stage_orders every
    entry decides, and the scan stops at the first term with a nonzero
    D^p: the terms below it cannot move the witness.  With them, every
    term mu >= i is read, and its entries |p| <= stage_orders[mu] decide;
    below i the scan stops, as without them, at the first term with a
    nonzero D^p, or before it reads one when a term mu >= i had one.
    Each series is computed in "auto" ("float" when float is asked for
    or the term is flagged approximate); in "exact" mode a deciding entry
    that is not exact raises ExactnessUnavailable.  An entry's exact flag
    covers the values the scan read.  Returns the report and, of the
    deciding evaluations, whether all were exact and the ones not zero,
    (mu, i, p, value) in that order: a scan keeps no record of each
    deciding zero, nor of the other values not zero.

    Consecutive terms whose term_series at z_i is the same series object,
    read in the same mode with the same deciding order, are checked once,
    and the result counts for each of them; verify_solution's returns one
    object for the stages that share the piece holding a point.  The
    scan holds the last series it checked, so its id is not reused while
    compared.
    """
    if arithmetic not in MODES:
        raise ValueError(f"unknown arithmetic {arithmetic!r}")
    truncation = len(approximate) - 1
    modes = ["float" if approx or arithmetic == "float" else "auto" for approx in approximate]
    entries = []
    decided_exact, failing = True, []
    for i, a in enumerate(points):
        indices = multi_indices(len(a), order)
        witness, exact, failed = 0, True, False
        run = None  # (series, mode, deciding order, its check)
        for mu in range(truncation, -1, -1):
            read_all = stage_orders is not None and mu >= i
            if failed and not read_all:
                break
            mode = modes[mu]
            # the deciding order: every |p| without stage_orders, none below i
            limit = order if stage_orders is None else stage_orders[mu] if read_all else -1
            coefficients = term_series(mu, i, mode)
            if run is None or run[0] is not coefficients or run[1:3] != (mode, limit):
                run = (coefficients, mode, limit, _check(
                    coefficients, indices, mode, limit, arithmetic == "exact", tol, mu, i
                ))
            read_exact, limit_exact, nonzero = run[3]
            exact = exact and read_exact
            decided_exact = decided_exact and limit_exact
            if nonzero:
                if not failed:
                    witness = mu + 1 if mu < truncation else None
                    failed = True
                failing.extend((mu, i, p, value) for p, value in nonzero if p.order <= limit)
        entries.append(VanishingEntry(a, order, witness, exact))
    failing.sort(key=lambda f: f[:2])
    label = "float" if arithmetic == "float" or not all(e.exact for e in entries) else "exact"
    return VanishingReport(truncation, label, tol, tuple(entries)), (decided_exact, failing)


def _check(coefficients, indices, mode, limit, exact_only, tol, mu, i):
    """One series' D^p (p in indices): whether all of them, and the ones
    with |p| <= limit, are exact, and the ones not zero, (p, value) in
    order.  With exact_only, a deciding one (|p| <= limit) that is not
    exact raises ExactnessUnavailable unless the mode is "float", which a
    term flagged approximate always is."""
    read_exact = limit_exact = True
    nonzero = []
    for p in indices:
        value = derivative(coefficients, p, exact=mode != "float")
        was_exact = not isinstance(value, float)
        if not was_exact:
            if p.order <= limit:
                if exact_only and mode != "float":
                    raise ExactnessUnavailable(
                        f"D^{p} of term {mu} at point {i} is not exact"
                    )
                limit_exact = False
            read_exact = False
        if value != 0 if was_exact else abs(value) > tol:
            nonzero.append((p, value))
    return read_exact, limit_exact, nonzero


def check_vanishing(
    seq: FunctionSequence,
    points: Sequence[Point],
    order: int,
    arithmetic: str = "auto",
    tol: float = DEFAULT_FLOAT_TOL,
) -> VanishingReport:
    """Vanishing-condition scan over the truncation.

    For each point the witness is the least nu such that all later terms
    have every derivative up to the order equal to zero at the point.  In
    exact arithmetic "zero" is literal; in float arithmetic it means
    within tol in absolute value.  The terms are read from the last one
    down, only until one does not vanish (_scan); an entry's exact flag
    covers those terms, and the report is labelled "exact" only when
    every evaluation read was exact.  A term flagged in seq.approximate
    is read in float.
    """
    pts = [tuple(Fraction(c) for c in p) for p in points]

    def term_series(mu, i, mode):
        return series(seq.terms[mu], pts[i], order, mode)

    approximate = seq.approximate or (False,) * len(seq.terms)
    return _scan(approximate, pts, order, arithmetic, tol, term_series)[0]


# ---------------------------------------------------------------------------
# error sequences of staged solutions

def error_sequence(op: PdeOperator, seq) -> list[FunctionSequence]:
    """One sequence per equation: w_{j,nu} = G_j applied to stage nu.

    Jet variables in G_j are replaced by the matching symbolic derivatives
    of the glued stage functions.  verify_solution does not build
    these; they are the symbolic reference its Taylor path is tested
    against.
    """
    ctx = op.context
    space = ctx.space_vars()
    per_equation: list[list[Expr]] = [[] for _ in op.equations]
    for nu in range(seq.stage_count):
        components = seq.stages[nu].functions
        tables = [_DerivativeTable(ctx, comp) for comp in components]
        for j, g in enumerate(op.equations):
            mapping = {
                v: tables[v.unknown - 1].get(v.index)
                for v in jet_variables(g)
            }
            per_equation[j].append(substitute(g, mapping))
    flags = tuple(not stage.exact for stage in seq.stages)
    return [
        FunctionSequence(ctx, tuple(terms), approximate=flags)
        for terms in per_equation
    ]


def symbolic_series(
    w: Expr, context: Context, point: Point, order: int, mode: str = "auto"
) -> dict[MultiIndex, Fraction | float]:
    """The symbolic reference for taylor.series on an expression in the
    space variables: each D^p w (|p| <= order) is built by differentiate
    and evaluated at the point, exactly when it can be unless mode is
    "float", and D^p w(point) / p! is returned with exact zeros left out.
    Tests compare the Taylor path against it."""
    table = _DerivativeTable(context, w)
    assignment = dict(zip(context.space_vars(), point))
    out: dict[MultiIndex, Fraction | float] = {}
    for p in multi_indices(context.n, order):
        expr, value = table.get(p), None
        if mode != "float":
            try:
                value = evaluate_exact(expr, assignment)
            except ExactnessUnavailable:
                if mode == "exact":
                    raise
        if value is None:
            value = evaluate_float(expr, assignment)
        if value or isinstance(value, float):
            out[p] = value / p.factorial()
    return out


class VerificationFailure(Frozen):
    def __init__(self, equation: int, stage: int, point: Point, index: MultiIndex, value: float):
        d = self.__dict__
        d["equation"] = equation
        d["stage"] = stage
        d["point"] = point
        d["index"] = index
        d["value"] = value

    def describe(self) -> str:
        return (
            f"equation {self.equation}, stage {self.stage}, point "
            f"{point_text(self.point)}, derivative "
            f"{self.index}: value {self.value:.3g}"
        )


class VerificationResult(Frozen):
    """passed: no failures; degenerate: no reports, as for an empty
    sequence, which passes vacuously."""

    def __init__(
        self,
        arithmetic: str,
        tolerance: float,
        reports: tuple[VanishingReport, ...],
        failures: tuple[VerificationFailure, ...],
    ):
        d = self.__dict__
        d["arithmetic"] = arithmetic
        d["tolerance"] = tolerance
        d["reports"] = reports
        d["failures"] = failures

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def degenerate(self) -> bool:
        return not self.reports

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "degenerate": self.degenerate,
            "arithmetic": self.arithmetic,
            "tolerance": self.tolerance,
            "failures": [f.describe() for f in self.failures],
            "reports": [r.to_json() for r in self.reports],
        }


def verify_solution(
    op: PdeOperator,
    seq,
    arithmetic: str = "auto",
    tol: float = DEFAULT_FLOAT_TOL,
) -> VerificationResult:
    """Check the staged sequence against the vanishing condition.

    PASS means: for every equation, every stage nu, and every point
    z_0..z_nu of that stage, all derivatives of the error term up to the
    stage order vanish at the point.  That gives every (point, order) pair
    a witness no later than the stage that introduced it.  An empty
    sequence passes vacuously and is flagged degenerate, labelled as a
    non-empty one would be: "float" when float is asked for, "exact"
    otherwise.

    One backward scan per equation (_scan) reads the D^p of the error
    term w_nu = G_j (stage nu), up to the top stage order, off one
    truncated Taylor series at each point, and yields both the witness
    report and the pass/fail verdict.  No error term is built
    symbolically: G_j is evaluated in series arithmetic with each jet
    variable (u, alpha) bound to the alpha-shift of the series of stage
    nu's component u, read off the stage's jets and bumps
    (DiscreteSolve.component_series) to the top order plus the operator
    order.  At z_i every stage nu >= i is read, and its entries |p| <=
    l_nu are the pass/fail entries: they use the requested arithmetic,
    decide the "exact" label and may raise ExactnessUnavailable in
    "exact" mode.  Below i the scan reads earlier stages at z_i, in
    "auto" (or "float"), only until one does not vanish there, which
    locates the witness.  A stage's series at z_i follow from the piece
    that holds z_i (DiscreteSolve.piece), so one cache, keyed by the
    piece, point and mode, holds the bindings and each equation's series:
    stages that share a piece at z_i share one series of G_j, and the
    scan checks them once.  Where no piece holds z_i the stage is zero
    near it: every such stage, and every piece whose components have an
    empty series there, shares the empty bindings and one series of G_j.
    """
    if arithmetic not in MODES:
        raise ValueError(f"unknown arithmetic {arithmetic!r}")
    if seq.stage_count == 0:
        return VerificationResult("float" if arithmetic == "float" else "exact", tol, (), ())
    top = max(seq.orders)
    approximate = [not stage.exact for stage in seq.stages]
    count = len(op.equations)
    unbound = {v: {} for v in op.jet_variables}
    # (i, id(jet), id(bump), mode), or (i, mode) where no piece holds z_i
    # -> (piece, bindings, the series of each G_j or None), the piece kept
    # so that its ids name it
    cache: dict[tuple, tuple] = {}

    def term_series(j: int, mu: int, i: int, mode: str) -> dict:
        """The series of G_j (stage mu) at z_i to the top order."""
        stage, point = seq.stages[mu], seq.points[i]
        piece = stage.piece(point)
        key = (i, mode) if piece is None else (i, id(piece[0]), id(piece[1]), mode)
        hit = cache.get(key)
        if hit is None:
            components = stage.component_series(point, top + op.order, mode) if piece else ()
            if any(components):
                bindings, computed = jet_bindings(op.jet_variables, components, top), [None] * count
            else:
                _, bindings, computed = cache.setdefault((i, mode), (None, unbound, [None] * count))
            hit = cache[key] = (piece, bindings, computed)
        _, bindings, computed = hit
        if computed[j] is None:
            computed[j] = series(op.equations[j], point, top, mode, bindings)
        return computed[j]

    reports: list[VanishingReport] = []
    failures: list[VerificationFailure] = []
    all_exact = True
    for j in range(count):
        report, (exact, failing) = _scan(
            approximate, seq.points, top, arithmetic, tol, partial(term_series, j), seq.orders
        )
        reports.append(report)
        all_exact = all_exact and exact
        for nu, i, p, value in failing:
            failures.append(VerificationFailure(j + 1, nu, seq.points[i], p, float(value)))
    mode = "exact" if all_exact else "float"
    return VerificationResult(mode, tol, tuple(reports), tuple(failures))


# ---------------------------------------------------------------------------
# the classical one-dimensional model sequence

def example_sequence(
    points: Sequence[Fraction],
    orders: Sequence[int],
    context: Context | None = None,
) -> FunctionSequence:
    """w_nu = (x - x_0)^{l_nu} * ... * (x - x_nu)^{l_nu} on the line.

    Every derivative of w_mu up to order l_nu - 1 vanishes at x_j for all
    mu >= max(j, nu), so the vanishing condition holds at each point even
    though no term is eventually identically zero.
    """
    ctx = context if context is not None else Context(("x",))
    if ctx.n != 1:
        raise ValueError("the model sequence is one-dimensional")
    pts = [Fraction(c) for c in points]
    orders = list(orders)
    if len(pts) != len(orders):
        raise ValueError("need one exponent per point")
    if any(b < a for a, b in zip(orders, orders[1:])):
        raise ValueError("exponent schedule must be non-decreasing")
    if any(l < 1 for l in orders):
        raise ValueError("exponents must be >= 1")
    x = Var(ctx.space(1))
    terms = []
    for nu, l in enumerate(orders):
        terms.append(
            sprod(
                [spow(ssum([x, Const(-pts[j])]), l) for j in range(nu + 1)]
            )
        )
    return FunctionSequence(ctx, tuple(terms))
