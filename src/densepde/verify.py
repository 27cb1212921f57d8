"""Verification of generalized solutions: the vanishing condition on
sequences of error terms, and the classical one-dimensional model
sequence.

A sequence (w_nu) satisfies the vanishing condition at a point x for
derivative order l when some witness index nu exists with
D^p w_mu(x) = 0 for every mu >= nu and every |p| <= l.  Checks work on a
finite truncation of the sequence and report the witness found, so a PASS
is exhaustive up to the truncation.
"""

from __future__ import annotations

import json
from fractions import Fraction
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
from .jets import Jet, PdeOperator
from .multiindex import MultiIndex, multi_indices, zero_index
from .parser import Context
from .printer import point_text
from .taylor import derivative, jet_bindings, series

Point = tuple[Fraction, ...]

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
        self.__dict__.update(context=context, terms=terms, approximate=approximate)

    @property
    def truncation(self) -> int:
        return len(self.terms) - 1

    def is_approximate(self, mu: int) -> bool:
        return bool(self.approximate and self.approximate[mu])


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

class Failure(Value):
    """A derivative D^index of term `term` that is not zero at a point."""

    _fields = ("term", "index", "value")

    def __init__(self, term: int, index: MultiIndex, value: float):
        self.__dict__.update(term=term, index=index, value=value)


class VanishingEntry(Value):
    _fields = ("point", "order", "witness", "exact", "failures")

    def __init__(
        self,
        point: Point,
        order: int,
        witness: int | None,
        exact: bool,
        failures: tuple[Failure, ...] = (),
    ):
        self.__dict__.update(
            point=point, order=order, witness=witness, exact=exact, failures=failures
        )

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
        self.__dict__.update(
            truncation=truncation, arithmetic=arithmetic, tolerance=tolerance, entries=entries
        )

    @property
    def holds(self) -> bool:
        return all(e.holds for e in self.entries)

    def to_json(self) -> str:
        data = {
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
        return json.dumps(data, indent=2, sort_keys=True)


def _scan(
    approximate: Sequence[bool],
    points: Sequence[Point],
    orders: Sequence[int],
    arithmetic: str,
    tol: float,
    term_series: Callable[[int, int, int, str], dict],
    stage_orders: Sequence[int] | None = None,
) -> tuple[VanishingReport, list]:
    """The one place a sequence is evaluated at points: term_series(mu,
    i, order, mode) gives the Taylor series of w_mu at z_i up to order_i
    once, and every D^p w_mu(z_i) = p! c_p (|p| <= order_i) is read off it.

    Without stage_orders every entry decides; with them only i <= mu,
    |p| <= stage_orders[mu] do.  Each series is computed in "auto"
    ("float" when float is asked for or the term is flagged approximate);
    in "exact" mode a deciding entry that is not exact raises
    ExactnessUnavailable, and the other entries keep their own flags.
    Returns the report and the deciding evaluations (mu, i, p, value,
    was_exact, zero) in order.
    """
    if arithmetic not in ("auto", "exact", "float"):
        raise ValueError(f"unknown arithmetic {arithmetic!r}")
    witness: list[int | None] = [0] * len(points)
    exact = [True] * len(points)
    fails: list[list[Failure]] = [[] for _ in points]
    decided = []
    truncation = len(approximate) - 1
    for mu, approx in enumerate(approximate):
        mode = "float" if approx or arithmetic == "float" else "auto"
        for i, (a, order) in enumerate(zip(points, orders)):
            coefficients = term_series(mu, i, order, mode)
            ok = True
            for p in multi_indices(len(a), order):
                deciding = stage_orders is None or (
                    i <= mu and p.order <= stage_orders[mu]
                )
                value = derivative(coefficients, p, exact=mode != "float")
                was_exact = not isinstance(value, float)
                if deciding and arithmetic == "exact" and not (was_exact or approx):
                    raise ExactnessUnavailable(
                        f"D^{p} of term {mu} at point {i} is not exact"
                    )
                exact[i] = exact[i] and was_exact
                zero = value == 0 if was_exact else abs(value) <= tol
                if not zero:
                    fails[i].append(Failure(mu, p, float(value)))
                    ok = False
                if deciding:
                    decided.append((mu, i, p, value, was_exact, zero))
            if not ok:
                witness[i] = mu + 1 if mu < truncation else None
    entries = tuple(
        VanishingEntry(a, order, wit, ex, tuple(fl))
        for a, order, wit, ex, fl in zip(points, orders, witness, exact, fails)
    )
    label = "float" if arithmetic == "float" or not all(exact) else "exact"
    return VanishingReport(truncation, label, tol, entries), decided


def check_vanishing(
    seq: FunctionSequence,
    points: Sequence[Point],
    orders: int | Sequence[int],
    arithmetic: str = "auto",
    tol: float = DEFAULT_FLOAT_TOL,
) -> VanishingReport:
    """Exhaustive vanishing-condition scan over the truncation.

    For each (point, order) pair the witness is the least nu such that all
    later terms have every derivative up to the order equal to zero at the
    point.  In exact arithmetic "zero" is literal; in float arithmetic it
    means within tol in absolute value.  The report is labelled "exact"
    only when every evaluation was exact.
    """
    pts = [tuple(Fraction(c) for c in p) for p in points]
    if isinstance(orders, int):
        order_list = [orders] * len(pts)
    else:
        order_list = list(orders)
        if len(order_list) != len(pts):
            raise ValueError("need one order per point")
    approximate = [seq.is_approximate(mu) for mu in range(len(seq.terms))]

    def term_series(mu, i, order, mode):
        return series(seq.terms[mu], pts[i], order, mode)

    return _scan(approximate, pts, order_list, arithmetic, tol, term_series)[0]


# ---------------------------------------------------------------------------
# error sequences of staged solutions

def error_sequence(op: PdeOperator, seq) -> list[FunctionSequence]:
    """One sequence per equation: w_{j,nu} = G_j applied to stage nu.

    Jet variables in G_j are replaced by the matching symbolic derivatives
    of the assembled stage functions.  verify_solution does not build
    these; they are the symbolic reference its Taylor path is tested
    against.
    """
    ctx = op.context
    space = ctx.space_vars()
    per_equation: list[list[Expr]] = [[] for _ in op.equations]
    for nu in range(seq.stage_count):
        components = seq.stage_expressions(nu)
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
        self.__dict__.update(equation=equation, stage=stage, point=point, index=index, value=value)

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
        self.__dict__.update(
            arithmetic=arithmetic, tolerance=tolerance, reports=reports, failures=failures
        )

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def degenerate(self) -> bool:
        return not self.reports

    def to_json(self) -> str:
        data = {
            "passed": self.passed,
            "degenerate": self.degenerate,
            "arithmetic": self.arithmetic,
            "tolerance": self.tolerance,
            "failures": [f.describe() for f in self.failures],
            "reports": [json.loads(r.to_json()) for r in self.reports],
        }
        return json.dumps(data, indent=2, sort_keys=True)


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
    sequence passes vacuously and is flagged degenerate.

    One pass per equation reads every D^p of the error term w_nu = G_j
    (stage nu), up to the top stage order, off one truncated Taylor series
    at each point, and yields both the witness report and the pass/fail
    verdict.  No error term is built symbolically: G_j is evaluated in
    series arithmetic with each jet variable (u, alpha) bound to the
    alpha-shift of the series of stage nu's component u, read off the
    stage's jets and bumps (DiscreteSolve.component_series) once per
    (stage, point) to the top order plus the operator order.  At its own
    points a stage's series depend on the jet alone, so the bindings are
    built once per distinct jet at each point (the same Jet object, or an
    equal one, as in TaylorPolynomials), and the series of G_j once per
    distinct bindings: stages that store one jet at a point share both.
    Where a stage is zero near a point, the bindings are empty and the
    series of G_j there is computed once for all such stages.  Only the
    pass/fail entries (point z_i with i <= nu, |p| <= l_nu) use the
    requested arithmetic, decide the "exact" label and may raise
    ExactnessUnavailable in "exact" mode.  The rest of the witness scan
    evaluates earlier stages at later points, possibly inside a bump's
    transition annulus; it runs in "auto" (or "float") and keeps its own
    per-entry flags.
    """
    if seq.stage_count == 0:
        return VerificationResult(arithmetic, tol, (), ())
    top = max(seq.orders)
    approximate = [not stage.exact for stage in seq.stages]
    unbound = {v: {} for v in op.jet_variables}
    bindings: dict[tuple[int, int], dict] = {}
    at_centre: dict[tuple[int, str], tuple[Jet, dict]] = {}

    def bind(mu: int, i: int, mode: str) -> dict:
        components = seq.stages[mu].component_series(seq.points[i], top + op.order, mode)
        return jet_bindings(op.jet_variables, components, top) if any(components) else unbound

    def stage_jets(mu: int, i: int, mode: str) -> dict:
        """Each jet variable (u, alpha) of the equations bound to the
        alpha-shift of the series of stage mu's component u at z_i;
        `unbound` where every component's series there is empty."""
        if (mu, i) not in bindings:
            if i > mu:  # a later point, maybe in one of the stage's bumps
                bindings[(mu, i)] = bind(mu, i, mode)
            else:  # a bump centre: the jet there alone decides
                jet = seq.stages[mu].jets[seq.points[i]]
                hit = at_centre.get((i, mode))
                if hit is None or not (hit[0] is jet or hit[0] == jet):
                    hit = at_centre[(i, mode)] = (jet, bind(mu, i, mode))
                bindings[(mu, i)] = hit[1]
        return bindings[(mu, i)]

    reports: list[VanishingReport] = []
    failures: list[VerificationFailure] = []
    all_exact = True
    for j, g in enumerate(op.equations, start=1):
        # (i, order, mode, id(bindings)) -> series; every bindings dict
        # lives as long as `bindings`, so an id names one of them
        computed: dict[tuple[int, int, str, int], dict] = {}

        def term_series(mu, i, order, mode, g=g, computed=computed):
            jets = stage_jets(mu, i, mode)
            key = (i, order, mode, id(jets))
            if key not in computed:
                computed[key] = series(g, seq.points[i], order, mode, jets)
            return computed[key]

        report, decided = _scan(
            approximate, seq.points, [top] * len(seq.points), arithmetic, tol,
            term_series, seq.orders,
        )
        reports.append(report)
        for nu, i, p, value, was_exact, zero in decided:
            all_exact = all_exact and was_exact
            if not zero:
                failures.append(
                    VerificationFailure(j, nu, seq.points[i], p, float(value))
                )
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
