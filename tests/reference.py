"""Direct references for the pipeline's faster routines, and the oracles
the tests check the pipeline against.

densepde.ranges assembles each level's system, the stacked rows of a
linear operator and the level residuals at the point, from the level-0
jet gradients and Taylor series of the base equations.  The functions
here compute the same objects the direct way: build the rows D^p G_j of
prolong(op, L) as expressions in jet space, take their jet gradients, and
evaluate both at the point.  The tests compare the two.

densepde.construct builds the bumps of every prefix of a point sequence
in one pass; set_bumps computes the bumps of one point set by the
per-set loop over every pair.

The chain-rule oracles: total_derivative (one total derivative D_i of
an expression in jet space), differentiate_multi (D^p of an expression
in the space variables by repeated differentiation), jet_of_function
(the jet of smooth functions at a point, from their Taylor series),
evaluate_at_jet (an expression in jet space at a point and a jet) and
apply_operator (an operator's classical action on functions).  The tests
check prolongation and the error terms of the constructed sequences
against them.

The ideal-property oracles: constant_sequence, diagonal_probe (membership
of one function in the ideal slice at a set of points, by the vanishing
condition on its constant sequence), and SingularityComplement with
family_closure_check (the filter-base property of a finite family of
dense point sets).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from densepde.construct import SHRINK, _sqrt_lower
from densepde.expr import (
    Bump,
    Expr,
    differentiate,
    evaluate_exact,
    evaluate_float,
    exact_arithmetic,
    jet_variables,
)
from densepde.frozen import Frozen
from densepde.jets import Jet, PdeOperator, Point, _lift, jet_gradient, prolong
from densepde.linalg import exact_least_norm, float_least_norm
from densepde.multiindex import MultiIndex, multi_indices, multi_indices_of_order, zero_index
from densepde.parser import Context
from densepde.printer import point_text
from densepde.ranges import CONSISTENCY_FLOOR, jet_columns, solve_jets_triangular
from densepde.taylor import derivative, series
from densepde.verify import (
    DEFAULT_FLOAT_TOL,
    FunctionSequence,
    VanishingReport,
    check_vanishing,
)


def row_system(system, rows, columns, values, exact):
    """Matrix and right-hand side of the prolonged `rows` (keys (j, p)) in
    the jet `columns`: each entry the row's partial in the column, the
    right-hand side minus the row, both evaluated at `values` (space
    variables and jets) with every column zero."""
    context = system.operator.context
    zero = Fraction(0) if exact else 0.0
    evaluate = evaluate_exact if exact else evaluate_float
    assignment = dict(values)
    assignment.update({context.jet(u, q): zero for u, q in columns})
    a, b = [], []
    for j, p in rows:
        gradient = jet_gradient(system.equations[(j, p)])
        a.append([evaluate(gradient[c], assignment) if c in gradient else zero for c in columns])
        b.append(-evaluate(system.equations[(j, p)], assignment))
    return a, b


def assignment(op, x, jets):
    """Space variables at x and the jets {(u, q): value}."""
    values = dict(zip(op.context.space_vars(), x))
    values.update({op.context.jet(u, q): v for (u, q), v in jets.items()})
    return values


def stacked_rows(op, x, level, exact):
    """Every row (j, p), |p| <= level, of a linear operator in every jet
    column of order <= m + level."""
    system = prolong(op, level)
    rows = [(j, p) for j, p, _ in system.items()]
    columns = jet_columns(op.n, op.k, system.top_order)
    return row_system(system, rows, columns, assignment(op, x, {}), exact)


def level_columns(op, lam):
    return [(u, q) for q in multi_indices_of_order(op.n, op.order + lam) for u in range(1, op.k + 1)]


def level_system(system, x, known, lam, exact):
    """Level lam's rows in its top-order jets, the jets `known` below."""
    op = system.operator
    rows = [(j, p) for j, p, _ in system.items() if p.order == lam]
    return row_system(system, rows, level_columns(op, lam), assignment(op, x, known), exact)


def level_residuals(system, x, jet, top):
    """For each level l <= top, the largest |F_{j,p}| over the rows of
    level <= l at the jet, in the jet's arithmetic."""
    values = assignment(system.operator, x, jet.values)
    exact = jet.exact
    evaluate = evaluate_exact if exact else evaluate_float
    worst = Fraction(0) if exact else 0.0
    running = {}
    for j, p, e in system.items():
        if p.order > top:
            break
        worst = max(worst, abs(evaluate(e, values)))
        running[p.order] = worst
    return list(running.values())


def solve(op, x, level, tol=1e-12):
    """(status, jet) per level of the triangular solve, with level 0 solved
    as densepde does and every later level and every residual taken from
    the rows of prolong(op, level)."""
    system = prolong(op, level)
    base = solve_jets_triangular(prolong(op, 0), x, tol=tol)
    if base.jet is None:
        return [(base.status, None)] * (level + 1)
    known = dict(base.jet.values)
    exact = base.jet.exact
    failed = None
    for lam in range(1, level + 1):
        columns = level_columns(op, lam)
        a, b = level_system(system, x, known, lam, exact)
        if exact:
            solution = exact_least_norm(a, b)
        else:
            solution, floor = float_least_norm(a, b)
            if floor > max(tol, CONSISTENCY_FLOOR):
                solution = None
        if solution is None:
            failed = lam
            break
        known.update(zip(columns, solution))
    passed = level if failed is None else failed - 1
    jet = Jet(op.n, op.k, op.order + passed, known)
    out = []
    for lam, residual in enumerate(level_residuals(system, x, jet, passed)):
        ok = residual == 0 if exact else residual <= tol
        out.append(("solved" if ok else "solver-failed", jet.truncate(op.order + lam)))
    return out + [("no-solution", None)] * (level - passed)


def set_bumps(points, box, context):
    """The bump of each point of the set: r_out = SHRINK * min(distance
    to the box boundary, half the lower-bounded distance to each other
    point), r_in = r_out / 2."""
    out = []
    for a in points:
        limit = min(min(c - lo, hi - c) for c, (lo, hi) in zip(a, box))
        for b in points:
            if b is a:
                continue
            d2 = sum((ca - cb) ** 2 for ca, cb in zip(a, b))
            limit = min(limit, _sqrt_lower(d2) / 2)
        r_out = SHRINK * limit
        out.append(Bump(a, r_out / 2, r_out, context.space_vars(), zero_index(context.n)))
    return out


# ---------------------------------------------------------------------------
# chain-rule oracles

def total_derivative(e: Expr, context: Context, axis: int) -> Expr:
    """Total derivative D_i along space axis i, with the jet-coordinate
    chain rule: D_i = d/dx_i + sum over jets of xi_{u,q+e_i} * d/d xi_{u,q}."""
    if not 1 <= axis <= context.n:
        raise ValueError(f"axis {axis} outside [1, {context.n}]")
    return _lift(e, jet_gradient(e), context, axis)


def differentiate_multi(e: Expr, space_vars, p: MultiIndex) -> Expr:
    """D^p along the given ordered space variables."""
    out = e
    for axis, count in enumerate(p.entries, start=1):
        for _ in range(count):
            out = differentiate(out, space_vars[axis - 1])
    return out


def jet_of_function(
    u: Expr | Sequence[Expr],
    context: Context,
    point: Sequence,
    order: int,
    exact: bool | None = None,
) -> Jet:
    """Jet of smooth function(s) of the space variables at a point.

    With exact=None, the arithmetic follows expr.exact_arithmetic of the
    components at the point.
    """
    components = [u] if isinstance(u, Expr) else list(u)
    if len(components) != context.k:
        raise ValueError(f"expected {context.k} component(s), got {len(components)}")
    for c in components:
        if jet_variables(c):
            raise ValueError("function must depend on space variables only")
    if exact is None:
        exact = exact_arithmetic(components, point)
    mode = "exact" if exact else "float"
    values: dict[tuple[int, MultiIndex], Fraction | float] = {}
    for unknown, c in enumerate(components, start=1):
        coefficients = series(c, point, order, mode)
        for p in multi_indices(context.n, order):
            values[(unknown, p)] = derivative(coefficients, p, exact)
    return Jet(context.n, context.k, order, values)


def evaluate_at_jet(e: Expr, context: Context, point: Sequence, jet: Jet):
    """Evaluate an expression over space and jet variables at (point, jet),
    exactly when expr.exact_arithmetic allows."""
    assignment = {context.jet(u, p): v for (u, p), v in jet.values.items()}
    for v, x in zip(context.space_vars(), point):
        assignment[v] = x
    if exact_arithmetic([e], assignment.values()):
        return evaluate_exact(e, assignment)
    return evaluate_float(e, assignment)


def apply_operator(op: PdeOperator, u: Expr | Sequence[Expr], point: Sequence):
    """Classical action: values of each G_j at the jets of u at the point."""
    jet = jet_of_function(u, op.context, point, op.order)
    return tuple(
        evaluate_at_jet(g, op.context, point, jet) for g in op.equations
    )


# ---------------------------------------------------------------------------
# ideal-property oracles

def constant_sequence(context: Context, psi: Expr, truncation: int) -> FunctionSequence:
    return FunctionSequence(context, (psi,) * (truncation + 1))


class SingularityComplement(Frozen):
    """A dense set of regular points; the singularity set is its
    complement in the box."""

    def __init__(self, points: tuple[Point, ...], box: tuple[tuple[Fraction, Fraction], ...]):
        for a in points:
            if not all(lo < c < hi for c, (lo, hi) in zip(a, box)):
                raise ValueError(f"point {point_text(a)} outside the box")
        self.__dict__.update(points=points, box=box)

    def point_set(self) -> frozenset[Point]:
        return frozenset(self.points)


def diagonal_probe(
    context: Context,
    psi: Expr,
    points: Sequence[Point],
    order: int,
    arithmetic: str = "auto",
    tol: float = DEFAULT_FLOAT_TOL,
) -> tuple[bool, VanishingReport]:
    """Membership probe for a single function: psi belongs to the ideal
    slice iff all its derivatives up to the order vanish at every point,
    i.e. the constant sequence (psi, psi, ...) satisfies the vanishing
    condition there."""
    seq = constant_sequence(context, psi, truncation=1)
    report = check_vanishing(seq, points, order, arithmetic=arithmetic, tol=tol)
    return report.holds, report


class ClosureReport(Frozen):
    def __init__(self, pairs: tuple[tuple[int, int, int | None], ...], closed: bool):
        self.__dict__.update(pairs=pairs, closed=closed)


def family_closure_check(family: Sequence[SingularityComplement]) -> ClosureReport:
    """Filter-base check on the finite family: for each pair of dense sets
    some member must be contained in their intersection.  (With finite
    stand-ins for the dense sets this is a set-inclusion check.)"""
    sets = [f.point_set() for f in family]
    pairs = []
    closed = True
    for i in range(len(sets)):
        for j in range(i, len(sets)):
            meet = sets[i] & sets[j]
            found = None
            for k, s in enumerate(sets):
                if s <= meet:
                    found = k
                    break
            if found is None:
                closed = False
            pairs.append((i, j, found))
    return ClosureReport(tuple(pairs), closed)
