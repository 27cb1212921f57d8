"""Direct references for the pipeline's faster routines, and the oracles
the tests check the pipeline against.

densepde.ranges assembles each level's system, the stacked rows of a
linear operator and the level residuals at the point, from the level-0
jet gradients and Taylor series of the base equations.  The functions
here compute the same objects the direct way: build the rows D^p G_j of
prolong(op, L) as expressions in jet space, take their jet gradients, and
evaluate both at the point.  The tests compare the two.

densepde.construct builds the bumps of every prefix of a point sequence
in one pass, with integer squared distances; set_bumps computes the
bumps of one point set by the per-set loop over every pair, and
fraction_bump_prefixes the one pass in Fraction arithmetic.
construct.BumpScan tests only a point's nearest centre, comparing
integers; LinearBumpScan tests every bump of the stage in turn, in
Fractions.

densepde.ranges plans the index work of each level of a jet solve once
per operator layout (_level_plan), so that at a point _assemble and
taylor.bind_jets only do arithmetic.  assemble and grow_bindings do the
same work term by term, value by value, as the plans replaced: the
Leibniz rule over every q <= p, and the shift of each jet variable.
shift and keyed_bindings give taylor.jet_bindings keyed by multi-index,
re-keyed to the slots series reads.

The chain-rule oracles: total_derivative (one total derivative D_i of
an expression in jet space), differentiate_multi (D^p of an expression
in the space variables by repeated differentiation), jet_of_function
(the jet of smooth functions at a point, from their Taylor series),
evaluate_at_jet (an expression in jet space at a point and a jet) and
apply_operator (an operator's classical action on functions).  The tests
check prolongation and the error terms of the constructed sequences
against them.

densepde.verify scans each point's terms from the last one down and
stops at the first that does not vanish; exhaustive_scan reads every
term at every point, as verify did before, and locates the same witness.

The ideal-property oracles: constant_sequence, diagonal_probe (membership
of one function in the ideal slice at a set of points, by the vanishing
condition on its constant sequence), and SingularityComplement with
family_closure_check (the filter-base property of a finite family of
dense point sets).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from operator import add, sub
from typing import Sequence

from densepde.construct import SHRINK, _sqrt_lower
from densepde.expr import (
    Bump,
    ExactnessUnavailable,
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
from densepde.taylor import derivative, jet_bindings, jet_coefficients, series
from densepde.verify import (
    DEFAULT_FLOAT_TOL,
    FunctionSequence,
    VanishingEntry,
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


def equation_series(op, x, jets, order, exact):
    """The Taylor series c_j, to `order`, of each base equation at x along
    the Taylor polynomial of the jets {(u, q): value}, a missing jet
    reading as 0, so that p! c_{j,p} is the prolonged row F_{j,p} at those
    jets: each jet variable bound by taylor.jet_bindings, all at once."""
    bindings = jet_bindings(op.jet_variables, jet_coefficients(jets, op.k, exact), order)
    mode = "auto" if exact else "float"
    return [series(g, x, order, mode, bindings) for g in op.equations]


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
        out.append(_bump(context, a, limit))
    return out


def _bump(context, center, limit):
    r_out = SHRINK * limit
    return Bump(center, r_out / 2, r_out, context.space_vars(), zero_index(context.n))


def fraction_bump_prefixes(points, box, context):
    """Entry nu: the bumps of points[:nu + 1], from one pass in Fraction
    arithmetic; each point's bump is rebuilt when its running minimum of
    boundary distance and half distances to the points joined so far
    shrinks."""
    pts = [tuple(Fraction(c) for c in p) for p in points]
    limits, bumps, out = [], [], []
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


class LinearBumpScan:
    """The first bump of a stage whose open support holds a point, found by
    testing every bump in turn, with Fraction squared distances; the
    distance to centre j is kept per point for all stages, as the stages
    of one sequence share their centres."""

    def __init__(self):
        self._distances: dict[tuple, list[Fraction]] = {}

    def __call__(self, point, bumps):
        distances = self._distances.setdefault(point, [])
        for j, bump in enumerate(bumps):
            if j == len(distances):
                distances.append(sum((x - c) ** 2 for x, c in zip(point, bump.center)))
            if distances[j] < bump.r_out ** 2:
                return bump
        return None


# ---------------------------------------------------------------------------
# the jet solve's hand-offs, term by term

def leibniz(p: MultiIndex) -> dict[tuple, tuple[tuple, int]]:
    """p - q -> (q, p! / q!) for every q <= p, componentwise, each
    multi-index as its tuple of entries."""
    out = {}
    for q in product(*(range(e + 1) for e in p.entries)):
        weight = p.factorial() // math.prod(map(math.factorial, q))
        out[tuple(map(sub, p.entries, q))] = (q, weight)
    return out


def assemble(coefficients, offsets, indices, columns):
    """ranges._assemble term by term: matrix A and right-hand side b of the
    prolonged rows (j, p), p in `indices` and then j in equation order, in
    the jet `columns`.  coefficients[j - 1] maps each jet (u, alpha) of G_j
    to the Taylor series of dG_j/du_alpha, offsets[j - 1] is the series of
    G_j.  The entry at (j, p), (u, alpha + q) sums (p!/q!) c_{p-q} over
    q <= p, in the order of the gradient keys, then of each series; an
    entry no term reaches, and b at a row without c_{j,p}, is the int 0."""
    index = {(u, q.entries): i for i, (u, q) in enumerate(columns)}
    a, b = [], []
    for p in indices:
        terms, factor = leibniz(p), p.factorial()
        for g, offset in zip(coefficients, offsets):
            entries: dict[int, object] = {}
            for (u, alpha), s in g.items():
                for rest, c in s.items():
                    term = terms.get(rest.entries)
                    if term is None:
                        continue
                    q, weight = term
                    i = index.get((u, tuple(map(add, alpha.entries, q))))
                    if i is not None:
                        t = c if weight == 1 else weight * c
                        entries[i] = entries[i] + t if i in entries else t
            row = [0] * len(columns)
            for i, v in entries.items():
                row[i] = v
            a.append(row)
            c = offset.get(p)
            b.append(0 if c is None else -(factor * c))
    return a, b


def grow_bindings(bindings, coefficients, order: int) -> None:
    """taylor.bind_jets value by value: each jet variable u_alpha's slot
    series gains c_q = (q + alpha)! / q! * s_{q + alpha}, for s =
    coefficients[u - 1] and each |q| <= order in slot order whose
    s_{q + alpha} is given."""
    for v, out in bindings.items():
        for slot, q in enumerate(multi_indices(v.index.n, order)):
            p = q + v.index
            c = coefficients[v.unknown - 1].get(p)
            if c is not None:
                factor = p.factorial() // q.factorial()
                out[slot] = c if factor == 1 else factor * c


def shift(s, alpha: MultiIndex, order: int) -> dict:
    """The series of D^alpha w, to `order`, from the series s of w, which
    must reach order + |alpha|: c_q = (q + alpha)! / q! * s_{q + alpha}
    for every q whose s_{q + alpha} is given."""
    out = {}
    for q in multi_indices(alpha.n, order):
        c = s.get(q + alpha)
        if c is not None:
            out[q] = (q + alpha).factorial() // q.factorial() * c
    return out


def keyed_bindings(variables, coefficients, order: int) -> dict:
    """taylor.jet_bindings by way of shift: each u_alpha bound to the
    alpha-shift of coefficients[u - 1], then keyed by the slot of each
    multi-index in multi_indices(n, order)."""
    out = {}
    for v in variables:
        slot = {p: k for k, p in enumerate(multi_indices(v.index.n, order))}
        out[v] = {slot[q]: c for q, c in shift(coefficients[v.unknown - 1], v.index, order).items()}
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
# verify's witness scan, every term at every point

def exhaustive_scan(
    approximate, points, order, arithmetic, tol, term_series, stage_orders=None
):
    """verify._scan's report and (decided_exact, failing), from every term
    at every point: each D^p w_mu(z_i) (|p| <= order) is read off
    term_series(mu, i, mode), and the witness at z_i is the last term
    with a nonzero one, plus one.  Without stage_orders every entry
    decides; with them only i <= mu, |p| <= stage_orders[mu] do.  Every
    entry's exact flag covers all the terms."""
    if arithmetic not in ("auto", "exact", "float"):
        raise ValueError(f"unknown arithmetic {arithmetic!r}")
    witness = [0] * len(points)
    exact = [True] * len(points)
    decided_exact, failing = True, []
    truncation = len(approximate) - 1
    for mu, approx in enumerate(approximate):
        mode = "float" if approx or arithmetic == "float" else "auto"
        for i, a in enumerate(points):
            coefficients = term_series(mu, i, mode)
            ok = True
            for p in multi_indices(len(a), order):
                value = derivative(coefficients, p, exact=mode != "float")
                deciding = stage_orders is None or (i <= mu and p.order <= stage_orders[mu])
                was_exact = not isinstance(value, float)
                if deciding and arithmetic == "exact" and not (was_exact or approx):
                    raise ExactnessUnavailable(f"D^{p} of term {mu} at point {i} is not exact")
                exact[i] = exact[i] and was_exact
                zero = value == 0 if was_exact else abs(value) <= tol
                if not zero:
                    ok = False
                if deciding:
                    decided_exact = decided_exact and was_exact
                    if not zero:
                        failing.append((mu, i, p, value))
            if not ok:
                witness[i] = mu + 1 if mu < truncation else None
    entries = tuple(
        VanishingEntry(a, order, wit, ex) for a, wit, ex in zip(points, witness, exact)
    )
    label = "float" if arithmetic == "float" or not all(exact) else "exact"
    return VanishingReport(truncation, label, tol, entries), (decided_exact, failing)


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
