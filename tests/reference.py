"""Direct references for the pipeline's faster routines.

densepde.ranges assembles each level's system, the stacked rows of a
linear operator and the level residuals at the point, from the level-0
jet gradients and Taylor series of the base equations.  The functions
here compute the same objects the direct way: build the rows D^p G_j of
prolong(op, L) as expressions in jet space, take their jet gradients, and
evaluate both at the point.  The tests compare the two.

densepde.construct builds the bumps of every prefix of a point sequence
in one pass; set_bumps computes the bumps of one point set by the
per-set loop over every pair.
"""

from fractions import Fraction

from densepde.construct import SHRINK, _sqrt_lower
from densepde.expr import Bump, evaluate_exact, evaluate_float
from densepde.jets import Jet, prolong
from densepde.linalg import exact_least_norm, float_least_norm
from densepde.multiindex import multi_indices_of_order, zero_index
from densepde.ranges import CONSISTENCY_FLOOR, jet_columns, solve_jets_triangular


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
        gradient = system.gradient(j, p)
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
