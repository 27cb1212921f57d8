"""The affine layer of the range analysis: exact rank certificates for
linear operators and the triangular level-by-level jet solver.

Every prolongation level is affine in the jet coordinates it newly
introduces (Seiler, "Involution", 2010, ch. 2), and no row of it is built
in jet space.  One routine, _assemble, gives the matrix and right-hand
side of any set of prolonged rows D^p G_j at a point by the Leibniz rule:
with c the truncated Taylor series at the point (taylor.series), the
entry at column u_{alpha+q} is the sum of (p!/q!) c_{p-q}(dG_j/du_alpha)
over q <= p, and the right-hand side is -p! c_p(G_j), the known jets
bound in the series as the series of their Taylor polynomial (Griewank
and Walther, "Evaluating Derivatives", 2nd ed., ch. 13).  It serves
three callers: level 0 of an affine base, in the jets no seed pins;
every later level, in its top-order jets, where the partials reduce to
their values at the solved base jet (the symbol); and the stacked rows
of a linear operator, in every jet, which its rank certificates need.
The first two read every float partial off the compiled Jacobian of
PdeOperator.compiled_base (_gradient_values).  The solver takes the
least-norm solution of each level, after a Newton root search at level 0
when the base equations are not affine.

The index work of that rule is the same at every point, so it is planned
once, in ints read off the slot tables of taylor._Layout, where every
multi-index sum is taken: _row_plan records, per jet gradient keys, rows,
columns and series shape, which coefficient lands in which column with
which weight; _level_plan holds, per operator layout (PdeOperator.layout),
level and solve order, the level's columns, row plan, the columns' q!
and the taylor.shift_plan that binds its known jets, a level-0 seed or
the solved jets below.  Each cache holds at most _PLANS plans; at a
point _assemble and taylor.bind_jets do only arithmetic.

The solver is triangular: level l of a solve never looks at a row or a
jet above level l, so one solve of a point at the top level also gives
the solve at every lower level.  The range check and the staged
construction therefore solve each point once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Sequence

from .expr import evaluate_exact, exact_arithmetic
from .frozen import Value
from .jets import Jet, PdeOperator, ProlongedSystem, prolong
from .linalg import (
    FLOAT_RANK_TOL,
    exact_least_norm,
    exact_rank,
    exact_residual_floor,
    float_least_norm,
    float_rank,
    residual_floor,
)
from .multiindex import (
    MultiIndex,
    jet_columns,
    multi_indices,
    multi_indices_of_order,
    zero_index,
)
from .newton import multistart_newton
from .printer import point_text
from .taylor import _layout, bind_jets, series_each, shift_plan, taylor_coefficients

# A float affine level solve counts as consistent when its least-squares
# residual floor is at most max(tol, CONSISTENCY_FLOOR), so no tolerance
# decides consistency with less absolute slack than this.
CONSISTENCY_FLOOR = 1e-9


class NotLinearError(Exception):
    """The operator is not affine in its jet coordinates."""


def _check_point(op: PdeOperator, x: Sequence) -> None:
    if len(x) != op.n:
        raise ValueError(f"point has {len(x)} coordinates, the operator has {op.n}")
    if not op.contains(x):
        raise ValueError(f"point {point_text(x)} outside the domain box")


def _mode(exact: bool) -> str:
    """The taylor.series mode of expr.exact_arithmetic's verdict."""
    return "auto" if exact else "float"


def linearize(sys: ProlongedSystem) -> ProlongedSystem | None:
    """The system itself when its equations are affine in their jets, so
    that it has rank certificates; None when some equation is nonlinear
    in a jet coordinate."""
    return sys if sys.operator.affine else None


_PLANS = 64  # row plans, and level plans, held at most; the least recently used go first


@lru_cache(maxsize=_PLANS)
def _row_plan(keys, indices, columns, shape) -> tuple[int, tuple]:
    """The index work of _assemble for the rows (j, p), p in `indices` and
    then j in equation order, in the jet `columns`: (width, rows), a row
    (p!, p, j - 1, cells), for `indices` every multi-index of the orders
    |indices[0]| to |indices[-1]|.  keys[j - 1] are the jet gradient keys
    of G_j, and shape[e] the multi-indices, in series order, of the
    coefficients given for the e-th gradient partial over all equations.

    The cells are the row's terms, three ints each, flat: the column of
    (u, alpha + q), the position in _assemble's values of the coefficient
    at p - q of the partial in (u, alpha), and the Leibniz weight p!/q!,
    the sums and q! read off the slot table.  A term whose column is
    absent has no cell.  Cells come by column, then position: each
    column's terms in the order that a walk over the gradient keys, then
    each series, meets them."""
    n, low, top = indices[0].n, indices[0].order, indices[-1].order
    lay = _layout(n, max((alpha.order for g in keys for _, alpha in g), default=0) + top)
    slot, times, factorials = lay.slot, lay.times, lay.factorials
    where = {u: [None] * lay.size for u, _ in chain(*keys)}  # (u, slot) -> column
    for i, (u, q) in enumerate(columns):
        if u in where and q.entries in slot:
            where[u][slot[q.entries]] = i
    first, m = slot[indices[0].entries], len(keys)
    cells: list[list] = [[] for _ in range(len(indices) * m)]  # row (p, j) at (p - first) * m + j
    shapes, at = iter(shape), 0
    for j, g in enumerate(keys):
        for (u, alpha), rests in zip(g, shapes):  # g first: shapes stays at the next partial
            shifted, column = times[slot[alpha.entries]], where[u]
            for rest in rests:
                sums, d = times[slot[rest.entries]], rest.order
                # the q with low <= |rest + q| <= top
                for q in range(len(multi_indices(n, low - d - 1)), len(multi_indices(n, top - d))):
                    i = column[shifted[q]]
                    if i is not None:
                        p = sums[q]
                        cells[(p - first) * m + j].append((i, at, factorials[p] // factorials[q]))
                at += 1
    rows = [
        (factorials[first + r], p, j, tuple(chain.from_iterable(sorted(cells[r * m + j]))))
        for r, p in enumerate(indices) for j in range(m)
    ]
    return len(columns), tuple(rows)


@lru_cache(maxsize=_PLANS)
def _level_plan(variables, layout, lam: int, top: int) -> tuple:
    """Every index decision of level lam of a solve to level `top`, for
    the operator layout (n, k, m, the gradient keys of each equation) and
    its jet variables: (columns, rows, factorials, bind).

    The columns are the level's new jets, jet_columns of order m + lam
    (every base jet at level 0); rows the _row_plan of the level's rows
    in them, the partials constant series (at level 0, of an affine base
    with no seed); factorials each column's q!; and bind the
    taylor.shift_plan by which the jet variables read the level's Taylor
    coefficients, to order `top`."""
    n, k, m, keys = layout
    lowest = m + lam if lam else 0
    columns = jet_columns(n, k, m + lam, lowest)
    return (
        columns,
        _row_plan(keys, multi_indices_of_order(n, lam), columns, _constant(n, keys)),
        tuple(q.factorial() for _, q in columns),
        shift_plan(tuple(variables), k, top, lowest, m + lam),
    )


def _constant(n: int, keys) -> tuple:
    """The _row_plan shape of constant series: one coefficient, at 0, per
    gradient partial."""
    return ((zero_index(n),),) * sum(map(len, keys))


def _assemble(plan, values, offsets):
    """Matrix A and right-hand side b of the planned rows (_row_plan) at a
    point.  An entry that no term reaches, and b at a row without c_{j,p},
    is the int 0 in either arithmetic (linalg.Row).

    `values` are the given coefficients of the Taylor series at the point
    of the gradient partials a_{j,u,alpha} = dG_j/du_alpha, in the plan's
    shape, and offsets[j - 1] is the series c_j of G_j (_bound_series).
    By the Leibniz rule the entry at row (j, p), column (u, alpha + q) is
    the sum of (p!/q!) c_{p-q}(a_{j,u,alpha}) over q <= p, its first term
    assigned, not added to 0, and b = -p! c_{j,p}.  A jet that is not a
    column counts as known: its terms are in c_j."""
    width, rows = plan
    a, b = [], []
    for factor, p, j, cells in rows:
        row = [0] * width
        last = -1
        step = iter(cells)
        for i, at, weight in zip(step, step, step):
            c = values[at]
            t = c if weight == 1 else weight * c
            row[i] = row[i] + t if i == last else t
            last = i
        a.append(row)
        c = offsets[j].get(p)
        b.append(0 if c is None else -(factor * c))
    return a, b


def _stacked(sys: ProlongedSystem, x: Sequence, exact: bool):
    """Matrix A and right-hand side b of every row (j, p) of an affine
    system at x, rows in the order of ProlongedSystem.items() and columns
    in jet_columns order (_assemble, with every jet a column)."""
    op, level, mode = sys.operator, sys.level, _mode(exact)
    # the partials of an affine system are jet-free
    coefficients = series_each([d for g in op.gradients for d in g.values()], x, level, mode)
    plan = _row_plan(
        op.layout[3], multi_indices(op.n, level), jet_columns(op.n, op.k, sys.top_order),
        tuple(tuple(s) for s in coefficients),
    )
    values = [c for s in coefficients for c in s.values()]
    unbound = {v: {} for v in op.jet_variables}
    return _assemble(plan, values, _bound_series(op, x, unbound, level, exact))


class RankCertificate(Value):
    """Solvability certificate for a linear operator at one point/level.

    holds: rank P = rank Q (the prolonged linear system is consistent).
    strict: additionally full row rank, so the system is solvable for
    every right-hand side (the nondegeneracy the rank discussion of the
    linear case aims at).
    """

    _fields = (
        "point", "level", "rank_p", "rank_q", "n_rows", "n_cols", "arithmetic", "tolerance",
    )

    def __init__(
        self,
        point: tuple,
        level: int,
        rank_p: int,
        rank_q: int,
        n_rows: int,
        n_cols: int,
        arithmetic: str,
        tolerance: float | None = None,
    ):
        d = self.__dict__
        d["point"] = point
        d["level"] = level
        d["rank_p"] = rank_p
        d["rank_q"] = rank_q
        d["n_rows"] = n_rows
        d["n_cols"] = n_cols
        d["arithmetic"] = arithmetic
        d["tolerance"] = tolerance

    @property
    def holds(self) -> bool:
        return self.rank_p == self.rank_q

    @property
    def strict(self) -> bool:
        return self.holds and self.rank_p == self.n_rows

    def to_json(self):
        return {
            "point": [str(c) for c in self.point],
            "level": self.level,
            "rank_p": self.rank_p,
            "rank_q": self.rank_q,
            "rows": self.n_rows,
            "cols": self.n_cols,
            "holds": self.holds,
            "strict": self.strict,
            "arithmetic": self.arithmetic,
            "tolerance": self.tolerance,
        }


def rank_condition(op: PdeOperator, x: Sequence, level: int) -> RankCertificate:
    """Certify rank P^l(x) = rank Q^l(x) by exact elimination when the
    data is rational, float elimination with a disclosed tolerance else."""
    linear = linearize(prolong(op, level))
    if linear is None:
        raise NotLinearError("operator is not linear in its jet coordinates")
    return _certify(linear, x, [level])[0][0]


def _certify(linear: ProlongedSystem, x: Sequence, levels: Sequence[int]):
    """(certificate, residual floor or None when it holds) of the affine
    system's restriction to each of `levels` at the point x: P = A and Q
    is A with the column b appended, from _stacked.

    The rows come in level order and the columns in jet order, and a row
    of level l is zero outside the columns of order <= m + l.  So each
    level's system is a leading block of the stacked one, and one exact
    elimination pass over the rows of Q gives every level's ranks.
    In float arithmetic each level is factored on its own, from the top
    down, until a level has full row rank: its leading blocks then have
    full row rank too, since deleting rows leaves the smallest singular
    value no smaller and the largest no larger (interlacing).  That holds
    for singular values; the pivoted-QR rank follows them except within
    rounding of the tolerance.
    The arithmetic is exact_arithmetic of the operator's equations at x:
    the coefficients of rational-closed equations are rational-closed.
    """
    op = linear.operator
    _check_point(op, x)
    exact = exact_arithmetic(op.equations, x)
    a, b = _stacked(linear, x, exact)
    ends = [op.r * len(multi_indices(op.n, level)) for level in levels]
    widths = [op.k * len(multi_indices(op.n, op.order + level)) for level in levels]

    def block(end: int, width: int):
        return [row[:width] for row in a[:end]], b[:end]

    if exact:
        ranks = exact_rank([row + [v] for row, v in zip(a, b)], ends)
        tol = None
    else:
        ranks, full = [], False
        for end, width in reversed(list(zip(ends, widths))):
            if full:
                ranks.append((end, end))
            else:
                pa, pb = block(end, width)
                ranks.append(float_rank(pa, rhs=pb))
                full = ranks[-1][0] == end
        ranks.reverse()
        tol = FLOAT_RANK_TOL
    floor = exact_residual_floor if exact else residual_floor
    out = []
    for level, end, width, (rank_p, rank_q) in zip(levels, ends, widths, ranks):
        cert = RankCertificate(
            point=tuple(x),
            level=level,
            rank_p=rank_p,
            rank_q=rank_q,
            n_rows=end,
            n_cols=width,
            arithmetic="exact" if exact else "float",
            tolerance=tol,
        )
        # a block is sliced only where it is factored or its floor is read
        out.append((cert, None if cert.holds else floor(*block(end, width))))
    return out


# ---------------------------------------------------------------------------
# triangular jet solving

class JetSolveResult(Value):
    """Outcome of one triangular jet solve at a point.

    levels[l] is the result a solve of the prolongation to level l
    gives, for every level l of the solved system; the last entry equals
    this result.  The per-level results carry no levels of their own.
    Equality compares every field but `levels`; a result is not hashable."""

    _fields = ("status", "jet", "residual", "arithmetic", "failed_level", "detail")
    __hash__ = None

    def __init__(
        self,
        status: str,
        jet: Jet | None,
        residual: float,
        arithmetic: str,
        failed_level: int | None = None,
        detail: str = "",
        levels: tuple["JetSolveResult", ...] = (),
    ):
        d = self.__dict__
        d["status"] = status  # solved | no-solution | solver-failed
        d["jet"] = jet
        d["residual"] = residual
        d["arithmetic"] = arithmetic
        d["failed_level"] = failed_level
        d["detail"] = detail
        d["levels"] = levels

    @property
    def solved(self) -> bool:
        return self.status == "solved"


def _seed_values(seed) -> dict:
    """The seed {(u, exponent tuple): value} keyed (u, MultiIndex)."""
    if seed is None:
        return {}
    return {(u, MultiIndex(p)): v for (u, p), v in seed.items()}


def solves_exactly(op: PdeOperator) -> bool:
    """Whether every jet of op solved at a rational point is exact (a
    seed must then be rational too), so that a float jet of op can only
    be a relabelled exact one: the equations are rational-closed and
    affine in the base jets, so level 0 is an exact linear solve."""
    return exact_arithmetic(op.equations, ()) and op.affine


def solve_jets_triangular(
    sys: ProlongedSystem,
    x: Sequence,
    seed=None,
    tol: float = 1e-12,
) -> JetSolveResult:
    """Solve all prolonged equations at the point x for a dense jet of
    order m + level, and report every lower level on the way.

    The seed, if given, maps (u, exponent tuple) to a value.  Level 0
    solves the base equations for the jets up to order m: by a
    minimum-norm linear solve when they are affine (seed entries are then
    pinned as hard constraints, and must be rational when
    expr.exact_arithmetic makes the equations exact at x), by damped
    multistart Newton from the seed otherwise, keeping the first root found.
    Each later level is affine in its newly introduced top-order jets and
    is solved by a minimum-norm linear solve with the lower-order jets
    held fixed.  Each level is assembled at the point by its plan
    (_level_plan), from the gradient values (_gradient_values, read once
    per solve) and the equations' series with the known jets bound
    (_bound_series): the seeds, then each level's solved jets, bound by
    the plans' shift plans.  The result is exact whenever level 0 was.

    Level l of the solve reads only the rows and jets of level <= l, so
    the point is solved once for all levels: result.levels[l] is the jet
    truncated to order m + l with the residual of the rows of level <= l.
    A level that fails ends the solve, and every level from it up reports
    that failure.  So does the first level whose rows, at the solved jet,
    exceed tol (0 in exact arithmetic).
    """
    op = sys.operator
    _check_point(op, x)
    n, k, m, top = op.n, op.k, op.order, sys.level
    seed_vals = _seed_values(seed)
    base_cols, base_rows, factorials, bind = _level_plan(op.jet_variables, op.layout, 0, top)
    for u, p in seed_vals:
        if (u, p) not in base_cols:
            raise ValueError(
                f"seed key ({u}, {p}) is not a base jet coordinate: "
                f"unknown 1..{k}, multi-index of {n} entries and order <= {m}"
            )
    known = {c: seed_vals[c] for c in base_cols if c in seed_vals}
    gradient = None
    if not op.affine:
        exact = False
        solved, failure = _solve_newton_base(op, base_cols, x, seed_vals, tol)
    else:
        if exact_arithmetic(op.equations, x) and not exact_arithmetic((), known.values()):
            raise ValueError(
                "the equations are solved exactly at this point: "
                "seed values must be rational"
            )
        exact = exact_arithmetic(op.equations, [*x, *known.values()])
        cast = Fraction if exact else float
        known = {c: cast(v) for c, v in known.items()}
        free_cols, rows = base_cols, base_rows
        # the seeds are bound as every later level binds its solved jets,
        # and an unseeded jet reads as 0
        seeds = {v: {} for v in op.jet_variables}
        if known:
            free_cols = tuple(c for c in base_cols if c not in known)
            keys = op.layout[3]
            rows = _row_plan(keys, (zero_index(n),), free_cols, _constant(n, keys))
            given = dict(zip(known, taylor_coefficients(
                known, known.values(), [q.factorial() for _, q in known], exact
            )))
            bind_jets(seeds, bind, [given.get(c) for c in base_cols])
        gradient = _gradient_values(op, x, known, exact)
        a, b = _assemble(rows, gradient, _bound_series(op, x, seeds, 0, exact))
        values, failure = _solve_affine(a, b, exact, tol, 0)
        solved = dict(zip(free_cols, values))
    lam = 0
    if failure is None:
        known.update(solved)
        # the arithmetic of level 0 carries to every later level, and so do
        # an affine base's partials, which hold no jet; a Newton base's
        # partials are read at its solved jets
        if gradient is None:
            gradient = _gradient_values(op, x, known, exact)
        # one set of bindings for the solve, grown by each level's jets
        bindings = {v: {} for v in op.jet_variables}
        values = [known[c] for c in base_cols]
        bind_jets(bindings, bind, taylor_coefficients(base_cols, values, factorials, exact))
        for lam in range(1, top + 1):
            columns, rows, factorials, bind = _level_plan(op.jet_variables, op.layout, lam, top)
            a, b = _assemble(rows, gradient, _bound_series(op, x, bindings, top, exact))
            values, failure = _solve_affine(a, b, exact, tol, lam)
            if failure is not None:
                break
            known.update(zip(columns, values))
            bind_jets(bindings, bind, taylor_coefficients(columns, values, factorials, exact))

    passed = sys.level if failure is None else lam - 1
    levels = []
    if passed >= 0:
        jet = Jet(n, k, m + passed, known)
        limit = 0 if exact else tol
        first = None  # the first level whose rows exceed the limit
        for level, residual in enumerate(_residuals(op, x, jet, sys.level, bindings)):
            if first is None and not residual <= limit:  # NaN fails too
                first = level
            levels.append(
                JetSolveResult(
                    status="solved" if first is None else "solver-failed",
                    jet=jet.truncate(m + level),
                    residual=float(residual),
                    arithmetic="exact" if exact else "float",
                    failed_level=first,
                    detail="" if first is None else (
                        f"the solved jet's residual {float(residual):.3g} "
                        f"exceeds tol {limit:g} from level {first}"
                    ),
                )
            )
    levels += [failure] * (sys.level - passed)
    top = levels[-1]
    return JetSolveResult(
        top.status, top.jet, top.residual, top.arithmetic, top.failed_level, top.detail,
        tuple(levels),
    )


def _gradient_values(op: PdeOperator, x, jets: dict, exact: bool) -> list:
    """Each jet partial's value at x and the jets {(u, q): value}, in
    equation order, then gradient key order: the values of _assemble at
    level 0 of an affine base and at a level whose lower jets are known,
    each a constant series.  Exact values come from evaluate_exact; float
    ones off one call of op.compiled_base's Jacobian, read by position:
    the floats evaluate_float gives, by compile_float's contract.  A jet
    not in `jets` is passed as 0.0: only the base of an affine operator
    leaves jets unknown, and its partials hold no jet."""
    if not exact:
        columns, _, jacobian, positions = op.compiled_base
        flat = jacobian([*x, *(jets.get(c, 0.0) for c in columns)])
        return list(map(flat.__getitem__, positions))
    values = dict(zip(op.context.space_vars(), x))
    values.update({op.context.jet(u, q): v for (u, q), v in jets.items()})
    return [evaluate_exact(d, values) for g in op.gradients for d in g.values()]


def _bound_series(op: PdeOperator, x, bindings: dict, order: int, exact: bool) -> list[dict]:
    """The Taylor series c_j, to `order`, of each base equation at x with
    the jet variables bound by `bindings`, slot series (taylor.bind_jets):
    so p! c_{j,p} is the prolonged row F_{j,p} at the bound jets, a jet
    variable bound to the empty series reading as 0.  The arithmetic is
    taylor.series mode "auto" when `exact`, "float" otherwise."""
    return series_each(op.equations, x, order, _mode(exact), bindings)


def _solve_affine(a, b, exact: bool, tol: float, level: int) -> tuple[list, JetSolveResult | None]:
    """Minimum-norm solve of A y = b for the jets of `level`: exact when
    `exact`, float otherwise, with the residual floor deciding
    consistency.  Returns (y in column order, None), or ([], the failed
    JetSolveResult) when the system is inconsistent."""
    detail = "inconsistent affine system at level 0" if level == 0 else "inconsistent level"
    if exact:
        solution = exact_least_norm(a, b)
        if solution is None:
            floor = exact_residual_floor(a, b)
            return [], JetSolveResult("no-solution", None, floor, "exact", level, detail)
        return solution, None
    xsol, floor = float_least_norm(a, b)
    if floor > max(tol, CONSISTENCY_FLOOR):
        return [], JetSolveResult("no-solution", None, floor, "float", level, detail)
    return [float(v) for v in xsol], None


def _solve_newton_base(
    op: PdeOperator, cols, x, seed_vals, tol
) -> tuple[dict, JetSolveResult | None]:
    """Damped multistart Newton on the level-0 rows for the jets `cols`,
    through their residual and Jacobian compiled once per operator; the
    result as _solve_affine's."""
    present, residual, jacobian, _ = op.compiled_base
    width = len(present)
    space_f = [float(v) for v in x]

    def fun(vec):
        return residual(space_f + vec)

    def jac(vec):
        flat = jacobian(space_f + vec)
        return [flat[i : i + width] for i in range(0, len(flat), width)]

    seeds = []
    if seed_vals:
        seeds.append([float(seed_vals.get(uq, 0.0)) for uq in present])
    best, results = multistart_newton(fun, jac, width, seeds, tol=tol)
    if best is None:
        stationary = [r for r in results if r.stationary]
        if stationary:
            floor = min(r.residual for r in stationary)
            if floor <= CONSISTENCY_FLOOR:
                # as small as a float affine level accepts as consistent:
                # not a verdict that no root exists
                return {}, JetSolveResult(
                    "solver-failed", None, floor, "float", 0,
                    "Newton stopped at a stationary residual within the "
                    f"consistency floor {CONSISTENCY_FLOOR:g} but above tol {tol:g}",
                )
            return {}, JetSolveResult(
                "no-solution", None, floor, "float", 0,
                "all Newton starts reached a stationary residual floor",
            )
        floor = min(r.residual for r in results)
        detail = (
            "Newton did not converge from any start"
            if math.isfinite(floor)
            else "the equations could not be evaluated at any Newton start"
        )
        return {}, JetSolveResult("solver-failed", None, floor, "float", 0, detail)
    values = {uq: float(seed_vals.get(uq, 0.0)) for uq in cols}
    values.update({uq: float(v) for uq, v in zip(present, best.x)})
    return values, None


def _residuals(op: PdeOperator, x, jet: Jet, top: int, bindings: dict) -> list:
    """For each level l up to the jet's, the largest |F_{j,p}| over the
    rows of level <= l at the solved jet, in its arithmetic (0 while all are zero).

    F_{j,p} = p! c_{j,p} for the series c_j of each equation with its jet
    variables bound to the jet, `bindings` (taylor.jet_bindings of the
    jet's coefficients in its arithmetic), taken to the solve's `top`
    order: one series per equation, read in the row order of each level's
    plan (_level_plan), with each level's value the running maximum at
    its last row.  A jet is exact only when level 0 ran exactly, so the
    equations are rational-closed and every coefficient is a Fraction."""
    exact = jet.exact
    offsets = _bound_series(op, x, bindings, top, exact)
    worst = 0
    running = []
    for level in range(jet.order - op.order + 1):
        _, (_, rows), _, _ = _level_plan(op.jet_variables, op.layout, level, top)
        for factor, p, j, _ in rows:
            c = offsets[j].get(p)
            if c is not None:
                worst = max(worst, abs(factor * c))
        running.append(worst)
    return running


# ---------------------------------------------------------------------------
# aggregated range reports

class RangeEntry:
    # one per point and level of a range check: slots keep a large report small
    __slots__ = ("point", "level", "outcome", "certificate", "jet", "residual", "detail")

    def __init__(
        self,
        point: tuple,
        level: int,
        outcome: str,
        certificate: RankCertificate | None = None,
        jet: Jet | None = None,
        residual: float = 0.0,
        detail: str = "",
    ):
        self.point = point
        self.level = level
        self.outcome = outcome  # solved | rank-certified | no-solution | solver-failed
        self.certificate = certificate
        self.jet = jet  # the solved jet, kept by a failed residual check too
        self.residual = residual
        self.detail = detail

    @property
    def ok(self) -> bool:
        return self.outcome in ("solved", "rank-certified")


class RangeReport:
    def __init__(self, entries: list[RangeEntry], l_max: int, tolerance: float):
        self.entries = entries
        self.l_max = l_max
        self.tolerance = tolerance

    @property
    def all_ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def to_json(self):
        points: dict[str, dict] = {}
        for e in self.entries:
            level_map = points.setdefault(point_text(e.point), {})
            rec: dict = {"outcome": e.outcome}
            if e.certificate is not None:
                rec["certificate"] = e.certificate.to_json()
            if e.ok and e.jet is not None:
                rec["jet"] = jet_to_json(e.jet)
            if e.outcome in ("no-solution", "solver-failed"):
                # a failed residual check keeps its solved jet, and its
                # residual is that jet's; any other failure gives its
                # system's floor, null when no start could be evaluated
                key = "residual" if e.jet is not None else "residual_floor"
                rec[key] = e.residual if math.isfinite(e.residual) else None
            if e.detail:
                rec["detail"] = e.detail
            level_map[str(e.level)] = rec
        return {
            "l_max": self.l_max,
            "tolerance": self.tolerance,
            "all_ok": self.all_ok,
            "points": points,
        }


def jet_to_json(jet: Jet):
    if jet.exact:
        arithmetic = "exact"
        fmt = str
    else:
        arithmetic = "float"
        fmt = float
    return {
        "order": jet.order,
        "arithmetic": arithmetic,
        "values": {
            f"{u};{p}": fmt(v)
            for (u, p), v in sorted(
                jet.values.items(), key=lambda kv: (kv[0][1].grlex_key(), kv[0][0])
            )
        },
    }


def range_condition_check(
    op: PdeOperator,
    points: Sequence[Sequence],
    l_max: int,
    tol: float = 1e-12,
) -> RangeReport:
    """Check solvability (0 in the prolonged range) at every sample point
    and every level l <= l_max; failures become report entries.

    A linear operator is linearized once at l_max, and every level at a
    point is certified from one elimination pass over its stacked rows.
    A nonlinear operator is solved once per point at l_max: the
    triangular solve reports every level."""
    top = prolong(op, l_max)
    linear = linearize(top)
    entries = []
    for x in points:
        point = tuple(x)  # one tuple for all of the point's entries
        if linear is not None:
            for cert, floor in _certify(linear, x, range(l_max + 1)):
                if floor is None:
                    entries.append(
                        RangeEntry(point, cert.level, "rank-certified", certificate=cert)
                    )
                else:
                    entries.append(
                        RangeEntry(
                            point, cert.level, "no-solution",
                            certificate=cert,
                            residual=floor,
                            detail="rank deficiency: inconsistent linear system",
                        )
                    )
            continue
        for level, res in enumerate(solve_jets_triangular(top, x, tol=tol).levels):
            entries.append(
                RangeEntry(
                    point, level, res.status,
                    jet=res.jet,
                    residual=res.residual,
                    detail=res.detail,
                )
            )
    return RangeReport(entries, l_max, tol)
