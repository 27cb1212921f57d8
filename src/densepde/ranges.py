"""The affine layer of the range analysis: exact rank certificates for
linear operators and the triangular level-by-level jet solver.

Every prolongation level is affine in the jet coordinates it newly
introduces, so solvability in jet space reduces to one order-m root
search plus a chain of linear solves.  One AffineSplit carries that
structure for a set of prolonged rows and chosen jet columns: its
coefficients are the rows' jet gradients (ProlongedSystem.gradient,
computed once per row and shared with prolongation), its offsets the rows
with the columns set to zero.  One routine, _matrices, turns a split into
a coefficient matrix and right-hand side at a point with the other jets
known; rank certificates take the ranks of its leading blocks, one block
per level, the jet solver its least-norm solution, after a Newton root
search at level 0 when the base equations are not affine.

The solver is triangular: level l of a solve never looks at a row or a
jet above level l, so one solve of a point at the top level also gives
the solve at every lower level.  The range check and the staged
construction therefore solve each point once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Sequence

from .expr import (
    ZERO,
    Expr,
    evaluate_exact,
    evaluate_float,
    is_rational_closed,
    jet_variables,
)
from .jets import Jet, PdeOperator, ProlongedSystem, prolong
from .linalg import (
    FLOAT_RANK_TOL,
    exact_least_norm,
    exact_rank,
    float_least_norm,
    float_rank,
    residual_floor,
)
from .multiindex import MultiIndex, multi_indices, multi_indices_of_order
from .newton import multistart_newton

Column = tuple[int, MultiIndex]


class NotLinearError(Exception):
    """The operator is not affine in its jet coordinates."""


def jet_columns(n: int, k: int, order: int) -> list[Column]:
    """Column layout of the linear systems: jet coordinates of order <=
    `order`, graded-lex in the multi-index, then by unknown."""
    return [(u, p) for p in multi_indices(n, order) for u in range(1, k + 1)]


@dataclass(frozen=True)
class AffineSplit:
    """Rows F_{j,p} of a prolonged system as offset + sum over `columns`
    of coefficient * jet.  coefficients[i] is row i's jet gradient
    restricted to the columns; no coefficient involves a column, so the
    offset is the row with every column set to zero."""

    system: ProlongedSystem
    rows: tuple[tuple[int, MultiIndex], ...]
    columns: tuple[Column, ...]
    coefficients: tuple[dict[Column, Expr], ...]

    @property
    def equations(self) -> list[Expr]:
        return [self.system.equations[row] for row in self.rows]


def _affine_split(
    system: ProlongedSystem,
    rows: Sequence[tuple[int, MultiIndex]],
    columns: Sequence[Column],
) -> AffineSplit | None:
    """Split the rows (keys (j, p)) in the jet columns; None when some row
    is not affine in them."""
    col_set = set(columns)
    coefficients = []
    for j, p in rows:
        coeffs = {c: d for c, d in system.gradient(j, p).items() if c in col_set}
        for d in coeffs.values():
            if any((v.unknown, v.index) in col_set for v in jet_variables(d)):
                return None
        coefficients.append(coeffs)
    return AffineSplit(system, tuple(rows), tuple(columns), tuple(coefficients))


def linearize(sys: ProlongedSystem) -> AffineSplit | None:
    """Split of the whole system in all its jet coordinates, or None when
    some equation is nonlinear in a jet coordinate."""
    op = sys.operator
    rows = [(j, p) for j, p, _ in sys.items()]
    return _affine_split(sys, rows, jet_columns(op.n, op.k, sys.top_order))


def _rational(v) -> bool:
    return isinstance(v, (int, Fraction))


def _exact(split: AffineSplit, values) -> bool:
    """Exact arithmetic applies: rational values and rational-closed rows."""
    return all(map(_rational, values)) and all(
        is_rational_closed(e) for e in split.equations
    )


def _matrices(split: AffineSplit, values: dict, exact: bool):
    """Coefficient matrix A and right-hand side b = -offset of the split.

    `values` assigns the space variables and every jet coordinate of the
    rows that is not a column.  Entries are Fractions when `exact`,
    floats otherwise.
    """
    context = split.system.operator.context
    zero = Fraction(0) if exact else 0.0
    assignment = dict(values)
    assignment.update({context.jet(u, q): zero for u, q in split.columns})
    evaluate = evaluate_exact if exact else evaluate_float
    index = {c: i for i, c in enumerate(split.columns)}
    a, b = [], []
    for e, coeffs in zip(split.equations, split.coefficients):
        row = [zero] * len(index)
        for c, d in coeffs.items():
            row[index[c]] = evaluate(d, assignment)
        a.append(row)
        b.append(-evaluate(e, assignment))
    return a, b


@dataclass(frozen=True)
class RankCertificate:
    """Solvability certificate for a linear operator at one point/level.

    holds: rank P = rank Q (the prolonged linear system is consistent).
    strict: additionally full row rank, so the system is solvable for
    every right-hand side (the nondegeneracy the rank discussion of the
    linear case aims at).
    """

    point: tuple
    level: int
    rank_p: int
    rank_q: int
    n_rows: int
    n_cols: int
    holds: bool
    strict: bool
    arithmetic: str
    tolerance: float | None = None

    def __post_init__(self):
        if self.strict and not self.holds:
            raise ValueError("strict certificate must hold")

    @property
    def jet_coordinate_count(self) -> int:
        return self.n_cols

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
    split = linearize(prolong(op, level))
    if split is None:
        raise NotLinearError("operator is not linear in its jet coordinates")
    return _certify(split, x, [level])[0][0]


def _certify(split: AffineSplit, x: Sequence, levels: Sequence[int]):
    """(certificate, residual floor or None when it holds) of the split's
    restriction to each of `levels` at the point x: P = A and Q is A with
    the column b appended.

    The split's rows come in level order and its columns in jet order,
    and a row of level l is zero outside the columns of order <= m + l.
    So each level's system is a leading block of the split's, and one
    exact elimination pass over the rows of Q gives every level's ranks.
    In float arithmetic each level is factored on its own, from the top
    down, until a level has full row rank: its leading blocks then have
    full row rank too, since deleting rows leaves the smallest singular
    value no smaller and the largest no larger (interlacing).  That holds
    for singular values; the pivoted-QR rank follows them except within
    rounding of the tolerance.
    Exactness of the split carries over to its blocks, and back: the
    prolonged rows of rational-closed equations are rational-closed.
    """
    op = split.system.operator
    if not op.contains(x):
        raise ValueError(f"point {tuple(x)} outside the domain box")
    space = dict(zip(op.context.space_vars(), x))
    exact = _exact(split, space.values())
    a, b = _matrices(split, space, exact)
    ends = [sum(p.order <= level for _, p in split.rows) for level in levels]
    widths = [
        sum(q.order <= op.order + level for _, q in split.columns) for level in levels
    ]
    blocks = [([row[:w] for row in a[:e]], b[:e]) for e, w in zip(ends, widths)]
    if exact:
        ranks = exact_rank([row + [v] for row, v in zip(a, b)], ends)
        tol = None
    else:
        ranks, full = [], False
        for pa, pb in reversed(blocks):
            if full:
                ranks.append((len(pa), len(pa)))
            else:
                ranks.append(float_rank(pa, rhs=pb))
                full = ranks[-1][0] == len(pa)
        ranks.reverse()
        tol = FLOAT_RANK_TOL
    out = []
    for level, (pa, pb), width, (rank_p, rank_q) in zip(levels, blocks, widths, ranks):
        holds = rank_p == rank_q
        cert = RankCertificate(
            point=tuple(x),
            level=level,
            rank_p=rank_p,
            rank_q=rank_q,
            n_rows=len(pa),
            n_cols=width,
            holds=holds,
            strict=holds and rank_p == len(pa),
            arithmetic="exact" if exact else "float",
            tolerance=tol,
        )
        out.append((cert, None if holds else residual_floor(pa, pb)))
    return out


# ---------------------------------------------------------------------------
# triangular jet solving

@dataclass
class JetSolveResult:
    """Outcome of one triangular jet solve at a point.

    levels[l] is the result a solve of the prolongation to level l
    gives, for every level l of the solved system; the last entry equals
    this result.  The per-level results carry no levels of their own."""

    status: str  # solved | no-solution | solver-failed
    jet: Jet | None
    residual: float
    arithmetic: str
    failed_level: int | None = None
    detail: str = ""
    levels: tuple["JetSolveResult", ...] = field(default=(), repr=False, compare=False)

    @property
    def solved(self) -> bool:
        return self.status == "solved"


@dataclass
class _LevelResult:
    status: str  # ok | no-solution | solver-failed
    values: dict
    residual: float
    arithmetic: str
    detail: str = ""


def _seed_values(seed) -> dict:
    if seed is None:
        return {}
    if isinstance(seed, Jet):
        return dict(seed.values)
    return {
        (u, MultiIndex(p) if isinstance(p, tuple) else p): v
        for (u, p), v in seed.items()
    }


def _exact_base(op: PdeOperator, base: AffineSplit | None) -> bool:
    """Rational-closed equations whose level-0 split in the base jets
    exists: the jet solve at a rational point with a rational seed is
    then exact at every level, because prolonged rows of rational-closed
    equations are rational-closed."""
    return base is not None and all(is_rational_closed(g) for g in op.equations)


def solves_exactly(op: PdeOperator) -> bool:
    """Whether every jet of op solved at a rational point is exact (a
    seed must then be rational too), so that a float jet of op can only
    be a relabelled exact one."""
    sys = prolong(op, 0)
    rows = [(j, p) for j, p, _ in sys.items()]
    return _exact_base(op, _affine_split(sys, rows, jet_columns(op.n, op.k, op.order)))


def solve_jets_triangular(
    sys: ProlongedSystem,
    x: Sequence,
    seed=None,
    tol: float = 1e-12,
) -> JetSolveResult:
    """Solve all prolonged equations at the point x for a dense jet of
    order m + level, and report every lower level on the way.

    Level 0 solves the base equations for the jets up to order m: exactly
    by a minimum-norm rational solve when they are affine (seed entries are
    then pinned as hard constraints, and must be rational when the
    equations are rational-closed), by damped multistart Newton from the
    seed otherwise.  Each later level is affine in its newly introduced
    top-order jets and is solved by a minimum-norm linear solve with the
    lower-order jets held fixed; the result is exact whenever level 0 was.

    Level l of the solve reads only the rows and jets of level <= l, so
    the point is solved once for all levels: result.levels[l] is the jet
    truncated to order m + l with the residual of the rows of level <= l.
    A level that fails ends the solve, and every level from it up reports
    that failure.
    """
    op = sys.operator
    if not op.contains(x):
        raise ValueError(f"point {tuple(x)} outside the domain box")
    n, k, m = op.n, op.k, op.order
    space = dict(zip(op.context.space_vars(), x))
    seed_vals = _seed_values(seed)
    base_cols = jet_columns(n, k, m)
    known = {c: seed_vals[c] for c in base_cols if c in seed_vals}
    failure = None
    for lam in range(sys.level + 1):
        rows = [(j, p) for j, p, _ in sys.items_at_level(lam)]
        if lam > 0:
            new_cols = [
                (u, q)
                for q in multi_indices_of_order(n, m + lam)
                for u in range(1, k + 1)
            ]
            result = _solve_affine(
                _affine_split(sys, rows, new_cols), space, known, tol,
                "inconsistent level",
            )
        elif (base := _affine_split(sys, rows, base_cols)) is None:
            result = _solve_newton_base(sys, rows, base_cols, space, seed_vals, tol)
        else:
            if _exact_base(op, base) and not all(map(_rational, known.values())):
                raise ValueError(
                    "the equations are solved exactly: seed values must be rational"
                )
            free_cols = [c for c in base_cols if c not in known]
            result = _solve_affine(
                _affine_split(sys, rows, free_cols), space, known, tol,
                "inconsistent affine system at level 0",
            )
            cast = Fraction if result.arithmetic == "exact" else float
            known = {c: cast(v) for c, v in known.items()}
        if result.status != "ok":
            failure = JetSolveResult(
                status=result.status,
                jet=None,
                residual=result.residual,
                arithmetic=result.arithmetic,
                failed_level=lam,
                detail=result.detail,
            )
            break
        known.update(result.values)

    passed = sys.level if failure is None else lam - 1
    levels = []
    if passed >= 0:
        jet = Jet(n, k, m + passed, known)
        for level, residual in enumerate(_level_residuals(sys, space, jet, passed)):
            truncated = jet.truncate(m + level)
            exact = truncated.exact
            ok = residual == 0 if exact else residual <= tol
            levels.append(
                JetSolveResult(
                    status="solved" if ok else "solver-failed",
                    jet=truncated,
                    residual=float(residual),
                    arithmetic="exact" if exact else "float",
                )
            )
    levels += [failure] * (sys.level - passed)
    return replace(levels[-1], levels=tuple(levels))


def _solve_affine(
    split: AffineSplit, space: dict, known: dict, tol: float, detail: str
) -> _LevelResult:
    """Minimum-norm solve of the split for its columns, the other jets
    fixed at their known values: exact when the data is rational, float
    otherwise, with the residual floor deciding consistency."""
    context = split.system.operator.context
    values = dict(space)
    values.update({context.jet(u, q): v for (u, q), v in known.items()})
    if _exact(split, values.values()):
        solution = exact_least_norm(*_matrices(split, values, True))
        if solution is None:
            floor = residual_floor(*_matrices(split, values, False))
            return _LevelResult("no-solution", {}, floor, "exact", detail)
        return _LevelResult("ok", dict(zip(split.columns, solution)), 0.0, "exact")
    a, b = _matrices(split, values, False)
    floor = residual_floor(a, b)
    if floor > max(tol, 1e-9):
        return _LevelResult("no-solution", {}, floor, "float", detail)
    xsol = float_least_norm(a, b)
    values = {c: float(v) for c, v in zip(split.columns, xsol)}
    return _LevelResult("ok", values, floor, "float")


def _solve_newton_base(sys, rows, cols, space, seed_vals, tol) -> _LevelResult:
    context = sys.operator.context
    eqs = [sys.equations[row] for row in rows]
    gradients = [sys.gradient(j, p) for j, p in rows]
    col_set = set(cols)
    present = sorted(
        {c for g in gradients for c in g if c in col_set},
        key=lambda uq: (uq[1].grlex_key(), uq[0]),
    )
    jvars = [context.jet(u, q) for u, q in present]
    partials = [[g.get(c, ZERO) for c in present] for g in gradients]
    space_f = {v: float(val) for v, val in space.items()}

    def assignment(vec):
        a = dict(space_f)
        a.update({v: float(val) for v, val in zip(jvars, vec)})
        return a

    def fun(vec):
        a = assignment(vec)
        return [evaluate_float(e, a) for e in eqs]

    def jac(vec):
        a = assignment(vec)
        return [[evaluate_float(p, a) for p in row] for row in partials]

    seeds = []
    if seed_vals:
        seeds.append([float(seed_vals.get(uq, 0.0)) for uq in present])
    best, results = multistart_newton(fun, jac, len(present), seeds, tol=tol)
    if best is None:
        stationary = [r for r in results if r.stationary]
        if stationary:
            floor = min(r.residual for r in stationary)
            return _LevelResult(
                "no-solution", {}, floor, "float",
                "all Newton starts reached a stationary residual floor",
            )
        floor = min(r.residual for r in results)
        detail = (
            "Newton did not converge from any start"
            if math.isfinite(floor)
            else "the equations could not be evaluated at any Newton start"
        )
        return _LevelResult("solver-failed", {}, floor, "float", detail)
    values = {uq: float(seed_vals.get(uq, 0.0)) for uq in cols}
    values.update({uq: float(v) for uq, v in zip(present, best.x)})
    return _LevelResult("ok", values, best.residual, "float")


def _level_residuals(sys: ProlongedSystem, space: dict, jet: Jet, top: int) -> list:
    """For each level l <= top, the largest |F_{j,p}| over the rows of
    level <= l at the solved jet; exact zero stays exact.

    One pass over the rows, each evaluated once: rows come in level
    order, and every level of a solve has the jet's arithmetic (float
    data at one level carries into the next through the known jets), so
    each level's value is the running maximum at its last row."""
    assignment = dict(space)
    assignment.update(jet.assignment(sys.operator.context))
    exact = jet.exact
    worst = Fraction(0) if exact else 0.0
    running = {}
    for j, p, e in sys.items():
        if p.order > top:
            break
        if exact and is_rational_closed(e):
            val = abs(evaluate_exact(e, assignment))
        else:
            val = abs(evaluate_float(e, assignment))
            exact = False
            worst = float(worst)
        worst = max(worst, val)
        running[p.order] = worst
    return list(running.values())


# ---------------------------------------------------------------------------
# aggregated range reports

@dataclass
class RangeEntry:
    point: tuple
    level: int
    outcome: str  # solved | rank-certified | no-solution | solver-failed
    certificate: RankCertificate | None = None
    jet: Jet | None = None
    residual: float = 0.0
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.outcome in ("solved", "rank-certified")


@dataclass
class RangeReport:
    entries: list[RangeEntry]
    l_max: int
    tolerance: float

    @property
    def all_ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def to_json(self):
        points: dict[str, dict] = {}
        for e in self.entries:
            key = "(" + ", ".join(str(c) for c in e.point) + ")"
            level_map = points.setdefault(key, {})
            rec: dict = {"outcome": e.outcome}
            if e.certificate is not None:
                rec["certificate"] = e.certificate.to_json()
            if e.jet is not None:
                rec["jet"] = jet_to_json(e.jet)
            if e.outcome in ("no-solution", "solver-failed"):
                # null when no start could be evaluated: there is no floor
                rec["residual_floor"] = e.residual if math.isfinite(e.residual) else None
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
    point is certified from one elimination pass over that split.  A
    nonlinear operator is prolonged once to l_max, and each point is
    solved once there: the triangular solve reports every level."""
    top = prolong(op, l_max)
    linear = linearize(top)
    entries = []
    for x in points:
        if linear is not None:
            for cert, floor in _certify(linear, x, range(l_max + 1)):
                if floor is None:
                    entries.append(
                        RangeEntry(tuple(x), cert.level, "rank-certified", certificate=cert)
                    )
                else:
                    entries.append(
                        RangeEntry(
                            tuple(x), cert.level, "no-solution",
                            certificate=cert,
                            residual=floor,
                            detail="rank deficiency: inconsistent linear system",
                        )
                    )
            continue
        for level, res in enumerate(solve_jets_triangular(top, x, tol=tol).levels):
            entries.append(
                RangeEntry(
                    tuple(x), level, res.status,
                    jet=res.jet if res.solved else None,
                    residual=res.residual,
                    detail=res.detail,
                )
            )
    return RangeReport(entries, l_max, tol)
