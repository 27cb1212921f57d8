"""The affine layer of the range analysis: exact rank certificates for
linear operators and the triangular level-by-level jet solver.

Every prolongation level is affine in the jet coordinates it newly
introduces, and its coefficients there are the symbol of the base
equations: in D^p G_j the jet u_{u,beta} of order m + |p| has the
coefficient dG_j/du_{u,beta-p} (Seiler, "Involution", 2010, ch. 2).  So
no level system is built in jet space.  At a point, the matrix of level
l >= 1 is assembled from the level-0 jet gradients, evaluated once per
point, and its right-hand side from the truncated Taylor series of the
base equations (taylor.series) with the known jets bound as the series of
their Taylor polynomial, the top-order jets zero (Griewank and Walther,
"Evaluating Derivatives", 2nd ed., ch. 13).  The solver takes the
least-norm solution of each level, after a Newton root search at level 0
when the base equations are not affine.  A linear operator's stacked
rows, which its rank certificates need, come from the series of its
coefficients by the Leibniz rule.

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
    Expr,
    evaluate_exact,
    evaluate_float,
    exact_arithmetic,
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
from .taylor import series, shift

Column = tuple[int, MultiIndex]

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
        raise ValueError(f"point {tuple(x)} outside the domain box")


def jet_columns(n: int, k: int, order: int) -> list[Column]:
    """Column layout of the linear systems: jet coordinates of order <=
    `order`, graded-lex in the multi-index, then by unknown."""
    return [(u, p) for p in multi_indices(n, order) for u in range(1, k + 1)]


def _base_gradients(sys: ProlongedSystem) -> list[dict[Column, Expr]]:
    """The jet gradient of each base equation, in equation order."""
    return [sys.gradient(j, p) for j, p, _ in sys.items_at_level(0)]


def _affine(gradients) -> bool:
    """Whether the base equations are affine in their jets: no partial
    involves a jet.  Their prolongations are then affine too."""
    return not any(jet_variables(d) for g in gradients for d in g.values())


def _mode(exact: bool) -> str:
    """The taylor.series mode of expr.exact_arithmetic's verdict."""
    return "auto" if exact else "float"


@dataclass(frozen=True)
class LinearSystem:
    """A prolonged system of a linear operator, G_j = f_j + sum over jet
    columns c of a_{j,c} * u_c.  coefficients[j - 1] maps each column c
    to a_{j,c}, the jet-free level-0 jet gradient."""

    system: ProlongedSystem
    coefficients: tuple[dict[Column, Expr], ...]


def linearize(sys: ProlongedSystem) -> LinearSystem | None:
    """The linear form of the system, or None when some equation is
    nonlinear in a jet coordinate."""
    gradients = _base_gradients(sys)
    if not _affine(gradients):
        return None
    return LinearSystem(sys, tuple(gradients))


def _leibniz(p: MultiIndex) -> list[tuple[MultiIndex, MultiIndex, int]]:
    """(q, p - q, p! / q!) for every q <= p, componentwise."""
    out = []
    for q in multi_indices(p.n, p.order):
        if all(b <= a for a, b in zip(p.entries, q.entries)):
            rest = MultiIndex(tuple(a - b for a, b in zip(p.entries, q.entries)))
            out.append((q, rest, p.factorial() // q.factorial()))
    return out


def _stacked(linear: LinearSystem, x: Sequence, exact: bool):
    """Matrix A and right-hand side b of every row (j, p) of the linear
    system at x, rows in the order of ProlongedSystem.items() and columns
    in jet_columns order, each entry a Fraction when `exact`, a float
    otherwise.

    By the Leibniz rule the coefficient of u_{u,gamma} in D^p G_j is the
    sum of (p!/q!) c_{p-q}(a_{j,u,alpha}) over alpha + q = gamma, q <= p,
    where c is the Taylor series at x; and b = -p! c_p(f_j), with f_j the
    equation at every jet zero."""
    sys = linear.system
    op = sys.operator
    level, mode = sys.level, _mode(exact)
    zero = Fraction(0) if exact else 0.0
    columns = jet_columns(op.n, op.k, sys.top_order)
    index = {c: i for i, c in enumerate(columns)}
    indices = multi_indices(op.n, level)
    offsets = _equation_series(op, x, {}, level, exact)
    # per coefficient a_{j,u,alpha}: its series and the column of each u_{alpha+q}
    coefficients = [
        [
            (series(d, x, level, mode), {q: index[(u, alpha + q)] for q in indices})
            for (u, alpha), d in g.items()
        ]
        for g in linear.coefficients
    ]
    a, b = [], []
    for p in indices:
        terms, factor = _leibniz(p), p.factorial()
        for offset, coeffs in zip(offsets, coefficients):
            row = [zero] * len(columns)
            for s, column in coeffs:
                for q, rest, weight in terms:
                    c = s.get(rest)
                    if c is not None:
                        row[column[q]] += weight * c
            a.append(row)
            c = offset.get(p)
            b.append(zero if c is None else -(factor * c))
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


def _certify(linear: LinearSystem, x: Sequence, levels: Sequence[int]):
    """(certificate, residual floor or None when it holds) of the linear
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
    op = linear.system.operator
    _check_point(op, x)
    exact = exact_arithmetic(op.equations, x)
    a, b = _stacked(linear, x, exact)
    ends = [op.r * len(multi_indices(op.n, level)) for level in levels]
    widths = [op.k * len(multi_indices(op.n, op.order + level)) for level in levels]
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


def solves_exactly(op: PdeOperator) -> bool:
    """Whether every jet of op solved at a rational point is exact (a
    seed must then be rational too), so that a float jet of op can only
    be a relabelled exact one: the equations are rational-closed and
    affine in the base jets, so level 0 is an exact linear solve."""
    return exact_arithmetic(op.equations, ()) and _affine(_base_gradients(prolong(op, 0)))


def solve_jets_triangular(
    sys: ProlongedSystem,
    x: Sequence,
    seed=None,
    tol: float = 1e-12,
) -> JetSolveResult:
    """Solve all prolonged equations at the point x for a dense jet of
    order m + level, and report every lower level on the way.

    Level 0 solves the base equations for the jets up to order m: by a
    minimum-norm linear solve when they are affine (seed entries are then
    pinned as hard constraints, and must be rational when
    expr.exact_arithmetic makes the equations exact at x), by damped
    multistart Newton from the seed otherwise.  Each later level is affine
    in its newly introduced top-order jets and is solved by a minimum-norm
    linear solve with the lower-order jets held fixed (_level_system); the
    result is exact whenever level 0 was.  No row of the system above
    level 0 is built.

    Level l of the solve reads only the rows and jets of level <= l, so
    the point is solved once for all levels: result.levels[l] is the jet
    truncated to order m + l with the residual of the rows of level <= l.
    A level that fails ends the solve, and every level from it up reports
    that failure.
    """
    op = sys.operator
    _check_point(op, x)
    n, k, m = op.n, op.k, op.order
    space = dict(zip(op.context.space_vars(), x))
    seed_vals = _seed_values(seed)
    base_cols = jet_columns(n, k, m)
    known = {c: seed_vals[c] for c in base_cols if c in seed_vals}
    gradients = _base_gradients(sys)
    if not _affine(gradients):
        result = _solve_newton_base(sys, base_cols, space, seed_vals, tol)
    else:
        if exact_arithmetic(op.equations, x) and not exact_arithmetic((), known.values()):
            raise ValueError(
                "the equations are solved exactly at this point: "
                "seed values must be rational"
            )
        free_cols = [c for c in base_cols if c not in known]
        exact = exact_arithmetic(op.equations, [*x, *known.values()])
        result = _solve_affine(
            free_cols, *_base_system(op, gradients, free_cols, space, known, exact),
            exact, tol, "inconsistent affine system at level 0",
        )
        cast = Fraction if exact else float
        known = {c: cast(v) for c, v in known.items()}
    lam = 0
    if result.status == "ok":
        known.update(result.values)
        # the arithmetic of level 0 carries to every later level
        exact = exact_arithmetic(op.equations, [*x, *known.values()])
        symbol = _symbol(op, gradients, space, known, exact)
        for lam in range(1, sys.level + 1):
            offsets = _equation_series(op, x, known, sys.level, exact)
            columns, a, b = _level_system(op, symbol, offsets, lam, exact)
            result = _solve_affine(columns, a, b, exact, tol, "inconsistent level")
            if result.status != "ok":
                break
            known.update(result.values)
    failure = None
    if result.status != "ok":
        failure = JetSolveResult(
            status=result.status,
            jet=None,
            residual=result.residual,
            arithmetic=result.arithmetic,
            failed_level=lam,
            detail=result.detail,
        )

    passed = sys.level if failure is None else lam - 1
    levels = []
    if passed >= 0:
        jet = Jet(n, k, m + passed, known)
        for level, residual in enumerate(_residuals(op, x, jet, sys.level)):
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


def _values(op: PdeOperator, space: dict, jets: dict) -> dict:
    """The assignment of the space variables and the jets {(u, q): value}."""
    values = dict(space)
    values.update({op.context.jet(u, q): v for (u, q), v in jets.items()})
    return values


def _base_system(op, gradients, columns, space, known, exact: bool):
    """Matrix and right-hand side of the affine base equations in the jet
    `columns`, the other base jets fixed at their `known` values."""
    zero = Fraction(0) if exact else 0.0
    evaluate = evaluate_exact if exact else evaluate_float
    values = _values(op, space, known)
    values.update({op.context.jet(u, q): zero for u, q in columns})
    a = [[evaluate(g[c], values) if c in g else zero for c in columns] for g in gradients]
    b = [-evaluate(e, values) for e in op.equations]
    return a, b


def _symbol(op, gradients, space, base: dict, exact: bool) -> list[dict[Column, object]]:
    """S_j(u, alpha) = dG_j/du_{u,alpha} for |alpha| = m at the point and
    the base jet, per equation: the coefficients of every level >= 1."""
    evaluate = evaluate_exact if exact else evaluate_float
    values = _values(op, space, base)
    return [
        {(u, alpha): evaluate(d, values) for (u, alpha), d in g.items() if alpha.order == op.order}
        for g in gradients
    ]


def _equation_series(op: PdeOperator, x, jets: dict, order: int, exact: bool) -> list[dict]:
    """The Taylor series c_j, to `order`, of each base equation at x along
    the Taylor polynomial of the jets {(u, q): value}, a missing jet
    reading as 0: so p! c_{j,p} is the prolonged row F_{j,p} at those
    jets.  Each jet variable u_alpha is bound to the alpha-shift of the
    series q -> value(u, q) / q!; the arithmetic is taylor.series mode
    "auto" when `exact`, "float" otherwise."""
    scaled: dict[int, dict] = {u: {} for u in range(1, op.k + 1)}
    for (u, q), value in jets.items():
        scaled[u][q] = value / q.factorial()
    bindings = {
        v: shift(scaled[v.unknown], v.index, order)
        for v in {v for g in op.equations for v in jet_variables(g)}
    }
    return [series(g, x, order, _mode(exact), bindings) for g in op.equations]


def _level_system(op: PdeOperator, symbol, offsets, lam: int, exact: bool):
    """(columns, A, b) of level lam >= 1: the columns are its top-order
    jets (u, beta), |beta| = m + lam, graded-lex then unknown, and the rows
    (j, p) with |p| = lam come in the order of items().

    The entry at row (j, p), column (u, alpha + p) is the symbol
    S_j(u, alpha); the right-hand side is -p! c_{j,p}, with c_j from
    _equation_series at the jets below order m + lam (the top-order jets
    zero).  Every level takes its series at the solve's top order, so
    that all levels share one series layout."""
    columns = [
        (u, q) for q in multi_indices_of_order(op.n, op.order + lam) for u in range(1, op.k + 1)
    ]
    index = {c: i for i, c in enumerate(columns)}
    zero = Fraction(0) if exact else 0.0
    a, b = [], []
    for p in multi_indices_of_order(op.n, lam):
        factor = p.factorial()
        for s, offset in zip(symbol, offsets):
            row = [zero] * len(columns)
            for (u, alpha), value in s.items():
                row[index[(u, alpha + p)]] = value
            a.append(row)
            c = offset.get(p)
            b.append(zero if c is None else -(factor * c))
    return columns, a, b


def _solve_affine(columns, a, b, exact: bool, tol: float, detail: str) -> _LevelResult:
    """Minimum-norm solve of A y = b for the jets `columns`: exact when
    `exact`, float otherwise, with the residual floor deciding
    consistency."""
    if exact:
        solution = exact_least_norm(a, b)
        if solution is None:
            return _LevelResult("no-solution", {}, residual_floor(a, b), "exact", detail)
        return _LevelResult("ok", dict(zip(columns, solution)), 0.0, "exact")
    floor = residual_floor(a, b)
    if floor > max(tol, CONSISTENCY_FLOOR):
        return _LevelResult("no-solution", {}, floor, "float", detail)
    xsol = float_least_norm(a, b)
    values = {c: float(v) for c, v in zip(columns, xsol)}
    return _LevelResult("ok", values, floor, "float")


def _solve_newton_base(sys, cols, space, seed_vals, tol) -> _LevelResult:
    """Damped multistart Newton on the level-0 rows for the jets `cols`,
    through their residual and Jacobian compiled once per system."""
    present, residual, jacobian = sys.compiled_base
    width = len(present)
    space_f = [float(v) for v in space.values()]

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
                return _LevelResult(
                    "solver-failed", {}, floor, "float",
                    "Newton stopped at a stationary residual within the "
                    f"consistency floor {CONSISTENCY_FLOOR:g} but above tol {tol:g}",
                )
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


def _residuals(op: PdeOperator, x, jet: Jet, top: int) -> list:
    """For each level l up to the jet's, the largest |F_{j,p}| over the
    rows of level <= l at the solved jet, in the jet's arithmetic.

    F_{j,p} = p! c_{j,p} for the series c_j of _equation_series at the
    jet, taken to the solve's `top` order: one series per equation, read
    in row order, with each level's value the running maximum at its last
    row.  A jet is exact only when level 0 ran exactly, so the equations
    are rational-closed and every coefficient is a Fraction."""
    exact = jet.exact
    offsets = _equation_series(op, x, jet.values, top, exact)
    worst = Fraction(0) if exact else 0.0
    running = []
    for level in range(jet.order - op.order + 1):
        for p in multi_indices_of_order(op.n, level):
            for offset in offsets:
                c = offset.get(p)
                if c is not None:
                    worst = max(worst, abs(p.factorial() * c))
        running.append(worst)
    return running


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
    point is certified from one elimination pass over its stacked rows.
    A nonlinear operator is solved once per point at l_max: the
    triangular solve reports every level."""
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
