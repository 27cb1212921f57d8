"""Jets, PDE operators and prolongation by total derivatives."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .expr import (
    ZERO,
    Expr,
    SpaceVar,
    Var,
    differentiate,
    evaluate_exact,
    evaluate_float,
    free_variables,
    is_rational_closed,
    jet_variables,
    simplify,
    spow,
    sprod,
    ssum,
)
from .multiindex import MultiIndex, multi_indices, zero_index
from .parser import Context, parse_rational
from .taylor import derivative, series

Point = tuple[Fraction, ...]


@dataclass(frozen=True)
class Jet:
    """Dense assignment of values to jet coordinates up to a given order."""

    n: int
    k: int
    order: int
    values: Mapping[tuple[int, MultiIndex], Fraction | float]

    def __post_init__(self):
        expected = {(u, p) for u in range(1, self.k + 1) for p in multi_indices(self.n, self.order)}
        if set(self.values) != expected:
            missing = expected - set(self.values)
            extra = set(self.values) - expected
            raise ValueError(f"jet not dense: missing {missing}, extra {extra}")

    @property
    def exact(self) -> bool:
        return all(isinstance(v, (int, Fraction)) for v in self.values.values())

    def value(self, unknown: int, p: MultiIndex):
        return self.values[(unknown, p)]

    def assignment(self, context: Context) -> dict:
        """Map JetVars to values, for substitution into equations."""
        return {
            context.jet(u, p): v for (u, p), v in self.values.items()
        }

    def truncate(self, order: int) -> "Jet":
        if order > self.order:
            raise ValueError("cannot extend a jet by truncation")
        vals = {
            (u, p): v for (u, p), v in self.values.items() if p.order <= order
        }
        return Jet(self.n, self.k, order, vals)


@dataclass(frozen=True)
class PdeOperator:
    """A system of r equations G_j = 0 over space and jet variables.

    Right-hand sides are already folded in (homogeneous form); use
    normalize_homogeneous when building from an F = f pair.
    """

    context: Context
    order: int
    equations: tuple[Expr, ...]
    domain: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        n, k, m = self.context.n, self.context.k, self.order
        if len(self.domain) != n:
            raise ValueError("domain box dimension mismatch")
        for lo, hi in self.domain:
            if not lo < hi:
                raise ValueError("degenerate domain interval")
        if not self.equations:
            raise ValueError("need at least one equation")
        for g in self.equations:
            for v in jet_variables(g):
                if v.order > m:
                    raise ValueError(
                        f"jet {v.name} of order {v.order} exceeds declared order {m}"
                    )
                if not 1 <= v.unknown <= k:
                    raise ValueError(f"unknown index {v.unknown} out of range")
            for v in free_variables(g):
                if isinstance(v, SpaceVar) and not 1 <= v.axis <= n:
                    raise ValueError(f"axis {v.axis} out of range")

    @property
    def n(self) -> int:
        return self.context.n

    @property
    def k(self) -> int:
        return self.context.k

    @property
    def r(self) -> int:
        return len(self.equations)

    def contains(self, point: Sequence) -> bool:
        return all(lo < x < hi for x, (lo, hi) in zip(point, self.domain))


def normalize_homogeneous(F: Expr, f: Expr) -> Expr:
    """Fold the right-hand side into the operator: returns F - f simplified."""
    if jet_variables(f):
        raise ValueError("right-hand side must depend on space variables only")
    return simplify(F - f)


def jet_gradient(e: Expr) -> dict[tuple[int, MultiIndex], Expr]:
    """Partial derivative of e in each jet coordinate it contains, keyed
    by (unknown, index) in the order of unknown, then graded-lex index.

    This is the only place an equation is differentiated in its jet
    coordinates: total derivatives, affine splits and Newton Jacobians
    all read these partials, through ProlongedSystem.gradient for rows
    of a prolonged system."""
    return {
        (v.unknown, v.index): differentiate(e, v)
        for v in sorted(jet_variables(e), key=lambda v: (v.unknown, v.index.grlex_key()))
    }


def total_derivative(e: Expr, context: Context, axis: int) -> Expr:
    """Total derivative D_i along space axis i, with the jet-coordinate
    chain rule: D_i = d/dx_i + sum over jets of xi_{u,q+e_i} * d/d xi_{u,q}."""
    if not 1 <= axis <= context.n:
        raise ValueError(f"axis {axis} outside [1, {context.n}]")
    return _lift(e, jet_gradient(e), context, axis)


def _lift(e: Expr, gradient, context: Context, axis: int) -> Expr:
    """total_derivative of e, given its jet gradient."""
    terms = [differentiate(e, context.space(axis))]
    for (u, q), partial in gradient.items():
        if partial == ZERO:
            continue
        lifted = Var(context.jet(u, q.plus_axis(axis)))
        terms.append(sprod([lifted, partial]))
    return simplify(ssum(terms))


@dataclass(frozen=True)
class ProlongedSystem:
    """All prolonged equations F_{j,p} = D^p G_j for |p| <= level.

    The jet gradient of each row is computed on first use and cached, so
    no row is differentiated in its jet coordinates twice.
    """

    operator: PdeOperator
    level: int
    equations: Mapping[tuple[int, MultiIndex], Expr]
    _gradients: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def top_order(self) -> int:
        return self.operator.order + self.level

    def items(self):
        """(j, p, expr) in graded-lex order of p, then equation index."""
        for p in multi_indices(self.operator.n, self.level):
            for j in range(1, self.operator.r + 1):
                yield j, p, self.equations[(j, p)]

    def items_at_level(self, order: int):
        for j, p, e in self.items():
            if p.order == order:
                yield j, p, e

    def gradient(self, j: int, p: MultiIndex) -> dict[tuple[int, MultiIndex], Expr]:
        """jet_gradient of F_{j,p}, computed at most once per row."""
        if (j, p) not in self._gradients:
            self._gradients[(j, p)] = jet_gradient(self.equations[(j, p)])
        return self._gradients[(j, p)]


def prolong(op: PdeOperator, level: int) -> ProlongedSystem:
    """Prolong every equation to all D^p with |p| <= level.

    Memoized bottom-up: F_{j,p} is the total derivative of F_{j,p-e_i}
    along the first nonzero axis of p, so the layout is deterministic and
    the rows of level <= l are exactly those of prolonging to level l
    directly (the triangular jet solve reads every lower level off one
    top-level system).
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    n = op.n
    eqs: dict[tuple[int, MultiIndex], Expr] = {}
    system = ProlongedSystem(op, level, eqs)
    for j, g in enumerate(op.equations, start=1):
        eqs[(j, zero_index(n))] = g
    for p in multi_indices(n, level):
        if p.order == 0:
            continue
        axis = p.first_nonzero_axis()
        prev = p.minus_axis(axis)
        for j in range(1, op.r + 1):
            gradient = system.gradient(j, prev)
            eqs[(j, p)] = _lift(eqs[(j, prev)], gradient, op.context, axis)
    return system


def sum_of_squares(sys: ProlongedSystem) -> Expr:
    """The single scalar operator whose zeros are the common zeros of the
    prolonged system: sum of (F_{j,p})^2."""
    return simplify(ssum([spow(e, 2) for _, _, e in sys.items()]))


def jet_of_function(
    u: Expr | Sequence[Expr],
    context: Context,
    point: Sequence,
    order: int,
    exact: bool | None = None,
) -> Jet:
    """Jet of smooth function(s) of the space variables at a point.

    With exact=None, rational arithmetic is used when every component is
    rational-closed and the point is rational, floats otherwise.
    """
    components = [u] if isinstance(u, Expr) else list(u)
    if len(components) != context.k:
        raise ValueError(f"expected {context.k} component(s), got {len(components)}")
    for c in components:
        if jet_variables(c):
            raise ValueError("function must depend on space variables only")
    if exact is None:
        exact = all(is_rational_closed(c) for c in components) and all(
            isinstance(x, (int, Fraction)) for x in point
        )
    mode = "exact" if exact else "float"
    values: dict[tuple[int, MultiIndex], Fraction | float] = {}
    for unknown, c in enumerate(components, start=1):
        coefficients = series(c, point, order, mode)
        for p in multi_indices(context.n, order):
            values[(unknown, p)] = derivative(coefficients, p, exact)
    return Jet(context.n, context.k, order, values)


def evaluate_at_jet(e: Expr, context: Context, point: Sequence, jet: Jet):
    """Evaluate an expression over space and jet variables at (point, jet),
    exactly when possible."""
    assignment = dict(jet.assignment(context))
    for v, x in zip(context.space_vars(), point):
        assignment[v] = x
    exact = (
        is_rational_closed(e)
        and jet.exact
        and all(isinstance(x, (int, Fraction)) for x in point)
    )
    if exact:
        return evaluate_exact(e, assignment)
    return evaluate_float(e, assignment)


def apply_operator(op: PdeOperator, u: Expr | Sequence[Expr], point: Sequence):
    """Classical action: values of each G_j at the jets of u at the point."""
    jet = jet_of_function(u, op.context, point, op.order)
    return tuple(
        evaluate_at_jet(g, op.context, point, jet) for g in op.equations
    )


# ---------------------------------------------------------------------------
# PDE specification files

def parse_pde_text(text: str, name: str = "<pde>") -> PdeOperator:
    """Parse the PDE file format.

    Header lines ``dim:``, ``vars:``, ``unknowns:``, ``order:``, ``domain:``
    (per-axis rational intervals like ``(0,1)``), then one or more ``eq:``
    lines; an ``= expr`` right-hand side is folded in on load.
    """
    fields: dict[str, str] = {}
    eq_lines: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition(":")
        key = key.strip().lower()
        if not sep:
            raise ValueError(f"{name}:{lineno}: expected 'key: value'")
        if key == "eq":
            eq_lines.append(value.strip())
        elif key in ("dim", "vars", "unknowns", "order", "domain"):
            fields[key] = value.strip()
        else:
            raise ValueError(f"{name}:{lineno}: unknown header {key!r}")
    for required in ("dim", "vars", "order", "domain"):
        if required not in fields:
            raise ValueError(f"{name}: missing '{required}:' header")
    if not eq_lines:
        raise ValueError(f"{name}: no 'eq:' lines")
    n = int(fields["dim"])
    space_names = fields["vars"].split()
    if len(space_names) != n:
        raise ValueError(f"{name}: dim is {n} but vars lists {len(space_names)} names")
    unknown_names = fields.get("unknowns", "u").split()
    order = int(fields["order"])
    context = Context(space_names, unknown_names, max_jet_order=order)
    domain = _parse_domain(fields["domain"], n, name)
    equations = []
    for text_eq in eq_lines:
        lhs_text, sep, rhs_text = text_eq.partition("=")
        lhs = context.parse(lhs_text.strip())
        if sep:
            rhs = context.parse(rhs_text.strip())
            equations.append(normalize_homogeneous(lhs, rhs))
        else:
            equations.append(simplify(lhs))
    return PdeOperator(context, order, tuple(equations), domain)


def load_pde_file(path) -> PdeOperator:
    with open(path) as fh:
        return parse_pde_text(fh.read(), name=str(path))


def _parse_domain(text: str, n: int, name: str):
    intervals = re.findall(r"\(([^)]*)\)", text)
    if len(intervals) != n:
        raise ValueError(f"{name}: domain needs {n} intervals, got {len(intervals)}")
    out = []
    for chunk in intervals:
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 2:
            raise ValueError(f"{name}: bad interval ({chunk})")
        out.append((parse_rational(parts[0]), parse_rational(parts[1])))
    return tuple(out)
