"""Jets, PDE operators and prolongation by total derivatives."""

from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

from .expr import (
    MINUS_ONE,
    ZERO,
    Expr,
    SpaceVar,
    Var,
    compile_float,
    differentiate,
    exact_arithmetic,
    free_variables,
    jet_variables,
    simplify,
    sprod,
    ssum,
)
from .frozen import Frozen, Value
from .multiindex import MultiIndex, multi_indices
from .parser import Context, parse_rational


class Point(tuple, Frozen):
    """A point of a sequence: the tuple of its rational coordinates, with
    its hash computed once, in __new__, as MultiIndex's is.

    Sequence points key the solves, the stage jets (which verify reads at
    every stage and point), the polynomials and the bump scan, and hashing
    a tuple of Fractions hashes every coordinate again.  A Point equals the plain tuple of its
    coordinates and hashes as that tuple, so each finds the other's dict
    entries; it prints as that tuple, and a slice of it is a plain tuple.
    Point(p) is p itself when p is a Point."""

    def __new__(cls, coordinates):
        if type(coordinates) is cls:
            return coordinates
        self = tuple.__new__(cls, coordinates)
        self.__dict__["_hash"] = tuple.__hash__(self)
        return self

    def __hash__(self):
        return self._hash


class Jet(Value):
    """Dense assignment of values to jet coordinates up to a given order.

    Jets are equal when n, k, order and values are; a jet is not hashable."""

    _fields = ("n", "k", "order", "values")
    __hash__ = None

    def __init__(
        self,
        n: int,
        k: int,
        order: int,
        values: Mapping[tuple[int, MultiIndex], Fraction | float],
    ):
        # dense: as many values as the layout has keys, and every key among them
        indices = multi_indices(n, order)
        units = range(1, k + 1)
        if len(values) != k * len(indices) or not all(
            (u, p) in values for p in indices for u in units
        ):
            expected = {(u, p) for p in indices for u in units}
            missing = expected - set(values)
            extra = set(values) - expected
            raise ValueError(f"jet not dense: missing {missing}, extra {extra}")
        d = self.__dict__
        d["n"] = n
        d["k"] = k
        d["order"] = order
        d["values"] = values

    @cached_property
    def exact(self) -> bool:
        """Whether every value is exact, computed once per jet."""
        return exact_arithmetic((), self.values.values())

    def truncate(self, order: int) -> "Jet":
        """The jet's values of order <= `order`, this jet at its own order.
        They are dense, as this jet is, and are not checked again; the
        truncation of an exact jet is exact without a scan."""
        if order > self.order:
            raise ValueError("cannot extend a jet by truncation")
        if order == self.order:
            return self
        # the keys are this jet's own (u, p) tuples, not copies
        vals = {key: v for key, v in self.values.items() if key[1].order <= order}
        out = Jet.__new__(Jet)
        d = out.__dict__  # key by key, as __init__ does: update() would copy a key table
        d["n"] = self.n
        d["k"] = self.k
        d["order"] = order
        d["values"] = vals
        if self.exact:
            d["exact"] = True
        return out


class PdeOperator(Frozen):
    """A system of r equations G_j = 0 over space and jet variables.

    Right-hand sides are already folded in (homogeneous form); use
    normalize_homogeneous when building from an F = f pair.
    """

    def __init__(
        self,
        context: Context,
        order: int,
        equations: tuple[Expr, ...],
        domain: tuple[tuple[Fraction, Fraction], ...],
    ):
        d = self.__dict__
        d["context"] = context
        d["order"] = order
        d["equations"] = equations
        d["domain"] = domain
        n, k, m = context.n, context.k, order
        if type(m) is not int or m < 0:
            raise ValueError(f"order must be a whole number >= 0, got {m!r}")
        if len(self.domain) != n:
            raise ValueError("domain box dimension mismatch")
        for lo, hi in self.domain:
            if not lo < hi:
                raise ValueError("degenerate domain interval")
        if not self.equations:
            raise ValueError("need at least one equation")
        for v in self.jet_variables:
            if v.order > m:
                raise ValueError(
                    f"jet {v.name} of order {v.order} exceeds declared order {m}"
                )
            if not 1 <= v.unknown <= k:
                raise ValueError(f"unknown index {v.unknown} out of range")
        for g in self.equations:
            for v in free_variables(g):
                if isinstance(v, SpaceVar) and not 1 <= v.axis <= n:
                    raise ValueError(f"axis {v.axis} out of range")

    @cached_property
    def jet_variables(self) -> frozenset:
        """Every jet variable that occurs in the equations."""
        return frozenset(v for g in self.equations for v in jet_variables(g))

    @cached_property
    def gradients(self) -> tuple[dict[tuple[int, MultiIndex], Expr], ...]:
        """jet_gradient of each equation, in equation order: the gradients
        of the level-0 rows of every prolongation of the operator."""
        return tuple(jet_gradient(g) for g in self.equations)

    @cached_property
    def affine(self) -> bool:
        """Whether the equations are affine in their jets: no partial
        involves a jet.  Their prolongations are then affine too."""
        return not any(jet_variables(d) for g in self.gradients for d in g.values())

    @cached_property
    def compiled_base(self) -> tuple[tuple, Callable, Callable, tuple[int, ...]]:
        """(columns, residual, jacobian, positions): the equations compiled
        once, with expr.compile_float, for the Newton solve of a nonlinear
        base and the symbol of every later level.

        `columns` are the base jets the equations contain, in graded-lex
        order, then unknown; `residual` and the Jacobian in those jets
        (row-major, flat) are float functions of the space values followed
        by the jets in `columns`.  `positions` gives the place in the flat
        Jacobian of each jet partial, in equation order, then gradient key
        order."""
        columns = sorted(
            {c for g in self.gradients for c in g},
            key=lambda uq: (uq[1].grlex_key(), uq[0]),
        )
        variables = self.context.space_vars() + tuple(self.context.jet(u, q) for u, q in columns)
        partials = [g.get(c, ZERO) for g in self.gradients for c in columns]
        width = len(columns)
        return (
            tuple(columns),
            compile_float(self.equations, variables),
            compile_float(partials, variables),
            tuple(j * width + columns.index(c) for j, g in enumerate(self.gradients) for c in g),
        )

    @cached_property
    def layout(self) -> tuple:
        """(n, k, m, the jet gradient keys of each equation): what the index
        work of a jet solve at a point depends on, so equal layouts share
        the range analysis' level plans."""
        return (self.n, self.k, self.order, tuple(tuple(g) for g in self.gradients))

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
        """Whether the point has n coordinates and lies in the open box."""
        return len(point) == self.n and all(
            lo < x < hi for x, (lo, hi) in zip(point, self.domain)
        )


def normalize_homogeneous(F: Expr, f: Expr) -> Expr:
    """Fold the right-hand side into the operator: returns F - f simplified."""
    if jet_variables(f):
        raise ValueError("right-hand side must depend on space variables only")
    return simplify(ssum([F, sprod([MINUS_ONE, f])]))


def jet_gradient(e: Expr) -> dict[tuple[int, MultiIndex], Expr]:
    """Partial derivative of e in each jet coordinate it contains, keyed
    by (unknown, index) in the order of unknown, then graded-lex index.

    This is the only place an equation is differentiated in its jet
    coordinates: total derivatives, the symbol and coefficients of the
    range analysis and Newton Jacobians all read these partials, through
    PdeOperator.gradients for the equations; ProlongedSystem.equations
    takes those of the rows above level 0 as it lifts them."""
    return {
        (v.unknown, v.index): differentiate(e, v)
        for v in sorted(jet_variables(e), key=lambda v: (v.unknown, v.index.grlex_key()))
    }


def _lift(e: Expr, gradient, context: Context, axis: int) -> Expr:
    """Total derivative D_i of e along space axis i, given its jet
    gradient, by the jet-coordinate chain rule:
    D_i = d/dx_i + sum over jets of xi_{u,q+e_i} * d/d xi_{u,q}."""
    terms = [differentiate(e, context.space(axis))]
    for (u, q), partial in gradient.items():
        if partial == ZERO:
            continue
        lifted = Var(context.jet(u, q.plus_axis(axis)))
        terms.append(sprod([lifted, partial]))
    return simplify(ssum(terms))


class ProlongedSystem(Frozen):
    """All prolonged equations F_{j,p} = D^p G_j for |p| <= level.

    The rows are built in full the first time `equations` (or items())
    is read.  A row above level 0 is the total derivative of F_{j,p-e_i}
    along the first nonzero axis i of p, so the rows of level <= l are
    exactly those of prolonging to level l directly.  Each row below the
    top level is differentiated in its jet coordinates once, when the
    first row above it is built; a level-0 row's gradient is the
    operator's (PdeOperator.gradients).
    """

    def __init__(self, operator: PdeOperator, level: int):
        d = self.__dict__
        d["operator"] = operator
        d["level"] = level

    @property
    def top_order(self) -> int:
        return self.operator.order + self.level

    @cached_property
    def equations(self) -> dict[tuple[int, MultiIndex], Expr]:
        """The rows by key (j, p), in the order of items()."""
        op = self.operator
        rows, gradients = {}, {}
        for p in multi_indices(op.n, self.level):
            for j, g in enumerate(op.equations, start=1):
                if p.order:
                    axis = p.first_nonzero_axis()
                    prev = (j, p.minus_axis(axis))
                    if prev not in gradients:
                        gradients[prev] = (
                            jet_gradient(rows[prev]) if p.order > 1 else op.gradients[j - 1]
                        )
                    g = _lift(rows[prev], gradients[prev], op.context, axis)
                rows[(j, p)] = g
        return rows

    def items(self):
        """(j, p, expr) in graded-lex order of p, then equation index."""
        for (j, p), e in self.equations.items():
            yield j, p, e


def prolong(op: PdeOperator, level: int) -> ProlongedSystem:
    """Prolong every equation to all D^p with |p| <= level.

    The rows are built when something reads them (ProlongedSystem.
    equations): the range analysis assembles its level systems at the
    point from the level-0 jet gradients, so only `densepde prolong` and
    the reference tests read the rows.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    return ProlongedSystem(op, level)


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
