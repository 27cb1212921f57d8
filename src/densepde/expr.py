"""Expression trees over space variables and jet coordinates.

Constants are exact rationals.  An expression with no transcendental node
and only integer exponents is "rational-closed" and evaluates exactly.
All nodes are immutable; operations are pure.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence, Union

from .frozen import Value
from .multiindex import MultiIndex

Number = Union[int, Fraction, float]


class EvaluationError(Exception):
    """Division by zero, log of a non-positive number, and similar."""


class ExactnessUnavailable(Exception):
    """Raised by exact evaluation when a non-rational subtree is reached."""


# ---------------------------------------------------------------------------
# variables

class SpaceVar(Value):
    """Space variable x_axis; equal to every SpaceVar of the same axis,
    whatever its name."""

    _fields = ("axis",)

    def __init__(self, axis: int, name: str):
        d = self.__dict__
        d["axis"] = axis  # 1-based
        d["name"] = name

    def __repr__(self):
        return f"SpaceVar(axis={self.axis!r}, name={self.name!r})"

    def __str__(self):
        return self.name


class JetVar(Value):
    """Jet coordinate: value of D^p applied to one unknown.  Equality and
    hash ignore the name, as for SpaceVar."""

    _fields = ("unknown", "index")

    def __init__(self, unknown: int, index: MultiIndex, name: str):
        d = self.__dict__
        d["unknown"] = unknown  # 1-based
        d["index"] = index
        d["name"] = name

    def __repr__(self):
        return f"JetVar(unknown={self.unknown!r}, index={self.index!r}, name={self.name!r})"

    @property
    def order(self) -> int:
        return self.index.order

    def __str__(self):
        return self.name


Variable = Union[SpaceVar, JetVar]


# ---------------------------------------------------------------------------
# nodes

class Expr(Value):
    """Base class; construct through the smart constructors below.  Each
    node class names its children and data in `_fields`."""

    __slots__ = ()

    def __add__(self, other):
        return ssum([self, as_expr(other)])

    __radd__ = __add__

    def __sub__(self, other):
        return ssum([self, sprod([MINUS_ONE, as_expr(other)])])

    def __rsub__(self, other):
        return ssum([as_expr(other), sprod([MINUS_ONE, self])])

    def __mul__(self, other):
        return sprod([self, as_expr(other)])

    __rmul__ = __mul__

    def __truediv__(self, other):
        return squot(self, as_expr(other))

    def __rtruediv__(self, other):
        return squot(as_expr(other), self)

    def __pow__(self, exponent):
        return spow(self, Fraction(exponent))

    def __neg__(self):
        return sprod([MINUS_ONE, self])

    def __str__(self):
        from .printer import to_text

        return to_text(self)

    def __repr__(self):
        return f"<{type(self).__name__} {self}>"


class Const(Expr):
    _fields = ("value",)

    def __init__(self, value: Fraction):
        self.__dict__["value"] = value


class Var(Expr):
    _fields = ("var",)

    def __init__(self, var: Variable):
        self.__dict__["var"] = var


class Sum(Expr):
    _fields = ("terms",)

    def __init__(self, terms: tuple[Expr, ...]):
        self.__dict__["terms"] = terms


class Prod(Expr):
    _fields = ("factors",)

    def __init__(self, factors: tuple[Expr, ...]):
        self.__dict__["factors"] = factors


class Pow(Expr):
    _fields = ("base", "exponent")

    def __init__(self, base: Expr, exponent: Fraction):
        d = self.__dict__
        d["base"] = base
        d["exponent"] = exponent


class Quot(Expr):
    _fields = ("numer", "denom")

    def __init__(self, numer: Expr, denom: Expr):
        d = self.__dict__
        d["numer"] = numer
        d["denom"] = denom


FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")


class Fn(Expr):
    _fields = ("name", "arg")

    def __init__(self, name: str, arg: Expr):
        if name not in FUNCTIONS:
            raise ValueError(f"unknown function {name!r}")
        d = self.__dict__
        d["name"] = name
        d["arg"] = arg


class Bump(Expr):
    """Smooth bump (or one of its partial derivatives) centered at a point.

    Identically 1 on the closed ball of radius r_in around the center,
    identically 0 outside the open ball of radius r_out, built from the
    standard exp(-1/t) transition in the squared radius.  `deriv` is the
    multi-index of the partial derivative taken; plateau and exterior
    evaluations of any derivative are exact rationals (1 or 0).
    """

    _fields = ("center", "r_in", "r_out", "space_vars", "deriv")

    def __init__(
        self,
        center: tuple[Fraction, ...],
        r_in: Fraction,
        r_out: Fraction,
        space_vars: tuple[SpaceVar, ...],
        deriv: MultiIndex,
    ):
        if not (0 < r_in < r_out):
            raise ValueError("need 0 < r_in < r_out")
        if len(center) != len(space_vars):
            raise ValueError("center/space variable dimension mismatch")
        d = self.__dict__
        d["center"] = center
        d["r_in"] = r_in
        d["r_out"] = r_out
        d["space_vars"] = space_vars
        d["deriv"] = deriv


ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))
MINUS_ONE = Const(Fraction(-1))


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Const(Fraction(x))
    if isinstance(x, float):
        return Const(Fraction(x))
    raise TypeError(f"cannot convert {x!r} to Expr")


# ---------------------------------------------------------------------------
# canonical ordering

_RANK = {Const: 0, Var: 1, Pow: 2, Prod: 3, Quot: 4, Fn: 5, Sum: 6, Bump: 7}


def sort_key(e: Expr):
    """Total order on expressions; used for canonical child order."""
    if isinstance(e, Const):
        return (0, e.value)
    if isinstance(e, Var):
        v = e.var
        if isinstance(v, SpaceVar):
            return (1, 0, v.axis, ())
        return (1, 1, v.unknown, v.index.entries)
    if isinstance(e, Pow):
        return (2, sort_key(e.base), e.exponent)
    if isinstance(e, Prod):
        return (3, tuple(sort_key(f) for f in e.factors))
    if isinstance(e, Quot):
        return (4, sort_key(e.numer), sort_key(e.denom))
    if isinstance(e, Fn):
        return (5, e.name, sort_key(e.arg))
    if isinstance(e, Sum):
        return (6, tuple(sort_key(t) for t in e.terms))
    if isinstance(e, Bump):
        return (7, e.center, e.r_in, e.r_out, e.deriv.entries)
    raise TypeError(type(e))


# ---------------------------------------------------------------------------
# smart constructors (each returns a canonical node)

def ssum(terms) -> Expr:
    """Canonical sum: flattened, constants folded, like terms collected."""
    flat: list[Expr] = []
    for t in terms:
        if isinstance(t, Sum):
            flat.extend(t.terms)
        else:
            flat.append(t)
    # split each term into rational coefficient * rest
    groups: dict[tuple, tuple[Expr, Fraction]] = {}
    constant = Fraction(0)
    for t in flat:
        coeff, rest = _split_coeff(t)
        if rest is None:
            constant += coeff
            continue
        key = sort_key(rest)
        if key in groups:
            prev, c = groups[key]
            groups[key] = (prev, c + coeff)
        else:
            groups[key] = (rest, coeff)
    out: list[Expr] = []
    for key in sorted(groups):
        rest, c = groups[key]
        if c == 0:
            continue
        if c == 1:
            out.append(rest)
        else:
            out.append(_attach_coeff(c, rest))
    if constant != 0:
        out.insert(0, Const(constant))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return Sum(tuple(out))


def _split_coeff(t: Expr) -> tuple[Fraction, Expr | None]:
    if isinstance(t, Const):
        return t.value, None
    if isinstance(t, Prod):
        consts = [f for f in t.factors if isinstance(f, Const)]
        rest = [f for f in t.factors if not isinstance(f, Const)]
        c = Fraction(1)
        for k in consts:
            c *= k.value
        if not rest:
            return c, None
        if len(rest) == 1:
            return c, rest[0]
        return c, Prod(tuple(rest))
    return Fraction(1), t


def _attach_coeff(c: Fraction, rest: Expr) -> Expr:
    if isinstance(rest, Prod):
        return Prod((Const(c),) + rest.factors)
    return Prod((Const(c), rest))


def sprod(factors) -> Expr:
    """Canonical product: flattened, constants folded, equal bases merged."""
    flat: list[Expr] = []
    for f in factors:
        if isinstance(f, Prod):
            flat.extend(f.factors)
        else:
            flat.append(f)
    constant = Fraction(1)
    groups: dict[tuple, tuple[Expr, Fraction]] = {}
    for f in flat:
        if isinstance(f, Const):
            constant *= f.value
            continue
        if isinstance(f, Pow):
            base, exp = f.base, f.exponent
        else:
            base, exp = f, Fraction(1)
        key = sort_key(base)
        if key in groups:
            b, e = groups[key]
            groups[key] = (b, e + exp)
        else:
            groups[key] = (base, exp)
    if constant == 0:
        return ZERO
    out: list[Expr] = []
    for key in sorted(groups):
        base, exp = groups[key]
        p = spow(base, exp)
        if isinstance(p, Const):
            constant *= p.value
        else:
            out.append(p)
    if not out:
        return Const(constant)
    if constant != 1:
        out.insert(0, Const(constant))
    if len(out) == 1:
        return out[0]
    return Prod(tuple(out))


def spow(base: Expr, exponent) -> Expr:
    exponent = Fraction(exponent)
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Const) and exponent.denominator == 1:
        if base.value == 0 and exponent < 0:
            raise EvaluationError("0 raised to a negative power")
        return Const(base.value ** exponent.numerator)
    if isinstance(base, Pow):
        return spow(base.base, base.exponent * exponent)
    return Pow(base, exponent)


def squot(numer: Expr, denom: Expr) -> Expr:
    if isinstance(denom, Const):
        if denom.value == 0:
            raise EvaluationError("literal division by zero")
        return sprod([Const(1 / denom.value), numer])
    if isinstance(numer, Const) and numer.value == 0:
        return ZERO
    if numer == denom:
        return ONE
    return Quot(numer, denom)


_FN_AT_ZERO = {"sin": Fraction(0), "exp": Fraction(1), "sqrt": Fraction(0)}


def sfn(name: str, arg: Expr) -> Expr:
    if isinstance(arg, Const):
        v = arg.value
        if v == 0 and name in _FN_AT_ZERO:
            return Const(_FN_AT_ZERO[name])
        if v == 0 and name == "cos":
            return ONE
        if v == 1 and name == "log":
            return ZERO
        if v == 1 and name == "sqrt":
            return ONE
    return Fn(name, arg)


def simplify(e: Expr) -> Expr:
    """Canonical form: constant folding, identities, flattening, sorted
    children.  Evaluation-equivalent to the input on all valid assignments."""
    if isinstance(e, (Const, Var, Bump)):
        return e
    if isinstance(e, Sum):
        return ssum([simplify(t) for t in e.terms])
    if isinstance(e, Prod):
        return sprod([simplify(f) for f in e.factors])
    if isinstance(e, Pow):
        return spow(simplify(e.base), e.exponent)
    if isinstance(e, Quot):
        return squot(simplify(e.numer), simplify(e.denom))
    if isinstance(e, Fn):
        return sfn(e.name, simplify(e.arg))
    raise TypeError(type(e))


# ---------------------------------------------------------------------------
# structure queries

def free_variables(e: Expr) -> set[Variable]:
    out: set[Variable] = set()
    _collect_vars(e, out)
    return out


def _collect_vars(e: Expr, out: set):
    if isinstance(e, Var):
        out.add(e.var)
    elif isinstance(e, Sum):
        for t in e.terms:
            _collect_vars(t, out)
    elif isinstance(e, Prod):
        for f in e.factors:
            _collect_vars(f, out)
    elif isinstance(e, Pow):
        _collect_vars(e.base, out)
    elif isinstance(e, Quot):
        _collect_vars(e.numer, out)
        _collect_vars(e.denom, out)
    elif isinstance(e, Fn):
        _collect_vars(e.arg, out)
    elif isinstance(e, Bump):
        out.update(e.space_vars)


def jet_variables(e: Expr) -> set[JetVar]:
    return {v for v in free_variables(e) if isinstance(v, JetVar)}


def is_rational_closed(e: Expr) -> bool:
    """True iff e contains no transcendental node and only integer exponents."""
    if isinstance(e, (Const, Var)):
        return True
    if isinstance(e, Sum):
        return all(is_rational_closed(t) for t in e.terms)
    if isinstance(e, Prod):
        return all(is_rational_closed(f) for f in e.factors)
    if isinstance(e, Pow):
        return e.exponent.denominator == 1 and is_rational_closed(e.base)
    if isinstance(e, Quot):
        return is_rational_closed(e.numer) and is_rational_closed(e.denom)
    if isinstance(e, (Fn, Bump)):
        return False
    raise TypeError(type(e))


def exact_arithmetic(exprs: Iterable[Expr], numbers: Iterable) -> bool:
    """The arithmetic rule: work with `exprs` at `numbers` is exact iff
    every number is an int or a Fraction and every expression is
    rational-closed; it is float otherwise."""
    return all(isinstance(v, (int, Fraction)) for v in numbers) and all(
        is_rational_closed(e) for e in exprs
    )


# ---------------------------------------------------------------------------
# differentiation

def differentiate(e: Expr, v: Variable) -> Expr:
    """Partial derivative treating all other variables as independent."""
    return simplify(_diff(e, v))


def _diff(e: Expr, v: Variable) -> Expr:
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.var == v else ZERO
    if isinstance(e, Sum):
        return ssum([_diff(t, v) for t in e.terms])
    if isinstance(e, Prod):
        terms = []
        for i, f in enumerate(e.factors):
            df = _diff(f, v)
            if df == ZERO:
                continue
            rest = list(e.factors[:i]) + list(e.factors[i + 1 :])
            terms.append(sprod([df] + rest))
        return ssum(terms)
    if isinstance(e, Pow):
        db = _diff(e.base, v)
        if db == ZERO:
            return ZERO
        return sprod([Const(e.exponent), spow(e.base, e.exponent - 1), db])
    if isinstance(e, Quot):
        dn = _diff(e.numer, v)
        dd = _diff(e.denom, v)
        num = ssum([sprod([dn, e.denom]), sprod([MINUS_ONE, e.numer, dd])])
        return squot(num, spow(e.denom, 2))
    if isinstance(e, Fn):
        da = _diff(e.arg, v)
        if da == ZERO:
            return ZERO
        if e.name == "sin":
            outer = sfn("cos", e.arg)
        elif e.name == "cos":
            outer = sprod([MINUS_ONE, sfn("sin", e.arg)])
        elif e.name == "exp":
            outer = e
        elif e.name == "log":
            outer = squot(ONE, e.arg)
        elif e.name == "sqrt":
            outer = squot(ONE, sprod([Const(2), e]))
        else:  # pragma: no cover
            raise TypeError(e.name)
        return sprod([outer, da])
    if isinstance(e, Bump):
        if isinstance(v, SpaceVar) and v in e.space_vars:
            axis = e.space_vars.index(v) + 1
            return Bump(e.center, e.r_in, e.r_out, e.space_vars, e.deriv.plus_axis(axis))
        return ZERO
    raise TypeError(type(e))


# ---------------------------------------------------------------------------
# substitution

def substitute(e: Expr, mapping: Mapping[Variable, Expr]) -> Expr:
    """Simultaneous substitution of variables by expressions, then simplify."""
    return simplify(_subst(e, dict(mapping)))


def _subst(e: Expr, mapping) -> Expr:
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return mapping.get(e.var, e)
    if isinstance(e, Sum):
        return Sum(tuple(_subst(t, mapping) for t in e.terms))
    if isinstance(e, Prod):
        return Prod(tuple(_subst(f, mapping) for f in e.factors))
    if isinstance(e, Pow):
        return Pow(_subst(e.base, mapping), e.exponent)
    if isinstance(e, Quot):
        return Quot(_subst(e.numer, mapping), _subst(e.denom, mapping))
    if isinstance(e, Fn):
        return Fn(e.name, _subst(e.arg, mapping))
    if isinstance(e, Bump):
        for sv in e.space_vars:
            if sv in mapping:
                raise ValueError("cannot substitute a bump's space variable")
        return e
    raise TypeError(type(e))


# ---------------------------------------------------------------------------
# evaluation

def evaluate_float(e: Expr, assignment: Mapping[Variable, Number]) -> float:
    """IEEE double evaluation; raises EvaluationError instead of returning
    NaN or inf, or letting a float overflow, zero division or math domain
    error escape."""
    try:
        out = float(_eval(e, assignment, exact=False))
    except (ArithmeticError, ValueError) as exc:
        raise EvaluationError(f"float evaluation failed: {exc}") from None
    if not math.isfinite(out):
        raise EvaluationError(f"float evaluation gave {out}")
    return out


def evaluate_exact(e: Expr, assignment: Mapping[Variable, Number]) -> Fraction:
    """Exact rational evaluation.

    Requires a rational-closed expression, except that bump nodes evaluate
    exactly at points on their plateau or outside their support; elsewhere
    ExactnessUnavailable is raised.
    """
    out = _eval(e, assignment, exact=True)
    return Fraction(out)


def _eval(e: Expr, assignment, exact: bool):
    if isinstance(e, Const):
        return e.value if exact else float(e.value)
    if isinstance(e, Var):
        try:
            v = assignment[e.var]
        except KeyError:
            raise EvaluationError(f"no value assigned to {e.var}") from None
        return Fraction(v) if exact else float(v)
    if isinstance(e, Sum):
        return sum(_eval(t, assignment, exact) for t in e.terms)
    if isinstance(e, Prod):
        out = Fraction(1) if exact else 1.0
        for f in e.factors:
            out *= _eval(f, assignment, exact)
        return out
    if isinstance(e, Pow):
        b = _eval(e.base, assignment, exact)
        if e.exponent.denominator == 1:
            k = e.exponent.numerator
            if b == 0 and k < 0:
                raise EvaluationError("zero raised to a negative power")
            return b ** k
        if exact:
            raise ExactnessUnavailable("non-integer exponent")
        if b < 0:
            raise EvaluationError("negative base with fractional exponent")
        return float(b) ** float(e.exponent)
    if isinstance(e, Quot):
        d = _eval(e.denom, assignment, exact)
        if d == 0:
            raise EvaluationError("division by zero")
        return _eval(e.numer, assignment, exact) / d
    if isinstance(e, Fn):
        if exact:
            raise ExactnessUnavailable(f"function {e.name}")
        a = _eval(e.arg, assignment, exact)
        if e.name == "log":
            if a <= 0:
                raise EvaluationError("log of a non-positive number")
            return math.log(a)
        if e.name == "sqrt":
            if a < 0:
                raise EvaluationError("sqrt of a negative number")
            return math.sqrt(a)
        return getattr(math, e.name)(a)
    if isinstance(e, Bump):
        return _eval_bump(e, assignment, exact)
    raise TypeError(type(e))


def compile_float(
    exprs: Sequence[Expr], variables: Sequence[Variable]
) -> Callable[[Sequence[Number]], list[float]]:
    """Compile expressions, once, into a function from one value per
    variable to the list of their float values.

    The function returns exactly the floats of
    [evaluate_float(e, dict(zip(variables, values))) for e in exprs] and
    raises EvaluationError on exactly the inputs where that raises: each
    node is a closure that runs _eval's float operations, in _eval's
    order and with its checks.  This pays when the same trees are
    evaluated many times, as in a Newton solve.  A subtree shared by
    identity is compiled once.  Bump nodes are not supported.
    """
    position = {v: i for i, v in enumerate(variables)}
    slots: dict[int, int] = {}  # position in `variables` -> slot in x
    built: dict[int, Callable] = {}

    def build(e: Expr) -> Callable:
        if id(e) not in built:
            built[id(e)] = _compile_node(e, build, position, slots)
        return built[id(e)]

    outputs = [build(e) for e in exprs]
    used = sorted(slots, key=slots.get)

    def evaluate(values):
        try:
            x = [float(values[i]) for i in used]
            out = [float(f(x)) for f in outputs]
        except (ArithmeticError, ValueError) as exc:
            raise EvaluationError(f"float evaluation failed: {exc}") from None
        for v in out:
            if not math.isfinite(v):
                raise EvaluationError(f"float evaluation gave {v}")
        return out

    return evaluate


def _fails(message: str) -> Callable:
    def fail(x):
        raise EvaluationError(message)

    return fail


def _compile_node(e: Expr, build, position: dict, slots: dict) -> Callable:
    """One node of compile_float: a closure over the float vector x of
    the variables the trees use.  A constant float() cannot represent
    fails wherever it is evaluated, as it does in _eval, since every
    node of a tree is evaluated unless an earlier one fails."""
    if isinstance(e, Const):
        try:
            c = float(e.value)
        except OverflowError:
            return _fails("float evaluation failed: constant out of range")
        return lambda x: c
    if isinstance(e, Var):
        if e.var not in position:
            return _fails(f"no value assigned to {e.var}")
        return itemgetter(slots.setdefault(position[e.var], len(slots)))
    if isinstance(e, Sum):
        terms = [build(t) for t in e.terms]
        return lambda x: sum([t(x) for t in terms])
    if isinstance(e, Prod):
        factors = [build(f) for f in e.factors]

        def prod(x):
            out = 1.0
            for f in factors:
                out *= f(x)
            return out

        return prod
    if isinstance(e, Pow):
        base = build(e.base)
        if e.exponent.denominator == 1:
            k = e.exponent.numerator
            if k >= 0:
                return lambda x: base(x) ** k

            def inverse_power(x):
                b = base(x)
                if b == 0:
                    raise EvaluationError("zero raised to a negative power")
                return b ** k

            return inverse_power
        try:
            p = float(e.exponent)
        except OverflowError:
            return _fails("float evaluation failed: exponent out of range")

        def root(x):
            b = base(x)
            if b < 0:
                raise EvaluationError("negative base with fractional exponent")
            return float(b) ** p

        return root
    if isinstance(e, Quot):
        numer, denom = build(e.numer), build(e.denom)

        def quot(x):
            d = denom(x)
            if d == 0:
                raise EvaluationError("division by zero")
            return numer(x) / d

        return quot
    if isinstance(e, Fn):
        arg = build(e.arg)
        if e.name == "log":

            def log(x):
                a = arg(x)
                if a <= 0:
                    raise EvaluationError("log of a non-positive number")
                return math.log(a)

            return log
        if e.name == "sqrt":

            def sqrt(x):
                a = arg(x)
                if a < 0:
                    raise EvaluationError("sqrt of a negative number")
                return math.sqrt(a)

            return sqrt
        fn = getattr(math, e.name)
        return lambda x: fn(arg(x))
    raise TypeError(type(e))


def bump_region(e: Bump, point: tuple[Fraction, ...]) -> str:
    """'plateau', 'outside' or 'transition', decided exactly for rationals."""
    t = sum((x - c) ** 2 for x, c in zip(point, e.center))
    if t <= e.r_in ** 2:
        return "plateau"
    if t >= e.r_out ** 2:
        return "outside"
    return "transition"


def _eval_bump(e: Bump, assignment, exact: bool):
    try:
        point = tuple(Fraction(assignment[v]) for v in e.space_vars)
    except KeyError as exc:
        raise EvaluationError(f"no value assigned to {exc.args[0]}") from None
    except (ValueError, OverflowError):
        raise EvaluationError("bump at a non-finite point") from None
    # the order-0 series holds the value, or nothing for an exact zero
    s = taylor.series(e, point, 0, "exact" if exact else "float")
    return next(iter(s.values()), Fraction(0) if exact else 0.0)


# The Taylor evaluator builds on the node classes above, and a bump's
# value is read off its Taylor series.
from . import taylor  # noqa: E402
