"""Taylor-mode evaluation: truncated multivariate Taylor series carried
through expression trees.

``series(e, point, order)`` returns the coefficients c_p of the Taylor
expansion of e at the point, for every multi-index |p| <= order, so that
D^p e(point) = p! * c_p.  A missing key is an exact zero.  Every
coefficient is either a Fraction (exact) or a float, and a coefficient is
exact only when every input that reaches it is exact.  An exact zero
times any value stays an exact zero, so the structural zeros symbolic
differentiation finds (D_y exp(x) = 0) come out exact here as well.

Sums are termwise and products truncated Cauchy products.  Quotients,
powers, exp, log, sqrt, sin and cos use the standard recurrences, which
follow from theta_i = (x_i - z_i) d/dx_i scaling c_p by p_i: for
f = exp(a), theta_i f = f theta_i a gives p_i f_p = sum q_i a_q f_r over
q + r = p, with i the first nonzero axis of p (Griewank and Walther,
"Evaluating Derivatives", 2nd ed., ch. 13; Bettencourt, Johnson and
Duvenaud, "Taylor-mode automatic differentiation for higher-order
derivatives", 2019).

Inside, a series is a dict from slot to coefficient, where slot k is the
k-th multi-index of the graded-lex enumeration multi_indices(n, order), a
prefix of the enumeration to any higher order.  The slot table of each
(n, order), _Layout, is the one place where two multi-indices are added:
the series arithmetic, the jet variables' shifts and the jet solver's
plans read each slot sum and q! off it.  At most 32 tables, 256 shifts
(_shift_plan) and 128 shift plans (shift_plan) are held.  The bindings
are slot series (jet_bindings), which a walk reads when the tree first
reaches them, cut to its slots.  In "float" mode every coefficient is a
float, a zero included, so the walk keeps every coefficient it computes;
otherwise it drops exact zeros.

Outside "float" mode, a polynomial tree (Const, Var, Sum, Prod and Pow
nodes, integer exponents >= 0) whose jet variables are bound to Fraction
series is walked over integers (_IntegerWalk): each series is a dict of
int numerators over one positive denominator, the layout of FLINT's
fmpq_poly (Hart, "Fast Library for Number Theory: An Introduction", ICMS
2010).  Sums rescale their terms to the lcm of the denominators; products
convolve the numerators, multiply the denominators and divide through by
one gcd.  series returns Fraction(num, den) per slot, so the Fractions,
keys and order are those the Fraction walk (_Walk) gives.  Any other node,
a float binding, and anything _Walk rejects (an unbound jet variable, an
axis the point lacks, a point that is not finite) hand the whole tree to
_Walk, which stays the reference and raises its own errors.

In "float" mode the same polynomial trees, at a rational point with every
jet variable bound, are served from a tape (_replay): the first call for
a (tree identity, order, structure) runs _Walk once with registers in
place of the non-zero coordinates and the binding values, recording its
float + and * (constants fold as it runs), and later calls replay them.
The structure is which coordinates are zero and each binding's slot keys,
in order, cut to the walk's slots, so the floats, keys and order are
_Walk's; anything else, and every error, is left to _Walk.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Sequence

from .expr import (
    Bump,
    Const,
    EvaluationError,
    ExactnessUnavailable,
    Expr,
    Fn,
    JetVar,
    Pow,
    Prod,
    Quot,
    Sum,
    Var,
    Variable,
    bump_region,
)
from .multiindex import MultiIndex, jet_columns, multi_indices

Coefficient = Fraction | float
MODES = ("auto", "exact", "float")


class _Layout:
    """The slot table of series in n variables to total degree `order`:
    slot[p.entries] is p's slot, factorials[s] its p!, axis[s] its first
    nonzero axis i (0 for s = 0) and weight[s] = s_i; unit[a] and square[a]
    are the slots of e_a and 2 e_a (None above the order); times[a][b] is
    the slot of a + b, |a + b| <= order; splits[s], built when first read,
    is (a, b, a_i, b_i) over a + b = s, with i = axis[s]."""

    def __init__(self, n: int, order: int):
        self.order = order
        self.indices = indices = multi_indices(n, order)
        self.size = size = len(indices)
        self.slot = slot = {p.entries: k for k, p in enumerate(indices)}
        self.factorials = [p.factorial() for p in indices]
        below = len(multi_indices(n, order - 1))  # the slots under the top order
        axes = [[p.entries[i] for p in indices[:below]] for i in range(n)]
        up = [  # up[i][s]: the slot of s + e_i
            list(map(slot.__getitem__, zip(*axes[:i], [e + 1 for e in axes[i]], *axes[i + 1 :])))
            for i in range(n)
        ]
        self.unit = [step[0] if order >= 1 else None for step in up]
        self.square = [step[step[0]] if order >= 2 else None for step in up]
        # the row of a is the row of a - e_i stepped up along i; in slot
        # order the first step up to a is from the least a - e_i, i = axis[a]
        self.axis = axis = [0] * size
        rows: list = [range(size)] + [None] * (size - 1)
        for s in range(below):
            for i, step in enumerate(up):
                a = step[s]
                if rows[a] is None:
                    axis[a] = i
                    width = len(multi_indices(n, order - indices[a].order))  # |b| <= order - |a|
                    rows[a] = list(map(step.__getitem__, rows[s][:width]))
        self.weight = [p.entries[i] for p, i in zip(indices, axis)]
        self.times: list[dict[int, int]] = [dict(enumerate(row)) for row in rows]

    @cached_property
    def splits(self) -> list[list[tuple[int, int, int, int]]]:
        entries, axis = [p.entries for p in self.indices], self.axis
        out: list[list[tuple[int, int, int, int]]] = [[] for _ in entries]
        for a, row in enumerate(self.times):
            for b, s in row.items():
                out[s].append((a, b, entries[a][axis[s]], entries[b][axis[s]]))
        return out


_layout = lru_cache(maxsize=32)(_Layout)  # the slot table of (n, order), made once


@lru_cache(maxsize=256)
def _shift_plan(alpha: MultiIndex, order: int) -> tuple[tuple[int, int, int], ...]:
    """(slot of q, slot of q + alpha, (q + alpha)! / q!) for |q| <= order,
    in slot order, off the slot table of order order + |alpha|."""
    lay = _layout(alpha.n, order + alpha.order)
    f = lay.factorials
    return tuple((q, p, f[p] // f[q]) for q, p in lay.times[lay.slot[alpha.entries]].items())


# ---------------------------------------------------------------------------
# arithmetic on slot series

def _clean(acc: dict) -> dict:
    """Drop exact zeros; a float zero is kept, since it is not exact."""
    return {k: v for k, v in acc.items() if v or type(v) is float}


def _neg(a: dict) -> dict:
    return {k: -v for k, v in a.items()}


def _add_into(acc: dict, a: dict):
    for k, v in a.items():
        acc[k] = acc[k] + v if k in acc else v


def _mul(a: dict, b: dict, lay: _Layout, floats: bool) -> dict:
    """a * b; with `floats`, every coefficient is a float and none is
    dropped."""
    acc: dict = {}
    for i, x in a.items():
        row = lay.times[i]
        for j, y in b.items():
            k = row.get(j)
            if k is not None:
                acc[k] = acc[k] + x * y if k in acc else x * y
    return acc if floats else _clean(acc)


def _power(a, k: int, times):
    """a^k for an integer k >= 1, by repeated squaring with times(x, y)
    = x * y."""
    out = None
    while True:
        if k & 1:
            out = a if out is None else times(out, a)
        k >>= 1
        if not k:
            return out
        a = times(a, a)


def _quot(num: dict, den: dict, lay: _Layout) -> dict:
    """num / den from den * f = num: den_0 f_s = num_s - sum d_a f_b, a != 0."""
    d0 = den.get(0)
    if not d0:
        raise EvaluationError("division by zero")
    f: dict = {}
    for s in range(lay.size):
        acc = num.get(s)
        for a, b, _, _ in lay.splits[s]:
            if a and a in den and b in f:
                t = den[a] * f[b]
                acc = -t if acc is None else acc - t
        if acc is not None:
            v = acc / d0
            if v or type(v) is float:
                f[s] = v
    return f


def _real_power(a: dict, k: Fraction, f0, lay: _Layout) -> dict:
    """a^k with f_0 = a_0^k given and a_0 != 0:
    a_0 s_i f_s = sum over a + b = s, a != 0, of (k a_i - b_i) a_a f_b."""
    a0 = a[0]
    f = {0: f0}
    for s in range(1, lay.size):
        acc = None
        for i, j, wi, wj in lay.splits[s]:
            if i and i in a and j in f:
                c = k * wi - wj
                if c:
                    t = c * a[i] * f[j]
                    acc = t if acc is None else acc + t
        if acc is not None:
            v = acc / (lay.weight[s] * a0)
            if v or type(v) is float:
                f[s] = v
    return f


def _exp(a: dict, lay: _Layout) -> dict:
    """s_i f_s = sum over a + b = s of a_i a_a f_b."""
    try:
        f = {0: math.exp(a.get(0, 0))}
    except OverflowError:
        raise EvaluationError("exp overflows") from None
    for s in range(1, lay.size):
        acc = None
        for i, j, wi, _ in lay.splits[s]:
            if wi and i in a and j in f:
                t = wi * a[i] * f[j]
                acc = t if acc is None else acc + t
        if acc is not None:
            f[s] = acc / lay.weight[s]
    return f


def _log(a: dict, lay: _Layout) -> dict:
    """a_0 s_i f_s = s_i a_s - sum over a + b = s, a != 0, of b_i a_a f_b."""
    a0 = a.get(0, 0)
    if a0 <= 0:
        raise EvaluationError("log of a non-positive number")
    f = {0: math.log(a0)}
    for s in range(1, lay.size):
        w = lay.weight[s]
        acc = w * a[s] if s in a else None
        for i, j, _, wj in lay.splits[s]:
            if i and wj and i in a and j in f:
                t = wj * a[i] * f[j]
                acc = -t if acc is None else acc - t
        if acc is not None:
            v = acc / (w * a0)
            if v or type(v) is float:
                f[s] = v
    return f


def _sin_cos(a: dict, lay: _Layout) -> tuple[dict, dict]:
    """s_i sin_s = sum a_i a_a cos_b and s_i cos_s = -sum a_i a_a sin_b."""
    a0 = a.get(0, 0)
    sin, cos = {0: math.sin(a0)}, {0: math.cos(a0)}
    for s in range(1, lay.size):
        acc_s = acc_c = None
        for i, j, wi, _ in lay.splits[s]:
            if wi and i in a:
                x = wi * a[i]
                if j in cos:
                    t = x * cos[j]
                    acc_s = t if acc_s is None else acc_s + t
                if j in sin:
                    t = x * sin[j]
                    acc_c = -t if acc_c is None else acc_c - t
        w = lay.weight[s]
        if acc_s is not None:
            sin[s] = acc_s / w
        if acc_c is not None:
            cos[s] = acc_c / w
    return sin, cos


def _fractional_power(a: dict, k: Fraction, lay: _Layout) -> dict:
    """a^k for a non-integer k, in floats."""
    a0 = a.get(0, 0)
    if a0 < 0:
        raise EvaluationError("negative base with fractional exponent")
    if a0 == 0:
        if k < 0:
            raise EvaluationError("zero raised to a negative power")
        if a and lay.size > 1:
            raise EvaluationError("fractional power of zero is not differentiable")
        return {0: 0.0}
    return _real_power(a, k, float(a0) ** float(k), lay)


# ---------------------------------------------------------------------------
# the bump's transition profile

# exp(-746) underflows to 0.0 in IEEE doubles: beyond |h| = 746 the profile
# 1 / (1 + exp(h)) is 0 or 1 to the last bit, and so is each derivative.
_SATURATION = 746


def _bump_profile(center, r_in, r_out, point, order: int) -> dict:
    """Series, to `order`, of the bump's profile 1 / (1 + exp(h)) with
    h = 1/(r_out^2 - t) - 1/(t - r_in^2) and t = |x - center|^2, at a
    rational point of the open transition annulus: one float in every slot.

    h is expanded exactly.  Where |h(point)| >= 746 the profile saturates
    to the series 0 (towards r_out) or 1 (towards r_in), so no float
    overflows into NaN or inf; elsewhere exp is taken of -|h| only.
    """
    lay = _layout(len(center), order)
    t: dict = {0: sum((x - c) ** 2 for x, c in zip(point, center))}
    for a, (x, c) in enumerate(zip(point, center)):
        if order >= 1 and x != c:
            t[lay.unit[a]] = 2 * (x - c)
        if order >= 2:
            t[lay.square[a]] = 1
    outer = _neg(t)
    outer[0] += r_out ** 2
    inner = dict(t)
    inner[0] -= r_in ** 2
    one = {0: 1}
    h = _quot(one, outer, lay)
    _add_into(h, _neg(_quot(one, inner, lay)))
    h0 = h.get(0, 0)
    profile = dict.fromkeys(range(lay.size), 0.0)
    if h0 >= _SATURATION:
        return profile
    if h0 <= -_SATURATION:
        profile[0] = 1.0
        return profile
    try:
        hf = {k: float(v) for k, v in h.items() if v}
    except OverflowError:
        raise EvaluationError("bump derivative overflows") from None
    if h0 > 0:
        # 1 / (1 + e^h) = e^-h / (1 + e^-h)
        small = _exp(_neg(hf), lay)
        denom = dict(small)
        denom[0] += 1.0
        profile.update(_quot(small, denom, lay))
    else:
        denom = _exp(hf, lay)
        denom[0] += 1.0
        profile.update(_quot({0: 1.0}, denom, lay))
    if not all(math.isfinite(v) for v in profile.values()):
        raise EvaluationError("bump derivative overflows")
    return profile


# ---------------------------------------------------------------------------
# the tree walk

class _Walk:
    def __init__(self, point, lay: _Layout, mode: str, bindings: dict):
        try:
            self.exact_point = tuple(x if type(x) is Fraction else Fraction(x) for x in point)
        except (ValueError, OverflowError):
            raise EvaluationError("point has a non-finite coordinate") from None
        self.lay = lay
        self.float = mode == "float"
        self.one = 1.0 if self.float else Fraction(1)
        self.coords = tuple(self.number(x) for x in self.exact_point)
        self.bindings = bindings
        self.jets: dict = {}  # jet variable -> its converted binding

    def number(self, x):
        return float(x) if self.float else x

    def __call__(self, e: Expr) -> dict:
        return _RULES[type(e)](self, e)

    def const(self, e: Const) -> dict:
        return {0: self.number(e.value)} if e.value else {}

    def var(self, e: Var) -> dict:
        v = e.var
        if isinstance(v, JetVar):
            out = self.jets.get(v)
            if out is None:
                out = self.jets[v] = self.jet(v)
            return out
        if not 1 <= v.axis <= len(self.coords):
            raise EvaluationError(f"no value assigned to {v}")
        x = self.coords[v.axis - 1]
        out = {0: x} if x else {}
        if self.lay.size > 1:
            out[self.lay.unit[v.axis - 1]] = self.one
        return out

    def jet(self, v: JetVar) -> dict:
        """v's binding cut to the walk's slots: floats, or exact zeros dropped."""
        bound = self.bindings.get(v)
        if bound is None:
            raise EvaluationError(f"no value assigned to {v}")
        size = self.lay.size
        if self.float:
            return {k: float(c) for k, c in bound.items() if k < size}
        return {k: c for k, c in bound.items() if k < size and (c or type(c) is float)}

    def sum(self, e: Sum) -> dict:
        acc: dict = {}
        for term in e.terms:
            _add_into(acc, self(term))
        return acc if self.float else _clean(acc)

    def prod(self, e: Prod) -> dict:
        # bumps sort last: take them first, and stop at an exact zero
        out = None
        for factor in reversed(e.factors):
            s = self(factor)
            if not s:
                return {}
            out = s if out is None else _mul(out, s, self.lay, self.float)
        return out

    def pow(self, e: Pow) -> dict:
        a, k = self(e.base), e.exponent
        if k.denominator != 1:
            return _fractional_power(a, k, self.lay)
        k = k.numerator
        if k > 0:
            if not a:
                return {}
            return _power(a, k, lambda x, y: _mul(x, y, self.lay, self.float))
        if k == 0:
            return {0: self.one}
        a0 = a.get(0)
        if not a0:
            raise EvaluationError("zero raised to a negative power")
        return _real_power(a, k, a0 ** k, self.lay)

    def quot(self, e: Quot) -> dict:
        den = self(e.denom)
        return _quot(self(e.numer), den, self.lay)

    def fn(self, e: Fn) -> dict:
        a = self(e.arg)
        if e.name == "exp":
            return _exp(a, self.lay)
        if e.name == "log":
            return _log(a, self.lay)
        if e.name == "sqrt":
            return _fractional_power(a, Fraction(1, 2), self.lay)
        sin, cos = _sin_cos(a, self.lay)
        return sin if e.name == "sin" else cos

    def bump(self, e: Bump) -> dict:
        point = self.exact_point
        region = bump_region(e, point)
        if region == "outside":
            return {}
        if region == "plateau":
            return {0: self.one} if e.deriv.order == 0 else {}
        order = self.lay.order
        profile = _bump_profile(e.center, e.r_in, e.r_out, point, order + e.deriv.order)
        return {k: f * profile[src] for k, src, f in _shift_plan(e.deriv, order)}


_RULES = {
    Const: _Walk.const,
    Var: _Walk.var,
    Sum: _Walk.sum,
    Prod: _Walk.prod,
    Pow: _Walk.pow,
    Quot: _Walk.quot,
    Fn: _Walk.fn,
    Bump: _Walk.bump,
}


# ---------------------------------------------------------------------------
# the integer walk: exact polynomial trees over one denominator per series

class _Unserved(Exception):
    """The integer walk met a node, an exponent or a binding it does not
    serve; series then takes the tree through _Walk."""


_ZERO: tuple[dict[int, int], int] = ({}, 1)


def _lowest(num: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    """num / den, nonzero numerators, divided through by their gcd."""
    g = math.gcd(den, *num.values())
    if g == 1:
        return num, den
    return {k: v // g for k, v in num.items()}, den // g


def _int_mul(a: tuple, b: tuple, lay: _Layout) -> tuple[dict[int, int], int]:
    """a * b of nonzero series: the Cauchy product of the numerators over
    the product of the denominators, in lowest terms."""
    an, ad = a
    bn, bd = b
    if len(bn) == 1 and 0 in bn:
        an, bn = bn, an
    if len(an) == 1 and 0 in an:  # a constant: no slot sums, no zeros
        c = an[0]
        return _lowest({k: c * y for k, y in bn.items()}, ad * bd)
    acc: dict[int, int] = {}
    for i, x in an.items():
        row = lay.times[i]
        for j, y in bn.items():
            k = row.get(j)
            if k is not None:
                acc[k] = acc[k] + x * y if k in acc else x * y
    acc = {k: v for k, v in acc.items() if v}
    return _lowest(acc, ad * bd) if acc else _ZERO


class _IntegerWalk:
    """_Walk's exact arithmetic for trees of Const, Var, Sum, Prod and Pow
    with integer exponents >= 0, at a rational point, with Fraction
    bindings.  A series is (num, den): a dict from slot to a nonzero int
    numerator, over one positive int denominator.  The walk visits the
    nodes _Walk visits, in its order, and raises _Unserved at anything it
    does not serve, an unbound or float jet variable included, so each of
    _Walk's errors is _Walk's own."""

    def __init__(self, point: Sequence, lay: _Layout, bindings: Mapping):
        try:
            self.point = tuple(x if type(x) is Fraction else Fraction(x) for x in point)
        except (ValueError, OverflowError, TypeError):
            raise _Unserved from None
        self.lay = lay
        self.bindings = bindings
        self.jets: dict = {}  # jet variable -> its converted binding
        self.coords: dict[int, tuple] = {}  # axis -> the series of x_axis

    def __call__(self, e: Expr) -> tuple[dict[int, int], int]:
        rule = _INTEGER_RULES.get(type(e))
        if rule is None:
            raise _Unserved
        return rule(self, e)

    def const(self, e: Const):
        c = e.value
        if type(c) is not Fraction:
            raise _Unserved
        return ({0: c.numerator}, c.denominator) if c else _ZERO

    def var(self, e: Var):
        v = e.var
        if isinstance(v, JetVar):
            out = self.jets.get(v)
            if out is None:
                out = self.jets[v] = self.jet(v)
            return out
        out = self.coords.get(v.axis)
        if out is None:
            if not 1 <= v.axis <= len(self.point):
                raise _Unserved
            x = self.point[v.axis - 1]
            num = {0: x.numerator} if x else {}
            if self.lay.size > 1:
                num[self.lay.unit[v.axis - 1]] = x.denominator
            out = self.coords[v.axis] = (num, x.denominator)
        return out

    def jet(self, v: JetVar):
        """The binding of v truncated to the walk's slots, exact zeros
        dropped, over the lcm of its denominators."""
        bound = self.bindings.get(v)
        if bound is None:
            raise _Unserved
        size = self.lay.size
        given = []
        for k, c in bound.items():
            if k < size:
                if type(c) is not Fraction:
                    raise _Unserved
                n, d = c.as_integer_ratio()
                if n:
                    given.append((k, n, d))
        if not given:
            return _ZERO
        den = math.lcm(*[d for _, _, d in given])
        return {k: n if d == den else n * (den // d) for k, n, d in given}, den

    def sum(self, e: Sum):
        parts = []
        for term in e.terms:
            s = self(term)
            if s[0]:
                parts.append(s)
        if len(parts) < 2:
            return parts[0] if parts else _ZERO
        den = math.lcm(*[d for _, d in parts])
        acc: dict[int, int] = {}
        for num, d in parts:
            f = den // d
            for k, v in num.items():
                if f != 1:
                    v *= f
                acc[k] = acc[k] + v if k in acc else v
        acc = {k: v for k, v in acc.items() if v}
        return (acc, den) if acc else _ZERO

    def prod(self, e: Prod):
        # _Walk's order: the factors reversed, stopping at an exact zero
        out = None
        for factor in reversed(e.factors):
            s = self(factor)
            if not s[0]:
                return _ZERO
            out = s if out is None else _int_mul(out, s, self.lay)
        return out

    def pow(self, e: Pow):
        a, k = self(e.base), e.exponent
        if k.denominator != 1 or k < 0:
            raise _Unserved
        k = k.numerator
        if k == 0:
            return ({0: 1}, 1)
        if not a[0]:
            return _ZERO
        return _power(a, k, lambda x, y: _int_mul(x, y, self.lay))


_INTEGER_RULES = {
    Const: _IntegerWalk.const,
    Var: _IntegerWalk.var,
    Sum: _IntegerWalk.sum,
    Prod: _IntegerWalk.prod,
    Pow: _IntegerWalk.pow,
}


# ---------------------------------------------------------------------------
# the float tape: _Walk's float operations on a polynomial tree, recorded
# once per (tree, order, structure) and replayed at every point

class _Register:
    """A float of a recording walk: each + and * on it appends (multiply?,
    a, b, destination) to the tape's operations.  IEEE + and * commute, so
    x + r records as r + x."""

    __slots__ = ("tape", "index")

    def __init__(self, tape: tuple[list, list], value: float | None = None):
        self.tape = tape
        self.index = len(tape[0])
        tape[0].append(value)

    def op(self, multiply: bool, other) -> _Register:
        out = _Register(self.tape)
        self.tape[1].extend((multiply, self.index, _index(self.tape, other), out.index))
        return out

    def __add__(self, other):
        return self.op(False, other)

    def __mul__(self, other):
        return self.op(True, other)

    __radd__, __rmul__ = __add__, __mul__


def _index(tape: tuple[list, list], x) -> int:
    """The register of x: its own, or a new one holding the float x."""
    return (x if type(x) is _Register else _Register(tape, x)).index


def _tape(e: Expr, point, lay: _Layout, flags, jets, shapes) -> tuple:
    """Run _Walk's float walk of e once, on registers for the non-zero
    coordinates (`flags`) and then each jet variable's bound slots
    (`shapes`).  Returns the registers after those inputs (each a folded
    constant or None), the operations as one flat tuple, four ints each,
    and the output multi-indices and registers in slot order."""
    tape: tuple[list, list] = ([], [])
    walk = _Walk(point, lay, "float", {})
    walk.coords = coords = []
    for f in flags:
        coords.append(_Register(tape) if f else 0.0)
    for v, keys in zip(jets, shapes):
        walk.jets[v] = bound = {}
        for k in keys:
            bound[k] = _Register(tape)
    inputs = len(tape[0])
    out = walk(e)
    slots = sorted(out)
    registers = [_index(tape, out[k]) for k in slots]
    return tape[0][inputs:], tuple(tape[1]), tuple(map(lay.indices.__getitem__, slots)), registers


def _polynomial_jets(e: Expr) -> tuple[JetVar, ...] | None:
    """The jet variables of a tree of Const, Var, Sum, Prod and Pow nodes
    with integer exponents >= 0, or None for any other tree.  The scan is
    breadth first, so a bump factor ends it at once."""
    jets: dict[JetVar, None] = {}
    nodes = [e]
    for node in nodes:
        t = type(node)
        if t is Sum:
            nodes += node.terms
        elif t is Prod:
            nodes += node.factors
        elif t is Pow and node.exponent.denominator == 1 and node.exponent >= 0:
            nodes.append(node.base)
        elif t is Var:
            if isinstance(node.var, JetVar):
                jets[node.var] = None
        elif t is not Const:
            return None
    return tuple(jets)


_HELD = 32  # polynomial trees with tapes, and tapes per tree; a full cache is emptied
# id(tree) -> (tree, its jet variables, {(order, flags, *shapes): tape})
_TAPES: dict[int, tuple[Expr, tuple, dict]] = {}


def _replay(e: Expr, point: Sequence, lay: _Layout, bindings: Mapping):
    """series(e, point, lay.order, "float", bindings) off a tape, or None
    where no tape serves: _walk then gives the result or its own error."""
    entry = _TAPES.get(id(e))
    if entry is None:
        jets = _polynomial_jets(e)
        if jets is None:
            return None
        if len(_TAPES) >= _HELD:
            _TAPES.clear()
        # the entry holds the tree, so no other tree takes its id
        entry = _TAPES[id(e)] = (e, jets, {})
    _, jets, tapes = entry
    if not set(map(type, point)) <= {Fraction}:
        return None
    try:
        values = list(map(float, point))
        key = [lay.order, tuple(map(bool, values))]
        values = list(filter(None, values))
        for v in jets:
            bound = bindings.get(v)
            if bound is None:
                return None
            keys = tuple(filter(lay.size.__gt__, bound))  # the slots below the walk's size
            key.append(keys)
            values += map(float, map(bound.__getitem__, keys))
    except OverflowError:
        return None
    key = tuple(key)
    tape = tapes.get(key)
    if tape is None:
        if len(tapes) >= _HELD:
            tapes.clear()
        try:
            tape = tapes[key] = _tape(e, point, lay, key[1], jets, key[2:])
        except (ArithmeticError, EvaluationError):
            return None
    rest, ops, indices, registers = tape
    r = values + rest
    step = iter(ops)
    for multiply, a, b, d in zip(step, step, step, step):
        r[d] = r[a] * r[b] if multiply else r[a] + r[b]
    out = dict(zip(indices, map(r.__getitem__, registers)))
    # _walk names the first coefficient that is not finite
    return out if all(map(math.isfinite, out.values())) else None


def series(
    e: Expr,
    point: Sequence,
    order: int,
    mode: str = "auto",
    bindings: Mapping[Variable, Mapping[int, Coefficient]] | None = None,
) -> dict[MultiIndex, Coefficient]:
    """Taylor coefficients c_p of e at the point for |p| <= order, keyed
    by p in graded-lex order; D^p e(point) = p! * c_p.

    `point` gives the space coordinates, axis 1 first.  `bindings` gives
    the series of each jet variable at the point as a slot series, to
    `order` or beyond (jet_bindings); a missing slot is an exact zero.
    Modes: "auto" keeps each coefficient exact (Fraction) when every
    input to it is exact and float otherwise; "exact" raises
    ExactnessUnavailable unless every coefficient is exact; "float"
    computes in floats from the leaves up.  A float coefficient is never
    NaN or inf, and no float overflow or zero division escapes:
    EvaluationError is raised instead, also for a binding beyond floats.

    A polynomial tree is walked over integers, to the same Fractions, or
    in "float" mode replays the float operations _Walk recorded for it;
    every other tree goes through _Walk (see the module docstring).
    """
    return series_each((e,), point, order, mode, bindings)[0]


def series_each(trees: Sequence[Expr], point: Sequence, order: int, mode="auto", bindings=None):
    """series of each tree at one point, order, mode and bindings.  The
    trees share one integer walk, which converts each binding once."""
    if mode not in MODES:
        raise ValueError(f"unknown arithmetic {mode!r}")
    if order < 0:
        raise ValueError("order must be >= 0")
    lay, bindings = _layout(len(point), order), bindings or {}
    try:
        integer = None if mode == "float" else _IntegerWalk(point, lay, bindings)
    except _Unserved:
        integer = None
    out = []
    for e in trees:
        s = _replay(e, point, lay, bindings) if mode == "float" else None
        if integer is not None:
            try:
                num, den = integer(e)
            except _Unserved:
                pass
            else:
                s = {lay.indices[k]: Fraction(num[k], den) for k in sorted(num)}
        out.append(_walk(e, point, lay, mode, bindings) if s is None else s)
    return out


def _walk(
    e: Expr, point: Sequence, lay: _Layout, mode: str, bindings: Mapping
) -> dict[MultiIndex, Coefficient]:
    """series through _Walk, for every tree and mode: the reference the
    integer walk is tested against."""
    try:
        out = _Walk(point, lay, mode, bindings)(e)
    except ArithmeticError as exc:
        raise EvaluationError(f"series evaluation failed: {exc}") from None
    result: dict[MultiIndex, Coefficient] = {}
    for k in sorted(out):
        c = out[k]
        if type(c) is float:
            if mode == "exact":
                raise ExactnessUnavailable(f"coefficient {lay.indices[k]} is not exact")
            if not math.isfinite(c):
                raise EvaluationError(f"coefficient {lay.indices[k]} is not finite")
        elif type(c) is not Fraction:
            c = Fraction(c)
        result[lay.indices[k]] = c
    return result


def taylor_coefficients(columns, values, factorials, exact: bool) -> list[Coefficient]:
    """The Taylor coefficient v / q! of each jet value v of a column (u, q)
    in `columns`, with q! given in `factorials`: a Fraction each when
    `exact`, a float (v / q! correctly rounded) otherwise, and
    EvaluationError for one outside the float range."""
    if exact:
        values = (v if type(v) is Fraction else Fraction(v) for v in values)
        return [v if f == 1 else v / f for v, f in zip(values, factorials)]
    out = []
    for (u, q), v, f in zip(columns, values, factorials):
        try:
            out.append(float(v if f == 1 else v / f))
        except OverflowError:
            raise EvaluationError(f"jet value {u};{q} is beyond the float range") from None
    return out


def jet_coefficients(
    values: Mapping[tuple[int, MultiIndex], Coefficient], k: int, exact: bool
) -> list[dict[MultiIndex, Coefficient]]:
    """Per unknown u = 1..k, the Taylor coefficients {q: v / q!} of the jet
    values {(u, q): v}, zeros included (taylor_coefficients)."""
    out: list[dict[MultiIndex, Coefficient]] = [{} for _ in range(k)]
    factorials = [q.factorial() for _, q in values]
    for (u, q), c in zip(values, taylor_coefficients(values, values.values(), factorials, exact)):
        out[u - 1][q] = c
    return out


_SHIFT_PLANS = 128  # shift plans held at most; the least recently used go first


@lru_cache(maxsize=_SHIFT_PLANS)
def shift_plan(
    variables: tuple[JetVar, ...], k: int, order: int, lowest: int, highest: int
) -> tuple[tuple[JetVar, tuple[int, ...]], ...]:
    """How the jet variables read the Taylor coefficients of k unknowns'
    jets in the columns jet_columns(n, k, highest, lowest): per variable
    u_alpha, in the given order, (u_alpha, its entries), an entry for each
    |q| <= order in slot order whose q + alpha is a column: the slot of q,
    the column of (u, q + alpha) and (q + alpha)! / q!, three ints each,
    flat.  bind_jets applies it."""
    out = []
    for v in variables:
        u, n, d = v.unknown, v.index.n, v.index.order
        below = len(multi_indices(n, lowest - 1))  # the slots under the lowest column
        # the q with lowest <= |q + alpha| <= highest, in slot order
        q = slice(len(multi_indices(n, lowest - d - 1)), len(multi_indices(n, highest - d)))
        entries: list[int] = []
        for slot, src, factor in _shift_plan(v.index, order)[q]:
            entries += (slot, (src - below) * k + u - 1, factor)
        out.append((v, tuple(entries)))
    return tuple(out)


def bind_jets(
    bindings: dict[JetVar, dict[int, Coefficient]],
    plan: tuple[tuple[JetVar, tuple[int, ...]], ...],
    coefficients: Sequence[Coefficient | None],
) -> None:
    """Add to the slot series of each jet variable in `bindings` the slots
    that a shift_plan fills from the Taylor coefficients of its columns,
    `coefficients` in column order, None where one is not given: each
    entry (slot, column, factor) sets the slot to factor * c for the
    column's c.  The new slots follow the old ones, in slot order; so
    bindings grown level by level, each level's columns above the orders
    bound before, as a jet solve grows them, hold the same slots in the
    same order as jet_bindings of all the coefficients at once."""
    for v, entries in plan:
        out = bindings[v]
        step = iter(entries)
        for slot, i, factor in zip(step, step, step):
            c = coefficients[i]
            if c is not None:
                out[slot] = c if factor == 1 else factor * c


def jet_bindings(
    variables: Iterable[JetVar], coefficients: Sequence[Mapping[MultiIndex, Coefficient]], order: int
) -> dict[JetVar, dict[int, Coefficient]]:
    """The `bindings` of series for the jet variables: each u_alpha bound
    to the alpha-shift, to `order`, of the series s = coefficients[u - 1],
    as a slot series: c_q = (q + alpha)! / q! * s_{q + alpha} in the slot
    of q, for every |q| <= order whose s_{q + alpha} is given, a zero
    included (bind_jets of a shift_plan over every column that a shift
    reads)."""
    variables = tuple(variables)
    bindings: dict[JetVar, dict[int, Coefficient]] = {v: {} for v in variables}
    if variables and any(coefficients):
        k = len(coefficients)
        highest = order + max(v.index.order for v in variables)
        columns = jet_columns(variables[0].index.n, k, highest)
        given = [coefficients[u - 1].get(q) for u, q in columns]
        bind_jets(bindings, shift_plan(variables, k, order, 0, highest), given)
    return bindings


def derivative(s: Mapping[MultiIndex, Coefficient], p: MultiIndex, exact: bool = True):
    """D^p w(point) = p! c_p from the series s of w; a missing coefficient
    is Fraction(0), or 0.0 when `exact` is false."""
    c = s.get(p)
    if c is None:
        return Fraction(0) if exact else 0.0
    return p.factorial() * c
