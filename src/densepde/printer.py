"""Text form of expressions; printing then reparsing reproduces the tree."""

from __future__ import annotations

from fractions import Fraction

from .expr import Bump, Const, Expr, Fn, Pow, Prod, Quot, Sum, Var, _split_coeff, sprod


def to_text(e: Expr) -> str:
    return _print(e)


def point_text(point) -> str:
    """A point as plain text: its coordinates, "(1/2, 0)"."""
    return "(" + ", ".join(str(c) for c in point) + ")"


def _frac(v: Fraction) -> str:
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


def _is_atom(e: Expr) -> bool:
    if isinstance(e, Var) or isinstance(e, Fn):
        return True
    if isinstance(e, Const):
        return e.value >= 0 and e.value.denominator == 1
    return False


def _print(e: Expr) -> str:
    if isinstance(e, Const):
        return _frac(e.value)
    if isinstance(e, Var):
        return e.var.name
    if isinstance(e, Sum):
        parts = [_print_mul_level(e.terms[0])]
        for t in e.terms[1:]:
            coeff, _rest = _split_coeff(t)
            if coeff < 0:
                parts.append(" - " + _print_mul_level(sprod([Const(Fraction(-1)), t])))
            else:
                parts.append(" + " + _print_mul_level(t))
        return "".join(parts)
    return _print_mul_level(e)


def _print_mul_level(e: Expr) -> str:
    if isinstance(e, Prod):
        return "*".join(_print_factor(f) for f in e.factors)
    if isinstance(e, Quot):
        num = _print_factor(e.numer)
        den = _print_power_level(e.denom)
        return f"{num}/{den}"
    return _print_factor(e)


def _print_factor(e: Expr) -> str:
    if isinstance(e, Pow):
        base = _print_power_level(e.base)
        if e.exponent.denominator == 1 and e.exponent >= 0:
            return f"{base}^{e.exponent.numerator}"
        return f"{base}^({_frac(e.exponent)})"
    if isinstance(e, (Sum, Prod, Quot)):
        return f"({_print(e)})"
    if isinstance(e, Const) and (e.value < 0 or e.value.denominator != 1):
        # keep rationals unambiguous inside products: 1/2*x would reparse
        # as (1/2)*x anyway, but -1 needs guarding after '*'
        return f"({_frac(e.value)})" if e.value < 0 else _frac(e.value)
    if isinstance(e, Fn):
        return f"{e.name}({_print(e.arg)})"
    if isinstance(e, Bump):
        center = ",".join(_frac(c) for c in e.center)
        return (
            f"bump[({center});{_frac(e.r_in)};{_frac(e.r_out)};d{e.deriv}]"
        )
    return _print(e)


def _print_power_level(e: Expr) -> str:
    if _is_atom(e):
        return _print(e)
    return f"({_print(e)})"
