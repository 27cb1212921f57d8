"""Ready-made operators, most notably the real split of the classical
unsolvable first-order complex equation on R^3

    (D_x + i D_y - 2 (x + i y) D_z) U = f,

written for U = V + i W and f = f1 + i f2 as the 2x2 real system

    V_x - W_y - 2 x V_z + 2 y W_z = f1,
    W_x + V_y - 2 x W_z - 2 y V_z = f2.

Classically this has no solution in any neighborhood for suitable smooth
right-hand sides; the dense-singularity construction still solves it
pointwise to arbitrary jet order.
"""

from __future__ import annotations

from fractions import Fraction

from .expr import Expr
from .jets import PdeOperator, normalize_homogeneous
from .parser import Context, parse_expression

LEWY_VARS = ("x", "y", "z")
LEWY_UNKNOWNS = ("v", "w")
LEWY_DOMAIN = ((-1, 1), (-1, 1), (-1, 1))


def lewy_context() -> Context:
    return Context(LEWY_VARS, LEWY_UNKNOWNS)


def lewy_operator(f1: str | Expr = "x", f2: str | Expr = "y") -> PdeOperator:
    """The real split system with right-hand side (f1, f2), on the box
    LEWY_DOMAIN.

    The right-hand sides may be expression text in x, y, z (polynomials
    keep everything rational-exact) or already-parsed expressions.
    """
    ctx = lewy_context()
    lhs = (
        parse_expression("v_x - w_y - 2*x*v_z + 2*y*w_z", ctx),
        parse_expression("w_x + v_y - 2*x*w_z - 2*y*v_z", ctx),
    )
    rhs = tuple(
        parse_expression(f, ctx) if isinstance(f, str) else f
        for f in (f1, f2)
    )
    equations = tuple(
        normalize_homogeneous(g, f) for g, f in zip(lhs, rhs)
    )
    box = tuple((Fraction(lo), Fraction(hi)) for lo, hi in LEWY_DOMAIN)
    return PdeOperator(ctx, 1, equations, box)
