"""Damped Gauss-Newton root finding with deterministic multistart.

Solves F(xi) = 0 for possibly non-square smooth F: steps are minimum-norm
least-squares solutions of the linearized system, with backtracking on the
squared residual.  Used for the order-m jet solve of nonlinear operators,
which keeps the first root found: the starts run in a fixed order, and
none runs after the first that converges.

A trial point where F cannot be evaluated (EvaluationError, or a float
error) halves the step like one that does not improve the residual; a
start where F or its Jacobian cannot be evaluated is a failed start.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Callable, Sequence

from .expr import EvaluationError
from .linalg import float_least_norm

# deterministic constant-fill seed values on [-2, 2]
SEED_FILLS = (0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 1.5)
MAX_ITER = 200
STATIONARY_TOL = 1e-8

Vector = list[float]


class NewtonResult:
    def __init__(self, converged: bool, x: Vector, residual: float, stationary: bool, iterations: int):
        self.converged = converged
        self.x = x
        self.residual = residual
        self.stationary = stationary  # first-order stationary point of |F|^2 reached
        self.iterations = iterations


def damped_newton(
    fun: Callable[[Vector], Sequence[float]],
    jac: Callable[[Vector], Sequence[Sequence[float]]],
    x0: Sequence[float],
    tol: float = 1e-12,
) -> NewtonResult:
    x = [float(v) for v in x0]
    try:
        f = [float(v) for v in fun(x)]
    except EvaluationError:
        return NewtonResult(False, x, math.inf, False, 0)
    res = math.hypot(*f)
    for it in range(MAX_ITER):
        if res <= tol:
            return NewtonResult(True, x, res, False, it)
        try:
            j = [[float(v) for v in row] for row in jac(x)]
        except EvaluationError:
            return NewtonResult(False, x, res, False, it)
        # stationary when |J^T F| <= STATIONARY_TOL * |F|: J^T F, the
        # gradient of |F|^2 / 2, is taken of F / |F|, so that no product
        # overflows and a start one step from a root is not stationary
        scale = res or 1.0
        unit = [v / scale for v in f]
        grad = [sum(map(mul, col, unit)) for col in zip(*j)]
        if math.hypot(*grad) <= STATIONARY_TOL:
            return NewtonResult(False, x, res, True, it)
        step = float_least_norm(j, [-v for v in f])[0]
        if not all(map(math.isfinite, step)):
            return NewtonResult(False, x, res, False, it)
        lam = 1.0
        improved = False
        for _ in range(30):
            trial = [xi + lam * si for xi, si in zip(x, step)]
            try:
                ft = [float(v) for v in fun(trial)]
            except (ArithmeticError, ValueError, EvaluationError):
                lam *= 0.5
                continue
            rt = math.hypot(*ft)
            if math.isfinite(rt) and rt < res:
                x, f, res = trial, ft, rt
                improved = True
                break
            lam *= 0.5
        if not improved:
            return NewtonResult(False, x, res, True, it)
    return NewtonResult(res <= tol, x, res, False, MAX_ITER)


def multistart_newton(
    fun,
    jac,
    dim: int,
    seeds: Sequence[Sequence[float]] = (),
    tol: float = 1e-12,
) -> tuple[NewtonResult | None, list[NewtonResult]]:
    """Run damped Newton from the user seeds, then from each constant fill
    of SEED_FILLS, and stop at the first start that converges.  Returns
    (that result, or None when no start converges, and the results of the
    starts run).

    Any root will do: the construction needs some jet at each point, not
    the smallest one.  For example (u')^2 = 1 keeps the +1 branch: the
    fill-0 start is stationary and fill 1.0 converges.
    """
    results = []
    for start in [*seeds, *([fill] * dim for fill in SEED_FILLS)]:
        r = damped_newton(fun, jac, start, tol=tol)
        results.append(r)
        if r.converged:
            return r, results
    return None, results
