"""Damped Gauss-Newton root finding with deterministic multistart.

Solves F(xi) = 0 for possibly non-square smooth F: steps are minimum-norm
least-squares solutions of the linearized system, with backtracking on the
squared residual.  Used for the order-m jet solve of nonlinear operators.

A trial point where F cannot be evaluated (EvaluationError, or a float
error) halves the step like one that does not improve the residual; a
start where F or its Jacobian cannot be evaluated is a failed start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Callable, Sequence

from .expr import EvaluationError
from .linalg import float_least_norm

# deterministic constant-fill seed values on [-2, 2]
SEED_FILLS = (0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 1.5)
MAX_ITER = 200
STATIONARY_TOL = 1e-8

Vector = list[float]


@dataclass
class NewtonResult:
    converged: bool
    x: Vector
    residual: float
    stationary: bool  # first-order stationary point of |F|^2 reached
    iterations: int


def damped_newton(
    fun: Callable[[Vector], Sequence[float]],
    jac: Callable[[Vector], Sequence[Sequence[float]]],
    x0: Sequence[float],
    tol: float = 1e-12,
    max_iter: int = MAX_ITER,
) -> NewtonResult:
    x = [float(v) for v in x0]
    try:
        f = [float(v) for v in fun(x)]
    except EvaluationError:
        return NewtonResult(False, x, math.inf, False, 0)
    res = math.hypot(*f)
    for it in range(max_iter):
        if res <= tol:
            return NewtonResult(True, x, res, False, it)
        try:
            j = [[float(v) for v in row] for row in jac(x)]
        except EvaluationError:
            return NewtonResult(False, x, res, False, it)
        # J^T F, the gradient of |F|^2 / 2, is taken of F / |F| so that
        # no product overflows
        scale = res or 1.0
        unit = [v / scale for v in f]
        grad = [sum(map(mul, col, unit)) for col in zip(*j)]
        if math.hypot(*grad) <= STATIONARY_TOL * max(1.0, res) / scale:
            return NewtonResult(False, x, res, True, it)
        step = float_least_norm(j, [-v for v in f])
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
            return NewtonResult(res <= tol, x, res, True, it)
    return NewtonResult(res <= tol, x, res, False, max_iter)


def multistart_newton(
    fun,
    jac,
    dim: int,
    seeds: Sequence[Sequence[float]] = (),
    tol: float = 1e-12,
) -> tuple[NewtonResult | None, list[NewtonResult]]:
    """Run damped Newton from the user seeds plus the deterministic fill
    grid.  Returns (best converged result, all results).

    Among converged roots the winner is the one of smallest norm; exact
    norm ties break toward the componentwise larger root, so for example
    (u')^2 = 1 deterministically selects the +1 branch.
    """
    starts = [list(s) for s in seeds]
    starts += [[fill] * dim for fill in SEED_FILLS]
    results = []
    roots: list[NewtonResult] = []
    for s in starts:
        r = damped_newton(fun, jac, s, tol=tol)
        results.append(r)
        if r.converged:
            roots.append(r)
    if not roots:
        return None, results
    best = min(
        roots,
        key=lambda r: (
            round(math.hypot(*r.x), 9),
            tuple(-round(v, 9) for v in r.x),
        ),
    )
    return best, results
