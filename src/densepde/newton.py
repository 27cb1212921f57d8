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
from typing import Callable, Sequence

import numpy as np

from .expr import EvaluationError

# deterministic constant-fill seed values on [-2, 2]
SEED_FILLS = (0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 1.5)
MAX_ITER = 200
STATIONARY_TOL = 1e-8


@dataclass
class NewtonResult:
    converged: bool
    x: np.ndarray
    residual: float
    stationary: bool  # first-order stationary point of |F|^2 reached
    iterations: int


def damped_newton(
    fun: Callable[[np.ndarray], np.ndarray],
    jac: Callable[[np.ndarray], np.ndarray],
    x0: Sequence[float],
    tol: float = 1e-12,
    max_iter: int = MAX_ITER,
) -> NewtonResult:
    x = np.asarray(x0, dtype=float).copy()
    try:
        f = np.atleast_1d(fun(x))
    except EvaluationError:
        return NewtonResult(False, x, math.inf, False, 0)
    res = float(np.linalg.norm(f))
    for it in range(max_iter):
        if res <= tol:
            return NewtonResult(True, x, res, False, it)
        try:
            j = np.atleast_2d(jac(x))
        except EvaluationError:
            return NewtonResult(False, x, res, False, it)
        grad = j.T @ f
        if float(np.linalg.norm(grad)) <= STATIONARY_TOL * max(1.0, res):
            return NewtonResult(False, x, res, True, it)
        step, *_ = np.linalg.lstsq(j, -f, rcond=None)
        if not np.all(np.isfinite(step)):
            return NewtonResult(False, x, res, False, it)
        lam = 1.0
        improved = False
        for _ in range(30):
            trial = x + lam * step
            try:
                ft = np.atleast_1d(fun(trial))
            except (ArithmeticError, ValueError, EvaluationError):
                lam *= 0.5
                continue
            rt = float(np.linalg.norm(ft))
            if np.isfinite(rt) and rt < res:
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
    starts = [np.asarray(s, dtype=float) for s in seeds]
    starts += [np.full(dim, fill) for fill in SEED_FILLS]
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
            round(float(np.linalg.norm(r.x)), 9),
            tuple(-round(v, 9) for v in r.x),
        ),
    )
    return best, results
