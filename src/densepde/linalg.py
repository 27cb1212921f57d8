"""Exact and floating-point linear algebra for the range analysis.

The exact routines share one fraction-free kernel.  Each rational row is
scaled to integers by the least common multiple of its denominators (a
right-hand side entry is scaled with its row), and one elimination pass
over the sparse integer rows, in row order, finds the pivot each row adds
or shows that it depends on the rows before it.  Ranks, consistency and
the independent rows of a least-norm solve all come from that pass; the
least-norm solve then needs only one integer Gram system, solved by
Bareiss elimination with a single division at the end.  No Fraction is
built until the answer, so every rank and solution is exact.

Float routines delegate to numpy and carry an explicit zero tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np

Row = list[Fraction]
FLOAT_RANK_TOL = 1e-9


def _integer_rows(rows) -> list[dict[int, int]]:
    """Each rational row as {column: integer} over its nonzero entries,
    scaled by the least common multiple of its denominators."""
    out = []
    for row in rows:
        entries = {c: Fraction(v) for c, v in enumerate(row) if v}
        scale = lcm(*(v.denominator for v in entries.values()))
        out.append({c: v.numerator * (scale // v.denominator) for c, v in entries.items()})
    return out


def _pivot_columns(rows: list[dict[int, int]]) -> list[int | None]:
    """Fraction-free elimination in row order: for each row, the pivot
    column it adds (the first nonzero column left after reducing it by
    the earlier pivot rows), or None when it depends on earlier rows.

    A row is reduced by each pivot row in the order the pivots were found,
    so every pivot row is zero in the pivot columns found before it.  Each
    step multiplies by the pivot over its gcd with the eliminated entry,
    and the finished row is divided by the gcd of its entries, so the
    integers stay small.
    """
    pivots: list[tuple[int, int, dict[int, int]]] = []  # column, value, row
    out: list[int | None] = []
    for row in rows:
        r = dict(row)
        for col, value, prow in pivots:
            f = r.get(col)
            if not f:
                continue
            g = gcd(value, f)
            scale, f = value // g, f // g
            if scale != 1:
                r = {c: scale * v for c, v in r.items()}
            for c, v in prow.items():
                w = r.get(c, 0) - f * v
                if w:
                    r[c] = w
                else:
                    del r[c]
        if not r:
            out.append(None)
            continue
        g = gcd(*r.values())
        if g != 1:
            r = {c: v // g for c, v in r.items()}
        col = min(r)
        pivots.append((col, r[col], r))
        out.append(col)
    return out


def exact_rank(
    rows: list[Row], block_ends: list[int] | None = None
) -> int | list[tuple[int, int]]:
    """Rank of a rational matrix, by one fraction-free elimination pass.

    With `block_ends`, the rows are read as [A | b] with b the last
    column, and the result is, for each end e, the pair (rank of A's
    first e rows, rank of [A | b]'s first e rows), all from the same pass.
    """
    pivots = _pivot_columns(_integer_rows(rows))
    if block_ends is None:
        return sum(p is not None for p in pivots)
    last = len(rows[0]) - 1 if rows else 0
    pairs = []
    for end in block_ends:
        found = [p for p in pivots[:end] if p is not None]
        pairs.append((sum(p < last for p in found), len(found)))
    return pairs


def _bareiss_solve(g: list[list[int]], b: list[int]) -> tuple[list[int], int]:
    """(Y, d) with g y = b solved by y = Y / d, for a nonsingular integer
    matrix g whose leading principal minors are all nonzero (a Gram
    matrix of independent rows).  d = det g (1 for the empty matrix);
    every division is exact."""
    n = len(g)
    m = [list(row) + [rhs] for row, rhs in zip(g, b)]
    prev = 1
    for k in range(n):
        mk = m[k]
        pk = mk[k]
        for mi in m[k + 1:]:
            f = mi[k]
            for j in range(k + 1, n + 1):
                mi[j] = (pk * mi[j] - f * mk[j]) // prev
        prev = pk
    det = prev
    y = [0] * n
    for i in range(n - 1, -1, -1):
        s = det * m[i][n] - sum(m[i][j] * y[j] for j in range(i + 1, n))
        y[i] = s // m[i][i]
    return y, det


def exact_least_norm(a: list[Row], b: Row) -> list[Fraction] | None:
    """Minimum-Euclidean-norm exact solution of A x = b, or None when the
    system is inconsistent.

    Computed as x = A_R^T y with (A_R A_R^T) y = b_R over the rows R that
    the elimination pass finds independent, in integers, then verified
    against every equation.  The integer scaling of the rows changes
    neither the solution set nor, since it is unique, the least-norm
    solution.
    """
    if not a:
        return []
    n_cols = len(a[0])
    scaled = _integer_rows([list(row) + [rhs] for row, rhs in zip(a, b)])
    rhs = [row.pop(n_cols, 0) for row in scaled]
    keep = [i for i, p in enumerate(_pivot_columns(scaled)) if p is not None]
    ar = [scaled[i] for i in keep]
    gram = [
        [sum(v * r2[c] for c, v in r1.items() if c in r2) for r2 in ar]
        for r1 in ar
    ]
    y, det = _bareiss_solve(gram, [rhs[i] for i in keep])
    x = [0] * n_cols
    for row, yi in zip(ar, y):
        for c, v in row.items():
            x[c] += v * yi
    for row, want in zip(scaled, rhs):
        if sum(v * x[c] for c, v in row.items()) != want * det:
            return None
    return [Fraction(v, det) for v in x]


def float_rank(matrix, tol: float = FLOAT_RANK_TOL) -> int:
    """Rank with singular values below tol * s_max treated as zero."""
    a = np.asarray(matrix, dtype=float)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > tol * s[0]))


def float_least_norm(a, b) -> np.ndarray:
    """Minimum-norm least-squares solution (numpy lstsq)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0:
        return np.zeros(a.shape[1] if a.ndim == 2 else 0)
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    return x


def residual_floor(a, b) -> float:
    """Norm of the least-squares residual: how close A x = b can get."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0:
        return float(np.linalg.norm(b))
    x = float_least_norm(a, b)
    return float(np.linalg.norm(a @ x - b))
