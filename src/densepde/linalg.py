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

The float routines share one Householder QR with column pivoting, in
pure Python on lists.  Ranks count the pivots above an explicit relative
tolerance; least-squares solves add a second QR of the leading rows (a
complete orthogonal decomposition) for the minimum-norm solution.  Every
norm is a math.hypot, finite whenever the norm itself is representable.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import chain
from math import gcd, hypot, lcm
from operator import mul

Row = list[Fraction]
FLOAT_RANK_TOL = 1e-9
EPS = sys.float_info.epsilon


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


def _columns(matrix) -> list[list[float]]:
    """The columns of a 2-D sequence (nested lists, or an array) as lists
    of floats."""
    return [[float(v) for v in col] for col in zip(*matrix)]


def _reflector(x: list[float]) -> tuple[list[float], float]:
    """(v, alpha) with (I - 2 v v^T) x = alpha e_1 and |v| = 1, for a
    nonzero x.  alpha has the sign opposite to x[0], so forming v cancels
    nothing, and v is built from x / |x|, so nothing overflows."""
    size = hypot(*x)
    alpha = -size if x[0] >= 0 else size
    v = [xi / size for xi in x]
    v[0] -= alpha / size
    scale = hypot(*v)
    return [vi / scale for vi in v], alpha


def _reflect(v: list[float], col: list[float], k: int) -> None:
    """Apply I - 2 v v^T to col[k:] in place."""
    tail = col[k:]
    s = 2.0 * sum(map(mul, v, tail))
    if s:
        col[k:] = [c - s * vi for c, vi in zip(tail, v)]


def _pivoted_qr(cols: list[list[float]], cutoff: float, rhs=()):
    """Householder QR with column pivoting (Golub & Van Loan, Matrix
    Computations, 4th ed., 5.4.1) of the matrix whose columns are `cols`,
    in place.

    Step k moves the remaining column of largest norm below row k to
    position k and reflects it onto e_k, so |R_kk| is that norm and never
    grows with k.  The factorization stops at the first k with |R_kk| <=
    cutoff * |R_00|, which makes k the numerical rank.  Each column of
    `rhs` is reflected along, never chosen, and ends as Q^T b.

    Returns (rank, |R_00|, order, reflectors): cols[j][:rank] is then
    column j of R's leading rows with order[j] its original index, and
    reflectors[k] the v of step k, acting on rows k and below.
    """
    m = len(cols[0]) if cols else 0
    order = list(range(len(cols)))
    reflectors = []
    top = 0.0
    for k in range(min(m, len(cols))):
        norms = [hypot(*col[k:]) for col in cols[k:]]
        largest = max(norms)
        if k == 0:
            top = largest
        if largest <= cutoff * top:
            break
        j = k + norms.index(largest)
        cols[k], cols[j] = cols[j], cols[k]
        order[k], order[j] = order[j], order[k]
        v, alpha = _reflector(cols[k][k:])
        cols[k][k:] = [alpha] + [0.0] * (m - k - 1)
        for col in chain(cols[k + 1:], rhs):
            _reflect(v, col, k)
        reflectors.append(v)
    return len(reflectors), top, order, reflectors


def float_rank(matrix, tol: float = FLOAT_RANK_TOL, rhs=None):
    """Rank with |R_kk| <= tol * |R_00| in a pivoted QR treated as zero.

    With `rhs` the result is the pair (rank A, rank [A | rhs]) from A's
    factorization alone: the column adds one to the rank when its part
    outside the range of A's first rank pivot columns is above tol
    times the largest column norm of [A | rhs]."""
    cols = _columns(matrix)
    extra = [] if rhs is None else [[float(v) for v in rhs]]
    size = hypot(*extra[0]) if extra else 0.0
    rank, top, _, _ = _pivoted_qr(cols, tol, extra)
    if rhs is None:
        return rank
    return rank, rank + (hypot(*extra[0][rank:]) > tol * max(top, size))


def _lstsq_cutoff(matrix) -> float:
    """The relative cutoff eps * max(m, n) below which a pivot counts as
    zero in a least-squares solve, as LAPACK's default rcond has it."""
    return EPS * max(len(matrix), len(matrix[0]) if len(matrix) else 0)


def float_least_norm(a, b) -> list[float]:
    """Minimum-norm least-squares solution of A x = b by a complete
    orthogonal decomposition (Golub & Van Loan, 5.5.2).

    The pivoted QR A P = Q [R1; R2] drops R2 below the cutoff, and a
    second one factors R1^T Pi = Z [T; 0].  Then R1 P^T x = (Q^T b)_1
    reads T^T w = Pi^T (Q^T b)_1 with x = P Z [w; 0]: a triangular solve
    whose solution has no component in the null space."""
    cols = _columns(a)
    c = [float(v) for v in b]
    rank, _, order, _ = _pivoted_qr(cols, _lstsq_cutoff(a), [c])
    rows = [[col[i] for col in cols] for i in range(rank)]
    # cutoff 0: R1 has full row rank, so this stops only on exact zeros
    kept, _, row_order, reflectors = _pivoted_qr(rows, 0.0)
    w = []
    for i in range(kept):
        t = rows[i]
        w.append((c[row_order[i]] - sum(map(mul, t[:i], w))) / t[i])
    y = w + [0.0] * (len(cols) - kept)
    for k in range(kept - 1, -1, -1):
        _reflect(reflectors[k], y, k)
    x = [0.0] * len(cols)
    for j, v in zip(order, y):
        x[j] = v
    return x


def residual_floor(a, b) -> float:
    """Norm of the least-squares residual: how close A x = b can get.
    It is the part of Q^T b below the numerical rank of A."""
    c = [float(v) for v in b]
    rank, _, _, _ = _pivoted_qr(_columns(a), _lstsq_cutoff(a), [c])
    return hypot(*c[rank:])
