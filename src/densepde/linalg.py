"""Exact and floating-point linear algebra for the range analysis.

The exact routines share one fraction-free kernel.  Each rational row is
scaled to integers by the least common multiple of its denominators (a
right-hand side entry is scaled with its row, and an absent entry is the
int 0, which costs a C-level truth test).  One elimination pass
over the sparse integer rows, in row order, finds the pivot each row adds
or shows that it depends on the rows before it.  A row is reduced only at
its leading column, its largest one other than the right-hand side, by
the pivot row that leads there, until no pivot row leads at that column
or the row vanishes (Davis, "Direct Methods for Sparse Linear Systems",
2006, chs. 2-3).  Rows whose leading columns are new cost no reduction
step: each level of a prolonged system leads at its own new top-order
jets.  Ranks, consistency and the independent rows of a least-norm solve
all come from that pass.  The least-norm solve then builds the sparse
integer Gram system of those rows from a column index, reduces it by the
same pass, and takes one integer forward substitution over a common
denominator, pivot rows in ascending leading column.  The residual floor
of an inconsistent system takes the same route over the independent
columns, whose Gram system gives the projection of b onto A's column
space.  No Fraction is built until the answer, so every rank, solution
and floor is exact until the floor is rounded to a float.

The float routines share one Householder QR with column pivoting, in
pure Python on lists.  Ranks factor A and count the pivots above an
explicit relative tolerance.  A least-squares solve takes one
factorization, which gives both the minimum-norm solution and the
residual floor: it factors A^T, whose columns are A's rows, as the first
half of a complete orthogonal decomposition.  When A has full numerical
row rank, a forward substitution and the reflectors of that one QR give
the solution, and only a rank-deficient or tall A needs a second QR,
which also gives the floor.  A one-row A, every Newton step of a single
equation, takes a short kernel that makes the same float operations in
the same order as that QR's single step, so both give the same bits.
Every norm is a math.hypot, finite whenever the norm itself is
representable.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import chain
from math import gcd, hypot, inf, isqrt, lcm, ldexp
from operator import mul

Row = list[Fraction | int]  # the int 0 for an absent entry
FLOAT_RANK_TOL = 1e-9
EPS = sys.float_info.epsilon


def _integer_rows(rows) -> list[dict[int, int]]:
    """Each rational row as {column: integer} over its entries that test
    true (the int 0 at C level), scaled by the lcm of their denominators;
    an entry other than a Fraction is converted by Fraction."""
    out = []
    for row in rows:
        entries = [(c, v if type(v) is Fraction else Fraction(v)) for c, v in enumerate(row) if v]
        scale = lcm(*(v.denominator for _, v in entries))
        out.append({c: v.numerator * (scale // v.denominator) for c, v in entries})
    return out


def _eliminate(rows: list[dict[int, int]]) -> tuple[list[int | None], dict[int, dict[int, int]]]:
    """Fraction-free elimination in row order at the leading column.
    Returns (columns, pivot rows): for each row, the leading column it
    adds as a pivot, or None when it depends on earlier rows; and the
    reduced rows that added a pivot, keyed by that column.

    A row's leading column is its largest.  A right-hand side is held in
    column -1, below every other, so it leads only a row with nothing else
    left.  While a pivot row leads at the row's leading column, the row is
    reduced there by it, which leaves the row's other columns below the
    leading one; so every pivot row is zero above its leading column.
    Each step multiplies the row by the pivot over its gcd with the
    eliminated entry, and the finished row is divided by the gcd of its
    entries, so the integers stay small.
    """
    pivots: dict[int, dict[int, int]] = {}
    out: list[int | None] = []
    for row in rows:
        r = row
        while r:
            col = max(r)
            prow = pivots.get(col)
            if prow is None:
                break
            value, f = prow[col], r[col]
            g = gcd(value, f)
            scale, f = value // g, f // g
            if scale != 1:
                r = {c: scale * v for c, v in r.items()}
            elif r is row:
                r = dict(r)  # the caller's row is never changed
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
        pivots[col] = r
        out.append(col)
    return out, pivots


def exact_rank(
    rows: list[Row], block_ends: list[int] | None = None
) -> int | list[tuple[int, int]]:
    """Rank of a rational matrix, by one fraction-free elimination pass.

    With `block_ends`, the rows are read as [A | b] with b the last
    column, and the result is, for each end e, the pair (rank of A's
    first e rows, rank of [A | b]'s first e rows), all from the same pass.
    b is moved to column -1, so a row leads there only when its part in A
    depends on the rows before it, and A's ranks count the other pivots.
    """
    scaled = _integer_rows(rows)
    if block_ends is None:
        return sum(p is not None for p in _eliminate(scaled)[0])
    last = len(rows[0]) - 1 if rows else 0
    for row in scaled:
        if last in row:
            row[-1] = row.pop(last)
    pivots = _eliminate(scaled)[0]
    pairs = []
    for end in block_ends:
        found = [p for p in pivots[:end] if p is not None]
        pairs.append((sum(p >= 0 for p in found), len(found)))
    return pairs


def _gram(rows: list[dict[int, int]]) -> list[dict[int, int]]:
    """The Gram matrix R R^T of sparse integer rows, as sparse rows: each
    row meets only the rows that share a column with it."""
    by_column: dict[int, list[tuple[int, int]]] = {}
    for i, row in enumerate(rows):
        for c, v in row.items():
            by_column.setdefault(c, []).append((i, v))
    gram = []
    for row in rows:
        g: dict[int, int] = {}
        for c, v in row.items():
            for j, w in by_column[c]:
                g[j] = g.get(j, 0) + v * w
        gram.append({j: s for j, s in g.items() if s})
    return gram


def _back_substitute(pivots: dict[int, dict[int, int]]) -> tuple[dict[int, int], int]:
    """({column: Y}, d) with y = Y / d solving the square nonsingular
    system whose reduced rows _eliminate returned, the right-hand side
    held in column -1.  The rows are taken in ascending leading column:
    each one's other unknowns lead the rows before it.  y stays over one
    common denominator d, which each row multiplies by the part of its
    pivot that does not divide out."""
    y: dict[int, int] = {}
    d = 1
    for col in sorted(pivots):
        row = pivots[col]
        s = row.get(-1, 0) * d - sum(v * y[c] for c, v in row.items() if c != col and c >= 0)
        q = row[col]
        g = gcd(s, q)
        s, q = s // g, q // g
        if q != 1:
            d *= q
            for c in y:
                y[c] *= q
        y[col] = s
    return y, d


def _gram_combination(
    vectors: list[dict[int, int]], rhs: list[int], size: int
) -> tuple[list[int], int]:
    """(X, d) with X / d = V^T y for the y solving (V V^T) y = rhs, where
    V has the linearly independent sparse integer `vectors` as rows and
    `size` columns: the sparse Gram system goes through the elimination
    pass, then one back substitution over a common denominator d."""
    gram = _gram(vectors)
    for row, v in zip(gram, rhs):
        if v:
            row[-1] = v
    y, d = _back_substitute(_eliminate(gram)[1])
    x = [0] * size
    for k, vec in enumerate(vectors):
        for c, v in vec.items():
            x[c] += v * y[k]
    return x, d


def exact_least_norm(a: list[Row], b: Row) -> list[Fraction] | None:
    """Minimum-Euclidean-norm exact solution of A x = b, or None when the
    system is inconsistent.

    Computed as x = A_R^T y with (A_R A_R^T) y = b_R over the rows R that
    the elimination pass finds independent, in integers
    (_gram_combination), and x = X / d is verified against every
    equation.  The integer scaling of the rows changes neither the
    solution set nor, since it is unique, the least-norm solution.
    """
    if not a:
        return []
    n_cols = len(a[0])
    scaled = _integer_rows([list(row) + [rhs] for row, rhs in zip(a, b)])
    rhs = [row.pop(n_cols, 0) for row in scaled]
    keep = [i for i, p in enumerate(_eliminate(scaled)[0]) if p is not None]
    x, d = _gram_combination([scaled[i] for i in keep], [rhs[i] for i in keep], n_cols)
    for row, want in zip(scaled, rhs):
        if sum(v * x[c] for c, v in row.items()) != want * d:
            return None
    return [Fraction(v, d) for v in x]


def exact_residual_floor(a: list[Row], b: Row) -> float:
    """Norm of the least-squares residual b - A x of a rational system,
    computed exactly and rounded to a float only at the end.

    A x is the projection of b onto the column space of A, which the
    columns C that the elimination pass finds independent span: A_C y
    with (A_C^T A_C) y = A_C^T b (_gram_combination).  Scaling each
    column of A to integers leaves that space as it is, and b is scaled
    by one factor, which the norm divides out.  The result is inf when a
    nonzero norm lies outside the range of positive floats, so an
    inconsistent system never reports 0."""
    *columns, target = _integer_rows([*zip(*a), b])
    scale = lcm(*(Fraction(v).denominator for v in b))
    kept = [col for col, p in zip(columns, _eliminate(columns)[0]) if p is not None]
    products = [sum(v * target.get(i, 0) for i, v in col.items()) for col in kept]
    projection, d = _gram_combination(kept, products, len(b))
    square = sum((d * target.get(i, 0) - p) ** 2 for i, p in enumerate(projection))
    return _float_sqrt(Fraction(square, (d * scale) ** 2))


def _float_sqrt(square: Fraction) -> float:
    """sqrt(square) as a float, from an integer square root of 64 bits or
    more, so a square outside the float range still gives its root; inf
    when a nonzero root lies outside the range of positive floats."""
    if not square:
        return 0.0
    p, q = square.numerator, square.denominator
    shift = (128 + q.bit_length() - p.bit_length()) // 2
    scaled = (p << 2 * shift) // q if shift >= 0 else p // (q << -2 * shift)
    try:
        return ldexp(float(isqrt(scaled)), -shift) or inf
    except OverflowError:
        return inf


def _columns(matrix) -> list[list[float]]:
    """The columns of a 2-D sequence (nested lists, or an array) as lists
    of floats."""
    return [[float(v) for v in col] for col in zip(*matrix)]


def _reflector(x: list[float], size: float) -> tuple[list[float], float]:
    """(v, alpha) with (I - 2 v v^T) x = alpha e_1 and |v| = 1, for a
    nonzero x of norm `size` = hypot(*x).  alpha has the sign opposite to
    x[0], so forming v cancels nothing, and v is built from x / |x|, so
    nothing overflows."""
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
        v, alpha = _reflector(cols[k][k:], largest)
        cols[k][k:] = [alpha] + [0.0] * (m - k - 1)
        for col in chain(cols[k + 1:], rhs):
            _reflect(v, col, k)
        reflectors.append(v)
    return len(reflectors), top, order, reflectors


def float_rank(matrix, rhs=None):
    """Rank with |R_kk| <= FLOAT_RANK_TOL * |R_00| in a pivoted QR as zero.

    With `rhs` the result is the pair (rank A, rank [A | rhs]) from A's
    factorization alone: the column adds one to the rank when its part
    outside the range of A's first rank pivot columns is above
    FLOAT_RANK_TOL times the largest column norm of [A | rhs]."""
    cols = _columns(matrix)
    extra = [] if rhs is None else [[float(v) for v in rhs]]
    size = hypot(*extra[0]) if extra else 0.0
    rank, top, _, _ = _pivoted_qr(cols, FLOAT_RANK_TOL, extra)
    if rhs is None:
        return rank
    return rank, rank + (hypot(*extra[0][rank:]) > FLOAT_RANK_TOL * max(top, size))


def _lstsq_cutoff(matrix) -> float:
    """The relative cutoff eps * max(m, n) below which a pivot counts as
    zero in a least-squares solve, as LAPACK's default rcond has it."""
    return EPS * max(len(matrix), len(matrix[0]) if len(matrix) else 0)


def float_least_norm(a, b) -> tuple[list[float], float]:
    """(x, floor): the minimum-norm least-squares solution of A x = b and
    its residual norm, from one factorization.  A one-row A (every Newton
    step of a single equation) takes the kernel _row_least_norm, every
    other shape the complete orthogonal decomposition _qr_least_norm; both
    give the same floats."""
    if len(a) == 1:
        return _row_least_norm(a, b)
    return _qr_least_norm(a, b)


def residual_floor(a, b) -> float:
    """Norm of the least-squares residual of float rows: how close A x = b
    can get.  It is float_least_norm's floor, so it shares that solve's
    rank decision; exact rows take exact_residual_floor."""
    return float_least_norm(a, b)[1]


def _row_least_norm(a, b) -> tuple[list[float], float]:
    """_qr_least_norm for A = [r] of one row, by the same float operations
    in the same order, without the pivoting bookkeeping.  The one QR step
    of r (a column of A^T) stops when |r| <= cutoff * |r|, which leaves
    rank 0 (r = 0, or an infinite entry): x = 0 and the floor |b|.
    Otherwise r reflects onto alpha e_1, y = b / alpha is the forward
    substitution, x is y e_1 reflected back, and the floor is 0."""
    row = [float(v) for v in a[0]]
    c = float(b[0])
    size = hypot(*row)
    if size <= _lstsq_cutoff(a) * size:
        return [0.0] * len(row), hypot(c)
    v, alpha = _reflector(row, size)
    x = [c / alpha] + [0.0] * (len(row) - 1)
    _reflect(v, x, 0)
    return x, 0.0


def _qr_least_norm(a, b) -> tuple[list[float], float]:
    """float_least_norm by one complete orthogonal decomposition (Golub &
    Van Loan, 5.5.2) that starts from A^T.

    The pivoted QR A^T Pi = Q [S; 0] stops at the numerical rank r, with S
    = [S11 S12] of r rows.  Then Pi^T A = [S^T 0] Q^T, so x = Q [y; 0]
    with y the least-squares solution of S^T y = Pi^T b, where S^T has
    full column rank.  When r is A's row count, S^T = S11^T is lower
    triangular: y is one forward substitution and the residual is 0.  A
    rank-deficient or tall A needs a second QR, S^T P = Z [T; 0] with
    Pi^T b reflected along, which gives y by back substitution and the
    floor as the norm of the reflected tail."""
    cols = [[float(v) for v in row] for row in a]
    n = len(cols[0]) if cols else 0
    rank, _, order, reflectors = _pivoted_qr(cols, _lstsq_cutoff(a))
    c = [float(b[i]) for i in order]
    if rank == len(cols):
        y = []
        for i in range(rank):
            s = cols[i]
            y.append((c[i] - sum(map(mul, s[:i], y))) / s[i])
        floor = 0.0
    else:
        # the columns of S^T; cutoff 0: S^T has full column rank, so this
        # stops only on exact zeros
        s_rows = [[col[i] for col in cols] for i in range(rank)]
        kept, _, row_order, _ = _pivoted_qr(s_rows, 0.0, [c])
        z = [0.0] * kept
        for i in range(kept - 1, -1, -1):
            t = sum(s_rows[j][i] * z[j] for j in range(i + 1, kept))
            z[i] = (c[i] - t) / s_rows[i][i]
        y = [0.0] * rank
        for j, v in zip(row_order, z):
            y[j] = v
        floor = hypot(*c[kept:])
    x = y + [0.0] * (n - rank)
    for k in range(rank - 1, -1, -1):
        _reflect(reflectors[k], x, k)
    return x, floor
