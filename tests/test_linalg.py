"""Rational and float linear algebra.

The exact routines are checked against a short reference Gaussian
elimination over Fraction, kept here as the oracle; the float routines
against numpy's SVD and lstsq, a test-only dependency.
"""

import math
import struct
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from densepde import linalg
from densepde.construct import DensePointStream
from densepde.jets import prolong
from densepde.linalg import (
    exact_least_norm,
    exact_rank,
    exact_residual_floor,
    float_least_norm,
    float_rank,
    residual_floor,
)
from densepde.ranges import (
    _assemble,
    _gradient_values,
    _level_plan,
    _stacked,
    solve_jets_triangular,
)
from densepde.systems import lewy_operator

import reference


def reference_rref(rows):
    """(reduced row echelon rows, pivot columns) by Gauss-Jordan over
    Fraction."""
    m = [[F(v) for v in r] for r in rows]
    pivots = []
    for col in range(len(m[0]) if m else 0):
        i = next((r for r in range(len(pivots), len(m)) if m[r][col] != 0), None)
        if i is None:
            continue
        top = len(pivots)
        m[top], m[i] = m[i], m[top]
        m[top] = [v / m[top][col] for v in m[top]]
        for r in range(len(m)):
            if r != top and m[r][col] != 0:
                m[r] = [v - m[r][col] * w for v, w in zip(m[r], m[top])]
        pivots.append(col)
    return m[: len(pivots)], pivots


def reference_rank(rows):
    return len(reference_rref(rows)[1])


def reference_prefix_ranks(rows):
    """The rank of every prefix rows[:e], e = 0..len(rows), by Gaussian
    elimination over Fraction that adds one row at a time: the row, reduced
    by each earlier pivot row at its pivot column in the order found, adds
    a pivot at its first nonzero column or is a combination of the rows
    before it."""
    pivots = []
    ranks = [0]
    for row in rows:
        r = [F(v) for v in row]
        for col, prow in pivots:
            f = r[col]
            if f:
                r = [v - f * w for v, w in zip(r, prow)]
        col = next((c for c, v in enumerate(r) if v), None)
        if col is not None:
            pivots.append((col, [v / r[col] for v in r]))
        ranks.append(len(pivots))
    return ranks


def reference_least_norm(a, b):
    """The solution of A x = b orthogonal to the null space of A, or None:
    A x = b stacked with v . x = 0 for a null-space basis v is square and
    nonsingular."""
    n = len(a[0])
    rref, pivots = reference_rref([list(r) + [v] for r, v in zip(a, b)])
    if n in pivots:
        return None
    stacked = list(rref)
    for free in (c for c in range(n) if c not in pivots):
        v = [F(0)] * n
        v[free] = F(1)
        for row, p in zip(rref, pivots):
            v[p] = -row[free]
        stacked.append(v + [F(0)])
    solved, _ = reference_rref(stacked)
    return [row[n] for row in solved]


ENTRY = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=F(-50), max_value=F(50), max_denominator=10**6),
)


@st.composite
def matrices(draw, max_rows=6, max_cols=5):
    """Rational matrices with zero rows, duplicate rows and rows that are
    combinations of others mixed in at random positions."""
    n_cols = draw(st.integers(1, max_cols))
    rows = draw(st.lists(st.lists(ENTRY, min_size=n_cols, max_size=n_cols), max_size=max_rows))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero", "duplicate", "combination"]))
        if kind == "zero" or not rows:
            extra = [F(0)] * n_cols
        elif kind == "duplicate":
            extra = list(draw(st.sampled_from(rows)))
        else:
            weights = draw(st.lists(ENTRY, min_size=len(rows), max_size=len(rows)))
            extra = [sum(w * r[c] for w, r in zip(weights, rows)) for c in range(n_cols)]
        rows.insert(draw(st.integers(0, len(rows))), extra)
    return rows


@st.composite
def systems(draw):
    """(A, b) consistent by construction or with a random right-hand side,
    which rank-deficient A often cannot meet."""
    a = draw(matrices())
    if not a:
        a = [[F(0)] * draw(st.integers(1, 4))]
    if draw(st.booleans()):
        x0 = draw(st.lists(ENTRY, min_size=len(a[0]), max_size=len(a[0])))
        b = [sum(v * w for v, w in zip(row, x0)) for row in a]
    else:
        b = draw(st.lists(ENTRY, min_size=len(a), max_size=len(a)))
    return a, b


NONZERO = st.fractions(min_value=F(-9), max_value=F(9), max_denominator=12).filter(bool)


@st.composite
def sparse_systems(draw, max_rows=16, max_cols=20):
    """(A, b) of the shape of a prolonged symbol: wide, about a fifth of
    the entries nonzero, pivots of either sign, with duplicate, negated and
    combination rows mixed in, so the Gram of the independent rows is
    sparse and the elimination meets dependent rows.  An orthogonal row
    shares two columns with another row, so a Gram entry cancels to zero.
    b is consistent by construction or random."""
    n_cols = draw(st.integers(2, max_cols))
    n_rows = draw(st.integers(1, min(max_rows, n_cols)))
    per_row = max(1, n_cols // 5)
    rows = []
    for _ in range(n_rows):
        row = [F(0)] * n_cols
        for c in draw(st.lists(st.integers(0, n_cols - 1), min_size=1, max_size=per_row, unique=True)):
            row[c] = draw(NONZERO)
        rows.append(row)
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["duplicate", "negated", "combination", "orthogonal"]))
        first, second = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        if kind == "duplicate":
            extra = list(first)
        elif kind == "negated":
            extra = [-v for v in first]
        elif kind == "orthogonal":
            # (.., b, .., -a, ..) against a row (.., a, .., b, ..) of A
            c1, c2 = draw(st.lists(st.integers(0, n_cols - 1), min_size=2, max_size=2, unique=True))
            first[c1], first[c2] = first[c1] or draw(NONZERO), first[c2] or draw(NONZERO)
            extra = [F(0)] * n_cols
            extra[c1], extra[c2] = first[c2], -first[c1]
        else:
            w1, w2 = draw(NONZERO), draw(NONZERO)
            extra = [w1 * v1 + w2 * v2 for v1, v2 in zip(first, second)]
        rows.insert(draw(st.integers(0, len(rows))), extra)
    if draw(st.booleans()):
        x0 = [draw(NONZERO) if draw(st.booleans()) else F(0) for _ in range(n_cols)]
        b = [sum(v * w for v, w in zip(row, x0)) for row in rows]
    else:
        b = [draw(NONZERO) if draw(st.booleans()) else F(0) for _ in rows]
    return rows, b


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_exact_rank_matches_reference(rows):
    assert exact_rank(rows) == reference_rank(rows)


def lewy_deep_stacked():
    """The stacked rows (A, b) of every level up to 5, as the range check
    certifies them, at the two range points of the seed-0 lewy-deep
    benchmark: 112 rows, each level leading at its own new top jets."""
    op = lewy_operator("(1)*x", "(1)*y")
    top = prolong(op, 5)
    return [_stacked(top, x, True) for x in DensePointStream(op.domain).prefix(2)]


LEWY_DEEP_STACKED = lewy_deep_stacked()


@given(systems())
@example(LEWY_DEEP_STACKED[0])
@example(LEWY_DEEP_STACKED[1])
@settings(max_examples=100, deadline=None)
def test_exact_rank_blocks_match_reference(system):
    a, b = system
    q = [row + [v] for row, v in zip(a, b)]
    ends = list(range(len(q) + 1))
    assert exact_rank(q, ends) == list(zip(reference_prefix_ranks(a), reference_prefix_ranks(q)))


@given(systems())
@settings(max_examples=100, deadline=None)
def test_least_norm_matches_reference(system):
    a, b = system
    x = exact_least_norm(a, b)
    want = reference_least_norm(a, b)
    assert x == want
    if x is not None:
        assert all(type(v) is F for v in x)


@given(sparse_systems())
@settings(max_examples=60, deadline=None)
def test_sparse_least_norm_matches_reference(system):
    a, b = system
    x = exact_least_norm(a, b)
    assert x == reference_least_norm(a, b)
    if x is not None:
        assert all(type(v) is F for v in x)


def lewy_deep_systems():
    """The level-4 and level-5 systems of the seed-0 lewy-deep benchmark
    at its three construct points, assembled as the jet solver does: in
    the new top jets, at the jets it solved below them."""
    op = lewy_operator("(1)*x", "(1)*y")
    for x in DensePointStream(op.domain).prefix(3):
        values = solve_jets_triangular(prolong(op, 5), x).jet.values

        def below(order):
            return {c: v for c, v in values.items() if c[1].order < order}

        gradient = _gradient_values(op, x, below(op.order + 1), True)
        for lam in (4, 5):
            _, rows, _, _ = _level_plan(op.jet_variables, op.layout, lam, 5)
            offsets = reference.equation_series(op, x, below(op.order + lam), lam, True)
            yield _assemble(rows, gradient, offsets)


def test_least_norm_of_lewy_deep_levels_matches_reference():
    shapes = []
    for a, b in lewy_deep_systems():
        shapes.append((len(a), len(a[0])))
        x = exact_least_norm(a, b)
        assert x is not None and x == reference_least_norm(a, b)
        assert all(type(v) is F for v in x)
    assert shapes == [(30, 42), (42, 56)] * 3


def test_zero_matrix_rank_and_blocks():
    zero = [[F(0)] * 3 for _ in range(2)]
    assert exact_rank(zero) == 0
    assert exact_rank(zero + [[F(0), F(0), F(1)]], [1, 2, 3]) == [(0, 0), (0, 0), (0, 1)]


def test_exact_rank_basic():
    assert exact_rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert exact_rank([[F(1), F(0)], [F(0), F(1)]]) == 2
    assert exact_rank([]) == 0
    assert exact_rank([[F(0), F(0)]]) == 0


def test_exact_rank_needs_no_pivoting_luck():
    # leading zeros force row swaps
    m = [[F(0), F(1), F(2)], [F(1), F(0), F(1)], [F(1), F(1), F(3)]]
    assert exact_rank(m) == 2


def test_least_norm_underdetermined():
    # x + y = 2 -> min-norm solution (1, 1)
    x = exact_least_norm([[F(1), F(1)]], [F(2)])
    assert x == [F(1), F(1)]


def test_least_norm_redundant_rows():
    a = [[F(1), F(1)], [F(2), F(2)]]
    assert exact_least_norm(a, [F(2), F(4)]) == [F(1), F(1)]


def test_least_norm_inconsistent():
    a = [[F(1), F(1)], [F(2), F(2)]]
    assert exact_least_norm(a, [F(2), F(5)]) is None


def test_least_norm_zero_matrix():
    assert exact_least_norm([[F(0), F(0)]], [F(0)]) == [F(0), F(0)]
    assert exact_least_norm([[F(0), F(0)]], [F(1)]) is None


@given(
    st.lists(
        st.lists(
            st.fractions(min_value=F(-4), max_value=F(4), max_denominator=8),
            min_size=3, max_size=3,
        ),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=50, deadline=None)
def test_exact_rank_matches_numpy(rows):
    a = np.array([[float(v) for v in r] for r in rows])
    # only compare on well-conditioned cases; float rank can differ near
    # degeneracy, which is exactly why the exact path exists
    s = np.linalg.svd(a, compute_uv=False)
    if s.size and s[0] > 0 and (s > 1e-6 * s[0]).sum() == (s > 1e-12 * s[0]).sum():
        assert exact_rank([[F(v) for v in r] for r in rows]) == float_rank(a)


@given(
    st.lists(
        st.fractions(min_value=F(-4), max_value=F(4), max_denominator=6),
        min_size=4, max_size=4,
    ),
    st.fractions(min_value=F(-4), max_value=F(4), max_denominator=6),
)
@settings(max_examples=50, deadline=None)
def test_least_norm_verifies(row, rhs):
    x = exact_least_norm([row], [rhs])
    if x is None:
        assert all(v == 0 for v in row) and rhs != 0
    else:
        assert sum(a * b for a, b in zip(row, x)) == rhs


def test_least_norm_agrees_with_lstsq():
    a = [[F(1), F(2), F(3)], [F(0), F(1), F(1)]]
    b = [F(6), F(2)]
    exact = exact_least_norm(a, b)
    approx, floor = float_least_norm(
        [[float(v) for v in r] for r in a], [float(v) for v in b]
    )
    assert floor == 0.0
    assert np.allclose([float(v) for v in exact], approx, atol=1e-12)


def test_residual_floor():
    a = [[1.0, 0.0], [1.0, 0.0]]
    assert residual_floor(a, [1.0, 3.0]) == pytest.approx(np.sqrt(2.0))
    assert residual_floor(a, [2.0, 2.0]) == pytest.approx(0.0, abs=1e-12)


def reference_floor_square(a, b):
    """|b - A x|^2 for the least-squares x that solves the normal
    equations A^T A x = A^T b, by the reference elimination."""
    cols = list(zip(*a))
    normal = [[sum(u * v for u, v in zip(ci, cj)) for cj in cols] for ci in cols]
    x = reference_least_norm(normal, [sum(u * v for u, v in zip(ci, b)) for ci in cols])
    return sum((v - sum(r * w for r, w in zip(row, x))) ** 2 for row, v in zip(a, b))


@given(st.one_of(systems(), sparse_systems()))
@settings(max_examples=50, deadline=None)
def test_exact_residual_floor_matches_reference(system):
    a, b = system
    floor = exact_residual_floor(a, b)
    square = reference_floor_square(a, b)
    assert (floor == 0) == (exact_least_norm(a, b) is not None) == (square == 0)
    assert floor == pytest.approx(math.sqrt(square), rel=1e-14)


def test_exact_residual_floor_at_the_ends_of_the_float_range():
    # inconsistent, but the rows are equal once rounded to floats
    a, b = [[F(1), F(1)], [1 + F(1, 10**20), 1 + F(1, 10**20)]], [F(1), F(1)]
    assert exact_residual_floor(a, b) == pytest.approx(1e-20 / math.sqrt(2), rel=1e-12)
    # a square outside the float range with its root inside
    assert exact_residual_floor([[F(1)], [F(1)]], [F(1, 10**200), F(0)]) == pytest.approx(
        1e-200 / math.sqrt(2), rel=1e-12
    )
    # floors of about 10^-400 and 10^400: outside the positive floats
    assert exact_residual_floor([[F(10**400), F(10**400)], [F(1), F(1)]], [F(1), F(0)]) == math.inf
    assert exact_residual_floor([[F(1)], [F(1)]], [F(10**400), F(0)]) == math.inf


# ---------------------------------------------------------------------------
# the float kernel against numpy's SVD and lstsq

SMALL = st.integers(-3, 3).map(float)


@st.composite
def float_systems(draw):
    """(A, b) with A = U V of inner size r, so its rank is at most r, and
    zero or duplicated rows mixed in: tall, wide, square, zero and
    rank-deficient matrices.  Small integer entries keep every product
    exact, so a singular value is either zero to rounding or well away
    from the rank tolerance."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    r = draw(st.integers(0, min(m, n)))
    u = draw(st.lists(st.lists(SMALL, min_size=r, max_size=r), min_size=m, max_size=m))
    v = draw(st.lists(st.lists(SMALL, min_size=n, max_size=n), min_size=r, max_size=r))
    a = [[sum(ui[t] * v[t][j] for t in range(r)) for j in range(n)] for ui in u]
    for _ in range(draw(st.integers(0, 2))):
        extra = [0.0] * n if draw(st.booleans()) else list(draw(st.sampled_from(a)))
        a.insert(draw(st.integers(0, len(a))), extra)
    scale = 2.0 ** draw(st.integers(-20, 20))
    a = [[scale * x for x in row] for row in a]
    b = draw(st.lists(SMALL, min_size=len(a), max_size=len(a)))
    return a, b


def svd_rank(a, tol=1e-9):
    s = np.linalg.svd(np.asarray(a, dtype=float), compute_uv=False)
    if s[0] == 0:
        return 0
    # a singular value within 1e-3 of the threshold may round either way
    assume(not np.any(np.abs(s - tol * s[0]) <= 1e-3 * tol * s[0]))
    return int(np.sum(s > tol * s[0]))


@given(float_systems())
@settings(max_examples=200, deadline=None)
def test_float_rank_matches_svd(system):
    a, b = system
    q = [row + [v] for row, v in zip(a, b)]
    want = (svd_rank(a), svd_rank(q))
    assert float_rank(a) == want[0]
    assert float_rank(q) == want[1]
    assert float_rank(a, rhs=b) == want


@given(float_systems())
@settings(max_examples=200, deadline=None)
def test_float_least_norm_and_floor_match_lstsq(system):
    a, b = system
    na, nb = np.array(a), np.array(b)
    x, *_ = np.linalg.lstsq(na, nb, rcond=None)
    scale = max(1.0, float(np.abs(x).max()))
    mine, mine_floor = float_least_norm(a, b)
    assert residual_floor(a, b) == mine_floor
    assert np.allclose(mine, x, rtol=1e-9, atol=1e-9 * scale)
    floor = float(np.linalg.norm(na @ x - nb))
    assert np.isclose(mine_floor, floor, rtol=1e-9, atol=1e-9 * np.linalg.norm(nb))
    # the floor is the residual of the returned solution: one rank decision
    residual = float(np.linalg.norm(na @ np.array(mine) - nb))
    assert np.isclose(mine_floor, residual, rtol=1e-9, atol=1e-9 * np.linalg.norm(nb))


def test_float_kernel_takes_arrays():
    a = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 1.0], [0.0, 0.0, 0.0]]
    b = [1.0, 3.0, 5.0, 0.0]
    na, nb = np.array(a), np.array(b)
    assert float_rank(na) == float_rank(a) == 2
    assert float_rank(na, rhs=nb) == float_rank(a, rhs=b) == (2, 3)
    assert float_least_norm(na, nb) == float_least_norm(a, b)
    assert residual_floor(na, nb) == residual_floor(a, b)


def test_float_kernel_empty_and_zero():
    assert float_rank([]) == 0
    assert float_rank([], rhs=[]) == (0, 0)
    assert float_least_norm([], []) == ([], 0.0)
    assert residual_floor([], []) == 0.0
    zero = [[0.0, 0.0], [0.0, 0.0]]
    assert float_rank(zero) == 0
    assert float_rank(zero, rhs=[3.0, 4.0]) == (0, 1)
    assert float_least_norm(zero, [3.0, 4.0]) == ([0.0, 0.0], 5.0)
    assert residual_floor(zero, [3.0, 4.0]) == 5.0
    # rows without columns: nothing to solve for, all of b is residual
    assert float_least_norm([[], []], [3.0, 4.0]) == ([], 5.0)
    assert residual_floor([[], []], [3.0, 4.0]) == 5.0


def test_float_kernel_near_overflow():
    # squaring these entries overflows; every norm must not
    big = 1e200
    assert residual_floor([[big, 0.0], [big, 0.0]], [big, 3 * big]) == pytest.approx(
        math.sqrt(2.0) * big
    )
    assert float_least_norm([[big, big]], [2 * big])[0] == pytest.approx([1.0, 1.0])
    assert float_rank([[big, big], [big, -big]], rhs=[big, big]) == (2, 2)


# ---------------------------------------------------------------------------
# the one-row kernel against the general QR path, bit for bit


def _signed(magnitudes):
    return st.tuples(magnitudes, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0]),
    _signed(st.floats(5e-324, 1e-300)),  # subnormal to tiny
    _signed(st.floats(1e295, 1e300)),
    st.floats(allow_nan=False, allow_infinity=False),
)
ONE_ROWS = st.one_of(
    st.lists(EDGE_FLOATS, max_size=5),
    st.lists(st.sampled_from([0.0, -0.0]), max_size=5),  # zero rows: rank 0
)


def _bits(result):
    x, floor = result
    return [struct.pack("<d", v) for v in x], struct.pack("<d", floor)


@given(ONE_ROWS, EDGE_FLOATS)
@settings(max_examples=500, deadline=None)
@example([0.0, -0.0], -3.0)
@example([], 2.0)
@example([-0.0, 5e-324], -0.0)
@example([1e300, -1e-300], 1e-300)
@example([5e-324, 5e-324], 1e300)
def test_one_row_kernel_matches_the_qr_path(row, rhs):
    kernel = linalg._row_least_norm([row], [rhs])
    assert _bits(kernel) == _bits(linalg._qr_least_norm([row], [rhs]))
    assert _bits(float_least_norm([row], [rhs])) == _bits(kernel)
