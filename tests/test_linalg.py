"""Rational and float linear algebra.

The exact routines are checked against a short reference Gaussian
elimination over Fraction, kept here as the oracle; the float routines
against numpy's SVD and lstsq, a test-only dependency.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from densepde.linalg import (
    exact_least_norm,
    exact_rank,
    float_least_norm,
    float_rank,
    residual_floor,
)


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


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_exact_rank_matches_reference(rows):
    assert exact_rank(rows) == reference_rank(rows)


@given(systems())
@settings(max_examples=100, deadline=None)
def test_exact_rank_blocks_match_reference(system):
    a, b = system
    q = [row + [v] for row, v in zip(a, b)]
    ends = list(range(len(q) + 1))
    assert exact_rank(q, ends) == [
        (reference_rank(a[:e]), reference_rank(q[:e])) for e in ends
    ]


@given(systems())
@settings(max_examples=100, deadline=None)
def test_least_norm_matches_reference(system):
    a, b = system
    x = exact_least_norm(a, b)
    want = reference_least_norm(a, b)
    assert x == want
    if x is not None:
        assert all(type(v) is F for v in x)


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
    approx = float_least_norm(
        [[float(v) for v in r] for r in a], [float(v) for v in b]
    )
    assert np.allclose([float(v) for v in exact], approx, atol=1e-12)


def test_residual_floor():
    a = [[1.0, 0.0], [1.0, 0.0]]
    assert residual_floor(a, [1.0, 3.0]) == pytest.approx(np.sqrt(2.0))
    assert residual_floor(a, [2.0, 2.0]) == pytest.approx(0.0, abs=1e-12)


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
    assert np.allclose(float_least_norm(a, b), x, rtol=1e-9, atol=1e-9 * scale)
    floor = float(np.linalg.norm(na @ x - nb))
    assert np.isclose(residual_floor(a, b), floor, rtol=1e-9, atol=1e-9 * np.linalg.norm(nb))


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
    assert float_least_norm([], []) == []
    assert residual_floor([], []) == 0.0
    zero = [[0.0, 0.0], [0.0, 0.0]]
    assert float_rank(zero) == 0
    assert float_rank(zero, rhs=[3.0, 4.0]) == (0, 1)
    assert float_least_norm(zero, [3.0, 4.0]) == [0.0, 0.0]
    assert residual_floor(zero, [3.0, 4.0]) == 5.0
    # rows without columns: nothing to solve for, all of b is residual
    assert float_least_norm([[], []], [3.0, 4.0]) == []
    assert residual_floor([[], []], [3.0, 4.0]) == 5.0


def test_float_kernel_near_overflow():
    # squaring these entries overflows; every norm must not
    big = 1e200
    assert residual_floor([[big, 0.0], [big, 0.0]], [big, 3 * big]) == pytest.approx(
        math.sqrt(2.0) * big
    )
    assert float_least_norm([[big, big]], [2 * big]) == pytest.approx([1.0, 1.0])
    assert float_rank([[big, big], [big, -big]], rhs=[big, big]) == (2, 2)
