"""Expression core: constructors, simplification, differentiation,
exact/float evaluation."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from test_taylor import CONTEXTS, trees

from densepde import expr
from densepde.expr import (
    ONE,
    Bump,
    Const,
    EvaluationError,
    ExactnessUnavailable,
    Prod,
    Sum,
    Var,
    compile_float,
    differentiate,
    evaluate_exact,
    evaluate_float,
    exact_arithmetic,
    is_rational_closed,
    sfn,
    simplify,
    spow,
    sprod,
    squot,
    ssum,
    substitute,
)
from densepde.multiindex import MultiIndex
from densepde.parser import Context
from reference import differentiate_multi

CTX = Context(("x", "y"))
X, Y = Var(CTX.space(1)), Var(CTX.space(2))
BIG = Const(F(10) ** 300)


def ev(e, x, y):
    return evaluate_float(e, {CTX.space(1): x, CTX.space(2): y})


class TestConstructors:
    def test_sum_folds_constants(self):
        assert ssum([Const(F(1)), Const(F(2))]) == Const(F(3))

    def test_sum_collects_like_terms(self):
        e = ssum([X, X, X])
        assert e == sprod([Const(F(3)), X])

    def test_prod_merges_powers(self):
        assert sprod([X, X]) == spow(X, 2)

    def test_zero_annihilates(self):
        assert sprod([Const(F(0)), X, Y]) == Const(F(0))

    def test_pow_of_pow(self):
        assert spow(spow(X, 2), 3) == spow(X, 6)

    def test_quot_by_one(self):
        assert squot(X, Const(F(1))) == X

    def test_division_by_zero_constant(self):
        with pytest.raises(EvaluationError):
            squot(X, Const(F(0)))


class TestDifferentiate:
    def test_power_rule(self):
        assert differentiate(spow(X, 3), CTX.space(1)) == sprod(
            [Const(F(3)), spow(X, 2)]
        )

    def test_other_variable(self):
        assert differentiate(spow(X, 3), CTX.space(2)) == Const(F(0))

    def test_product_rule_exact_point(self):
        # d/dx [x^2 * y] at (3, 5) = 2*3*5 = 30
        e = sprod([spow(X, 2), Y])
        d = differentiate(e, CTX.space(1))
        assert evaluate_exact(d, {CTX.space(1): F(3), CTX.space(2): F(5)}) == 30

    def test_quotient_rule(self):
        e = squot(X, ssum([Const(F(1)), spow(Y, 2)]))
        d = differentiate(e, CTX.space(2))
        # -2y*x/(1+y^2)^2 at (1, 1) = -1/2
        got = evaluate_exact(d, {CTX.space(1): F(1), CTX.space(2): F(1)})
        assert got == F(-1, 2)

    def test_chain_rule_sin(self):
        e = sfn("sin", spow(X, 2))
        d = differentiate(e, CTX.space(1))
        x = 0.7
        assert ev(d, x, 0.0) == pytest.approx(2 * x * math.cos(x * x), rel=1e-12)

    def test_mixed_partials_commute(self):
        e = sprod([sfn("exp", sprod([X, Y])), spow(X, 2)])
        dxy = differentiate(differentiate(e, CTX.space(1)), CTX.space(2))
        dyx = differentiate(differentiate(e, CTX.space(2)), CTX.space(1))
        for x, y in [(0.3, -0.2), (1.1, 0.5)]:
            assert ev(dxy, x, y) == pytest.approx(ev(dyx, x, y), rel=1e-12)

    def test_multi_index(self):
        e = sprod([spow(X, 2), spow(Y, 3)])
        d = differentiate_multi(e, CTX.space_vars(), MultiIndex((2, 3)))
        assert d == Const(F(12))


# finite-difference oracle corpus for the differentiation engine
FD_CORPUS = [
    (spow(X, 3), (0.7, 0.0)),
    (sprod([X, Y]), (0.4, -1.2)),
    (sfn("sin", X), (0.9, 0.0)),
    (sfn("cos", sprod([X, Y])), (0.5, 0.8)),
    (sfn("exp", ssum([X, sprod([Const(F(-1)), Y])])), (0.2, 0.6)),
    (sfn("log", ssum([Const(F(2)), spow(X, 2)])), (1.3, 0.0)),
    (sfn("sqrt", ssum([Const(F(1)), spow(X, 2), spow(Y, 2)])), (0.4, 0.7)),
    (squot(ssum([X, Y]), ssum([Const(F(2)), spow(X, 2)])), (0.6, -0.3)),
    (spow(ssum([Const(F(1)), spow(X, 2)]), -2), (0.8, 0.0)),
    (sprod([sfn("sin", X), sfn("exp", Y)]), (1.0, 0.2)),
]


@pytest.mark.parametrize("expr,point", FD_CORPUS)
def test_fd_oracle(expr, point):
    h = 1e-5
    x, y = point
    d = differentiate(expr, CTX.space(1))
    fd = (ev(expr, x + h, y) - ev(expr, x - h, y)) / (2 * h)
    sym = ev(d, x, y)
    assert sym == pytest.approx(fd, rel=1e-6, abs=1e-9)


@given(
    a=st.fractions(max_denominator=20),
    b=st.fractions(max_denominator=20),
    k=st.integers(min_value=0, max_value=5),
)
@settings(max_examples=60, deadline=None)
def test_diff_linearity(a, b, k):
    # d/dx (a*x^k + b*y) == a * d/dx x^k
    e = ssum([sprod([Const(a), spow(X, k)]), sprod([Const(b), Y])])
    lhs = differentiate(e, CTX.space(1))
    rhs = simplify(sprod([Const(a), differentiate(spow(X, k), CTX.space(1))]))
    assert lhs == rhs


@given(
    x=st.fractions(min_value=F(-3), max_value=F(3), max_denominator=64),
    y=st.fractions(min_value=F(-3), max_value=F(3), max_denominator=64),
)
@settings(max_examples=60, deadline=None)
def test_exact_float_agreement(x, y):
    e = ssum([sprod([spow(X, 3), Y]), squot(X, ssum([Const(F(5)), spow(Y, 2)]))])
    exact = evaluate_exact(e, {CTX.space(1): x, CTX.space(2): y})
    approx = ev(e, float(x), float(y))
    assert approx == pytest.approx(float(exact), rel=1e-13, abs=1e-13)


class TestEvaluation:
    def test_exact_requires_rational_closed(self):
        with pytest.raises(ExactnessUnavailable):
            evaluate_exact(sfn("sin", X), {CTX.space(1): F(0)})

    def test_missing_assignment(self):
        with pytest.raises(EvaluationError):
            evaluate_float(X, {})

    @pytest.mark.parametrize(
        "e, x",
        [
            (spow(X, F(-1, 2)), 0.0),  # 0.0 ** -0.5: zero division
            (sfn("exp", sprod([Const(F(1000)), X])), 1.0),  # math range error
            (spow(X, 2), 1e200),  # float ** int overflow
            (sfn("sin", sprod([BIG, X])), 1e10),  # sin(inf)
            (sprod([BIG, X]), 1e10),  # inf
            (ssum([sprod([BIG, X]), sprod([Const(-BIG.value), Y])]), 1e10),  # inf - inf
        ],
    )
    def test_float_failures_raise_evaluation_error(self, e, x):
        with pytest.raises(EvaluationError):
            evaluate_float(e, {CTX.space(1): x, CTX.space(2): x})

    def test_is_rational_closed(self):
        assert is_rational_closed(squot(spow(X, 2), ssum([Const(F(1)), Y])))
        assert not is_rational_closed(sfn("exp", X))
        assert not is_rational_closed(spow(X, F(1, 2)))

    def test_exact_arithmetic(self):
        poly = ssum([spow(X, 2), Y])
        assert exact_arithmetic([poly], [F(1, 2), 3])
        assert exact_arithmetic([], [])
        assert not exact_arithmetic([poly], [F(1, 2), 0.5])
        assert not exact_arithmetic([poly, sfn("exp", X)], [F(1, 2)])

    def test_substitute(self):
        e = spow(X, 2)
        got = substitute(e, {CTX.space(1): ssum([Y, Const(F(1))])})
        want = simplify(spow(ssum([Y, Const(F(1))]), 2))
        assert got == want


class TestBump:
    CTX1 = Context(("x",))

    def bump(self, deriv=None):
        from densepde.multiindex import zero_index

        return Bump(
            (F(0),), F(1, 2), F(1), self.CTX1.space_vars(),
            deriv if deriv is not None else zero_index(1),
        )

    def test_plateau_exact_one(self):
        assert evaluate_exact(self.bump(), {self.CTX1.space(1): F(1, 4)}) == 1

    def test_outside_exact_zero(self):
        assert evaluate_exact(self.bump(), {self.CTX1.space(1): F(2)}) == 0

    def test_transition_not_exact(self):
        with pytest.raises(ExactnessUnavailable):
            evaluate_exact(self.bump(), {self.CTX1.space(1): F(3, 4)})

    def test_transition_value_in_unit_interval(self):
        v = evaluate_float(self.bump(), {self.CTX1.space(1): 0.75})
        assert 0.0 < v < 1.0

    def test_derivative_zero_on_plateau(self):
        d = differentiate(self.bump(), self.CTX1.space(1))
        assert evaluate_exact(d, {self.CTX1.space(1): F(1, 4)}) == 0

    def test_derivative_matches_fd_in_transition(self):
        d = differentiate(self.bump(), self.CTX1.space(1))
        h, x = 1e-6, 0.8
        fd = (
            evaluate_float(self.bump(), {self.CTX1.space(1): x + h})
            - evaluate_float(self.bump(), {self.CTX1.space(1): x - h})
        ) / (2 * h)
        sym = evaluate_float(d, {self.CTX1.space(1): x})
        assert sym == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_monotone_decreasing_transition(self):
        xs = [0.55 + 0.05 * i for i in range(9)]
        vals = [
            evaluate_float(self.bump(), {self.CTX1.space(1): x}) for x in xs
        ]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# compile_float against evaluate_float, its oracle

JETS = tuple(CONTEXTS[2].jet(1, p) for p in ((0, 0), (1, 0), (0, 1)))
VARIABLES = (*CONTEXTS[2].space_vars(), *JETS)
# values where evaluation fails: zero denominators and zero to negative
# powers, log and sqrt of negatives, overflow, and non-finite inputs
SPECIAL = (0.0, -0.0, -1.0, -2.5, 1e-300, 1e200, -1e200, 1.7e308, math.inf, math.nan)
VALUES = st.one_of(
    st.sampled_from((0.0, -0.0)),
    st.fractions(-3, 3, max_denominator=8),
    st.floats(-3, 3),
    st.sampled_from(SPECIAL),
    st.floats(),
)


def compiled_trees():
    """Space and jet trees without bumps, also under a fractional power
    and with a subtree shared by identity."""
    base = trees(2, bumps=False, jets=JETS)
    return st.one_of(
        base,
        st.tuples(base, st.sampled_from([F(1, 2), F(-1, 2), F(3, 2), F(-5, 3)])).map(
            lambda t: spow(*t)
        ),
        base.map(lambda e: Prod((e, Sum((e, ONE)), e))),
    )


@st.composite
def compile_cases(draw):
    try:
        exprs = draw(st.lists(compiled_trees(), min_size=1, max_size=3))
    except EvaluationError:  # a smart constructor met a literal 1/0
        assume(False)
    values = draw(st.lists(VALUES, min_size=len(VARIABLES), max_size=len(VARIABLES)))
    return exprs, values


def outcome(run):
    """The reprs of the floats run() returns (so the sign of a zero
    counts), or "EvaluationError"."""
    try:
        return [repr(v) for v in run()]
    except EvaluationError:
        return "EvaluationError"


@given(compile_cases())
# _eval adds the terms and multiplies the factors from left to right:
# both of these overflow in that order and stay finite in reverse
@example(([Sum((X, Y, Var(JETS[0])))], [1e308, 1e308, -1e308, 0.0, 0.0]))
@example(([Prod((X, Y, Var(JETS[0])))], [1e200, 1e200, 1e-200, 0.0, 0.0]))
@settings(max_examples=400, deadline=None)
def test_compile_float_matches_evaluate_float(case):
    exprs, values = case
    compiled = compile_float(exprs, VARIABLES)
    assignment = dict(zip(VARIABLES, values))
    want = outcome(lambda: [evaluate_float(e, assignment) for e in exprs])
    assert outcome(lambda: compiled(values)) == want


class TestCompileFloat:
    def test_unassigned_variable_fails_when_evaluated(self):
        run = compile_float([ssum([X, Y])], [CTX.space(1)])
        with pytest.raises(EvaluationError):
            run([1.0])

    def test_unused_variable_is_not_read(self):
        assert compile_float([X], [CTX.space(1), CTX.space(2)])([2, 10**400]) == [2.0]

    def test_constant_out_of_float_range_fails(self):
        huge = sprod([Const(F(10) ** 400), X])
        with pytest.raises(EvaluationError):
            evaluate_float(huge, {CTX.space(1): 0.0})
        with pytest.raises(EvaluationError):
            compile_float([huge], [CTX.space(1)])([0.0])

    def test_shared_subtree_is_compiled_once(self, monkeypatch):
        nodes = []
        original = expr._compile_node

        def counting(e, *args):
            nodes.append(e)
            return original(e, *args)

        monkeypatch.setattr(expr, "_compile_node", counting)
        shared = sprod([X, Y])
        run = compile_float([Sum((shared, shared)), shared], [CTX.space(1), CTX.space(2)])
        assert len(nodes) == 4  # the sum, the product, x and y
        assert run([3.0, 0.5]) == [3.0, 1.5]

    def test_bump_is_not_supported(self):
        bump = Bump((F(0),), F(1, 2), F(1), (CTX.space(1),), MultiIndex((0,)))
        with pytest.raises(TypeError):
            compile_float([bump], [CTX.space(1)])
