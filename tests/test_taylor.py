"""Taylor-mode evaluation against the symbolic engine, which stays the
oracle: p! c_p of taylor.series must equal D^p built by differentiate and
evaluated by evaluate_exact / evaluate_float."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from densepde.construct import DensePointStream, construct_sequence
from densepde.expr import (
    FUNCTIONS,
    Bump,
    Const,
    EvaluationError,
    ExactnessUnavailable,
    Fn,
    Pow,
    Prod,
    Quot,
    Sum,
    Var,
    evaluate_exact,
    evaluate_float,
    sfn,
    spow,
    sprod,
    squot,
    ssum,
)
from densepde.multiindex import MultiIndex, multi_indices, zero_index
from densepde.parser import Context
from densepde.systems import lewy_operator
from densepde.taylor import derivative, jet_coefficients, series, shift
from densepde.verify import (
    check_vanishing,
    error_sequence,
    symbolic_series,
    verify_solution,
)
from reference import differentiate_multi, jet_of_function

CONTEXTS = {n: Context(("x", "y", "z")[:n]) for n in (1, 2, 3)}
SMALL = st.fractions(min_value=-2, max_value=2, max_denominator=4)


def trees(n: int, bumps: bool = True, jets=()):
    """Random trees over the n space variables, the given jet variables,
    small rational constants and (when `bumps`) bump leaves."""
    ctx = CONTEXTS[n]
    leaves = [
        SMALL.map(Const),
        st.sampled_from([Var(v) for v in (*ctx.space_vars(), *jets)]),
    ]
    if bumps:
        leaves.append(
            st.builds(
                lambda c, r, wide, axis: Bump(
                    c, r, r * (2 if wide else F(3, 2)), ctx.space_vars(),
                    zero_index(n) if axis is None else zero_index(n).plus_axis(axis),
                ),
                st.tuples(*[st.fractions(-1, 1, max_denominator=4)] * n),
                st.sampled_from([F(1, 4), F(1, 2), F(1)]),
                st.booleans(),
                st.none() | st.integers(1, n),
            )
        )

    def grow(children):
        return st.one_of(
            st.lists(children, min_size=2, max_size=3).map(ssum),
            st.lists(children, min_size=2, max_size=2).map(sprod),
            st.tuples(children, st.sampled_from([-2, -1, 2, 3])).map(lambda t: spow(*t)),
            st.tuples(children, children).map(lambda t: squot(*t)),
            st.tuples(st.sampled_from(FUNCTIONS), children).map(lambda t: sfn(*t)),
        )

    return st.recursive(st.one_of(*leaves), grow, max_leaves=6)


def transcendental_atoms(e):
    """Each Fn node keyed by its argument (sin(a) and cos(a), which are
    each other's derivatives, share a key) and each bump by its geometry."""
    if isinstance(e, Fn):
        yield e.arg
        yield from transcendental_atoms(e.arg)
    elif isinstance(e, Bump):
        yield (e.center, e.r_in, e.r_out)
    elif isinstance(e, (Sum, Prod)):
        for child in e.terms if isinstance(e, Sum) else e.factors:
            yield from transcendental_atoms(child)
    elif isinstance(e, Pow):
        yield from transcendental_atoms(e.base)
    elif isinstance(e, Quot):
        yield from transcendental_atoms(e.numer)
        yield from transcendental_atoms(e.denom)


@st.composite
def cases(draw):
    n = draw(st.integers(1, 3))
    try:
        e = draw(trees(n))
    except EvaluationError:  # a smart constructor met a literal 1/0
        assume(False)
    # A transcendental node that occurs twice can cancel in the symbolic
    # engine's like-term collection (test_symbolic_cancellation_is_not_seen);
    # the series rule cannot see that, so such trees are left out here.
    atoms = list(transcendental_atoms(e))
    assume(len(atoms) == len(set(atoms)))
    point = draw(st.tuples(*[st.fractions(-2, 2, max_denominator=8)] * n))
    order = draw(st.integers(0, 3 if n < 3 else 2))
    return CONTEXTS[n], e, point, order


UNDEFINED = (EvaluationError, OverflowError, ZeroDivisionError)


def symbolic(ctx, e, point, p):
    """(value, exact) of D^p e at the point, or None where it is undefined."""
    d = differentiate_multi(e, ctx.space_vars(), p)
    assignment = dict(zip(ctx.space_vars(), point))
    try:
        return evaluate_exact(d, assignment), True
    except ExactnessUnavailable:
        pass
    except UNDEFINED:
        return None
    try:
        return evaluate_float(d, assignment), False
    except UNDEFINED:
        return None


@given(cases())
@settings(max_examples=300, deadline=None)
def test_series_matches_symbolic_derivatives(case):
    ctx, e, point, order = case
    reference = {p: symbolic(ctx, e, point, p) for p in multi_indices(ctx.n, order)}
    try:
        s = series(e, point, order)
    except EvaluationError:
        # only where some derivative up to the order is undefined there
        assert None in reference.values() or any(
            not math.isfinite(v) for v, exact in reference.values() if not exact
        )
        return
    for p, ref in reference.items():
        if ref is None:
            continue
        want, want_exact = ref
        got = derivative(s, p)
        if want_exact:
            assert isinstance(got, F) and got == want, (p, got, want)
        elif math.isfinite(want):
            # float where the symbolic value is float, or exact where a
            # literal rational zero removes every inexact input
            assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9), (p, got, want)


def test_float_overflow_is_an_evaluation_error():
    # just off its plateau the bump's x-derivative is about -1.3e-80, so
    # its square to the power -2 overflows a float
    ctx = CONTEXTS[2]
    bump = Bump((F(0), F(1, 2)), F(1), F(3, 2), ctx.space_vars(), MultiIndex((1, 0)))
    with pytest.raises(EvaluationError):
        series(spow(Pow(bump, F(2)), -2), (F(1), F(3, 7)), 0)


def test_structural_zero_is_exact():
    ctx = CONTEXTS[2]
    s = series(sfn("exp", Var(ctx.space(1))), (F(1, 3), F(1, 2)), 2)
    assert set(s) == {MultiIndex((0, 0)), MultiIndex((1, 0)), MultiIndex((2, 0))}
    assert all(isinstance(c, float) for c in s.values())
    assert derivative(s, MultiIndex((0, 1))) == 0
    assert isinstance(derivative(s, MultiIndex((1, 1))), F)


def test_symbolic_cancellation_is_not_seen():
    # D_y [(1 + y exp(x)) exp(x)^-1] = exp(x) exp(x)^-1, which the symbolic
    # engine merges into the exact 1; in series arithmetic it is the product
    # of two float coefficients, so it stays a float
    ctx = CONTEXTS[2]
    e = ctx.parse("(1 + y*exp(x)) * exp(x)^(-1)")
    point = (F(1, 3), F(1, 2))
    dy = MultiIndex((0, 1))
    assert symbolic_series(e, ctx, point, 1)[dy] == F(1)
    got = series(e, point, 1)[dy]
    assert isinstance(got, float) and got == pytest.approx(1.0, rel=1e-15)


def test_modes():
    ctx = CONTEXTS[1]
    x = Var(ctx.space(1))
    poly = ssum([spow(x, 3), Const(F(1, 2))])
    exact = series(poly, (F(1, 3),), 4, "exact")
    assert exact == {
        MultiIndex((0,)): F(1, 27) + F(1, 2),
        MultiIndex((1,)): F(1, 3),
        MultiIndex((2,)): F(1),
        MultiIndex((3,)): F(1),
    }
    floats = series(poly, (F(1, 3),), 4, "float")
    assert all(isinstance(c, float) for c in floats.values())
    assert floats == pytest.approx({p: float(c) for p, c in exact.items()}, rel=1e-15)
    with pytest.raises(ExactnessUnavailable):
        series(sfn("sin", x), (F(1, 3),), 1, "exact")
    with pytest.raises(ValueError):
        series(poly, (F(1, 3),), 1, "rational")


def test_shift_and_bindings():
    # G = u_x * u with u = x^2 at x = 1/2: G = 2 x^3, so D G = 6 x^2, D^2 G = 12 x
    ctx = Context(("x",), ("u",), max_jet_order=1)
    u = series(spow(Var(ctx.space(1)), 2), (F(1, 2),), 3)
    ux = shift(u, MultiIndex((1,)), 2)
    assert ux == {MultiIndex((0,)): F(1), MultiIndex((1,)): F(2)}
    g = sprod([Var(ctx.jet(1, MultiIndex((1,)))), Var(ctx.jet(1, MultiIndex((0,))))])
    bound = {
        ctx.jet(1, MultiIndex((0,))): shift(u, MultiIndex((0,)), 2),
        ctx.jet(1, MultiIndex((1,))): ux,
    }
    s = series(g, (F(1, 2),), 2, bindings=bound)
    assert [derivative(s, p) for p in multi_indices(1, 2)] == [F(1, 4), F(3, 2), F(6)]


def test_jet_coefficients_round_trip_jet_of_function():
    # jet_of_function stores p! c_p of each component's series; the
    # coefficients come back as c_p in the jet's arithmetic, zeros kept
    ctx = Context(("x", "y"), ("u", "v"))
    u = ctx.parse("x^3*y - 1/(1 + y^2)")
    v = ctx.parse("exp(x) * sin(y)")
    point = (F(1, 3), F(-1, 2))
    indices = multi_indices(2, 3)
    for components in ([u, u], [u, v]):
        jet = jet_of_function(components, ctx, point, 3)
        mode = "auto" if jet.exact else "float"
        got = jet_coefficients(jet.values, 2, jet.exact)
        for unknown, (c, coefficients) in enumerate(zip(components, got), start=1):
            assert sorted(coefficients) == sorted(indices)
            assert all(type(a) is (F if jet.exact else float) for a in coefficients.values())
            want = series(c, point, 3, mode)
            if jet.exact:
                assert {p: a for p, a in coefficients.items() if a} == want
                assert {p: p.factorial() * a for p, a in coefficients.items()} == {
                    p: jet.value(unknown, p) for p in indices
                }
            else:
                # v / p! rounds once, so p! c_p / p! may differ from c_p
                for p in indices:
                    assert coefficients[p] == pytest.approx(want.get(p, 0.0), rel=1e-15)
    assert F(0) in jet_coefficients(jet_of_function([u, u], ctx, point, 3).values, 2, True)[0].values()


# ---------------------------------------------------------------------------
# the bump's transition profile at the edges of its annulus


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [3, 15, 100, 300])
@pytest.mark.parametrize("radii", [(F(1, 4), F(1, 2)), (F(1), F(2))])
def test_bump_never_nan_or_inf_near_its_edges(n, k, radii):
    ctx = CONTEXTS[n]
    r_in, r_out = radii
    center = tuple(F(i, 8) for i in range(n))
    bump = Bump(center, r_in, r_out, ctx.space_vars(), zero_index(n))
    eps = F(1, 10**k)
    for radius, plateau_side in ((r_in + eps, True), (r_out - eps, False)):
        point = (center[0] + radius,) + center[1:]
        s = series(bump, point, 4, "float")
        assert len(s) == len(multi_indices(n, 4))
        assert all(math.isfinite(c) for c in s.values())
        assert s[zero_index(n)] == pytest.approx(1.0 if plateau_side else 0.0, abs=1e-6)
        assignment = dict(zip(ctx.space_vars(), point))
        for p in multi_indices(n, 4):
            node = Bump(center, r_in, r_out, ctx.space_vars(), p)
            value = evaluate_float(node, assignment)
            assert math.isfinite(value)
            assert value == pytest.approx(derivative(s, p), rel=1e-12, abs=1e-300)


def test_bump_profile_matches_finite_differences():
    ctx = CONTEXTS[2]
    bump = Bump((F(0), F(0)), F(1, 2), F(1), ctx.space_vars(), zero_index(2))
    x, y, h = F(3, 5), F(1, 5), 1e-6
    s = series(bump, (x, y), 2, "float")

    def phi(a, b):
        return evaluate_float(bump, dict(zip(ctx.space_vars(), (a, b))))

    fd_x = (phi(float(x) + h, float(y)) - phi(float(x) - h, float(y))) / (2 * h)
    fd_y = (phi(float(x), float(y) + h) - phi(float(x), float(y) - h)) / (2 * h)
    assert derivative(s, MultiIndex((1, 0))) == pytest.approx(fd_x, rel=1e-6)
    assert derivative(s, MultiIndex((0, 1))) == pytest.approx(fd_y, rel=1e-6)


# ---------------------------------------------------------------------------
# verification and jets read their derivatives off the same series


@pytest.fixture(scope="module")
def lewy_three_stages():
    op = lewy_operator()
    pts = DensePointStream(op.domain).prefix(3)
    return op, construct_sequence(op, pts, [0, 1, 1])


def test_error_terms_match_symbolic_series(lewy_three_stages):
    op, seq = lewy_three_stages
    # the points of the sequence plus one inside stage 0's transition annulus
    [bump] = seq.stages[0].bumps
    annulus = (bump.center[0] + (bump.r_in + bump.r_out) / 2,) + bump.center[1:]
    for err in error_sequence(op, seq):
        for w in err.terms:
            for a in list(seq.points) + [annulus]:
                got = series(w, a, 1)
                want = symbolic_series(w, op.context, a, 1)
                assert set(got) == set(want)
                for p, c in want.items():
                    if isinstance(c, F):
                        assert got[p] == c
                    else:
                        assert isinstance(got[p], float)
                        assert got[p] == pytest.approx(c, rel=1e-9, abs=1e-12)


def test_verify_solution_reports_equal_error_sequence_scan(lewy_three_stages):
    # binding jets to shifted component series gives the same reports as
    # scanning the symbolically substituted error terms
    op, seq = lewy_three_stages
    result = verify_solution(op, seq)
    assert result.passed
    top = max(seq.orders)
    for report, err in zip(result.reports, error_sequence(op, seq)):
        assert report == check_vanishing(err, seq.points, top)


def test_jet_of_function_matches_symbolic():
    ctx = Context(("x", "y"), ("u", "v"))
    u = ctx.parse("x^3*y - 1/(1 + y^2)")
    v = ctx.parse("exp(x) * sin(y)")
    point = (F(1, 3), F(-1, 2))
    exact = jet_of_function([u, u], ctx, point, 3)
    assert exact.exact
    assert {p: exact.value(1, p) for p in multi_indices(2, 3) if exact.value(1, p)} == {
        p: c * p.factorial() for p, c in symbolic_series(u, ctx, point, 3).items()
    }
    mixed = jet_of_function([u, v], ctx, point, 3)
    assert not mixed.exact
    for p, c in symbolic_series(v, ctx, point, 3, mode="float").items():
        assert mixed.value(2, p) == pytest.approx(c * p.factorial(), rel=1e-12)
    with pytest.raises(ExactnessUnavailable):
        jet_of_function([u, v], ctx, point, 3, exact=True)
