"""The range analysis assembles each level's system, the stacked rows of
a linear operator and the level residuals at the point, from the level-0
jet gradients and the Taylor series of the base equations, all through
one Leibniz-rule assembly (ranges._assemble).  Each must equal the
prolonged-row reference (tests/reference.py): Fraction for Fraction on
rational data, to 1e-12 relative in floats.  An entry that no term
reaches is the int 0 in either arithmetic.

The assembly and the growth of the jet bindings run from plans made once
per layout (ranges._row_plan, taylor.shift_plan).  On random layouts they
must give what the term-by-term references give (reference.assemble and
reference.grow_bindings), bit for bit: the same keys in the same order,
equal Fractions, floats with the same bits, -0.0 included.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from densepde import jets, ranges
from densepde.construct import DensePointStream, construct_sequence
from densepde.expr import JetVar, evaluate_float
from densepde.jets import Jet, parse_pde_text, prolong
from densepde.multiindex import multi_indices, multi_indices_of_order, zero_index
from densepde.ranges import (
    _assemble,
    _bound_series,
    _gradient_values,
    _constant,
    _level_plan,
    _residuals,
    _row_plan,
    _stacked,
    jet_columns,
    linearize,
    range_condition_check,
    rank_condition,
    solve_jets_triangular,
)
from densepde.systems import lewy_operator
from densepde.taylor import bind_jets, jet_bindings, jet_coefficients, shift_plan, taylor_coefficients

import reference


def pde(dim, order, domain, *equations):
    names = "x y z"[: 2 * dim - 1]
    text = f"dim: {dim}\nvars: {names}\norder: {order}\ndomain: {domain}\n"
    return parse_pde_text(text + "".join(f"eq: {e}\n" for e in equations))


LEWY = lewy_operator()
POISSON = pde(2, 2, "(0,1) (0,1)", "u_xx + u_yy - 1 - x*y")
TRANSPORT = pde(1, 1, "(0,1)", "u_x - u")
DEGENERATE = pde(1, 0, "(0,1)", "0*u - 1")
EXP_COEFFICIENT = pde(2, 2, "(0,1) (0,1)", "u_xx + exp(x)*u_yy - 1")
EIKONAL = pde(2, 1, "(-1,1) (-1,1)", "u_x^2 + u_y^2 - 1 - x^2")
EXP_GROWTH = pde(1, 1, "(0,1)", "u_x - exp(u)*x")

EXACT = [
    (LEWY, 4, DensePointStream(LEWY.domain).prefix(2)),
    (POISSON, 3, [(F(1, 2), F(1, 4))]),
    (TRANSPORT, 4, [(F(1, 3),)]),
    (DEGENERATE, 2, [(F(1, 2),)]),
]
EXACT_IDS = ["lewy", "poisson", "transport", "degenerate"]
FLOAT = [
    (EXP_COEFFICIENT, 3, (F(1, 2), F(1, 3))),
    (EIKONAL, 3, (F(1, 2), F(1, 3))),
    (EXP_GROWTH, 4, (F(1, 2),)),
]
FLOAT_IDS = ["exp-coefficient", "eikonal", "exp-growth"]


def some_jet(op, order, exact):
    """A dense jet with no structure: every value different."""
    values = {}
    for i, (u, p) in enumerate((u, p) for p in multi_indices(op.n, order) for u in range(1, op.k + 1)):
        v = F((-1) ** i * (i + 1), i + 3)
        values[(u, p)] = v if exact else float(v) / 3
    return values


def below(values, order):
    return {(u, p): v for (u, p), v in values.items() if p.order < order}


def level_systems(op, top, x, exact):
    """(assembled, reference) level systems for levels 1..top, every one
    at the same jet values below its top order, assembled as the solver
    does: from the level's plan, with the gradient values at the base
    jets."""
    system = prolong(op, top)
    values = some_jet(op, op.order + top, exact)
    base = below(values, op.order + 1)
    gradient = _gradient_values(op, x, base, exact)
    for lam in range(1, top + 1):
        known = below(values, op.order + lam)
        offsets = reference.equation_series(op, x, known, top, exact)
        columns, rows, _, _ = _level_plan(op.jet_variables, op.layout, lam, top)
        assert list(columns) == reference.level_columns(op, lam)
        yield (
            _assemble(rows, gradient, offsets),
            reference.level_system(system, x, known, lam, exact),
        )


def base_systems(op, x, exact):
    """(assembled, reference) level-0 systems of an affine base: in every
    base jet, and with the first base jet pinned to a seed value, bound
    as the solver binds it: by the level-0 plan's shift plan, None for
    each unseeded jet."""
    system = prolong(op, 0)
    rows = [(j, zero_index(op.n)) for j in range(1, op.r + 1)]
    base_cols, _, factorials, bind = _level_plan(op.jet_variables, op.layout, 0, 0)
    keys = op.layout[3]
    pin = F(3, 7) if exact else 3 / 7
    for known in ({}, {base_cols[0]: pin}):
        columns = tuple(c for c in base_cols if c not in known)
        given = taylor_coefficients(base_cols, [known.get(c, 0) for c in base_cols], factorials, exact)
        seeds = {v: {} for v in op.jet_variables}
        bind_jets(seeds, bind, [g if c in known else None for c, g in zip(base_cols, given)])
        yield (
            _assemble(
                _row_plan(keys, (zero_index(op.n),), columns, _constant(op.n, keys)),
                _gradient_values(op, x, known, exact),
                _bound_series(op, x, seeds, 0, exact),
            ),
            reference.row_system(system, rows, columns, reference.assignment(op, x, known), exact),
        )


def absent(v) -> bool:
    """Whether v is the int 0 that stands for an entry no term reaches;
    any other int is no entry of an assembled system."""
    return type(v) is int and v == 0


def bits(v):
    """v's type and value, a float by its bits: -0.0 is not 0.0."""
    return type(v), v.hex() if type(v) is float else v


def assert_fractions(a, b):
    """Every entry of the rows a and the right-hand side b is a Fraction
    or absent."""
    assert all(type(v) is F or absent(v) for row in [*a, b] for v in row)


def assert_close(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is float or absent(g)
        assert abs(g - w) <= 1e-12 * max(1.0, abs(w)), (g, w)


@pytest.mark.parametrize("op,top,points", EXACT, ids=EXACT_IDS)
def test_exact_level_systems_equal_the_prolonged_rows(op, top, points):
    for x in points:
        for (a, b), (ref_a, ref_b) in level_systems(op, top, x, True):
            assert a == ref_a and b == ref_b
            assert_fractions(a, b)


@pytest.mark.parametrize(
    "op,x",
    [
        (LEWY, (F(1, 2), F(-1, 2), F(1, 4))),
        (POISSON, (F(1, 2), F(1, 4))),
        (TRANSPORT, (F(1, 3),)),
        (EXP_COEFFICIENT, (F(1, 2), F(1, 3))),
    ],
    ids=["lewy", "poisson", "transport", "exp-coefficient"],
)
def test_affine_base_systems_equal_the_prolonged_rows(op, x):
    exact = op is not EXP_COEFFICIENT
    for (a, b), (ref_a, ref_b) in base_systems(op, x, exact):
        if exact:
            assert a == ref_a and b == ref_b
            assert_fractions(a, b)
        else:
            assert len(a) == len(ref_a)
            for row, ref_row in zip(a, ref_a):
                assert_close(row, ref_row)
            assert_close(b, ref_b)


@pytest.mark.parametrize("op,top,points", EXACT, ids=EXACT_IDS)
def test_exact_stacked_rows_equal_the_prolonged_rows(op, top, points):
    for x in points:
        a, b = _stacked(linearize(prolong(op, top)), x, True)
        ref_a, ref_b = reference.stacked_rows(op, x, top, True)
        assert a == ref_a and b == ref_b
        assert_fractions(a, b)


@pytest.mark.parametrize("op,top,x", FLOAT, ids=FLOAT_IDS)
def test_float_level_systems_match_the_prolonged_rows(op, top, x):
    for (a, b), (ref_a, ref_b) in level_systems(op, top, x, False):
        for row, ref_row in zip(a, ref_a):
            assert_close(row, ref_row)
        assert_close(b, ref_b)


TWO_EQUATIONS = pde(2, 1, "(-1,1) (-1,1)", "u_x*u_y + sin(y)*u^2 - x", "u_x - exp(u)*y")
DRIFT = pde(2, 2, "(0,1) (0,1)", "u_xx + u_yy - exp(x)*u_x - y")
SEEDED = {jet_columns(2, 1, 0)[0]: 3 / 7}


@pytest.mark.parametrize(
    "op,x,known",
    [(op, x, some_jet(op, op.order, False)) for op, _, x in FLOAT]
    + [(TWO_EQUATIONS, (F(1, 3), F(-1, 2)), some_jet(TWO_EQUATIONS, 1, False))]
    + [(op, (F(1, 2), F(1, 3)), known) for op in (EXP_COEFFICIENT, DRIFT) for known in ({}, SEEDED)],
    ids=FLOAT_IDS + ["two-equations"]
    + [f"{name}-{seeds}" for name in ("exp-coefficient", "drift") for seeds in ("unseeded", "seeded")],
)
def test_compiled_symbol_is_the_evaluated_symbol(op, x, known):
    # the float jet partials come off op.compiled_base's Jacobian in one
    # call, read by position: bit for bit the floats evaluate_float gives,
    # in the same order; with every base jet known, and at level 0 of an
    # affine base, where a jet not known is passed as 0.0 and no partial
    # reads it
    compiled = _gradient_values(op, x, known, False)
    values = reference.assignment(op, x, known)
    evaluated = [evaluate_float(d, values) for g in op.gradients for d in g.values()]
    assert list(map(float.hex, compiled)) == list(map(float.hex, evaluated))


def test_float_stacked_rows_match_the_prolonged_rows():
    op, top, x = FLOAT[0]
    a, b = _stacked(linearize(prolong(op, top)), x, False)
    ref_a, ref_b = reference.stacked_rows(op, x, top, False)
    for row, ref_row in zip(a, ref_a):
        assert_close(row, ref_row)
    assert_close(b, ref_b)


@pytest.mark.parametrize(
    "op,top,x",
    [(LEWY, 3, (F(1, 2), F(-1, 2), F(1, 4))), (POISSON, 3, (F(1, 2), F(1, 4)))] + FLOAT,
    ids=["lewy", "poisson"] + FLOAT_IDS,
)
def test_level_residuals_match_the_prolonged_rows(op, top, x):
    exact = op in (LEWY, POISSON)
    jet = Jet(op.n, op.k, op.order + top, some_jet(op, op.order + top, exact))
    bindings = jet_bindings(op.jet_variables, jet_coefficients(jet.values, op.k, exact), top)
    got = _residuals(op, x, jet, top, bindings)
    want = reference.level_residuals(prolong(op, top), x, jet, top)
    if exact:
        assert got == want
    else:
        assert_close(got, want)


@pytest.mark.parametrize(
    "op,x", [(EXP_GROWTH, (F(1, 2),)), (EIKONAL, (F(1, 2), F(1, 3)))], ids=["exp-growth", "eikonal"]
)
def test_deep_levels_agree_with_the_prolonged_solve(op, x):
    top = 6
    got = solve_jets_triangular(prolong(op, top), x).levels
    want = reference.solve(op, x, top)
    assert [r.status for r in got] == [status for status, _ in want]
    for result, (_, jet) in zip(got, want):
        if jet is None:
            assert result.jet is None
            continue
        assert result.jet.order == jet.order
        for c, v in jet.values.items():
            w = result.jet.values[c]
            assert math.isfinite(w) and abs(w - v) <= 1e-12 * max(1.0, abs(v)), (c, w, v)


@pytest.mark.parametrize(
    "op,top,x",
    [(LEWY, 4, (F(1, 2), F(-1, 2), F(1, 4))), (EIKONAL, 3, (F(1, 2), F(1, 3))), (EXP_GROWTH, 4, (F(1, 2),))],
    ids=["lewy", "eikonal", "exp-growth"],
)
def test_grown_bindings_match_bindings_of_the_known_jets(monkeypatch, op, top, x):
    # the solver grows one set of bindings level by level; each level's
    # series, and the final residual walk, must see the bindings that
    # jet_bindings gives of the jets known then, slot for slot in the same
    # order, with values of the same type that are equal Fractions or the
    # same floats bit for bit (so float walks are bit-identical)
    seen = []

    def record(op_, x_, bindings, order, exact):
        if order == top:
            snapshot = {v: [(k, bits(c)) for k, c in s.items()] for v, s in bindings.items()}
            if not seen or seen[-1] != snapshot:
                seen.append(snapshot)
        return bound_series(op_, x_, bindings, order, exact)

    bound_series = ranges._bound_series
    monkeypatch.setattr(ranges, "_bound_series", record)
    result = solve_jets_triangular(prolong(op, top), x)
    assert result.solved
    values, exact = result.jet.values, result.jet.exact
    assert exact == (op is LEWY)
    want = []
    for level in range(top + 1):
        known = below(values, op.order + level + 1)
        bindings = jet_bindings(op.jet_variables, jet_coefficients(known, op.k, exact), top)
        want.append({v: [(k, bits(c)) for k, c in s.items()] for v, s in bindings.items()})
    assert seen == want


class TestNoRowAboveLevelZero:
    """The range check, rank certificates and construction read no
    prolonged row above level 0."""

    @pytest.fixture(autouse=True)
    def no_lift(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a row above level 0 was built")

        monkeypatch.setattr(jets, "_lift", refuse)

    def test_prolonged_rows_are_refused(self):
        with pytest.raises(AssertionError, match="above level 0"):
            list(prolong(POISSON, 1).items())

    def test_linear_range_and_certificate(self):
        points = DensePointStream(LEWY.domain).prefix(2)
        assert range_condition_check(LEWY, points, 3).all_ok
        assert rank_condition(POISSON, (F(1, 2), F(1, 4)), 3).strict

    def test_nonlinear_range(self):
        points = DensePointStream(EIKONAL.domain).prefix(3)
        assert range_condition_check(EIKONAL, points, 3).all_ok

    @pytest.mark.parametrize("op", [LEWY, POISSON, EIKONAL], ids=["lewy", "poisson", "eikonal"])
    def test_construct(self, op):
        points = DensePointStream(op.domain).prefix(3)
        assert construct_sequence(op, points, [1, 2, 3]).stage_count == 3


# ---------------------------------------------------------------------------
# the plans against the term-by-term references, bit for bit

FLOATS = st.sampled_from([-0.0, 0.0, 1.0, -1.5, 0.1, 2.0**-60, -3e20, 7.25])
FRACTIONS = st.sampled_from([F(1), F(-1, 3), F(5, 7), F(-2), F(11, 13)])


@st.composite
def layouts(draw):
    """(n, k, m, gradient keys of one or two equations), each equation's
    keys some base jets in jet_gradient order."""
    n, k, m = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(0, 2))
    base = jet_columns(n, k, m)
    keys = tuple(
        tuple(sorted(
            draw(st.sets(st.sampled_from(base), min_size=1, max_size=4)),
            key=lambda c: (c[0], c[1].grlex_key()),
        ))
        for _ in range(draw(st.integers(1, 2)))
    )
    return n, k, m, keys


def some(data, items):
    """A random part of items, in their order."""
    return tuple(c for c in items if data.draw(st.integers(0, 4)))


def bitwise(values):
    return [bits(v) for v in values]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_planned_rows_are_the_term_by_term_rows(data):
    # a level's rows in its top-order jets from constant series, as the
    # solver assembles them, or the stacked rows in every jet of order
    # <= m + level from full series; some columns left out as known jets
    # and exact zeros left out of each series
    n, k, m, keys = data.draw(layouts())
    level = data.draw(st.integers(0, 4))
    exact, full = data.draw(st.booleans()), data.draw(st.booleans())
    pool = FRACTIONS if exact else FLOATS
    if full:
        indices, rests = multi_indices(n, level), multi_indices(n, level)
    else:
        indices, rests = multi_indices_of_order(n, level), multi_indices(n, 0)
    columns = some(data, jet_columns(n, k, m + level, 0 if full else m + level))
    series = [{r: data.draw(pool) for r in some(data, rests)} for g in keys for _ in g]
    offsets = [{p: data.draw(pool) for p in some(data, multi_indices(n, level))} for _ in keys]
    partials = iter(series)
    coefficients = [dict(zip(g, partials)) for g in keys]
    want_a, want_b = reference.assemble(coefficients, offsets, indices, columns)
    plan = _row_plan(keys, indices, columns, tuple(tuple(s) for s in series))
    got_a, got_b = _assemble(plan, [c for s in series for c in s.values()], offsets)
    assert [bitwise(row) for row in got_a] == [bitwise(row) for row in want_a]
    assert bitwise(got_b) == bitwise(want_b)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_planned_bindings_are_the_value_by_value_bindings(data):
    # bindings grown level by level from each level's jets, as a solve to
    # `top` grows them, and jet_bindings of sparse coefficients
    n, k, m, keys = data.draw(layouts())
    top, exact = data.draw(st.integers(0, 4)), data.draw(st.booleans())
    pool = FRACTIONS if exact else FLOATS
    variables = tuple(JetVar(u, alpha, f"u{u}_{alpha}") for u, alpha in sorted(set(sum(keys, ()))))

    def items(bindings):
        return [(v, [(slot, bits(c)) for slot, c in s.items()]) for v, s in bindings.items()]

    got, want = ({v: {} for v in variables} for _ in range(2))
    for lam in range(top + 1):
        lowest, highest = (0, m) if lam == 0 else (m + lam, m + lam)
        columns = jet_columns(n, k, highest, lowest)
        values = [data.draw(pool) for _ in columns]
        bind_jets(got, shift_plan(variables, k, top, lowest, highest), values)
        keyed = [{} for _ in range(k)]
        for (u, q), c in zip(columns, values):
            keyed[u - 1][q] = c
        reference.grow_bindings(want, keyed, top)
        assert items(got) == items(want)
    sparse = [{q: data.draw(pool) for q in some(data, multi_indices(n, top + m))} for _ in range(k)]
    assert items(jet_bindings(variables, sparse, top)) == items(
        reference.keyed_bindings(variables, sparse, top)
    )
