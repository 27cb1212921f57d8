"""Acceptance suite.

Eight criteria covering the full pipeline; each test prints its own
pass/fail line.  Tolerances are stated inline: exact-arithmetic claims use
literal equality of rationals, float claims use the relative or absolute
bound named in the assertion.
"""

import math
from fractions import Fraction as F

import pytest

from densepde.construct import (
    ConstructionError,
    DensePointStream,
    construct_sequence,
)
from densepde.expr import (
    Const,
    Var,
    differentiate,
    evaluate_exact,
    evaluate_float,
    jet_variables,
    sfn,
    spow,
    sprod,
    squot,
    ssum,
    substitute,
)
from densepde.jets import parse_pde_text, prolong
from densepde.multiindex import multi_indices
from densepde.parser import Context, parse_expression
from densepde.ranges import range_condition_check, rank_condition
from densepde.systems import lewy_operator
from densepde.verify import (
    FunctionSequence,
    check_vanishing,
    error_sequence,
    example_sequence,
    verify_solution,
)
from reference import (
    diagonal_probe,
    differentiate_multi,
    evaluate_at_jet,
    jet_of_function,
)


def announce(capsys, line):
    with capsys.disabled():
        print(line)


TRANSPORT = """dim: 1
vars: x
order: 1
domain: (0,1)
eq: u_x - u
"""

LAPLACE = """dim: 2
vars: x y
order: 2
domain: (0,1) (0,1)
eq: u_xx + u_yy - 1 - x*y
"""

BURGERS = """dim: 1
vars: x
order: 2
domain: (-1,1)
eq: u_xx + u*u_x - 1
"""

EIKONAL = """dim: 2
vars: x y
order: 1
domain: (-1,1) (-1,1)
eq: u_x^2 + u_y^2 - 1 - x^2
"""


def test_criterion_1_chain_rule_oracle(capsys):
    """Prolonged evaluation at jets == direct differentiation, exactly on
    rational data (>= 20 triples), rel. err <= 1e-9 on a float corpus."""
    rational_ops = [TRANSPORT, LAPLACE, BURGERS]
    rational_fns = {
        1: ["x^3 - x", "x^4/4 + x^2", "1 - x + x^2"],
        2: ["x^3*y + y^2", "x^2*y^2", "x*y - y^3"],
    }
    rational_pts = {
        1: [(F(1, 2),), (F(-1, 3),), (F(1, 4),), (F(4, 5),)],
        2: [(F(1, 2), F(1, 3)), (F(1, 4), F(3, 4)), (F(2, 3), F(1, 5))],
    }
    triples = 0
    for text in rational_ops:
        op = parse_pde_text(text)
        ctx, n = op.context, op.context.n
        sys = prolong(op, 2)
        space = ctx.space_vars()
        for utext in rational_fns[n]:
            u = parse_expression(utext, ctx)
            for point in rational_pts[n]:
                if not op.contains(point):
                    continue
                jet = jet_of_function(u, ctx, point, op.order + 2)
                for j, p, e in sys.items():
                    got = evaluate_at_jet(e, ctx, point, jet)
                    g = op.equations[j - 1]
                    mapping = {
                        v: differentiate_multi(u, space, v.index)
                        for v in jet_variables(g)
                    }
                    direct = differentiate_multi(substitute(g, mapping), space, p)
                    want = evaluate_exact(
                        direct, dict(zip(space, point))
                    )
                    assert got == want  # exact rational equality
                triples += 1
    assert triples >= 20

    # float corpus with transcendentals
    float_checks = 0
    for text, utext, point in [
        (BURGERS, "sin(x)", (0.4,)),
        (BURGERS, "exp(x/2)", (-0.3,)),
        (TRANSPORT, "sin(x)*exp(x)", (0.6,)),
        (EIKONAL, "sin(x)*exp(y)", (0.2, 0.5)),
    ]:
        op = parse_pde_text(text)
        ctx = op.context
        sys = prolong(op, 2)
        space = ctx.space_vars()
        u = parse_expression(utext, ctx)
        jet = jet_of_function(u, ctx, point, op.order + 2)
        for j, p, e in sys.items():
            got = evaluate_at_jet(e, ctx, point, jet)
            g = op.equations[j - 1]
            mapping = {
                v: differentiate_multi(u, space, v.index)
                for v in jet_variables(g)
            }
            direct = differentiate_multi(substitute(g, mapping), space, p)
            want = evaluate_float(direct, dict(zip(space, point)))
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
            float_checks += 1
    assert float_checks >= 10
    announce(
        capsys,
        f"criterion 1 PASS: chain-rule oracle, {triples} exact triples, "
        f"{float_checks} float checks (rel 1e-9)",
    )


def test_criterion_2_model_sequence(capsys):
    """The classical staged product sequence vanishes with exact zeros."""
    pts = DensePointStream(((F(0), F(1)),)).prefix(6)
    coords = [p[0] for p in pts]
    orders = [nu + 1 for nu in range(6)]
    seq = example_sequence(coords, orders)
    ctx = seq.context
    space = ctx.space_vars()
    checked = 0
    for j, a in enumerate(pts):
        # exponent of the factor (x - x_j) in w_mu (mu >= j) is l_mu >=
        # l_j, so derivatives to order l_j - 1 vanish there
        report = check_vanishing(seq, [a], orders[j] - 1, arithmetic="exact")
        assert report.arithmetic == "exact"
        entry = report.entries[0]
        assert entry.witness is not None and entry.witness <= j
        # exhaustive exact zero check, independently of the report
        for mu in range(j, 6):
            for p in multi_indices(1, orders[j] - 1):
                d = differentiate_multi(seq.terms[mu], space, p)
                assert evaluate_exact(d, {space[0]: a[0]}) == 0
                checked += 1
    announce(
        capsys,
        f"criterion 2 PASS: model sequence, {checked} exact zero "
        "derivatives at 6 dyadic points",
    )


def test_criterion_3_linear_pipeline(capsys):
    """Linear constructions verify with exact rational zeros end-to-end."""
    cases = [
        (TRANSPORT, 1, {(1, (0,)): 1}),
        (LAPLACE, 2, None),
    ]
    for text, _n, seed in cases:
        op = parse_pde_text(text)
        pts = DensePointStream(op.domain).prefix(3)
        seq = construct_sequence(op, pts, [0, 1, 2], seed=seed)
        assert seq.exact
        result = verify_solution(op, seq, arithmetic="exact")
        assert result.passed
        assert result.arithmetic == "exact"
    announce(
        capsys,
        "criterion 3 PASS: linear pipeline (1D transport, 2D Poisson), "
        "3 stages each, exact zeros",
    )


def test_criterion_4_nonlinear_pipeline(capsys):
    """Nonlinear eikonal construction verifies to 1e-9; the impossible
    equation is rejected with a positive residual floor."""
    op = parse_pde_text(EIKONAL)
    pts = DensePointStream(op.domain).prefix(3)
    seq = construct_sequence(op, pts, [0, 1, 2])
    result = verify_solution(op, seq, tol=1e-9)
    assert result.passed
    # residual bound at every (z_j, |p| <= l_nu) is what PASS certifies
    errors = error_sequence(op, seq)
    ctx = op.context
    space = ctx.space_vars()
    for err in errors:
        for nu in range(seq.stage_count):
            for a in seq.points[: nu + 1]:
                for p in multi_indices(2, seq.orders[nu]):
                    d = differentiate_multi(err.terms[nu], space, p)
                    val = evaluate_float(d, dict(zip(space, a)))
                    assert abs(val) <= 1e-9

    impossible = parse_pde_text("""dim: 1
vars: x
order: 1
domain: (0,1)
eq: u_x^2 + 1
""")
    with pytest.raises(ConstructionError) as info:
        construct_sequence(impossible, [(F(1, 2),), (F(1, 4),)], [0, 0])
    assert info.value.stage == 0
    assert info.value.result.residual > 0
    announce(
        capsys,
        "criterion 4 PASS: nonlinear eikonal verifies to 1e-9; "
        f"(u_x)^2 = -1 rejected with floor "
        f"{info.value.result.residual:.2f}",
    )


def test_criterion_5_lewy_split_system(capsys):
    """The split first-order system: exact certificates at 5 points for
    l <= 2, and a 2-stage construction verifying exactly."""
    op = lewy_operator("x", "0")
    pts = DensePointStream(op.domain).prefix(5)
    report = range_condition_check(op, pts, 2)
    assert report.all_ok
    for a in pts:
        for level in range(3):
            cert = rank_condition(op, a, level)
            assert cert.arithmetic == "exact"
            assert cert.holds and cert.strict
    seq = construct_sequence(op, pts[:2], [0, 1])
    assert seq.exact
    result = verify_solution(op, seq, arithmetic="exact")
    assert result.passed and result.arithmetic == "exact"
    announce(
        capsys,
        "criterion 5 PASS: split system solvable at 5 points (exact "
        "certificates, l <= 2), 2-stage construction verifies exactly",
    )


def test_criterion_6_rank_suite(capsys):
    """Full-rank certificates for D_x and the Laplacian; the degenerate
    0*u = 1 fails everywhere."""
    dx = parse_pde_text("""dim: 1
vars: x
order: 1
domain: (0,1)
eq: u_x
""")
    laplace = parse_pde_text(LAPLACE)
    points_1d = [(F(k, 6),) for k in range(1, 6)]
    points_2d = [
        (F(1, 2), F(1, 2)), (F(1, 4), F(1, 4)), (F(1, 4), F(3, 4)),
        (F(3, 4), F(1, 4)), (F(2, 3), F(1, 5)),
    ]
    for op, pts in [(dx, points_1d), (laplace, points_2d)]:
        for a in pts:
            for level in range(4):
                cert = rank_condition(op, a, level)
                assert cert.arithmetic == "exact"
                # consistency and full row rank, verified exactly
                assert cert.rank_p == cert.rank_q == cert.n_rows
                assert cert.holds and cert.strict
    degenerate = parse_pde_text("""dim: 1
vars: x
order: 0
domain: (0,1)
eq: 0*u - 1
""")
    for a in points_1d:
        cert = rank_condition(degenerate, a, 0)
        assert not cert.holds
    announce(
        capsys,
        "criterion 6 PASS: exact full-rank certificates for D_x and the "
        "Laplacian at 5 points, l <= 3; degenerate operator fails everywhere",
    )


def test_criterion_7_ideal_properties(capsys):
    """Monotonicity, derivation invariance, product absorption, and the
    off-diagonal probe, all exact, on model and constructed sequences."""
    ctx = Context(("x",))
    space = ctx.space_vars()
    pts = [(F(0),), (F(1, 2),)]
    seq = example_sequence([F(0), F(1, 2)], [3, 4], ctx)

    # monotonicity: a witness at order l serves at every order < l
    hi = check_vanishing(seq, pts, 2, arithmetic="exact")
    lo = check_vanishing(seq, pts, 1, arithmetic="exact")
    assert hi.holds and lo.holds
    for a, b in zip(lo.entries, hi.entries):
        assert a.witness <= b.witness

    # derivation invariance: term-wise derivative stays in, one order down
    dseq = FunctionSequence(
        ctx, tuple(differentiate(w, space[0]) for w in seq.terms)
    )
    assert check_vanishing(dseq, pts, 1, arithmetic="exact").holds

    # product absorption by an arbitrary smooth sequence
    other = parse_expression("2 + x^2", ctx)
    prod = FunctionSequence(
        ctx,
        tuple(
            sprod([w, spow(other, mu + 1)]) for mu, w in enumerate(seq.terms)
        ),
    )
    assert check_vanishing(prod, pts, 2, arithmetic="exact").holds

    # off-diagonality: psi = x is not absorbed
    ok, report = diagonal_probe(ctx, Var(space[0]), [(F(1, 2),)], 0)
    assert not ok and report.entries[0].witness is None

    # the same properties on a constructed error sequence
    op = parse_pde_text(TRANSPORT)
    sol = construct_sequence(
        op, [(F(1, 4),), (F(3, 4),)], [1, 2], seed={(1, (0,)): 1}
    )
    [err] = error_sequence(op, sol)
    base = check_vanishing(err, sol.points, 1, arithmetic="exact")
    assert base.holds
    derr = FunctionSequence(
        ctx, tuple(differentiate(w, space[0]) for w in err.terms)
    )
    assert check_vanishing(derr, sol.points, 0, arithmetic="exact").holds
    announce(
        capsys,
        "criterion 7 PASS: ideal properties (monotone, derivation, "
        "absorption, off-diagonal probe) exact on both sequences",
    )


def test_criterion_8_differentiation_engine(capsys):
    """Symbolic derivatives against central differences: 30 expressions,
    rel. err <= 1e-6 at h = 1e-5."""
    ctx = Context(("x", "y"))
    x, y = ctx.space(1), ctx.space(2)
    X, Y = Var(x), Var(y)
    corpus = [
        spow(X, k) for k in range(2, 7)
    ] + [
        sprod([spow(X, 2), spow(Y, 3)]),
        ssum([X, sprod([Const(F(-2)), Y])]),
        squot(X, ssum([Const(F(2)), spow(Y, 2)])),
        squot(ssum([Const(F(1)), X]), ssum([Const(F(3)), spow(X, 2)])),
        spow(ssum([Const(F(1)), spow(X, 2)]), -1),
        spow(ssum([Const(F(1)), spow(X, 2), spow(Y, 2)]), -3),
        sfn("sin", X),
        sfn("cos", X),
        sfn("exp", X),
        sfn("log", ssum([Const(F(2)), spow(X, 2)])),
        sfn("sqrt", ssum([Const(F(1)), spow(X, 2)])),
        sfn("sin", sprod([X, Y])),
        sfn("cos", ssum([X, spow(Y, 2)])),
        sfn("exp", sprod([Const(F(-1)), spow(X, 2)])),
        sfn("exp", sfn("sin", X)),
        sfn("log", ssum([Const(F(3)), sfn("cos", Y), spow(X, 2)])),
        sprod([sfn("sin", X), sfn("exp", Y)]),
        sprod([X, sfn("log", ssum([Const(F(2)), spow(Y, 2)]))]),
        squot(sfn("sin", X), ssum([Const(F(2)), sfn("cos", X)])),
        ssum([sfn("sqrt", ssum([Const(F(4)), spow(Y, 2)])), spow(X, 3)]),
        sprod([spow(X, 2), sfn("sin", Y), sfn("exp", X)]),
        sfn("sqrt", ssum([Const(F(2)), sfn("exp", X)])),
        sprod([sfn("cos", X), sfn("cos", Y)]),
        squot(sfn("exp", X), ssum([Const(F(1)), spow(Y, 4)])),
        ssum([spow(X, 5), sprod([Const(F(3)), X, Y]), sfn("sin", Y)]),
    ]
    assert len(corpus) >= 30
    h = 1e-5
    point = {x: 0.7, y: 0.4}
    for e in corpus:
        for var in (x, y):
            d = differentiate(e, var)
            sym = evaluate_float(d, point)
            up = dict(point)
            dn = dict(point)
            up[var] += h
            dn[var] -= h
            fd = (evaluate_float(e, up) - evaluate_float(e, dn)) / (2 * h)
            assert sym == pytest.approx(fd, rel=1e-6, abs=1e-9)
    announce(
        capsys,
        f"criterion 8 PASS: {len(corpus)} expressions x 2 partials vs "
        "central differences (rel 1e-6, h 1e-5)",
    )
