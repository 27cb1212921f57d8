"""Jet space: multi-indices, total derivatives, prolongation against a
symbolic chain-rule oracle."""

import math
from fractions import Fraction as F

import pytest

from densepde.expr import (
    Bump,
    Const,
    Fn,
    JetVar,
    Pow,
    Prod,
    Quot,
    SpaceVar,
    Sum,
    Var,
    evaluate_exact,
    evaluate_float,
    jet_variables,
    simplify,
    sprod,
    ssum,
    substitute,
)
from densepde.construct import DensePointStream, construct_sequence
from densepde.jets import Jet, Point, normalize_homogeneous, parse_pde_text, prolong
from densepde.manifest import sequence_from_json, sequence_to_json
from densepde.multiindex import (
    MultiIndex,
    multi_indices,
    multi_indices_of_order,
    zero_index,
)
from densepde.parser import Context, parse_expression
from densepde.printer import point_text
from densepde.ranges import JetSolveResult, RankCertificate
from densepde.verify import VanishingEntry, VanishingReport
from reference import (
    apply_operator,
    differentiate_multi,
    evaluate_at_jet,
    jet_of_function,
    total_derivative,
)

CTX = Context(("x", "y"))

LAPLACE = """
dim: 2
vars: x y
order: 2
domain: (0,1) (0,1)
eq: u_xx + u_yy - x*y
"""

BURGERS = """
dim: 1
vars: x
order: 2
domain: (-1,1)
eq: u_xx + u*u_x - 1
"""


class TestMultiIndex:
    def test_order_and_arith(self):
        p = MultiIndex((1, 2))
        assert p.order == 3
        assert p.plus_axis(1) == MultiIndex((2, 2))
        assert p.minus_axis(2) == MultiIndex((1, 1))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            MultiIndex((-1, 0))

    def test_graded_lex_enumeration(self):
        got = multi_indices(2, 2)
        want = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
        assert [p.entries for p in got] == want

    def test_counts(self):
        assert len(multi_indices(3, 4)) == 35  # C(7,3)
        assert len(multi_indices_of_order(2, 3)) == 4

    def test_factorial(self):
        assert MultiIndex((2, 3)).factorial() == 12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_object_per_multi_index(self, n):
        # every enumeration hands out the objects of multi_indices(n, 4)
        full = multi_indices(n, 4)
        position = {p.entries: j for j, p in enumerate(full)}
        for d in range(5):
            assert multi_indices(n, d) == full[: len(multi_indices(n, d))]
            assert all(p is full[j] for j, p in enumerate(multi_indices(n, d)))
            for p in multi_indices_of_order(n, d):
                assert p.order == d and p is full[position[p.entries]]
        assert zero_index(n) is full[0]

    def test_equality_with_other_types(self):
        p = MultiIndex((1, 2))
        assert p.__eq__((1, 2)) is NotImplemented
        assert p.__eq__("(1,2)") is NotImplemented
        assert p != (1, 2)
        assert p == MultiIndex((1, 2))
        assert p != MultiIndex((2, 1))



X, Y = SpaceVar(1, "x"), SpaceVar(2, "y")

# Per value type: a factory of equal fresh instances, the fields its
# equality compares and its hash hashes (in order), and an unequal instance.
VALUE_TYPES = {
    "MultiIndex": (lambda: MultiIndex((1, 2)), ("entries",), MultiIndex((2, 1))),
    "SpaceVar": (lambda: SpaceVar(1, "x"), ("axis",), Y),
    "JetVar": (
        lambda: JetVar(1, MultiIndex((1, 0)), "u_x"), ("unknown", "index"),
        JetVar(1, MultiIndex((0, 1)), "u_y"),
    ),
    "Const": (lambda: Const(F(1, 2)), ("value",), Const(F(1, 3))),
    "Var": (lambda: Var(SpaceVar(1, "x")), ("var",), Var(Y)),
    "Sum": (lambda: Sum((Var(X), Var(Y))), ("terms",), Sum((Var(X), Const(F(1))))),
    "Prod": (lambda: Prod((Var(X), Var(Y))), ("factors",), Prod((Var(Y), Var(Y)))),
    "Pow": (lambda: Pow(Var(X), F(3)), ("base", "exponent"), Pow(Var(X), F(2))),
    "Quot": (lambda: Quot(Var(X), Var(Y)), ("numer", "denom"), Quot(Var(Y), Var(X))),
    "Fn": (lambda: Fn("sin", Var(X)), ("name", "arg"), Fn("cos", Var(X))),
    "Bump": (
        lambda: Bump((F(1, 2), F(1, 2)), F(1, 8), F(1, 4), (X, Y), MultiIndex((0, 0))),
        ("center", "r_in", "r_out", "space_vars", "deriv"),
        Bump((F(1, 2), F(1, 2)), F(1, 8), F(1, 4), (X, Y), MultiIndex((1, 0))),
    ),
    "Jet": (
        lambda: Jet(1, 1, 1, {(1, MultiIndex((0,))): F(1), (1, MultiIndex((1,))): F(2)}),
        ("n", "k", "order", "values"),
        Jet(1, 1, 1, {(1, MultiIndex((0,))): F(1), (1, MultiIndex((1,))): F(3)}),
    ),
    "RankCertificate": (
        lambda: RankCertificate((F(0), F(1, 2)), 1, 6, 6, 6, 10, "exact"),
        ("point", "level", "rank_p", "rank_q", "n_rows", "n_cols", "arithmetic", "tolerance"),
        RankCertificate((F(0), F(1, 2)), 1, 5, 6, 6, 10, "exact"),
    ),
    "JetSolveResult": (
        lambda: JetSolveResult("solved", Jet(1, 1, 0, {(1, MultiIndex((0,))): F(1)}), 0.0, "exact"),
        ("status", "jet", "residual", "arithmetic", "failed_level", "detail"),
        JetSolveResult("no-solution", None, 0.5, "exact", 0, "inconsistent level"),
    ),
    "VanishingEntry": (
        lambda: VanishingEntry((F(1, 2),), 1, 0, True),
        ("point", "order", "witness", "exact"),
        VanishingEntry((F(1, 2),), 1, None, True),
    ),
    "VanishingReport": (
        lambda: VanishingReport(2, "exact", 1e-10, (VanishingEntry((F(1, 2),), 1, 0, True),)),
        ("truncation", "arithmetic", "tolerance", "entries"),
        VanishingReport(2, "exact", 1e-10, ()),
    ),
}
UNHASHABLE = {"Jet", "JetSolveResult"}  # a jet's values are a dict


@pytest.mark.parametrize("kind", list(VALUE_TYPES))
class TestValueTypes:
    """The contract of the hashed and compared types: equal when of one
    class with equal compared fields, hash of the tuple of those fields
    (so set and dict orders, and the payloads built from them, do not
    depend on how the class is written), and immutable."""

    def test_hash_is_hash_of_compared_fields(self, kind):
        make, fields, _ = VALUE_TYPES[kind]
        obj = make()
        if kind in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(obj)
            return
        assert hash(obj) == hash(tuple(getattr(obj, f) for f in fields))
        assert {obj: 1}[make()] == 1

    def test_equal_by_compared_fields(self, kind):
        make, _, other = VALUE_TYPES[kind]
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        assert a != other and not a == other

    def test_eq_with_another_type_is_not_implemented(self, kind):
        make, fields, _ = VALUE_TYPES[kind]
        obj = make()
        key = tuple(getattr(obj, f) for f in fields)
        neighbour = list(VALUE_TYPES)[list(VALUE_TYPES).index(kind) - 1]
        for other in (key, key[0], None, VALUE_TYPES[neighbour][0]()):
            assert obj.__eq__(other) is NotImplemented
            assert obj != other

    def test_assignment_and_deletion_raise(self, kind):
        make, fields, _ = VALUE_TYPES[kind]
        obj = make()
        before = getattr(obj, fields[0])
        with pytest.raises(AttributeError):
            setattr(obj, fields[0], None)
        with pytest.raises(AttributeError):
            delattr(obj, fields[0])
        with pytest.raises(AttributeError):
            obj.extra = 1
        assert getattr(obj, fields[0]) is before
        assert "extra" not in vars(obj)


def test_equality_ignores_name():
    assert SpaceVar(1, "x") == SpaceVar(1, "t")
    assert hash(SpaceVar(1, "x")) == hash(SpaceVar(1, "t"))
    assert JetVar(1, MultiIndex((1, 0)), "u_x") == JetVar(1, MultiIndex((1, 0)), "v_t")
    assert hash(JetVar(1, MultiIndex((1, 0)), "u_x")) == hash(JetVar(1, MultiIndex((1, 0)), "v_t"))
    assert Var(SpaceVar(1, "x")) == Var(SpaceVar(1, "t"))


def test_expr_nodes_of_another_class_differ():
    children = (Var(X), Var(Y))
    assert Sum(children) != Prod(children)
    assert Sum(children).__eq__(Prod(children)) is NotImplemented


class TestPoint:
    """A Point is the tuple of its coordinates with a hash computed once:
    equal to the plain tuple and hashed as it, in either direction of a
    dict lookup."""

    PLAIN = (F(1, 2), F(-3, 4), F(5))

    def test_equal_to_the_plain_tuple_with_its_hash(self):
        p = Point(self.PLAIN)
        assert p == self.PLAIN and self.PLAIN == p and not p != self.PLAIN
        assert hash(p) == hash(self.PLAIN)
        assert type(p) is Point and type(p[1:]) is tuple and p[1:] == self.PLAIN[1:]

    def test_keys_find_each_other(self):
        p = Point(self.PLAIN)
        assert {p: "point"}[self.PLAIN] == "point"
        assert {self.PLAIN: "plain"}[p] == "plain"
        assert len({p, self.PLAIN}) == 1

    def test_a_point_of_a_point_is_itself_and_immutable(self):
        p = Point(self.PLAIN)
        assert Point(p) is p
        with pytest.raises(AttributeError):
            p.extra = 1
        assert hash(Point(iter(self.PLAIN))) == hash(self.PLAIN)

    def test_point_text_and_repr_are_the_plain_tuple_s(self):
        p = Point(self.PLAIN)
        assert point_text(p) == point_text(self.PLAIN) == "(1/2, -3/4, 5)"
        assert repr(p) == repr(self.PLAIN)

    def test_a_sequence_holds_points_and_its_manifest_loads_points(self):
        op = parse_pde_text(
            "dim: 2\nvars: x y\norder: 2\ndomain: (0,1) (0,1)\neq: u_xx + u_yy - 1\n"
        )
        seq = construct_sequence(op, DensePointStream(op.domain).prefix(3), (0, 1, 1))
        loaded = sequence_from_json(sequence_to_json(seq))
        for s in (seq, loaded):
            assert all(type(a) is Point for a in s.points)
            # the stages' jets and bumps key and centre on those objects
            last = s.stages[-1]
            assert all(a is b for a, b in zip(s.points, last.jets))
            assert all(a is b.center for a, b in zip(s.points, last.bumps))
        assert loaded.points == seq.points


class TestTotalDerivative:
    def test_on_space_function(self):
        e = parse_expression("x^2*y", CTX)
        d = total_derivative(e, CTX, 1)
        assert d == parse_expression("2*x*y", CTX)

    def test_chain_rule_term(self):
        e = parse_expression("u^2", CTX)
        d = total_derivative(e, CTX, 1)
        assert d == simplify(parse_expression("2*u*u_x", CTX))

    def test_commutes(self):
        e = parse_expression("u_x*u_y + x*u", CTX)
        d12 = total_derivative(total_derivative(e, CTX, 1), CTX, 2)
        d21 = total_derivative(total_derivative(e, CTX, 2), CTX, 1)
        assert d12 == d21

    def test_leibniz(self):
        a = parse_expression("u_x", CTX)
        b = parse_expression("x*u_y", CTX)
        prod = simplify(sprod([a, b]))
        lhs = total_derivative(prod, CTX, 1)
        rhs = simplify(ssum([
            sprod([total_derivative(a, CTX, 1), b]), sprod([a, total_derivative(b, CTX, 1)])
        ]))
        # simplify does not expand products, so compare by exact evaluation
        u = parse_expression("x^3*y - y^2", CTX)
        point = (F(1, 3), F(2, 5))
        jet = jet_of_function(u, CTX, point, 3)
        assert evaluate_at_jet(lhs, CTX, point, jet) == evaluate_at_jet(
            rhs, CTX, point, jet
        )


class TestJet:
    def test_dense_validation(self):
        with pytest.raises(ValueError):
            Jet(1, 1, 1, {(1, MultiIndex((0,))): F(1)})

    @pytest.mark.parametrize("change", ["missing", "extra", "above-order", "unknown-beyond-k"])
    def test_a_jet_that_is_not_dense_is_refused(self, change):
        # n = 2, k = 2, order 1: six keys; each change leaves the count or
        # the keys wrong, and the error names what is missing and extra
        values = {(u, p): F(u) for p in multi_indices(2, 1) for u in (1, 2)}
        gone, added = (2, MultiIndex((0, 1))), None
        if change == "missing":
            del values[gone]
        elif change == "extra":
            gone, added = None, (1, MultiIndex((2, 0)))
        elif change == "above-order":
            del values[gone]
            added = (2, MultiIndex((0, 2)))
        else:
            del values[gone]
            added = (3, MultiIndex((0, 1)))
        if added is not None:
            values[added] = F(5)
        with pytest.raises(ValueError, match="jet not dense") as info:
            Jet(2, 2, 1, values)
        assert f"missing {({gone} if gone else set())}" in str(info.value)
        assert f"extra {({added} if added else set())}" in str(info.value)
        assert Jet(2, 2, 1, {(u, p): F(u) for p in multi_indices(2, 1) for u in (1, 2)}).order == 1

    def test_of_function_exact(self):
        u = parse_expression("x^3 + x*y", CTX)
        jet = jet_of_function(u, CTX, (F(1, 2), F(1, 3)), 2)
        assert jet.exact
        assert jet.values[(1, MultiIndex((2, 0)))] == 3  # 6x at 1/2
        assert jet.values[(1, MultiIndex((1, 1)))] == 1

    def test_of_function_float(self):
        u = parse_expression("sin(x)", Context(("x",)))
        jet = jet_of_function(u, Context(("x",)), (0.5,), 1)
        assert not jet.exact
        assert jet.values[(1, MultiIndex((1,)))] == pytest.approx(math.cos(0.5))

    def test_truncate(self):
        u = parse_expression("x^2", Context(("x",)))
        jet = jet_of_function(u, Context(("x",)), (F(1),), 3)
        assert jet.truncate(1).order == 1
        # at its own order the truncation is the jet itself, so stages of
        # one level share one Jet object
        assert jet.truncate(3) is jet
        with pytest.raises(ValueError):
            jet.truncate(4)

    def test_truncate_equals_a_validated_jet(self):
        ctx = Context(("x", "y"), ("u", "v"))
        jet = jet_of_function([ctx.parse("x^3*y"), ctx.parse("exp(x)")], ctx, (F(1, 2), F(1, 3)), 3)
        for order in range(4):
            got = jet.truncate(order)
            values = {(u, p): v for (u, p), v in jet.values.items() if p.order <= order}
            assert got == Jet(2, 2, order, values)
            assert got.values == values and got.exact == jet.exact


class TestProlong:
    def test_layout(self):
        op = parse_pde_text(LAPLACE)
        sys = prolong(op, 2)
        rows = [(j, p.entries) for j, p, _ in sys.items()]
        assert rows == [
            (1, (0, 0)), (1, (0, 1)), (1, (1, 0)),
            (1, (0, 2)), (1, (1, 1)), (1, (2, 0)),
        ]

    def test_restrict_is_structural(self):
        # the rows of level <= 1 of a level-2 prolongation are the level-1
        # prolongation's, as the per-level jet solve assumes
        op = parse_pde_text(LAPLACE)
        top = prolong(op, 2).equations
        lower = {(j, p): e for (j, p), e in top.items() if p.order <= 1}
        assert lower == prolong(op, 1).equations

    def test_quasilinear_in_top_jets(self):
        # every prolonged equation of the quadratic operator is affine in
        # the jets of maximal order it introduces
        op = parse_pde_text(BURGERS)
        from densepde.expr import differentiate

        sys = prolong(op, 3)
        for j, p, e in sys.items():
            top = op.order + p.order
            for v in jet_variables(e):
                if v.index.order == top:
                    coeff = differentiate(e, v)
                    assert all(
                        w.index.order < top for w in jet_variables(coeff)
                    )

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            prolong(parse_pde_text(LAPLACE), -1)


# chain-rule oracle: evaluating D^p G at the jet of u must equal
# differentiating G(jets of u) as a plain function of space
ORACLE_CASES = [
    (LAPLACE, "x^3*y + y^2", (F(1, 2), F(1, 3))),
    (LAPLACE, "x^2*y^2", (F(1, 4), F(3, 4))),
    (BURGERS, "x^3 - x", (F(1, 3),)),
    (BURGERS, "x^4/4", (F(-1, 2),)),
]


@pytest.mark.parametrize("pde,utext,point", ORACLE_CASES)
def test_chain_rule_oracle_exact(pde, utext, point):
    op = parse_pde_text(pde)
    ctx = op.context
    u = parse_expression(utext, ctx)
    level = 2
    sys = prolong(op, level)
    jet = jet_of_function(u, ctx, point, op.order + level)
    space = ctx.space_vars()
    # independent oracle: substitute the symbolic derivatives of u into G
    for j, p, e in sys.items():
        got = evaluate_at_jet(e, ctx, point, jet)
        g = op.equations[j - 1]
        mapping = {
            v: differentiate_multi(u, space, v.index)
            for v in jet_variables(g)
        }
        direct = differentiate_multi(substitute(g, mapping), space, p)
        want = evaluate_exact(direct, {v: c for v, c in zip(space, point)})
        assert got == want


def test_chain_rule_oracle_float():
    op = parse_pde_text(BURGERS)
    ctx = op.context
    u = parse_expression("sin(x)", ctx)
    sys = prolong(op, 2)
    point = (0.4,)
    jet = jet_of_function(u, ctx, point, 4)
    space = ctx.space_vars()
    for j, p, e in sys.items():
        got = evaluate_at_jet(e, ctx, point, jet)
        g = op.equations[j - 1]
        mapping = {
            v: differentiate_multi(u, space, v.index)
            for v in jet_variables(g)
        }
        direct = differentiate_multi(substitute(g, mapping), space, p)
        want = evaluate_float(direct, {v: c for v, c in zip(space, point)})
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


class TestOperators:
    def test_normalize_rejects_jets_on_rhs(self):
        lhs = parse_expression("u_x", CTX)
        with pytest.raises(ValueError):
            normalize_homogeneous(lhs, parse_expression("u", CTX))

    def test_apply_operator(self):
        op = parse_pde_text(LAPLACE)
        u = parse_expression("x^2*y^2", op.context)
        # u_xx + u_yy - xy = 2y^2 + 2x^2 - xy
        val = apply_operator(op, u, (F(1, 2), F(1, 2)))[0]
        assert val == F(3, 4)

    def test_pde_file_headers_required(self):
        with pytest.raises(ValueError):
            parse_pde_text("dim: 1\nvars: x\neq: u_x")
