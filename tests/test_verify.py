"""Verifier: vanishing condition, ideal properties at truncation,
probes, closure."""

from fractions import Fraction as F

import pytest

from densepde import expr as expr_module
from densepde import verify as verify_module
from densepde.construct import DensePointStream, DiscreteSolve, construct_sequence
from densepde.expr import (
    Const,
    Var,
    differentiate,
    simplify,
    sprod,
    spow,
    ssum,
)
from densepde.jets import Jet, parse_pde_text
from densepde.manifest import sequence_from_json, sequence_to_json
from densepde.multiindex import MultiIndex
from densepde.parser import Context, parse_expression
from densepde.systems import lewy_operator
from densepde.verify import (
    Failure,
    FunctionSequence,
    check_vanishing,
    error_sequence,
    example_sequence,
    verify_solution,
)
from reference import (
    SingularityComplement,
    constant_sequence,
    diagonal_probe,
    family_closure_check,
)

CTX = Context(("x",))
X = Var(CTX.space(1))


def model(points, orders):
    return example_sequence([F(p) for p in points], orders, CTX)


@pytest.fixture(scope="module")
def lewy_two_stages():
    """The Lewy system (two equations) constructed at levels [1, 2]."""
    op = lewy_operator()
    pts = DensePointStream(op.domain).prefix(2)
    return op, construct_sequence(op, pts, [1, 2])


class TestModelSequence:
    def test_terms(self):
        from densepde.printer import to_text

        seq = model([0, F(1, 2)], [1, 2])
        assert to_text(seq.terms[0]) == "x"
        # w_1 = x^2 (x - 1/2)^2

    def test_vanishing_with_exact_zeros(self):
        seq = model([0, F(1, 2), F(1, 4)], [2, 3, 4])
        report = check_vanishing(
            seq, [(F(0),), (F(1, 2),), (F(1, 4),)], 1, arithmetic="exact"
        )
        assert report.holds
        assert report.arithmetic == "exact"
        assert [e.witness for e in report.entries] == [0, 1, 2]

    def test_nonmember_has_no_witness(self):
        bad = constant_sequence(CTX, Const(F(1)), 4)
        report = check_vanishing(bad, [(F(1, 2),)], 0)
        assert not report.holds
        assert report.entries[0].witness is None
        assert report.entries[0].failures

    def test_label_comes_from_evaluations(self):
        # a float-flagged term is evaluated in float even in exact mode,
        # so the report must not claim exactness
        seq = FunctionSequence(
            CTX,
            (parse_expression("0*x", CTX), parse_expression("x - 1/2", CTX)),
            approximate=(False, True),
        )
        report = check_vanishing(seq, [(F(1, 2),)], 1, arithmetic="exact")
        assert not report.entries[0].exact
        assert report.arithmetic == "float"

    def test_schedules_must_match(self):
        with pytest.raises(ValueError):
            example_sequence([F(0), F(1, 2)], [3, 2])


class TestIdealProperties:
    """The vanishing set behaves like an ideal at truncation."""

    def setup_method(self):
        self.seq = model([0, F(1, 2)], [2, 3])
        self.points = [(F(0),), (F(1, 2),)]

    def test_monotone_in_order(self):
        # a witness for order l certifies every order below it
        hi = check_vanishing(self.seq, self.points, 1, arithmetic="exact")
        lo = check_vanishing(self.seq, self.points, 0, arithmetic="exact")
        for a, b in zip(lo.entries, hi.entries):
            assert a.witness is not None
            assert a.witness <= b.witness

    def test_derivation_invariance(self):
        # differentiating every term keeps membership one order down
        dseq = FunctionSequence(
            CTX,
            tuple(differentiate(w, CTX.space(1)) for w in self.seq.terms),
        )
        report = check_vanishing(dseq, self.points, 0, arithmetic="exact")
        assert report.holds

    def test_product_absorption(self):
        # multiplying by an arbitrary smooth sequence preserves vanishing
        other = parse_expression("1 + x^2", CTX)
        prod = FunctionSequence(
            CTX, tuple(simplify(w * other) for w in self.seq.terms)
        )
        before = check_vanishing(self.seq, self.points, 1, arithmetic="exact")
        after = check_vanishing(prod, self.points, 1, arithmetic="exact")
        assert after.holds
        for a, b in zip(before.entries, after.entries):
            assert b.witness <= a.witness or b.witness == a.witness

    def test_sum_stays_in(self):
        other = model([0, F(1, 2)], [3, 4])
        total = FunctionSequence(
            CTX,
            tuple(simplify(a + b) for a, b in zip(self.seq.terms, other.terms)),
        )
        assert check_vanishing(total, self.points, 1, arithmetic="exact").holds


class TestDiagonalProbe:
    def test_smooth_function_with_flat_points(self):
        psi = spow(ssum([X, Const(F(-1, 2))]), 3)
        ok, _ = diagonal_probe(CTX, psi, [(F(1, 2),)], 2)
        assert ok

    def test_x_fails_membership(self):
        # the identity function is nonzero off the origin, so the constant
        # sequence (x, x, ...) has no witness at generic points
        ok, report = diagonal_probe(CTX, X, [(F(1, 2),)], 0)
        assert not ok
        assert report.entries[0].witness is None

    def test_x_fails_even_at_its_zero_for_order_one(self):
        ok, _ = diagonal_probe(CTX, X, [(F(0) + F(1, 2) - F(1, 2),)], 1)
        assert not ok


class TestClosure:
    BOX = ((F(0), F(1)),)

    def c(self, *xs):
        return SingularityComplement(tuple((F(x),) for x in xs), self.BOX)

    def test_closed_family(self):
        fam = [
            self.c(F(1, 2), F(1, 4)),
            self.c(F(1, 2), F(3, 4)),
            self.c(F(1, 2)),
        ]
        assert family_closure_check(fam).closed

    def test_open_family(self):
        report = family_closure_check(
            [self.c(F(1, 4)), self.c(F(3, 4))]
        )
        assert not report.closed
        missing = [p for p in report.pairs if p[2] is None]
        assert missing

    def test_point_outside_box_rejected(self):
        with pytest.raises(ValueError):
            SingularityComplement(((F(2),),), self.BOX)


class TestVerifySolution:
    TRANSPORT = """
dim: 1
vars: x
order: 1
domain: (0,1)
eq: u_x - u
"""

    def test_constructed_sequence_passes_exactly(self):
        op = parse_pde_text(self.TRANSPORT)
        seq = construct_sequence(
            op, [(F(1, 4),), (F(3, 4),)], [1, 2], seed={(1, (0,)): 1}
        )
        result = verify_solution(op, seq)
        assert result.passed
        assert result.arithmetic == "exact"
        assert not result.failures

    def test_exact_label_from_pass_fail_evaluations(self):
        # from the 11th point on, the witness scan evaluates earlier stages
        # inside a bump's transition annulus; that must neither downgrade
        # the label nor raise in exact mode
        op = parse_pde_text(
            "dim: 2\nvars: x y\norder: 2\ndomain: (0,1) (0,1)\n"
            "eq: u_xx + u_yy - 1 - x*y\n"
        )
        pts = DensePointStream(op.domain).prefix(11)
        seq = construct_sequence(op, pts, [0] * 11)
        for arithmetic in ("auto", "exact"):
            result = verify_solution(op, seq, arithmetic=arithmetic)
            assert result.passed
            assert result.arithmetic == "exact"

    def test_error_sequence_shape(self):
        op = parse_pde_text(self.TRANSPORT)
        seq = construct_sequence(op, [(F(1, 4),)], [1])
        errs = error_sequence(op, seq)
        assert len(errs) == 1
        assert errs[0].truncation == 0

    def test_broken_stage_fails_with_location(self):
        op = parse_pde_text(self.TRANSPORT)
        seq = construct_sequence(
            op, [(F(1, 4),), (F(3, 4),)], [1, 1], seed={(1, (0,)): 1}
        )
        # sabotage: store the jet of x^2 at (1/4,) in stage 1
        stage = seq.stages[1]
        a = (F(1, 4),)
        values = (F(1, 16), F(1, 2), F(2))
        wrong = Jet(1, 1, 2, {(1, MultiIndex((k,))): v for k, v in enumerate(values)})
        broken = DiscreteSolve({**stage.jets, a: wrong}, stage.bumps, stage.level, stage.polynomials)
        from densepde.construct import SolutionSequence

        bad = SolutionSequence(
            op, seq.points, seq.orders, (seq.stages[0], broken)
        )
        result = verify_solution(op, bad)
        assert not result.passed
        f = result.failures[0]
        assert f.stage == 1
        assert f.point == (F(1, 4),)

    def test_no_symbolic_derivative_taken(self, monkeypatch, lewy_two_stages):
        # Taylor-mode verification reads every D^p off truncated series
        op, seq = lewy_two_stages
        calls = []
        real = verify_module.differentiate

        def counting(expr, var):
            calls.append(var)
            return real(expr, var)

        monkeypatch.setattr(verify_module, "differentiate", counting)
        monkeypatch.setattr(expr_module, "differentiate", counting)
        assert verify_solution(op, seq).passed
        assert calls == []

    def test_failures_ordered_and_reported(self, lewy_two_stages):
        # shift v_x (equation 1) and v_y (equation 2) at every point of
        # both stages, so both equations fail at both stages
        op, seq = lewy_two_stages
        data = sequence_to_json(seq)
        for stage in data["stages"]:
            for jet in stage["jets"]:
                for key in ("1;(1,0,0)", "1;(0,1,0)"):
                    jet["values"][key] = str(F(jet["values"][key]) + 1)
        result = verify_solution(op, sequence_from_json(data))
        assert not result.passed
        keys = [
            (f.equation, f.stage, seq.points.index(f.point), f.index.grlex_key())
            for f in result.failures
        ]
        assert keys == sorted(set(keys))
        assert {(k[0], k[1]) for k in keys} == {(1, 0), (1, 1), (2, 0), (2, 1)}
        for f in result.failures:
            entry = next(
                e for e in result.reports[f.equation - 1].entries
                if e.point == f.point
            )
            assert Failure(f.stage, f.index, f.value) in entry.failures

    def test_unknown_arithmetic_rejected(self):
        op = parse_pde_text(self.TRANSPORT)
        seq = construct_sequence(op, [(F(1, 4),)], [1])
        with pytest.raises(ValueError):
            verify_solution(op, seq, arithmetic="rational")

    def test_empty_sequence_is_degenerate_pass(self):
        op = parse_pde_text(self.TRANSPORT)
        from densepde.construct import SolutionSequence

        empty = SolutionSequence(op, (), (), ())
        result = verify_solution(op, empty)
        assert result.passed and result.degenerate
