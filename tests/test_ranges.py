"""Range analysis: rank certificates and the triangular jet solver."""

import json
import math
from fractions import Fraction as F

import numpy as np
import pytest

from densepde.construct import DensePointStream
from densepde.expr import EvaluationError
from densepde.jets import parse_pde_text, prolong
from densepde.multiindex import MultiIndex
from densepde.newton import damped_newton
from densepde.systems import lewy_operator
from densepde.linalg import residual_floor
from densepde.ranges import (
    NotLinearError,
    _matrices,
    jet_columns,
    linearize,
    range_condition_check,
    rank_condition,
    solve_jets_triangular,
)

TRANSPORT = """
dim: 1
vars: x
order: 1
domain: (0,1)
eq: u_x - u
"""

LAPLACE = """
dim: 2
vars: x y
order: 2
domain: (0,1) (0,1)
eq: u_xx + u_yy - x*y
"""

EIKONAL = """
dim: 2
vars: x y
order: 1
domain: (-1,1) (-1,1)
eq: u_x^2 + u_y^2 - 1 - x^2
"""

# consistent where x = 0 only: level l has rank P = l + 1 < rank Q
SPLIT = """
dim: 1
vars: x
order: 1
domain: (-1,1)
eq: u_x
eq: u_x - x
"""

LOG_BASE = """
dim: 1
vars: x
order: 1
domain: (0,1)
eq: u_x^2 + log(u) - 1
"""

SQRT_BASE = """
dim: 1
vars: x
order: 1
domain: (0,1)
eq: u_x^2 + sqrt(u) - 2
"""

# log(u - 5) and log(-u - 5) are never both defined
NOWHERE_DEFINED = """
dim: 1
vars: x
order: 1
domain: (0,1)
eq: log(u - 5) + log(-u - 5) + u_x
"""

DEGENERATE = """
dim: 1
vars: x
order: 0
domain: (0,1)
eq: 0*u - 1
"""

# u_x^2 = -1 - x has no real root where x > -1: Newton fails at level 0
NEWTON_FAILS = """
dim: 1
vars: x
order: 1
domain: (-1,1)
eq: u_x^2 + 1 + x
"""

# float residuals that grow with the level at x = 1/3
GROWING = """
dim: 1
vars: x
order: 1
domain: (0,1)
eq: u_x - 3*exp(u)*x
"""

# at x = 1/2 levels 0-3 solve in floats and level 4 is inconsistent
LEVEL_FOUR_FAILS = """
dim: 1
vars: x
order: 1
domain: (0,1)
eq: u_x^2 + u - 7*x^3
"""

# at x = 0 both equations read u_x^2 = 0, so level 0 solves with
# u_x = 0; level 1 then asks 2 u_x u_xx = 1, which no u_xx solves
LEVEL_ONE_FAILS = """
dim: 1
vars: x
order: 1
domain: (-1,1)
eq: u_x^2 - x
eq: u_x^2 - x + x^2
"""


def op(text):
    return parse_pde_text(text)


class TestLinearize:
    def test_linear_detected(self):
        assert linearize(prolong(op(LAPLACE), 1)) is not None

    def test_nonlinear_detected(self):
        assert linearize(prolong(op(EIKONAL), 0)) is None

    def test_column_layout(self):
        cols = jet_columns(2, 1, 1)
        assert [(u, p.entries) for u, p in cols] == [
            (1, (0, 0)), (1, (0, 1)), (1, (1, 0)),
        ]


class TestRankCertificate:
    def test_laplace_exact_strict(self):
        cert = rank_condition(op(LAPLACE), (F(1, 2), F(1, 3)), 2)
        assert cert.arithmetic == "exact"
        assert cert.holds and cert.strict
        assert cert.rank_p == cert.rank_q == cert.n_rows == 6

    def test_transport_levels(self):
        for level, rows in [(0, 1), (1, 2), (3, 4)]:
            cert = rank_condition(op(TRANSPORT), (F(1, 2),), level)
            assert cert.holds and cert.strict
            assert cert.rank_p == rows

    def test_degenerate_fails_everywhere(self):
        for x in (F(1, 4), F(1, 2), F(3, 4)):
            cert = rank_condition(op(DEGENERATE), (x,), 0)
            assert not cert.holds
            assert cert.rank_p == 0 and cert.rank_q == 1

    def test_float_point_uses_float_path(self):
        cert = rank_condition(op(LAPLACE), (0.5, 0.25), 1)
        assert cert.arithmetic == "float"
        assert cert.holds
        assert cert.tolerance is not None

    def test_point_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            rank_condition(op(LAPLACE), (F(2), F(1, 2)), 0)

    def test_nonlinear_rejected(self):
        with pytest.raises(NotLinearError):
            rank_condition(op(EIKONAL), (F(0), F(0)), 0)


class TestTriangularSolve:
    def test_transport_with_seed_all_ones(self):
        # pinning u(x0) = 1 forces every derivative to 1 (exponential jet)
        sys = prolong(op(TRANSPORT), 6)
        res = solve_jets_triangular(sys, (F(1, 2),), seed={(1, (0,)): 1})
        assert res.solved and res.arithmetic == "exact"
        for order in range(8):
            assert res.jet.value(1, MultiIndex((order,))) == 1

    def test_unseeded_homogeneous_is_min_norm_zero(self):
        sys = prolong(op(TRANSPORT), 2)
        res = solve_jets_triangular(sys, (F(1, 2),))
        assert res.solved
        assert all(v == 0 for v in res.jet.values.values())

    def test_laplace_exact_residual_zero(self):
        sys = prolong(op(LAPLACE), 2)
        res = solve_jets_triangular(sys, (F(1, 4), F(3, 4)))
        assert res.solved and res.arithmetic == "exact"
        assert res.residual == 0

    def test_quadratic_picks_positive_branch(self):
        sys = prolong(op(EIKONAL), 0)
        res = solve_jets_triangular(sys, (F(0), F(0)))
        assert res.solved
        ux = res.jet.value(1, MultiIndex((1, 0)))
        uy = res.jet.value(1, MultiIndex((0, 1)))
        # smallest-norm root, ties toward the componentwise larger one
        assert ux * ux + uy * uy == pytest.approx(1.0, abs=1e-10)
        assert ux >= 0 and uy >= 0

    def test_eikonal_prolonged_residual(self):
        sys = prolong(op(EIKONAL), 2)
        res = solve_jets_triangular(sys, (F(1, 4), F(1, 4)))
        assert res.solved
        assert res.residual <= 1e-9

    def test_impossible_equation_reports_floor(self):
        impossible = parse_pde_text("""
dim: 1
vars: x
order: 1
domain: (-1,1)
eq: u_x^2 + 1
""")
        res = solve_jets_triangular(prolong(impossible, 0), (F(0),))
        assert not res.solved
        assert res.status == "no-solution"
        assert res.residual >= 0.5

    def test_inconsistent_linear_reports_level(self):
        res = solve_jets_triangular(prolong(op(DEGENERATE), 0), (F(1, 2),))
        assert not res.solved
        assert res.failed_level == 0


class TestRangeReport:
    def test_all_ok_linear(self):
        report = range_condition_check(
            op(LAPLACE), [(F(1, 2), F(1, 2)), (F(1, 4), F(3, 4))], 2
        )
        assert report.all_ok
        data = report.to_json()
        assert data["all_ok"] is True
        assert set(data["points"]) == {"(1/2, 1/2)", "(1/4, 3/4)"}

    def test_failures_reported(self):
        report = range_condition_check(op(DEGENERATE), [(F(1, 2),)], 1)
        assert not report.all_ok
        assert all(e.outcome == "no-solution" for e in report.entries)

    def test_inconsistent_levels(self):
        report = range_condition_check(op(SPLIT), [(F(1, 2),), (F(0),)], 2)
        by_point = {}
        for e in report.entries:
            by_point.setdefault(e.point, []).append(e)
        for level, e in enumerate(by_point[(F(1, 2),)]):
            assert e.outcome == "no-solution"
            assert (e.certificate.rank_p, e.certificate.rank_q) == (level + 1, level + 2)
        # u_x = 0, u_x = 1/2 at level 0: the floor is (1/2) / sqrt(2)
        assert by_point[(F(1, 2),)][0].residual == pytest.approx(0.5 / 2**0.5, rel=1e-12)
        assert all(e.outcome == "no-solution" for e in by_point[(F(0),)][1:])
        assert by_point[(F(0),)][0].outcome == "rank-certified"


class TestRestriction:
    """Every level's certificate is read off one split of the top-level
    system; each must match a fresh computation at that level."""

    CERTIFIED = [
        (lewy_operator(), 3, 1),
        (op(LAPLACE), 2, 2),
        (lewy_operator(), 4, 3),
        (op(LAPLACE), 3, 3),
        (op(SPLIT), 3, 3),
    ]

    @pytest.mark.parametrize("operator,top_level,count", CERTIFIED)
    def test_range_certificates_match_rank_condition(self, operator, top_level, count):
        points = DensePointStream(operator.domain).prefix(count)
        check_certificates(operator, points, top_level)

    @pytest.mark.parametrize("operator", [op(LAPLACE), op(SPLIT)])
    def test_float_certificates_match_rank_condition(self, operator):
        points = DensePointStream(operator.domain).prefix(3)
        check_certificates(operator, [tuple(map(float, x)) for x in points], 2)


class TestPerLevelResults:
    """One solve at the top level reports every lower level exactly as a
    solve of the prolongation to that level does."""

    CASES = [
        (lewy_operator(), 3, DensePointStream(lewy_operator().domain).prefix(2)),
        (op(LAPLACE), 3, DensePointStream(op(LAPLACE).domain).prefix(3)),
        (op(EIKONAL), 3, DensePointStream(op(EIKONAL).domain).prefix(3)),
        (op(NEWTON_FAILS), 2, [(F(-1, 2),)]),
        (op(LEVEL_ONE_FAILS), 2, [(F(0),)]),
        (op(SPLIT), 2, [(F(0),), (F(1, 2),)]),
        (op(GROWING), 4, [(F(1, 3),), (F(1, 2),)]),
        (op(LEVEL_FOUR_FAILS), 4, [(F(1, 2),)]),
    ]

    @pytest.mark.parametrize(
        "operator,top_level,points", CASES,
        ids=[
            "lewy", "laplace", "eikonal", "newton-fails", "level-one-fails",
            "split", "growing", "level-four-fails",
        ],
    )
    def test_levels_match_fresh_solves(self, operator, top_level, points):
        for x in points:
            top = solve_jets_triangular(prolong(operator, top_level), x)
            assert len(top.levels) == top_level + 1
            assert top == top.levels[-1]
            for level, got in enumerate(top.levels):
                fresh = solve_jets_triangular(prolong(operator, level), x)
                assert_same_result(got, fresh)

    def test_failure_repeats_upward(self):
        levels = solve_jets_triangular(prolong(op(LEVEL_ONE_FAILS), 3), (F(0),)).levels
        assert levels[0].solved
        assert [r.status for r in levels[1:]] == ["no-solution"] * 3
        assert {(r.failed_level, r.detail) for r in levels[1:]} == {(1, "inconsistent level")}
        report = range_condition_check(op(LEVEL_ONE_FAILS), [(F(0),)], 2)
        assert [e.outcome for e in report.entries] == ["solved", "no-solution", "no-solution"]
        assert report.entries[1].detail == "inconsistent level"

    def test_exact_operator_rejects_float_seed(self):
        sys = prolong(op(TRANSPORT), 1)
        with pytest.raises(ValueError, match="rational"):
            solve_jets_triangular(sys, (F(1, 2),), seed={(1, (0,)): 0.5})
        # a nonlinear base is solved in floats: a float seed is a start
        res = solve_jets_triangular(prolong(op(EIKONAL), 0), (F(0), F(0)), seed={(1, (1, 0)): 0.5})
        assert res.solved


def assert_same_result(got, fresh):
    assert (got.status, got.arithmetic, got.failed_level, got.detail) == (
        fresh.status, fresh.arithmetic, fresh.failed_level, fresh.detail
    )
    assert got.residual == fresh.residual
    assert type(got.residual) is type(fresh.residual)
    if fresh.jet is None:
        assert got.jet is None
        return
    assert got.jet.order == fresh.jet.order
    assert dict(got.jet.values) == dict(fresh.jet.values)
    assert all(type(v) is type(fresh.jet.values[c]) for c, v in got.jet.values.items())


def check_certificates(operator, points, top_level):
    """Each certificate of range_condition_check, and the residual floor
    of each failing level, equals a fresh computation at that level."""
    report = range_condition_check(operator, points, top_level)
    assert len(report.entries) == len(points) * (top_level + 1)
    for entry in report.entries:
        fresh = rank_condition(operator, entry.point, entry.level)
        assert entry.certificate == fresh
        if fresh.holds:
            assert entry.outcome == "rank-certified"
            continue
        assert entry.outcome == "no-solution"
        split = linearize(prolong(operator, entry.level))
        space = dict(zip(operator.context.space_vars(), entry.point))
        exact = fresh.arithmetic == "exact"
        assert entry.residual == residual_floor(*_matrices(split, space, exact))


class TestNewtonStarts:
    """Starts where the equations cannot be evaluated are failed starts,
    and trial points there shorten the step."""

    @pytest.mark.parametrize("text", [LOG_BASE, SQRT_BASE])
    def test_unevaluable_fill_is_skipped(self, text):
        report = range_condition_check(op(text), [(F(1, 2),)], 1)
        assert [e.outcome for e in report.entries] == ["solved", "solved"]

    def test_no_evaluable_start(self):
        report = range_condition_check(op(NOWHERE_DEFINED), [(F(1, 2),)], 1)
        assert [e.outcome for e in report.entries] == ["solver-failed"] * 2
        assert "could not be evaluated" in report.entries[0].detail
        json.dumps(report.to_json(), allow_nan=False)

    def test_unevaluable_trial_halves_the_step(self):
        # the full Newton step for log(x) = 0 from x = 3 lands at x < 0
        def fun(x):
            if x[0] <= 0:
                raise EvaluationError("log of a non-positive number")
            return np.array([math.log(x[0])])

        result = damped_newton(fun, lambda x: np.array([[1 / x[0]]]), [3.0])
        assert result.converged
        assert result.x[0] == pytest.approx(1.0)

    def test_step_near_overflow(self):
        # |F|^2 and J^T F overflow at x = 0; the norms and the step must not
        big = 1e200
        result = damped_newton(lambda x: [big * x[0] - big], lambda x: [[big]], [0.0])
        assert result.converged and not result.stationary
        assert result.x == [1.0] and result.iterations == 1

    def test_failed_first_evaluation(self):
        def fun(x):
            raise EvaluationError("undefined")

        result = damped_newton(fun, fun, [0.0])
        assert not result.converged and not result.stationary
        assert result.iterations == 0
