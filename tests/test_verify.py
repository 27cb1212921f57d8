"""Verifier: vanishing condition, ideal properties at truncation,
probes, closure."""

import itertools
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from densepde import expr as expr_module
from densepde import verify as verify_module
from densepde.construct import (
    BumpScan,
    DensePointStream,
    SolutionSequence,
    construct_sequence,
)
from densepde.expr import (
    Const,
    ExactnessUnavailable,
    Var,
    differentiate,
    simplify,
    spow,
    sprod,
    ssum,
)
from densepde.jets import Jet, parse_pde_text
from densepde.manifest import sequence_from_json, sequence_to_json
from densepde.multiindex import MultiIndex
from densepde.parser import Context, parse_expression
from densepde.systems import lewy_operator
from densepde.verify import (
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
    exhaustive_scan,
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

    def test_series_that_no_one_keeps_are_not_confused(self):
        # each call builds a new series and keeps none: CPython hands a freed
        # dict's address to the next one, so a scan that replayed the values
        # of a series by its bare id() would replay another series' values
        one = {MultiIndex((0,)): F(1)}

        def term_series(mu, i, mode):
            return dict(one) if mu == i else {}

        points = [(F(k, 5),) for k in range(1, 5)]
        report, _ = verify_module._scan([False] * 4, points, 0, "auto", 1e-10, term_series)
        assert [e.witness for e in report.entries] == [1, 2, 3, None]
        _, (_, failing) = verify_module._scan(
            [False] * 4, points, 0, "auto", 1e-10, term_series, [0] * 4
        )
        assert [(mu, i) for mu, i, _, _ in failing] == [(0, 0), (1, 1), (2, 2), (3, 3)]

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
            CTX, tuple(simplify(sprod([w, other])) for w in self.seq.terms)
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
            tuple(simplify(ssum([a, b])) for a, b in zip(self.seq.terms, other.terms)),
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
        # an earlier stage read at a later point may put it inside a bump's
        # transition annulus, where auto mode evaluates in float; that must
        # neither downgrade the label nor raise in exact mode
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
        a = (F(1, 4),)
        values = (F(1, 16), F(1, 2), F(2))
        wrong = Jet(1, 1, 2, {(1, MultiIndex((k,))): v for k, v in enumerate(values)})
        bad = SolutionSequence(
            op, seq.points, seq.orders, (seq.jets[0], {**seq.jets[1], a: wrong})
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
            for jet in filter(None, stage["jets"]):
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
            assert entry.witness is None or entry.witness > f.stage

    def test_unknown_arithmetic_rejected(self):
        op = parse_pde_text(self.TRANSPORT)
        seq = construct_sequence(op, [(F(1, 4),)], [1])
        with pytest.raises(ValueError):
            verify_solution(op, seq, arithmetic="rational")

    def test_empty_sequence_is_degenerate_pass(self):
        # labelled as a non-empty sequence would be, and the arithmetic is
        # checked before the sequence is found empty
        op = parse_pde_text(self.TRANSPORT)
        empty = SolutionSequence(op, (), (), ())
        for arithmetic, label in (("auto", "exact"), ("exact", "exact"), ("float", "float")):
            result = verify_solution(op, empty, arithmetic=arithmetic)
            assert result.passed and result.degenerate
            assert result.arithmetic == label
        with pytest.raises(ValueError):
            verify_solution(op, empty, arithmetic="rational")


# ---------------------------------------------------------------------------
# the backward witness scan against the exhaustive one

OPERATORS = {
    "poisson": "dim: 2\nvars: x y\norder: 2\ndomain: (0,1) (0,1)\neq: u_xx + u_yy - 1 - x*y\n",
    "transport": "dim: 1\nvars: x\norder: 1\ndomain: (0,1)\neq: u_x - u - x\n",
    # G(0) = 0: where an earlier stage is zero near a later point its error
    # term vanishes there too, so the scan reads on below it
    "laplace": "dim: 2\nvars: x y\norder: 2\ndomain: (0,1) (0,1)\neq: u_xx + u_yy\n",
    "homogeneous-transport": "dim: 1\nvars: x\norder: 1\ndomain: (0,1)\neq: u_x - u\n",
}


def _float_stage(jets):
    """A stage's jets with every value a float, so its terms are flagged
    approximate."""
    return {
        a: Jet(j.n, j.k, j.order, {key: float(v) for key, v in j.values.items()})
        for a, j in jets.items()
    }


@st.composite
def staged_sequences(draw):
    """A constructed sequence (1-8 stages, levels 0-2) of one of OPERATORS,
    maybe with one stored jet value perturbed in its manifest (a FAIL
    case) and maybe with one stage's jets in float."""
    name = draw(st.sampled_from(sorted(OPERATORS)))
    op = parse_pde_text(OPERATORS[name])
    schedule = sorted(draw(st.lists(st.integers(0, 2), min_size=1, max_size=8)))
    points = DensePointStream(op.domain).prefix(len(schedule))
    seq = construct_sequence(op, points, schedule, seed={(1, (0,) * op.n): 1})
    if draw(st.booleans()):
        data = sequence_to_json(seq)
        stored = [jet for stage in data["stages"] for jet in stage["jets"] if jet]
        jet = draw(st.sampled_from(stored))
        key = draw(st.sampled_from(sorted(jet["values"])))
        shift = draw(st.sampled_from([F(1), F(-1, 2), F(1, 3)]))
        jet["values"][key] = str(F(jet["values"][key]) + shift)
        seq = sequence_from_json(data)
    if draw(st.booleans()):
        nu = draw(st.integers(0, len(schedule) - 1))
        jets = list(seq.jets)
        jets[nu] = _float_stage(jets[nu])
        seq = SolutionSequence(op, seq.points, seq.orders, jets)
    return op, seq


def _outcome(op, seq, arithmetic):
    try:
        return verify_solution(op, seq, arithmetic=arithmetic)
    except ExactnessUnavailable:
        return ExactnessUnavailable


def _failure_key(f):
    return (f.equation, f.stage, f.point, f.index, f.value)


def assert_reads_a_subset(report, oracle):
    """Same witnesses; each entry's exact flag, and the report's label,
    may only go from float to exact."""
    assert (report.truncation, report.tolerance) == (oracle.truncation, oracle.tolerance)
    assert len(report.entries) == len(oracle.entries)
    for entry, want in zip(report.entries, oracle.entries):
        assert (entry.point, entry.order, entry.witness) == (want.point, want.order, want.witness)
        assert entry.exact or not want.exact
    if report.arithmetic != oracle.arithmetic:
        assert (oracle.arithmetic, report.arithmetic) == ("float", "exact")


class TestBackwardScan:
    @given(staged_sequences(), st.sampled_from(["auto", "exact", "float"]))
    @settings(max_examples=60, deadline=None)
    def test_verify_solution_matches_the_exhaustive_scan(self, case, arithmetic):
        op, seq = case
        result = _outcome(op, seq, arithmetic)
        with mock.patch.object(verify_module, "_scan", exhaustive_scan):
            oracle = _outcome(op, seq, arithmetic)
        if oracle is ExactnessUnavailable or result is ExactnessUnavailable:
            assert result is oracle
            return
        assert (result.passed, result.arithmetic) == (oracle.passed, oracle.arithmetic)
        assert [_failure_key(f) for f in result.failures] == [
            _failure_key(f) for f in oracle.failures
        ]
        assert len(result.reports) == len(oracle.reports)
        for report, want in zip(result.reports, oracle.reports):
            assert_reads_a_subset(report, want)

    @given(
        st.lists(
            st.tuples(st.sampled_from([0, 0, 0, 1, F(1, 3), 0.0, 2.5e-11, 0.5]), st.booleans()),
            min_size=1, max_size=40,
        ),
        st.integers(1, 6),
        st.integers(1, 4),
        st.lists(st.booleans(), min_size=6, max_size=6),
        st.one_of(st.none(), st.lists(st.integers(0, 1), min_size=6, max_size=6)),
        st.sampled_from(["auto", "exact", "float"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_scan_rule_matches_the_exhaustive_scan(
        self, cells, terms, count, approximate, stage_orders, arithmetic
    ):
        # a table of series (order 1 on the line), each term's series at a
        # point maybe the same object as the term above it, as the stages
        # that share a point's bindings give; without stage_orders the
        # check_vanishing rule, with them verify_solution's
        approximate = approximate[:terms]
        points = [(F(k, count + 1),) for k in range(1, count + 1)]
        table, cell = {}, itertools.cycle(cells)
        for i in range(count):
            for mu in range(terms):
                value, same = next(cell)
                if same and mu and approximate[mu] == approximate[mu - 1]:
                    table[(mu, i)] = table[(mu - 1, i)]
                elif value == 0 and not isinstance(value, float):
                    table[(mu, i)] = {}  # an exact zero is left out of a series
                else:
                    table[(mu, i)] = {MultiIndex((1,)): value}

        def term_series(mu, i, mode):
            s = table[(mu, i)]
            return {p: float(c) for p, c in s.items()} if mode == "float" else s

        if stage_orders is not None:
            stage_orders = sorted(stage_orders[:terms])

        def outcome(scan):
            try:
                return scan(
                    approximate, points, 1, arithmetic, 1e-10, term_series, stage_orders
                )
            except ExactnessUnavailable:
                return ExactnessUnavailable

        got, want = outcome(verify_module._scan), outcome(exhaustive_scan)
        if got is ExactnessUnavailable or want is ExactnessUnavailable:
            # every deciding entry is read when stage_orders are given; without
            # them the scan may stop above the inexact one
            assert got is want or (stage_orders is None and got is not ExactnessUnavailable)
            return
        (report, (exact, failing)), (oracle, (oracle_exact, oracle_failing)) = got, want
        assert_reads_a_subset(report, oracle)
        if stage_orders is not None:
            assert (exact, failing) == (oracle_exact, oracle_failing)

    def test_verify_reads_about_one_earlier_stage_per_point(self, monkeypatch):
        # each point's witness is located by the first earlier stage read
        # there, so verify asks the bump scan about once per point, not once
        # per (earlier stage, later point) pair: 276 at N = 24
        op = parse_pde_text(OPERATORS["poisson"])
        n = 24
        seq = construct_sequence(op, DensePointStream(op.domain).prefix(n), [1] * n)
        calls = []
        real = BumpScan.__call__

        def counting(self, point, bumps):
            calls.append(point)
            return real(self, point, bumps)

        monkeypatch.setattr(BumpScan, "__call__", counting)
        result = verify_solution(op, seq)
        assert result.passed and result.arithmetic == "exact"
        assert 0 < len(calls) <= 2 * n
