"""Constructor: dense streams, bumps, Taylor glue, staged sequences."""

import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import reference
from densepde.construct import (
    BumpScan,
    ConstructionError,
    DensePointStream,
    SolutionSequence,
    bump_prefixes,
    construct_sequence,
    make_bumps,
    taylor_from_jet,
)
from densepde import construct, jets, ranges
from densepde.expr import (
    Const,
    Var,
    bump_region,
    differentiate,
    evaluate_exact,
    evaluate_float,
    sprod,
    spow,
    ssum,
)
from densepde.jets import Jet, Point, parse_pde_text
from densepde.manifest import sequence_from_json, sequence_to_json
from densepde.multiindex import MultiIndex, multi_indices
from densepde.parser import Context, parse_expression
from densepde.systems import lewy_operator
from densepde.taylor import derivative, series

UNIT = ((F(0), F(1)),)
UNIT2 = ((F(0), F(1)), (F(0), F(1)))

TRANSPORT = """
dim: 1
vars: x
order: 1
domain: (0,1)
eq: u_x - u
"""


class TestDensePointStream:
    def test_dyadic_prefix_2d(self):
        got = DensePointStream(UNIT2).prefix(4)
        assert got == [
            (F(1, 2), F(1, 2)),
            (F(1, 4), F(1, 4)),
            (F(1, 4), F(3, 4)),
            (F(3, 4), F(1, 4)),
        ]

    def test_points_distinct(self):
        pts = DensePointStream(UNIT2).prefix(40)
        assert len(set(pts)) == 40

    def test_diagonal_distinct_and_inside(self):
        box = ((F(-1), F(1)), (F(0), F(2)))
        pts = DensePointStream(box, "diagonal").prefix(30)
        assert len(set(pts)) == 30
        for p in pts:
            assert all(lo < c < hi for c, (lo, hi) in zip(p, box))

    def test_dyadic_gets_dense(self):
        # every dyadic rational with denominator 8 appears eventually
        pts = set(DensePointStream(UNIT).prefix(7))
        assert {(F(k, 8),) for k in (1, 3, 5, 7)} <= pts

    def test_bad_scheme(self):
        with pytest.raises(ValueError):
            DensePointStream(UNIT, "random")

    def test_scaled_box(self):
        pts = DensePointStream(((F(2), F(4)),)).prefix(1)
        assert pts == [(F(3),)]


class TestBumps:
    CTX = Context(("x",))

    def test_declared_radii(self):
        bumps = make_bumps([(F(1, 4),), (F(3, 4),)], UNIT, self.CTX)
        assert [b.r_out for b in bumps] == [F(1, 8), F(1, 8)]
        assert [b.r_in for b in bumps] == [F(1, 16), F(1, 16)]

    def test_supports_disjoint_and_interior(self):
        pts = [(F(1, 2),), (F(9, 16),), (F(15, 16),)]
        bumps = make_bumps(pts, UNIT, self.CTX)
        for i, a in enumerate(bumps):
            assert a.center[0] - a.r_out > 0
            assert a.center[0] + a.r_out < 1
            for b in bumps[i + 1 :]:
                gap = abs(a.center[0] - b.center[0])
                assert a.r_out + b.r_out < gap

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            make_bumps([(F(1, 2),), (F(1, 2),)], UNIT, self.CTX)

    def test_point_on_boundary_rejected(self):
        with pytest.raises(ValueError):
            make_bumps([(F(0),)], UNIT, self.CTX)

    def test_partition_values(self):
        [b] = make_bumps([(F(1, 2),)], UNIT, self.CTX)
        x = self.CTX.space(1)
        assert evaluate_float(b, {x: 0.5}) == 1.0
        assert evaluate_float(b, {x: 0.95}) == 0.0
        mid = float(b.center[0]) + float(b.r_in + b.r_out) / 2
        assert 0.0 <= evaluate_float(b, {x: mid}) <= 1.0


class TestBumpPrefixes:
    """bump_prefixes gives every prefix the bumps of the per-set loop
    over all pairs (tests/reference.py), Fraction for Fraction."""

    @staticmethod
    def radii(bumps):
        return [(b.center, b.r_in, b.r_out) for b in bumps]

    @pytest.mark.parametrize("box, count", [(UNIT2, 12), (((F(-1), F(1)),) * 3, 10)],
                             ids=["dyadic-2d", "lewy-3d"])
    def test_every_prefix_matches_the_per_set_loop(self, box, count):
        ctx = Context(("x", "y", "z")[: len(box)])
        pts = DensePointStream(box).prefix(count)
        prefixes = bump_prefixes(pts, box, ctx)
        assert len(prefixes) == count
        for nu, bumps in enumerate(prefixes):
            want = self.radii(reference.set_bumps(pts[: nu + 1], box, ctx))
            got = self.radii(bumps)
            assert got == want
            assert all(type(r) is F for _, r_in, r_out in got for r in (r_in, r_out))
        assert self.radii(make_bumps(pts, box, ctx)) == self.radii(prefixes[-1])


@st.composite
def dyadic_point_sets(draw):
    """(points, queries): distinct dyadic points strictly inside the unit
    cube of 1 to 3 dimensions, and more dyadic points of the cube, some
    of them on its boundary."""
    n = draw(st.integers(1, 3))

    def points(count, margin):
        def coordinate():
            scale = 2 ** draw(st.integers(1, 5))
            return F(draw(st.integers(margin, scale - margin)), scale)

        return [tuple(coordinate() for _ in range(n)) for _ in range(count)]

    inside = list(dict.fromkeys(points(draw(st.integers(1, 8)), 1)))
    return inside, points(draw(st.integers(0, 4)), 0)


class TestBumpScan:
    """BumpScan against bump_region, with one scan shared by every prefix
    stage of a point set, as glue shares it."""

    @given(dyadic_point_sets(), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_scan_returns_the_first_bump_that_holds_the_point(self, case, rng):
        pts, others = case
        ctx = Context(("x", "y", "z")[: len(pts[0])])
        prefixes = bump_prefixes(pts, ((F(0), F(1)),) * len(pts[0]), ctx)
        queries = [(bumps, a) for bumps in prefixes for a in pts + others]
        rng.shuffle(queries)
        scan = BumpScan()
        for bumps, a in queries:
            want = next((b for b in bumps if bump_region(b, a) != "outside"), None)
            assert scan(a, bumps) is want


@st.composite
def rational_point_sets(draw):
    """(points, queries) in the unit cube of 1 to 3 dimensions: distinct
    points strictly inside it, and more points of the cube, some of them
    on its boundary.  The coordinates are dyadic, or over denominators
    2 to 12 mixed as the diagonal scheme gives them."""
    n = draw(st.integers(1, 3))
    dyadic = draw(st.booleans())

    def points(count, margin):
        def coordinate():
            scale = 2 ** draw(st.integers(1, 5)) if dyadic else draw(st.integers(2, 12))
            return F(draw(st.integers(margin, scale - margin)), scale)

        return [tuple(coordinate() for _ in range(n)) for _ in range(count)]

    inside = list(dict.fromkeys(points(draw(st.integers(1, 8)), 1)))
    return inside, points(draw(st.integers(0, 4)), 0)


def midpoints(pts):
    """The midpoint of every pair of the points: equidistant from both."""
    return [
        tuple((x + y) / 2 for x, y in zip(a, b))
        for i, a in enumerate(pts) for b in pts[i + 1:]
    ]


class TestIntegerGeometry:
    """bump_prefixes and BumpScan on integer numerators against their
    Fraction references in tests/reference.py."""

    @given(rational_point_sets())
    @settings(max_examples=150, deadline=None)
    def test_bump_prefixes_match_the_fraction_pass(self, case):
        pts, _ = case
        box = ((F(0), F(1)),) * len(pts[0])
        ctx = Context(("x", "y", "z")[: len(pts[0])])
        got = bump_prefixes(pts, box, ctx)
        want = reference.fraction_bump_prefixes(pts, box, ctx)
        assert got == want
        for bumps in got:
            assert all(type(b.center) is Point for b in bumps)
            assert all(type(r) is F for b in bumps for r in (b.r_in, b.r_out))

    @given(rational_point_sets(), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_nearest_centre_scan_matches_the_linear_scan(self, case, rng):
        pts, others = case
        ctx = Context(("x", "y", "z")[: len(pts[0])])
        prefixes = bump_prefixes(pts, ((F(0), F(1)),) * len(pts[0]), ctx)
        queries = [(bumps, a) for bumps in prefixes for a in pts + others + midpoints(pts)]
        rng.shuffle(queries)  # stages in any order, as verify's witness scan may ask
        scan, linear = BumpScan(), reference.LinearBumpScan()
        for bumps, a in queries:
            assert scan(a, bumps) is linear(a, bumps)

    @given(rational_point_sets())
    @settings(max_examples=100, deadline=None)
    def test_a_tie_for_the_nearest_centre_holds_no_bump(self, case):
        pts, _ = case
        ctx = Context(("x", "y", "z")[: len(pts[0])])
        prefixes = bump_prefixes(pts, ((F(0), F(1)),) * len(pts[0]), ctx)
        scan = BumpScan()
        for bumps in prefixes:
            centres = [b.center for b in bumps]
            for z in midpoints(centres):
                d2 = sorted(sum((x - c) ** 2 for x, c in zip(z, a)) for a in centres)
                if d2[0] == d2[1]:
                    assert scan(z, bumps) is None

    def test_a_later_centre_breaks_a_tie(self):
        # (1/2,) ties between 1/4 and 3/4, then lies in the bump of 17/32
        ctx = Context(("x",))
        prefixes = bump_prefixes([(F(1, 4),), (F(3, 4),), (F(17, 32),)], UNIT, ctx)
        z = (F(1, 2),)
        for order in ((1, 2), (2, 1)):
            scan = BumpScan()
            got = {nu: scan(z, prefixes[nu]) for nu in order}
            assert got[1] is None
            assert got[2] is prefixes[2][2]
            assert bump_region(got[2], z) != "outside"


class TestComponentSeries:
    """DiscreteSolve.component_series reads a stage's Taylor series off
    its jets and bumps.  The oracle is taylor.series of the glued stage
    expression: every D^p, |p| <= order, equal and of the same type.  In
    float mode the tree walk keeps explicit 0.0 coefficients, so the
    derivatives are compared, not the dicts."""

    @staticmethod
    def assert_matches_tree(op, seq, mode):
        order = max(seq.orders) + op.order
        exact = mode != "float"
        for stage in seq.stages:
            expressions = stage.functions
            for point in seq.points:
                got = stage.component_series(point, order, mode)
                assert len(got) == len(expressions) == op.k
                for u, e in enumerate(expressions):
                    want = series(e, point, order, mode)
                    for p in multi_indices(op.n, order):
                        a, b = derivative(got[u], p, exact), derivative(want, p, exact)
                        assert a == b and type(a) is type(b), (nu, point, u, p)

    @pytest.mark.parametrize("mode", ["auto", "float"])
    def test_poisson_twelve_points(self, mode):
        op = parse_pde_text(POISSON)
        pts = DensePointStream(op.domain).prefix(12)
        seq = construct_sequence(op, pts, [1] * 12)
        # some later point lies in an earlier bump's support, off its centre
        inside = [
            (nu, a)
            for nu, stage in enumerate(seq.stages)
            for a in pts[nu + 1 :]
            for b in stage.bumps
            if sum((x - c) ** 2 for x, c in zip(a, b.center)) < b.r_out ** 2
        ]
        assert inside
        self.assert_matches_tree(op, seq, mode)

    @pytest.mark.parametrize("mode", ["auto", "float"])
    def test_eikonal_newton_stages(self, mode):
        op = parse_pde_text(EIKONAL)
        pts = DensePointStream(op.domain).prefix(4)
        seq = construct_sequence(op, pts, [1, 1, 2, 2])
        assert not seq.exact
        self.assert_matches_tree(op, seq, mode)

    @pytest.mark.parametrize("mode", ["auto", "float"])
    def test_lewy_two_unknowns(self, mode):
        op = lewy_operator()
        pts = DensePointStream(op.domain).prefix(3)
        seq = construct_sequence(op, pts, [1, 2, 2])
        assert op.k == 2 and seq.exact
        self.assert_matches_tree(op, seq, mode)


class TestTaylor:
    CTX = Context(("x", "y"))

    def test_reproduces_jet(self):
        u = parse_expression("x^3*y + y^2", self.CTX)
        a = (F(1, 3), F(1, 5))
        jet = reference.jet_of_function(u, self.CTX, a, 3)
        [poly] = taylor_from_jet(self.CTX, a, jet)
        back = reference.jet_of_function(poly, self.CTX, a, 3)
        assert back.values == jet.values

    def test_degree_three_polynomial_recovered_exactly(self):
        u = parse_expression("1 + x - y^2 + x*y", self.CTX)
        a = (F(1, 2), F(1, 2))
        [poly] = taylor_from_jet(
            self.CTX, a, reference.jet_of_function(u, self.CTX, a, 2)
        )
        for pt in [(F(0), F(0)), (F(1), F(-1)), (F(2, 7), F(3, 11))]:
            assignment = dict(zip(self.CTX.space_vars(), pt))
            assert evaluate_exact(poly, assignment) == evaluate_exact(
                u, assignment
            )


class TestDiscreteSolve:
    """The last stage of a sequence solves on all its points at its level."""

    def test_transport_glued_solution(self):
        op = parse_pde_text(TRANSPORT)
        pts = [(F(1, 4),), (F(3, 4),)]
        ds = construct_sequence(op, pts, [2] * 2, seed={(1, (0,)): 1}).stages[-1]
        assert ds.exact
        e = ds.functions[0]
        x = op.context.space(1)
        # at each construction point the glued function takes the pinned
        # jet value; off all supports it is exactly zero
        for a in pts:
            assert evaluate_exact(e, {x: a[0]}) == 1
        assert evaluate_exact(e, {x: F(1, 2)}) == 0

    def test_derivative_matches_jet_at_point(self):
        op = parse_pde_text(TRANSPORT)
        a = (F(1, 4),)
        ds = construct_sequence(op, [a], [2], seed={(1, (0,)): 1}).stages[-1]
        e = ds.functions[0]
        ctx = op.context
        d = differentiate(e, ctx.space(1))
        assert evaluate_exact(d, {ctx.space(1): a[0]}) == ds.jets[a].values[(1, MultiIndex((1,)))]

    def test_unsolvable_names_point(self):
        impossible = parse_pde_text("""
dim: 1
vars: x
order: 1
domain: (0,1)
eq: u_x^2 + 1
""")
        with pytest.raises(ConstructionError) as info:
            construct_sequence(impossible, [(F(1, 2),)], [0])
        assert info.value.point == (F(1, 2),)
        assert info.value.result.residual > 0


class TestSequence:
    def test_stages_grow(self):
        op = parse_pde_text(TRANSPORT)
        pts = [(F(1, 4),), (F(3, 4),), (F(1, 8),)]
        seq = construct_sequence(op, pts, [0, 1, 2], seed={(1, (0,)): 1})
        assert seq.stage_count == 3
        assert [len(s.bumps) for s in seq.stages] == [1, 2, 3]
        assert seq.exact

    def test_schedule_must_be_monotone(self):
        op = parse_pde_text(TRANSPORT)
        with pytest.raises(ValueError):
            construct_sequence(op, [(F(1, 4),), (F(3, 4),)], [2, 1])

    @pytest.mark.parametrize("points, orders, message", [
        ([(F(1, 4),), (F(1, 4),)], [1, 1], "duplicate points"),
        ([(F(1, 4),), (F(3, 2),)], [1, 1], "point (3/2) not strictly inside the box"),
        ([(F(1, 4),), (F(1, 4), F(1, 2))], [1, 1], "dimension 2, box dimension 1"),
        ([(F(1, 4),), (F(3, 4),)], [1, 0], "order schedule must be non-decreasing"),
        ([(F(1, 4),), (F(3, 4),)], [1], "points, orders and jets must align"),
    ], ids=["duplicate", "outside", "dimension", "decreasing", "unaligned"])
    def test_sequence_checks_its_inputs(self, points, orders, message):
        # the checks a load and a construction share, made once, when the
        # sequence is built from its jets
        op = parse_pde_text(TRANSPORT)
        jet = Jet(1, 1, 2, {(1, MultiIndex((k,))): F(1) for k in range(3)})
        jets = [{Point(p): jet for p in points[: nu + 1]} for nu in range(len(points))]
        with pytest.raises(ValueError, match=re.escape(message)):
            SolutionSequence(op, [Point(p) for p in points], orders, jets)

    def test_partial_sequence_on_failure(self):
        mixed = parse_pde_text("""
dim: 1
vars: x
order: 1
domain: (0,1)
eq: u_x^2 - 1 + 2*x
""")
        # solvable at x < 1/2 (rhs positive), impossible at x > 1/2
        with pytest.raises(ConstructionError) as info:
            construct_sequence(mixed, [(F(1, 4),), (F(3, 4),)], [0, 0])
        assert info.value.stage == 1
        assert info.value.partial.stage_count == 1


    def test_point_failing_above_level_zero(self):
        # u_x = 0 at x = 0 solves level 0; level 1 asks 2 u_x u_xx = 1
        op = parse_pde_text("""
dim: 1
vars: x
order: 1
domain: (-1,1)
eq: u_x^2 - x
eq: u_x^2 - x + x^2
""")
        with pytest.raises(ConstructionError) as info:
            construct_sequence(op, [(F(0),), (F(1, 2),)], [0, 1])
        assert info.value.stage == 1
        assert info.value.point == (F(0),)
        result = info.value.result
        assert (result.status, result.failed_level, result.detail) == (
            "no-solution", 1, "inconsistent level"
        )
        assert info.value.partial.stage_count == 1
        assert info.value.partial.stages[0].jets[(F(0),)].order == 1


POISSON = """
dim: 2
vars: x y
order: 2
domain: (0,1) (0,1)
eq: u_xx + u_yy - 1 - x*y
"""

EIKONAL = """
dim: 2
vars: x y
order: 1
domain: (-1,1) (-1,1)
eq: u_x^2 + u_y^2 - 1 - x^2
"""


class TestOneSolvePerPoint:
    """The triangular solve reports every level, so each point is solved
    once, however many stages or levels read it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        made = []
        original = ranges.solve_jets_triangular

        def counting(sys, x, *args, **kwargs):
            made.append((sys.level, tuple(x)))
            return original(sys, x, *args, **kwargs)

        for module in (construct, ranges):
            monkeypatch.setattr(module, "solve_jets_triangular", counting)
        return made

    def test_construct(self, calls):
        op = parse_pde_text(POISSON)
        pts = DensePointStream(op.domain).prefix(12)
        seq = construct_sequence(op, pts, [1] * 12)
        assert seq.stage_count == 12
        assert calls == [(1, a) for a in pts]

    def test_construct_solves_at_the_last_level(self, calls):
        op = parse_pde_text(TRANSPORT)
        pts = [(F(1, 4),), (F(3, 4),), (F(1, 8),)]
        seq = construct_sequence(op, pts, [0, 1, 2], seed={(1, (0,)): 1})
        assert calls == [(2, a) for a in pts]
        assert [seq.stages[nu].jets[pts[0]].order for nu in range(3)] == [1, 2, 3]

    def test_nonlinear_range(self, calls):
        op = parse_pde_text(EIKONAL)
        pts = DensePointStream(op.domain).prefix(4)
        report = ranges.range_condition_check(op, pts, 2)
        assert len(report.entries) == 12 and report.all_ok
        assert calls == [(2, a) for a in pts]

    def test_newton_base_compiled_once(self, monkeypatch):
        """The residual and the Jacobian of the Newton base are compiled
        once per operator, however many systems and points solve it."""
        compiled = []
        original = jets.compile_float

        def counting(exprs, variables):
            compiled.append(len(exprs))
            return original(exprs, variables)

        monkeypatch.setattr(jets, "compile_float", counting)
        op = parse_pde_text(EIKONAL)
        pts = DensePointStream(op.domain).prefix(4)
        assert ranges.range_condition_check(op, pts, 2).all_ok
        assert compiled == [1, 2]  # one residual row, two partials
        construct_sequence(op, pts[:3], [0, 1, 1])
        assert compiled == [1, 2]

    @pytest.mark.parametrize(
        "make", [lewy_operator, lambda: parse_pde_text(EIKONAL)], ids=["lewy", "eikonal"]
    )
    def test_base_gradients_taken_once(self, monkeypatch, make):
        """The jet gradient of each equation is taken once per operator,
        by a range check, a construction and the rows of another
        prolongation alike."""
        taken = []
        original = jets.jet_gradient

        def counting(e):
            taken.append(e)
            return original(e)

        monkeypatch.setattr(jets, "jet_gradient", counting)
        op = make()
        pts = DensePointStream(op.domain).prefix(3)
        assert ranges.range_condition_check(op, pts, 2).all_ok
        construct_sequence(op, pts, [0, 1, 2])
        assert len(jets.prolong(op, 1).equations) == op.r * (op.n + 1)
        assert taken == list(op.equations)


class TestStagesGluedWhenRead:
    """A sequence is its jets: construction, dump and load place no bump,
    and the first read of its stages places every prefix's bumps in one
    pass."""

    def test_bumps_placed_once_when_first_read(self, monkeypatch):
        calls = []
        original = construct.bump_prefixes

        def counting(points, box, context):
            calls.append(len(points))
            return original(points, box, context)

        monkeypatch.setattr(construct, "bump_prefixes", counting)
        op = parse_pde_text(POISSON)
        pts = DensePointStream(op.domain).prefix(4)
        seq = construct_sequence(op, pts, [1] * 4)
        loaded = sequence_from_json(sequence_to_json(seq))
        assert calls == []
        assert loaded.stages is loaded.stages
        assert calls == [4]
        assert [len(stage.bumps) for stage in loaded.stages] == [1, 2, 3, 4]


class TestOnePolynomialPerJet:
    """Construction and load expand no jet into its Taylor polynomial;
    reading the glued functions of every stage in order expands each
    (point, jet) once, however many stages glue it."""

    @pytest.fixture
    def expansions(self, monkeypatch):
        made = []
        original = construct.taylor_from_jet

        def counting(context, a, jet):
            made.append((a, jet.order))
            return original(context, a, jet)

        monkeypatch.setattr(construct, "taylor_from_jet", counting)
        return made

    def test_construct_and_load(self, expansions):
        op = parse_pde_text(POISSON)
        pts = DensePointStream(op.domain).prefix(12)
        seq = construct_sequence(op, pts, [1] * 12)
        loaded = sequence_from_json(sequence_to_json(seq))
        assert expansions == []
        built = [stage.functions for stage in seq.stages]
        assert expansions == [(a, 3) for a in pts]
        expansions.clear()
        for nu in range(12):
            assert loaded.stages[nu].functions == built[nu]
        assert expansions == [(a, 3) for a in pts]

    def test_rising_level_expands_again(self, expansions):
        op = parse_pde_text(TRANSPORT)
        pts = [(F(1, 4),), (F(3, 4),), (F(1, 8),)]
        seq = construct_sequence(op, pts, [0, 1, 1], seed={(1, (0,)): 1})
        assert expansions == []
        for stage in seq.stages:
            stage.functions
        assert expansions == [(pts[0], 1), (pts[0], 2), (pts[1], 2), (pts[2], 2)]

    def test_polynomial_unchanged_by_sharing(self):
        # one shared x_i - a_i node per axis: the tree equals the one
        # built with a fresh node in every monomial
        ctx = Context(("x", "y"))
        a = (F(1, 3), F(-1, 2))
        values = {(1, p): F(i + 1, 3) for i, p in enumerate(multi_indices(2, 3))}
        [poly] = taylor_from_jet(ctx, a, Jet(2, 1, 3, values))
        space = ctx.space_vars()
        terms = []
        for (_, p), v in values.items():
            monomial = [Const(v / p.factorial())]
            for axis, count in enumerate(p.entries):
                if count:
                    monomial.append(spow(ssum([Var(space[axis]), Const(-a[axis])]), count))
            terms.append(sprod(monomial))
        assert poly == ssum(terms)

