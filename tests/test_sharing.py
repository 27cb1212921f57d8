"""Each point's jet is stored, parsed and expanded once.

Stage nu of a constructed sequence holds at each of its points the
truncation of stage nu + 1's jet there.  A dump stores such a jet as
null, a load parses each stored record once and gives the stages of one
level the same Jet, and verify builds the series of the piece that
holds a point once per piece.  A record stored in place of a null is still judged on its own.
"""

import contextlib
import copy
import functools
import io
import json
from fractions import Fraction

import pytest

from densepde import construct as construct_module
from densepde import manifest as manifest_module
from densepde import ranges, taylor
from densepde.cli import main
from densepde.construct import (
    DensePointStream, DiscreteSolve, SolutionSequence, construct_sequence,
)
from densepde.jets import Jet, parse_pde_text
from densepde.manifest import sample_grid, sequence_from_json, sequence_to_json, write_json
from densepde.multiindex import MultiIndex
from densepde.ranges import range_condition_check
from densepde.systems import lewy_operator
from densepde.verify import verify_solution

POISSON = """dim: 2
vars: x y
order: 2
domain: (0,1) (0,1)
eq: u_xx + u_yy - 1 - x*y
"""

LAPLACE = """dim: 2
vars: x y
order: 2
domain: (0,1) (0,1)
eq: u_xx + u_yy
"""

EIKONAL = """dim: 2
vars: x y
order: 1
domain: (-1,1) (-1,1)
eq: u_x^2 + u_y^2 - 1 - x^2
"""


@functools.cache
def poisson_manifest() -> dict:
    """Twelve Poisson stages, all at level 1."""
    op = parse_pde_text(POISSON)
    points = DensePointStream(op.domain).prefix(12)
    return sequence_to_json(construct_sequence(op, points, [1] * 12))


@functools.cache
def eikonal_manifest() -> dict:
    """Three eikonal stages at level 1: float jets."""
    op = parse_pde_text(EIKONAL)
    points = DensePointStream(op.domain).prefix(3)
    return sequence_to_json(construct_sequence(op, points, [1, 1, 1]))


def test_a_load_parses_each_distinct_jet_once(monkeypatch):
    calls = []
    parse = manifest_module.jet_from_json
    monkeypatch.setattr(
        manifest_module, "jet_from_json", lambda *args: calls.append(args) or parse(*args)
    )
    seq = sequence_from_json(copy.deepcopy(poisson_manifest()))
    assert len(calls) == 12
    # stage nu holds stage nu - 1's jets themselves
    for before, after in zip(seq.stages, seq.stages[1:]):
        assert all(after.jets[a] is jet for a, jet in before.jets.items())


def test_verify_expands_each_distinct_centre_jet_once(monkeypatch):
    seq = sequence_from_json(copy.deepcopy(poisson_manifest()))
    centres = []
    expand = DiscreteSolve.component_series

    def counted(self, point, order, mode="auto"):
        if point in self.jets:
            centres.append(point)
        return expand(self, point, order, mode)

    monkeypatch.setattr(DiscreteSolve, "component_series", counted)
    assert verify_solution(seq.operator, seq).passed
    assert sorted(centres) == sorted(seq.points)


@pytest.mark.parametrize("scheme", ["dyadic", "diagonal"])
def test_verify_binds_each_piece_once(monkeypatch, scheme):
    """48 homogeneous Laplace stages at level 1: every stage vanishes at
    every later point, so the witness scan reads all 1,128 (stage, later
    point) pairs.  A point that no support holds is bound without a
    series, and the stages that share the piece holding a point share its
    bindings, so at most one series per stage is read off a piece."""
    op = parse_pde_text(LAPLACE)
    points = DensePointStream(op.domain, scheme).prefix(48)
    seq = construct_sequence(op, points, [1] * 48)
    off_centre = []
    expand = DiscreteSolve.component_series

    def counted(self, point, order, mode="auto"):
        if point not in self.jets:
            off_centre.append(point)
        return expand(self, point, order, mode)

    monkeypatch.setattr(DiscreteSolve, "component_series", counted)
    assert verify_solution(op, seq).passed
    assert len(off_centre) <= seq.stage_count


def test_grid_samples_leave_verify_its_nearest_centres(monkeypatch):
    """A grid of 1,600 points passes through the bump scan that the
    stages share, which keeps 1,024 points; verify after it still finds
    each sequence point's nearest centres once."""
    op = parse_pde_text(LAPLACE)
    seq = construct_sequence(op, DensePointStream(op.domain).prefix(48), [1] * 48)
    assert len(sample_grid(seq, 40).splitlines()) == 1601
    made = []
    init = construct_module._Nearest.__init__
    monkeypatch.setattr(
        construct_module._Nearest, "__init__",
        lambda self, point: made.append(point) or init(self, point),
    )
    assert verify_solution(op, seq).passed
    assert len(made) <= seq.stage_count


def test_the_equations_of_a_bound_series_share_their_conversions(monkeypatch):
    """The Lewy system ranged at 2 points to level 5 and constructed at 3
    points at levels 3, 4 and 5 (the seed-0 lewy-deep pipeline).  Its two
    equations read 4 jet variables each, v_z and w_z in both, so each of
    the 23 _bound_series calls converts 6 bindings, not 8."""
    counts = {"calls": 0, "conversions": 0}
    bound, convert = ranges._bound_series, taylor._IntegerWalk.jet

    def counted_call(*args):
        counts["calls"] += 1
        return bound(*args)

    def counted_conversion(self, v):
        counts["conversions"] += 1
        return convert(self, v)

    monkeypatch.setattr(ranges, "_bound_series", counted_call)
    monkeypatch.setattr(taylor._IntegerWalk, "jet", counted_conversion)
    op = lewy_operator()
    points = DensePointStream(op.domain).prefix(3)
    assert range_condition_check(op, points[:2], 5).all_ok
    construct_sequence(op, points, [3, 4, 5])
    assert counts == {"calls": 23, "conversions": 138}


def test_a_dump_stores_one_record_per_point():
    """Every stage truncates one solve per point, so every earlier
    stage's entry is null, at one level or across levels."""
    raw = poisson_manifest()
    assert [jet is None for jet in raw["stages"][-1]["jets"]] == [False] * 12
    assert all(jet is None for stage in raw["stages"][:-1] for jet in stage["jets"])
    op = parse_pde_text(POISSON)
    points = DensePointStream(op.domain).prefix(4)
    raw = sequence_to_json(construct_sequence(op, points, [0, 1, 1, 2]))
    assert [sum(jet is not None for jet in stage["jets"]) for stage in raw["stages"]] == [0, 0, 0, 4]


def test_dumped_records_are_independent():
    raw = copy.deepcopy(poisson_manifest())
    before = copy.deepcopy(raw)
    jet = raw["stages"][11]["jets"][5]
    jet["values"]["1;(0,0)"] = "7"
    jet["order"] = 9
    changed = [
        (nu, i)
        for nu, (old, new) in enumerate(zip(before["stages"], raw["stages"]))
        for i, (a, b) in enumerate(zip(old["jets"], new["jets"]))
        if a != b
    ]
    assert changed == [(11, 5)]


def with_first_jets(seq, *jets):
    """`seq` with the jets at z_0 of its first stages replaced by `jets`."""
    stage_jets = [dict(stage) for stage in seq.jets]
    for stage, jet in zip(stage_jets, jets):
        stage[seq.points[0]] = jet
    return SolutionSequence(seq.operator, seq.points, seq.orders, stage_jets)


@pytest.mark.parametrize("convert", [
    lambda v: -0.0 if v == 0 else v, Fraction,
], ids=["negative-zero", "exact"])
def test_a_jet_unlike_the_later_truncation_is_stored(convert):
    """A stage jet is stored as a record unless it loads back, bit for bit
    and of the same types, as the next stage's truncation: -0.0 against
    0.0 and exact against float values differ."""
    op = parse_pde_text(EIKONAL)
    seq = construct_sequence(op, DensePointStream(op.domain).prefix(2), [0, 1])
    first = seq.points[0]
    later = seq.stages[1].jets[first].truncate(op.order)
    assert later.values[(1, MultiIndex((0, 0)))] == 0.0
    jet = Jet(2, 1, op.order, {c: convert(v) for c, v in later.values.items()})
    assert jet == later  # equal values, of other signs or types
    raw = sequence_to_json(with_first_jets(seq, jet))
    assert raw["stages"][0]["jets"][0] is not None
    loaded = sequence_from_json(json.loads(json.dumps(raw)))
    values = loaded.stages[0].jets[first].values
    assert {c: repr(v) for c, v in values.items()} == {c: repr(v) for c, v in jet.values.items()}
    # the unconverted jet is the truncation again: null
    assert sequence_to_json(with_first_jets(seq, later))["stages"][0]["jets"] == [None]


def test_an_exact_jet_under_a_float_one_is_stored():
    """Sharing every value with the next stage's jet is not enough: a float
    jet truncates to float values, so an exact jet under it is stored."""
    op = parse_pde_text(EIKONAL)
    seq = construct_sequence(op, DensePointStream(op.domain).prefix(2), [0, 1])
    first = seq.points[0]
    values = {c: Fraction(v) for c, v in seq.stages[1].jets[first].values.items()}
    values[(1, MultiIndex((2, 0)))] = 0.5
    later = Jet(2, 1, 2, values)
    jet = later.truncate(1)
    assert jet.exact and not later.exact
    raw = sequence_to_json(with_first_jets(seq, jet, later))
    assert raw["stages"][0]["jets"][0]["arithmetic"] == "exact"
    loaded = sequence_from_json(json.loads(json.dumps(raw)))
    assert all(type(v) is Fraction for v in loaded.stages[0].jets[first].values.values())


def verify(raw, tmp_path) -> tuple[int, str]:
    path = str(tmp_path / "sequence.json")
    write_json(path, raw)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main(["verify", path])
    return code, out.getvalue()


def copy_of_stored(raw, nu, i) -> dict:
    """The record the last stage stores at z_i, stored again in stage nu
    in place of its null."""
    assert raw["stages"][nu]["jets"][i] is None
    record = raw["stages"][nu]["jets"][i] = copy.deepcopy(raw["stages"][-1]["jets"][i])
    return record


def test_changed_value_in_the_later_copy_fails_there(tmp_path):
    raw = copy.deepcopy(poisson_manifest())
    copy_of_stored(raw, 6, 2)
    values = copy_of_stored(raw, 7, 2)["values"]
    values["1;(2,0)"] = str(Fraction(values["1;(2,0)"]) + 1)
    code, out = verify(raw, tmp_path)
    assert code == 1
    failures = [line for line in out.splitlines() if line.startswith("FAIL: equation")]
    assert failures and all(", stage 7," in line for line in failures)


def test_true_in_the_later_copy_is_rejected(tmp_path):
    raw = copy.deepcopy(poisson_manifest())
    copy_of_stored(raw, 6, 2)
    copy_of_stored(raw, 7, 2)["values"]["1;(0,0)"] = True
    code, out = verify(raw, tmp_path)
    assert code == 2
    assert "stage 7 jet 2: exact value True is not a string" in out


@pytest.mark.parametrize("zero", [-0.0, 0], ids=["negative-zero", "integer-zero"])
def test_equal_json_of_another_type_is_its_own_jet(tmp_path, zero):
    """0.0, -0.0 and 0 are equal in JSON; an earlier copy spelt with one
    of the others is parsed on its own, and the null before it reads it."""
    raw = copy.deepcopy(eikonal_manifest())
    earlier = copy_of_stored(raw, 1, 0)["values"]
    assert repr(earlier["1;(0,0)"]) == "0.0"
    earlier["1;(0,0)"] = zero
    # the value of u is free, so the edited jet still solves the equation
    code, out = verify(raw, tmp_path)
    assert code == 0 and "PASS" in out
    seq = sequence_from_json(raw)
    first, u = seq.points[0], (1, MultiIndex((0, 0)))
    assert seq.stages[0].jets[first] is seq.stages[1].jets[first]
    assert seq.stages[2].jets[first] is not seq.stages[1].jets[first]
    assert repr(seq.stages[1].jets[first].values[u]) == repr(float(zero))
    assert repr(seq.stages[2].jets[first].values[u]) == "0.0"
