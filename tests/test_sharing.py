"""Equal jets at a point are formatted, parsed and expanded once.

Stage nu of a sequence stores again every jet of stage nu - 1 at its
level.  A dump formats each distinct jet once, a load parses a record
equal to the previous stage's (same JSON types throughout) once, and
verify builds the series at a bump centre once per distinct jet.  An edit
to one copy is still judged on its own.
"""

import contextlib
import copy
import functools
import io
from fractions import Fraction

import pytest

from densepde import manifest as manifest_module
from densepde.cli import main
from densepde.construct import DensePointStream, DiscreteSolve, construct_sequence
from densepde.jets import parse_pde_text
from densepde.manifest import sequence_from_json, sequence_to_json, write_json
from densepde.multiindex import MultiIndex
from densepde.verify import verify_solution

POISSON = """dim: 2
vars: x y
order: 2
domain: (0,1) (0,1)
eq: u_xx + u_yy - 1 - x*y
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


def test_dumped_records_are_independent():
    raw = copy.deepcopy(poisson_manifest())
    before = copy.deepcopy(raw)
    jet = raw["stages"][5]["jets"][0]
    jet["values"]["1;(0,0)"] = "7"
    jet["order"] = 9
    changed = [
        (nu, i)
        for nu, (old, new) in enumerate(zip(before["stages"], raw["stages"]))
        for i, (a, b) in enumerate(zip(old["jets"], new["jets"]))
        if a != b
    ]
    assert changed == [(5, 0)]


def verify(raw, tmp_path) -> tuple[int, str]:
    path = str(tmp_path / "sequence.json")
    write_json(path, raw)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main(["verify", path])
    return code, out.getvalue()


def test_changed_value_in_the_later_copy_fails_there(tmp_path):
    raw = copy.deepcopy(poisson_manifest())
    values = raw["stages"][7]["jets"][2]["values"]
    values["1;(2,0)"] = str(Fraction(values["1;(2,0)"]) + 1)
    code, out = verify(raw, tmp_path)
    assert code == 1
    failures = [line for line in out.splitlines() if line.startswith("FAIL: equation")]
    assert failures and all(", stage 7," in line for line in failures)


def test_true_in_the_later_copy_is_rejected(tmp_path):
    raw = copy.deepcopy(poisson_manifest())
    raw["stages"][7]["jets"][2]["values"]["1;(0,0)"] = True
    code, out = verify(raw, tmp_path)
    assert code == 2
    assert "stage 7 jet 2: exact value True is not a string" in out


@pytest.mark.parametrize("zero", [-0.0, 0], ids=["negative-zero", "integer-zero"])
def test_equal_json_of_another_type_is_its_own_jet(tmp_path, zero):
    """0.0, -0.0 and 0 are equal in JSON; a later copy spelt with one of
    the others is parsed on its own."""
    raw = copy.deepcopy(eikonal_manifest())
    earlier, later = (raw["stages"][nu]["jets"][0]["values"] for nu in (1, 2))
    assert earlier == later and repr(earlier["1;(0,0)"]) == "0.0"
    later["1;(0,0)"] = zero
    # the value of u is free, so the edited jet still solves the equation
    code, out = verify(raw, tmp_path)
    assert code == 0 and "PASS" in out
    seq = sequence_from_json(raw)
    first, u = seq.points[0], (1, MultiIndex((0, 0)))
    assert seq.stages[1].jets[first] is seq.stages[0].jets[first]
    assert seq.stages[2].jets[first] is not seq.stages[1].jets[first]
    assert repr(seq.stages[2].jets[first].values[u]) == repr(float(zero))
