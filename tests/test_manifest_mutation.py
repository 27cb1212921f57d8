"""A manifest is a certificate: after one edit, `densepde verify` either
rejects it (exit 2), reports FAIL (exit 1), or reports PASS only for a
manifest that still solves its equations.

"Never PASS after an edit" does not hold: the equations leave some jet
coordinates free (the value and first derivatives of u at the first
point of a Poisson stage), so a manifest with such a coordinate edited is
another valid solution.  A PASS is therefore checked against an
independent symbolic oracle: every row of prolong(op, l_nu), evaluated
with evaluate_at_jet at each jet of stage nu, is zero.
"""

import contextlib
import copy
import functools
import io
import os
import tempfile

import pytest
from hypothesis import assume, given, settings, strategies as st

from densepde.cli import main
from densepde.construct import DensePointStream, construct_sequence
from densepde.jets import parse_pde_text, prolong
from densepde.manifest import load_sequence, sequence_to_json, write_json
from reference import evaluate_at_jet

POISSON = """dim: 2
vars: x y
order: 2
domain: (0,1) (0,1)
eq: u_xx + u_yy - 1 - x*y
"""

# replacements for the equation: equivalent forms, multiples and a
# square (still solved by the stored jets), other operators, an order
# above the declared one and text that does not parse
EQUATIONS = (
    "u_yy + u_xx - y*x - 1",
    "2*(u_xx + u_yy - 1 - x*y)",
    "(u_xx + u_yy - 1 - x*y)^2",
    "u_xx + u_yy - 1",
    "u_xx - u_yy - 1 - x*y",
    "u_xx + u_yy - 1 - x*y + u_x",
    "u_xx*u_yy - 1 - x*y",
    "exp(u_xx) + u_yy - 1 - x*y",
    "u_xxx + u_yy - 1 - x*y",
    "u_xx + (",
)

EIKONAL = """dim: 2
vars: x y
order: 1
domain: (-1,1) (-1,1)
eq: u_x^2 + u_y^2 - 1 - x^2
"""

RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=8).map(str)
# coordinates mostly inside the unit square of the domain, the edges included
COORDINATES = st.fractions(min_value=0, max_value=1, max_denominator=8).map(str)


@functools.cache
def manifest() -> dict:
    """Three Poisson stages at levels 1, 1, 2 on the first dense points."""
    op = parse_pde_text(POISSON)
    points = DensePointStream(op.domain).prefix(3)
    return sequence_to_json(construct_sequence(op, points, [1, 1, 2]))


def pick(draw, items):
    return draw(st.sampled_from(sorted(items)))


def replace_with(draw, record, key, values):
    new = draw(values)
    assume(new != record[key])
    record[key] = new


def entries(raw, stored=True) -> list[tuple[int, int]]:
    """(stage, point index) of every jet record, or of every null."""
    return [
        (nu, i)
        for nu, stage in enumerate(raw["stages"])
        for i, jet in enumerate(stage["jets"])
        if (jet is not None) == stored
    ]


def a_jet(raw, draw):
    nu, i = draw(st.sampled_from(entries(raw)))
    return raw["stages"][nu]["jets"][i]


def edit_jet_value(raw, draw):
    values = a_jet(raw, draw)["values"]
    replace_with(draw, values, pick(draw, values), RATIONALS)


def edit_point(raw, draw):
    point = draw(st.sampled_from(raw["points"]))
    replace_with(draw, point, draw(st.sampled_from([0, 1])), COORDINATES)


def edit_order(raw, draw):
    if draw(st.booleans()):
        record, key = raw["orders"], draw(st.integers(0, len(raw["orders"]) - 1))
    else:
        record, key = a_jet(raw, draw), "order"
    replace_with(draw, record, key, st.integers(-1, 5))


def edit_equation(raw, draw):
    replace_with(draw, raw["operator"]["equations"], 0, st.sampled_from(EQUATIONS))


def edit_domain(raw, draw):
    interval = draw(st.sampled_from(raw["operator"]["domain"]))
    replace_with(draw, interval, draw(st.sampled_from([0, 1])), COORDINATES | RATIONALS)


def edit_arithmetic(raw, draw):
    labels = st.sampled_from(["float", "Exact", "rational", ""])
    replace_with(draw, a_jet(raw, draw), "arithmetic", labels)


def edit_record_to_null(raw, draw):
    nu, i = draw(st.sampled_from(entries(raw)))
    raw["stages"][nu]["jets"][i] = None


def edit_null_to_record(raw, draw):
    """A null becomes another stage's record: as it is, or truncated to
    the null's stage order, so that it loads, with one value replaced."""
    nu, i = draw(st.sampled_from(entries(raw, stored=False)))
    record = raw["stages"][nu]["jets"][i] = copy.deepcopy(a_jet(raw, draw))
    if draw(st.booleans()):
        record["order"] = order = raw["operator"]["order"] + raw["orders"][nu]
        values = record["values"] = {
            key: value for key, value in record["values"].items()
            if sum(int(e) for e in key.split(";")[1].strip("()").split(",")) <= order
        }
        replace_with(draw, values, pick(draw, values), RATIONALS)


def edit_key(raw, draw):
    jet = a_jet(raw, draw)
    records = [raw, raw["operator"], raw["stages"][0], jet, jet["values"]]
    record = draw(st.sampled_from(records))
    old = pick(draw, record)
    names = st.sampled_from([
        "1;(0,0)", "2;(0,0)", "3;(0,0)", "1;(9,0)", "1;(0, 1)", "x", "",
        "1", "1;(a,b)", "1;(0,0);2",
    ])
    new = draw(names | st.just(old + "s"))
    assume(new not in record)
    record[new] = record.pop(old)


EDITS = (
    edit_jet_value, edit_point, edit_order, edit_equation, edit_domain,
    edit_arithmetic, edit_key, edit_record_to_null, edit_null_to_record,
)


def verify_exit_code(path) -> int:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        return main(["verify", path])


def solves_symbolically(path) -> bool:
    seq = load_sequence(path)
    op = seq.operator
    for nu, (stage, level) in enumerate(zip(seq.stages, seq.orders)):
        rows = prolong(op, level).equations.values()
        for z in seq.points[: nu + 1]:
            jet = stage.jets[z]
            if any(evaluate_at_jet(e, op.context, z, jet) != 0 for e in rows):
                return False
    return True


def test_unedited_manifest_passes():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sequence.json")
        write_json(path, manifest())
        assert verify_exit_code(path) == 0
        assert solves_symbolically(path)


@settings(deadline=None, max_examples=65)
@given(st.sampled_from(EDITS), st.data())
def test_one_edit_passes_only_a_solution(edit, data):
    raw = copy.deepcopy(manifest())
    edit(raw, data.draw)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sequence.json")
        write_json(path, raw)
        code = verify_exit_code(path)
        assert code in (0, 1, 2)
        if code == 0:
            assert solves_symbolically(path)


@pytest.mark.parametrize("key", ["1", "1;(a,b)", "1;(0,0);2", "3;(0,0)", "1;(-1,0)", "1;(0, 1)"])
def test_malformed_coordinate_names_its_jet_and_key(key):
    # the operator has one unknown, so "3;(0,0)" is out of range
    raw = copy.deepcopy(manifest())
    nu, i = entries(raw)[0]
    values = raw["stages"][nu]["jets"][i]["values"]
    values[key] = values.pop("1;(0,1)")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sequence.json")
        write_json(path, raw)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            assert main(["verify", path]) == 2
    assert f"error: stage {nu} jet {i}: coordinate {key!r} is not canonical" in out.getvalue()


@pytest.mark.parametrize("token, shown", [
    ("NaN", "NaN"), ("Infinity", "Infinity"), ("-Infinity", "-Infinity"),
    ("1e400", "Infinity"), ("1" + "0" * 400, "1" + "0" * 39),
])
def test_non_finite_float_value_names_its_jet_and_coordinate(token, shown):
    # Python's json reads each token, 1e400 as inf and the last as an int
    # beyond the float range; u is free in the eikonal equation, so
    # verification alone would pass the edit
    op = parse_pde_text(EIKONAL)
    raw = sequence_to_json(construct_sequence(op, DensePointStream(op.domain).prefix(2), [1, 1]))
    values = raw["stages"][1]["jets"][1]["values"]
    assert type(values["1;(0,0)"]) is float
    values["1;(0,0)"] = "edited"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sequence.json")
        write_json(path, raw)
        with open(path) as fh:
            text = fh.read().replace('"edited"', token)
        with open(path, "w") as fh:
            fh.write(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            assert main(["verify", path]) == 2
    message = out.getvalue()
    assert f"error: stage 1 jet 1: coordinate '1;(0,0)': {shown} is not finite" in message
    assert "PASS" not in message
