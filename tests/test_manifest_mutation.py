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


def a_jet(raw, draw):
    stage = draw(st.sampled_from(raw["stages"]))
    return draw(st.sampled_from(stage["jets"]))


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


def edit_key(raw, draw):
    jet = a_jet(raw, draw)
    records = [raw, raw["operator"], raw["stages"][0], jet, jet["values"]]
    record = draw(st.sampled_from(records))
    old = pick(draw, record)
    names = st.sampled_from(["1;(0,0)", "2;(0,0)", "1;(9,0)", "1;(0, 1)", "x", ""])
    new = draw(names | st.just(old + "s"))
    assume(new not in record)
    record[new] = record.pop(old)


EDITS = (
    edit_jet_value, edit_point, edit_order, edit_equation, edit_domain,
    edit_arithmetic, edit_key,
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


@settings(deadline=None, max_examples=50)
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
