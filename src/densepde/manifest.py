"""Serialization of staged solution sequences.

A manifest (version 3) stores only what cannot be recomputed: the
operator specification, the points, the level schedule and, per stage,
the solved jet at each of its points.  Each stage record is exactly
``{"jets": [...]}``: stage nu holds the jets at z_0..z_nu at level l_nu,
in point order.  The bumps, the Taylor polynomials and the glued
functions are rebuilt on load by the same routine that built them
(``construct.glue``), so any edit to a stored jet shows up as a
verification failure.  Loading rejects unknown or missing keys (top
level, operator, stage and jet records), an operator whose dim differs
from its number of variables or domain intervals, a stage count other
than the point count, a stage without exactly one jet per stage point, a
jet whose order is not m + l_nu, a jet whose values do not match its
arithmetic flag (exact: strings, float: numbers), and a float jet of an
operator whose jets are exact at every rational point (rational-closed
equations, affine in the base jets), which can only be a downgraded
exact claim.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import tempfile
from fractions import Fraction
from .construct import SolutionSequence, glue, validate_schedule
from .jets import Jet, PdeOperator
from .multiindex import MultiIndex
from .parser import Context, parse_expression, parse_rational
from .printer import to_text
from .ranges import jet_to_json, solves_exactly

FORMAT = "densepde-sequence"
VERSION = 3

_TOP_KEYS = {"format", "version", "operator", "points", "orders", "stages"}
_OPERATOR_KEYS = {"dim", "vars", "unknowns", "order", "domain", "equations"}


def _check_keys(where: str, record, keys: set, optional: set = frozenset()):
    """Raise ValueError unless `record` is an object with every key in
    `keys`, any of `optional`, and nothing else."""
    if not isinstance(record, dict):
        raise ValueError(f"{where}: expected an object")
    if not keys <= set(record) <= keys | optional:
        raise ValueError(
            f"{where}: keys {sorted(record)}, expected {sorted(keys)}"
        )


def _parse_value(raw, exact: bool, where: str) -> Fraction | float:
    if exact:
        if not isinstance(raw, str):
            raise ValueError(f"{where}: exact value {raw!r} is not a string")
        return parse_rational(raw)
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ValueError(f"{where}: float value {raw!r} is not a number")
    return float(raw)


def jet_from_json(n: int, k: int, order: int, data: dict, where: str) -> Jet:
    """The jet a manifest stores at `where`; it must have the given order."""
    _check_keys(where, data, {"order", "arithmetic", "values"})
    if data["order"] != order:
        raise ValueError(f"{where}: order {data['order']}, expected {order}")
    if data["arithmetic"] not in ("exact", "float"):
        raise ValueError(f"{where}: unknown arithmetic {data['arithmetic']!r}")
    exact = data["arithmetic"] == "exact"
    values = {}
    for key, raw in data["values"].items():
        unknown_text, index_text = key.split(";")
        entries = tuple(int(t) for t in index_text.strip("()").split(","))
        unknown, p = int(unknown_text), MultiIndex(entries)
        if f"{unknown};{p}" != key:
            raise ValueError(f"{where}: coordinate {key!r} is not canonical")
        values[(unknown, p)] = _parse_value(raw, exact, where)
    return Jet(n, k, order, values)


def operator_to_json(op: PdeOperator) -> dict:
    ctx = op.context
    return {
        "dim": ctx.n,
        "vars": list(ctx.space_names),
        "unknowns": list(ctx.unknown_names),
        "order": op.order,
        "domain": [[str(lo), str(hi)] for lo, hi in op.domain],
        "equations": [to_text(g) for g in op.equations],
    }


def operator_from_json(data: dict) -> PdeOperator:
    _check_keys("operator", data, _OPERATOR_KEYS)
    dim = data["dim"]
    if type(dim) is not int or not dim == len(data["vars"]) == len(data["domain"]):
        raise ValueError(
            f"operator: dim {dim!r}, but {len(data['vars'])} variable(s) "
            f"and {len(data['domain'])} domain interval(s)"
        )
    ctx = Context(tuple(data["vars"]), tuple(data["unknowns"]))
    equations = tuple(parse_expression(t, ctx) for t in data["equations"])
    domain = tuple(
        (parse_rational(lo), parse_rational(hi)) for lo, hi in data["domain"]
    )
    return PdeOperator(ctx, data["order"], equations, domain)


def sequence_to_json(seq: SolutionSequence) -> dict:
    return {
        "format": FORMAT,
        "version": VERSION,
        "operator": operator_to_json(seq.operator),
        "points": [[str(c) for c in a] for a in seq.points],
        "orders": list(seq.orders),
        "stages": [
            {"jets": [jet_to_json(stage.jets[a]) for a in seq.points[: nu + 1]]}
            for nu, stage in enumerate(seq.stages)
        ],
    }


def sequence_from_json(data: dict) -> SolutionSequence:
    if data.get("format") != FORMAT:
        raise ValueError("not a sequence manifest")
    if data.get("version") != VERSION:
        raise ValueError(f"unsupported manifest version {data.get('version')}")
    _check_keys("manifest", data, _TOP_KEYS, optional={"header"})
    op = operator_from_json(data["operator"])
    ctx = op.context
    points = tuple(tuple(parse_rational(c) for c in a) for a in data["points"])
    orders = tuple(validate_schedule(data["orders"]))
    if not len(points) == len(orders) == len(data["stages"]):
        raise ValueError("need one level and one stage per point")
    stages = []
    exact_only = None  # solves_exactly(op), decided at the first float jet
    for nu, record in enumerate(data["stages"]):
        _check_keys(f"stage {nu}", record, {"jets"})
        pts = points[: nu + 1]
        if len(record["jets"]) != len(pts):
            raise ValueError(f"stage {nu}: need one jet per stage point")
        jets = {
            a: jet_from_json(
                ctx.n, ctx.k, op.order + orders[nu], raw, f"stage {nu} jet {i}"
            )
            for i, (a, raw) in enumerate(zip(pts, record["jets"]))
        }
        if not all(jet.exact for jet in jets.values()):
            if exact_only is None:
                exact_only = solves_exactly(op)
            if exact_only:
                raise ValueError(
                    f"stage {nu}: float jet, but the operator is solved "
                    "exactly at rational points"
                )
        stages.append(glue(op, pts, jets, orders[nu]))
    return SolutionSequence(op, points, orders, tuple(stages))


# ---------------------------------------------------------------------------
# files

def write_json(path: str, data: dict, header: dict | None = None):
    """Atomic JSON write (temp file + rename).  Volatile header fields
    such as timestamps stay in their own top-level block so the payload
    below is byte-reproducible."""
    payload = dict(data)
    if header:
        payload = {"header": header, **payload}
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def save_sequence(path: str, seq: SolutionSequence, header: dict | None = None):
    write_json(path, sequence_to_json(seq), header=header)


def load_sequence(path: str) -> SolutionSequence:
    data = read_json(path)
    return sequence_from_json(data)


# ---------------------------------------------------------------------------
# grid samples

def sample_grid(
    seq_or_stage,
    resolution: int,
    stage: int | None = None,
) -> str:
    """CSV samples of the glued functions on a uniform interior grid.

    Header: the space variable names, then ``unknown`` and ``value``.
    One row per grid point per unknown, rows in grid-lexicographic order.
    """
    if not isinstance(seq_or_stage, SolutionSequence):
        raise TypeError("pass a SolutionSequence")
    if stage is None:
        stage = seq_or_stage.stage_count - 1
    record = seq_or_stage.stages[stage]
    op = seq_or_stage.operator
    ctx, box = op.context, op.domain
    functions = record.functions
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    axes = [
        [lo + (hi - lo) * Fraction(i, resolution + 1) for i in range(1, resolution + 1)]
        for lo, hi in box
    ]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(ctx.space_names) + ["unknown", "value"])
    for point in itertools.product(*axes):
        for name, fn in zip(ctx.unknown_names, functions):
            writer.writerow(
                [repr(float(c)) for c in point]
                + [name, repr(fn.value(point))]
            )
    return out.getvalue()
