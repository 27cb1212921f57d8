"""Serialization of staged solution sequences.

A manifest (version 2) stores only what cannot be recomputed: the
operator specification, the points and level schedule, the solved jet at
each point of each stage, and the bump radii.  The Taylor polynomials and
the glued functions are rebuilt from those data on load, so any tampering
with a stored jet shows up as a verification failure.  Loading rejects
bumps that do not form a valid partition: one per stage point and centred
on it, 0 < r_in < r_out, supports strictly inside the box and pairwise
disjoint.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import tempfile
from fractions import Fraction
from .construct import (
    AssembledFunction,
    BumpFunction,
    DiscreteSolve,
    SolutionSequence,
    taylor_from_jet,
)
from .jets import Jet, PdeOperator
from .multiindex import MultiIndex
from .parser import Context, parse_expression
from .printer import to_text
from .ranges import jet_to_json

FORMAT = "densepde-sequence"
VERSION = 2


def _fraction(text) -> Fraction:
    return Fraction(text)


def jet_from_json(n: int, k: int, data: dict) -> Jet:
    exact = data["arithmetic"] == "exact"
    values = {}
    for key, raw in data["values"].items():
        unknown_text, index_text = key.split(";")
        entries = tuple(int(t) for t in index_text.strip("()").split(","))
        value = Fraction(raw) if exact else float(raw)
        values[(int(unknown_text), MultiIndex(entries))] = value
    return Jet(n, k, data["order"], values)


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
    ctx = Context(tuple(data["vars"]), tuple(data["unknowns"]))
    equations = tuple(parse_expression(t, ctx) for t in data["equations"])
    domain = tuple(
        (Fraction(lo), Fraction(hi)) for lo, hi in data["domain"]
    )
    return PdeOperator(ctx, data["order"], equations, domain)


def sequence_to_json(seq: SolutionSequence) -> dict:
    stages = []
    for nu, stage in enumerate(seq.stages):
        pts = seq.points[: nu + 1]
        stages.append(
            {
                "stage": nu,
                "level": seq.orders[nu],
                "arithmetic": "exact" if stage.exact else "float",
                "points": [[str(c) for c in a] for a in pts],
                "jets": [jet_to_json(stage.jets[a]) for a in pts],
                "bumps": [
                    {
                        "center": [str(c) for c in b.center],
                        "r_in": str(b.r_in),
                        "r_out": str(b.r_out),
                    }
                    for b in stage.bumps
                ],
            }
        )
    return {
        "format": FORMAT,
        "version": VERSION,
        "operator": operator_to_json(seq.operator),
        "points": [[str(c) for c in a] for a in seq.points],
        "orders": list(seq.orders),
        "stages": stages,
    }


def _check_bumps(nu: int, points, bumps, box):
    """Raise ValueError unless the stage's bumps form a partition: one per
    point and centred on it, 0 < r_in < r_out, each closed support strictly
    inside the box, supports pairwise disjoint (checked exactly as
    (r_i + r_j)^2 <= |c_i - c_j|^2)."""
    if [b.center for b in bumps] != list(points):
        raise ValueError(f"stage {nu}: need one bump centred on each point")
    for i, b in enumerate(bumps):
        if not 0 < b.r_in < b.r_out:
            raise ValueError(f"stage {nu} bump {i}: need 0 < r_in < r_out")
        if not all(
            lo < c - b.r_out and c + b.r_out < hi
            for c, (lo, hi) in zip(b.center, box)
        ):
            raise ValueError(f"stage {nu} bump {i}: support leaves the box")
        for j in range(i):
            other = bumps[j]
            d2 = sum((x - y) ** 2 for x, y in zip(b.center, other.center))
            if (b.r_out + other.r_out) ** 2 > d2:
                raise ValueError(f"stage {nu}: bumps {j} and {i} overlap")


def sequence_from_json(data: dict) -> SolutionSequence:
    if data.get("format") != FORMAT:
        raise ValueError("not a sequence manifest")
    if data.get("version") != VERSION:
        raise ValueError(f"unsupported manifest version {data.get('version')}")
    op = operator_from_json(data["operator"])
    ctx = op.context
    points = tuple(
        tuple(_fraction(c) for c in a) for a in data["points"]
    )
    orders = tuple(data["orders"])
    stages = []
    for record in data["stages"]:
        nu = record["stage"]
        pts = points[: nu + 1]
        declared = tuple(
            tuple(_fraction(c) for c in a) for a in record["points"]
        )
        if declared != pts:
            raise ValueError(f"stage {nu} point list disagrees with header")
        jets = {
            a: jet_from_json(ctx.n, ctx.k, j)
            for a, j in zip(pts, record["jets"])
        }
        bumps = [
            BumpFunction(
                ctx,
                tuple(_fraction(c) for c in b["center"]),
                _fraction(b["r_in"]),
                _fraction(b["r_out"]),
            )
            for b in record["bumps"]
        ]
        _check_bumps(nu, pts, bumps, op.domain)
        polys = {a: taylor_from_jet(ctx, a, jets[a]) for a in pts}
        functions = tuple(
            AssembledFunction(
                ctx,
                tuple(
                    (bump, polys[a][unknown]) for bump, a in zip(bumps, pts)
                ),
            )
            for unknown in range(ctx.k)
        )
        stages.append(DiscreteSolve(functions, jets, bumps, record["level"]))
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
