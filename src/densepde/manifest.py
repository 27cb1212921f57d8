"""Serialization of staged solution sequences.

A manifest (version 4) stores only what cannot be recomputed: the
operator specification, the points, the level schedule and, per stage
nu, one entry per point z_0..z_nu in ``{"jets": [...]}``.  An entry is
a jet record of order m + l_nu, or ``null``: the truncation to that
order of the point's jet in stage nu + 1 (the last stage has none).  A
dump writes null only where loading it back gives the same values, bit
for bit and of the same types, so a constructed sequence stores one
record per point, all in the last stage.  A load checks the records in
stage order, then fills the nulls from the last stage back, so the
stages of one level share each point's Jet object.

A sequence is these jets (construct.SolutionSequence): the bumps follow
from the points, and the stages are glued from both when first read,
after a load as after a construction, so verification checks the stored
jets themselves; an edited jet still verifies only where it is another
solution.  Loading rejects another version (version 3 repeated every
stage's jets), a field of the wrong JSON type, unknown or missing keys
(top level, operator, stage and jet records), an operator whose dim
differs from its number of variables or domain intervals, a decreasing
or negative level schedule, a stage count other than the point count, a
stage without exactly one entry per stage point, a null in the last
stage, a jet whose order is not m + l_nu, a jet value keyed other than
"u;(p_1,...,p_n)" as a dump spells one of the jet's coordinates, a jet
whose values do not match its arithmetic flag (exact: strings, float:
numbers), a float value that is not finite (NaN, an infinity, a number
beyond the float range), and a float jet of an operator whose jets are
exact at every rational point (rational-closed equations, affine in the
base jets), which can only be a downgraded exact claim, and, as a
constructed sequence does, points that repeat, have another dimension
than the box or do not lie strictly inside it; the command line exits 2
on each.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache

from .construct import SolutionSequence, validate_schedule
from .expr import evaluate_float, sprod
from .jets import Jet, PdeOperator, Point
from .multiindex import MultiIndex, multi_indices
from .parser import Context, parse_expression, parse_rational
from .printer import to_text
from .ranges import jet_to_json, solves_exactly

FORMAT = "densepde-sequence"
VERSION = 4

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


_ITEMS = {str: "strings", int: "integers", list: "arrays"}


def _array(where: str, value, item: type | None = None) -> list:
    """`value` when it is a JSON array whose elements are each an `item`
    (str, int or list) when given, a bool being no integer; ValueError
    otherwise."""
    if not isinstance(value, list) or item is not None and not all(
        isinstance(v, item) and not isinstance(v, bool) for v in value
    ):
        kind = f"an array of {_ITEMS[item]}" if item else "an array"
        raise ValueError(f"{where}: expected {kind}, got {json.dumps(value)[:40]}")
    return value


def _parse_value(raw, exact: bool, where: str, key: str) -> Fraction | float:
    if exact:
        if not isinstance(raw, str):
            raise ValueError(f"{where}: exact value {raw!r} is not a string")
        return parse_rational(raw)
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ValueError(f"{where}: float value {raw!r} is not a number")
    if not abs(raw) <= sys.float_info.max:  # NaN, an infinity or a huge integer
        raise ValueError(f"{where}: coordinate {key!r}: {json.dumps(raw)[:40]} is not finite")
    return float(raw)


@lru_cache(maxsize=32)
def _coordinates(n: int, k: int, order: int) -> dict[str, tuple[int, MultiIndex]]:
    """The coordinates (u, p) of a jet of the given shape, keyed by their
    manifest spelling "u;(p_1,...,p_n)", with multi_indices' objects."""
    return {f"{u};{p}": (u, p) for p in multi_indices(n, order) for u in range(1, k + 1)}


def jet_from_json(n: int, k: int, order: int, data: dict, where: str) -> Jet:
    """The jet a manifest stores at `where`; it must have the given order."""
    _check_keys(where, data, {"order", "arithmetic", "values"})
    if type(data["order"]) is not int:
        raise ValueError(f"{where}: order {json.dumps(data['order'])} is not an integer")
    if data["order"] != order:
        raise ValueError(f"{where}: order {data['order']}, expected {order}")
    if data["arithmetic"] not in ("exact", "float"):
        raise ValueError(f"{where}: unknown arithmetic {data['arithmetic']!r}")
    exact = data["arithmetic"] == "exact"
    if not isinstance(data["values"], dict):
        raise ValueError(f"{where}: values: expected an object")
    coordinates = _coordinates(n, k, order)
    values = {}
    for key, raw in data["values"].items():
        coordinate = coordinates.get(key)
        if coordinate is None:
            raise ValueError(
                f"{where}: coordinate {key!r} is not canonical: expected "
                f"u;(p_1,...,p_{n}) with u in 1..{k} and |p| <= {order}"
            )
        values[coordinate] = _parse_value(raw, exact, where, key)
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
    for key, item in (("vars", str), ("unknowns", str), ("domain", list), ("equations", str)):
        _array(f"operator: {key}", data[key], item)
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


def _loads_as_truncation(jet: Jet, later: Jet, order: int) -> bool:
    """Whether `jet`, stored in a stage of jet order `order`, would load
    as the truncation of `later`, bit for bit and of the same types: it
    holds `later`'s value objects under one arithmetic.  An equal jet of
    other value objects is stored, and loads back as it is."""
    if jet is later:
        return True
    if jet.order != order or order > later.order or jet.exact != later.exact:
        return False
    return all(v is later.values[c] for c, v in jet.values.items())


def sequence_to_json(seq: SolutionSequence) -> dict:
    records = []
    for nu, jets in enumerate(seq.jets):
        later = seq.jets[nu + 1] if nu + 1 < seq.stage_count else {}
        order = seq.operator.order + seq.orders[nu]
        records.append({"jets": [
            None if a in later and _loads_as_truncation(jets[a], later[a], order)
            else jet_to_json(jets[a])
            for a in seq.points[: nu + 1]
        ]})
    return {
        "format": FORMAT,
        "version": VERSION,
        "operator": operator_to_json(seq.operator),
        "points": [[str(c) for c in a] for a in seq.points],
        "orders": list(seq.orders),
        "stages": records,
    }


def sequence_from_json(data: dict) -> SolutionSequence:
    if not isinstance(data, dict) or data.get("format") != FORMAT:
        raise ValueError("not a sequence manifest")
    if data.get("version") != VERSION:
        raise ValueError(f"unsupported manifest version {data.get('version')}")
    _check_keys("manifest", data, _TOP_KEYS, optional={"header"})
    op = operator_from_json(data["operator"])
    points = tuple(
        Point(parse_rational(c) for c in a) for a in _array("points", data["points"], list)
    )
    orders = tuple(validate_schedule(_array("orders", data["orders"], int)))
    if not len(points) == len(orders) == len(_array("stages", data["stages"])):
        raise ValueError("need one level and one stage per point")
    stage_jets = []
    exact_only = None  # solves_exactly(op), decided at the first float jet
    for nu, record in enumerate(data["stages"]):
        _check_keys(f"stage {nu}", record, {"jets"})
        pts = points[: nu + 1]
        if len(_array(f"stage {nu}: jets", record["jets"])) != len(pts):
            raise ValueError(f"stage {nu}: need one jet per stage point")
        jets = {}  # None stands for null
        for i, (a, raw) in enumerate(zip(pts, record["jets"])):
            if raw is not None:
                raw = jet_from_json(op.n, op.k, op.order + orders[nu], raw, f"stage {nu} jet {i}")
            elif nu == len(points) - 1:
                raise ValueError(f"stage {nu} jet {i}: null in the last stage")
            jets[a] = raw
        if not all(jet is None or jet.exact for jet in jets.values()):
            if exact_only is None:
                exact_only = solves_exactly(op)
            if exact_only:
                raise ValueError(
                    f"stage {nu}: float jet, but the operator is solved "
                    "exactly at rational points"
                )
        stage_jets.append(jets)
    # a null is the next stage's jet at the point, truncated: itself at one level
    for nu in reversed(range(len(points) - 1)):
        for a, jet in stage_jets[nu].items():
            if jet is None:
                stage_jets[nu][a] = stage_jets[nu + 1][a].truncate(op.order + orders[nu])
    return SolutionSequence(op, points, orders, stage_jets)


# ---------------------------------------------------------------------------
# files

def write_atomic(path: str, text: str):
    """Write `text` to `path` through a new temp file in the same
    directory, renamed over `path`: a reader sees the old file or the
    new one, never part of one.  The temp file is opened with "x", so it
    is never an existing file, and it is removed on any exception."""
    while True:
        tmp = f"{path}.{os.urandom(6).hex()}.tmp"
        try:
            fh = open(tmp, "x")
            break
        except FileExistsError:
            continue
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_json(path: str, data: dict, header: dict | None = None):
    """Atomic JSON write (write_atomic).  Volatile header fields such as
    timestamps stay in their own top-level block so the payload below is
    byte-reproducible."""
    payload = dict(data)
    if header:
        payload = {"header": header, **payload}
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


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

def sample_grid(seq: SolutionSequence, resolution: int) -> str:
    """CSV samples of the last stage's glued functions on a uniform
    interior grid, the float values evaluate_float gives them.

    A glued function sums bump * polynomial pieces, and at each grid point
    only the piece that holds it (DiscreteSolve.piece) is evaluated: the
    sum's other pieces are exact zeros there.  At a stage point the bump
    is 1, and the polynomial alone is evaluated.  Where no piece holds
    the point every sample is 0.0, and a zero sample is always 0.0, never
    -0.0, whatever sign the piece's polynomial has.

    Header: the space variable names, then ``unknown`` and ``value``.
    One row per grid point per unknown, rows in grid-lexicographic order.
    No field needs quoting: names are letters and digits, values are
    float reprs.
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    ctx, box = seq.operator.context, seq.operator.domain
    stage = seq.stages[-1]
    axes = [
        [lo + (hi - lo) * Fraction(i, resolution + 1) for i in range(1, resolution + 1)]
        for lo, hi in box
    ]
    lines = [",".join([*ctx.space_names, "unknown", "value"])]
    for point in itertools.product(*axes):
        coordinates = [repr(float(c)) for c in point]
        assignment = dict(zip(ctx.space_vars(), point))
        piece = stage.piece(point)
        if piece is None:
            values = [0.0] * ctx.k
        else:
            jet, bump = piece
            polys = stage.polynomials(point if bump is None else bump.center, jet)
            values = [
                0.0 + evaluate_float(poly if bump is None else sprod([bump, poly]), assignment)
                for poly in polys
            ]
        for name, value in zip(ctx.unknown_names, values):
            lines.append(",".join([*coordinates, name, repr(value)]))
    return "\n".join(lines) + "\n"
