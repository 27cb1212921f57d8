"""Correctness gate of the benchmark.

Each check returns a list of failure messages; an empty list passes.  The
equation checks evaluate the workload equations with plain Fraction and
float arithmetic written out here, independent of densepde.expr.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from fractions import Fraction

EIKONAL_TOL = 1e-9
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference_seed0.json")

# ---------------------------------------------------------------------------
# the linear workload equations, written out independently
#
# an equation is (terms, rhs): sum of coef(x) * D^alpha u_unknown = rhs(x),
# with coef and rhs polynomials {exponent tuple: Fraction}


def linear_equations(kind: str, coefficients):
    a, b = coefficients
    if kind == "lewy":
        one, x, y = (0, 0, 0), (1, 0, 0), (0, 1, 0)
        dx, dy, dz = (1, 0, 0), (0, 1, 0), (0, 0, 1)
        v, w = 1, 2
        return [
            ([({one: 1}, v, dx), ({one: -1}, w, dy), ({x: -2}, v, dz), ({y: 2}, w, dz)], {x: a}),
            ([({one: 1}, w, dx), ({one: 1}, v, dy), ({x: -2}, w, dz), ({y: -2}, v, dz)], {y: b}),
        ]
    if kind == "poisson":
        return [([({(0, 0): 1}, 1, (2, 0)), ({(0, 0): 1}, 1, (0, 2))], {(0, 0): a, (1, 1): b})]
    raise ValueError(kind)


BASE_ORDER = {"lewy": 1, "poisson": 2, "eikonal": 1}


def _poly_derivative_at(poly, q, point):
    """(D^q poly)(point) for a polynomial {exponents: coefficient}."""
    total = Fraction(0)
    for exps, c in poly.items():
        if any(e < k for e, k in zip(exps, q)):
            continue
        term = Fraction(c)
        for e, k, xi in zip(exps, q, point):
            term *= math.perm(e, k) * xi ** (e - k)
        total += term
    return total


def _below(p):
    return itertools.product(*(range(k + 1) for k in p))


def _binomial(p, q):
    return math.prod(math.comb(a, b) for a, b in zip(p, q))


def prolonged_residual(equation, p, point, values) -> Fraction:
    """D^p (lhs - rhs) at the point, by the Leibniz rule, from the jet
    values {(unknown, exponent tuple): value}."""
    terms, rhs = equation
    total = -_poly_derivative_at(rhs, p, point)
    for coef, unknown, alpha in terms:
        for q in _below(p):
            dc = _poly_derivative_at(coef, q, point)
            if dc:
                index = tuple(al + pi - qi for al, pi, qi in zip(alpha, p, q))
                total += _binomial(p, q) * dc * values[(unknown, index)]
    return total


def _plain_values(jet):
    return {(u, p.entries): v for (u, p), v in jet.values.items()}


def jet_failures(kind, coefficients, point, jet, where) -> list[str]:
    """Linear workloads: every prolonged equation the jet's order covers
    vanishes exactly.  Eikonal: the base equation holds within tolerance."""
    values = _plain_values(jet)
    if kind == "eikonal":
        c0, c1 = coefficients
        x = float(point[0])
        ux, uy = values[(1, (1, 0))], values[(1, (0, 1))]
        residual = ux * ux + uy * uy - float(c0) - float(c1) * x * x
        if not abs(residual) <= EIKONAL_TOL:
            return [f"{where}: eikonal residual {residual:.3g}"]
        return []
    if not all(isinstance(v, (int, Fraction)) for v in values.values()):
        return [f"{where}: jet of a rational linear problem is not exact"]
    level = jet.order - BASE_ORDER[kind]
    out = []
    for equation_no, equation in enumerate(linear_equations(kind, coefficients), start=1):
        for p in itertools.product(range(level + 1), repeat=len(point)):
            if sum(p) > level:
                continue
            residual = prolonged_residual(equation, p, point, values)
            if residual != 0:
                out.append(f"{where}: equation {equation_no}, D^{p} residual {residual}")
    return out


def sequence_failures(kind, coefficients, seq) -> list[str]:
    out = []
    for nu, stage in enumerate(seq.stages):
        for i, point in enumerate(seq.points[: nu + 1]):
            out += jet_failures(kind, coefficients, point, stage.jets[point], f"stage {nu} point {i}")
    return out


def range_failures(kind, coefficients, report, points, l_max) -> list[str]:
    out = []
    if not report.all_ok:
        out.append("range: not all_ok")
    if len(report.entries) != len(points) * (l_max + 1):
        out.append(f"range: {len(report.entries)} entries for {len(points)} points")
    for e in report.entries:
        where = f"range point {e.point} level {e.level}"
        if kind == "lewy":
            cert = e.certificate
            if cert is None or not cert.strict or cert.rank_p != cert.n_rows:
                out.append(f"{where}: certificate not strict")
        elif e.jet is None:
            out.append(f"{where}: no jet")
        else:
            out += jet_failures(kind, coefficients, e.point, e.jet, where)
    return out


def round_trip_failures(original, loaded) -> list[str]:
    if loaded.points != original.points or loaded.orders != original.orders:
        return ["manifest: points or schedule changed in the round trip"]
    if len(loaded.stages) != len(original.stages):
        return ["manifest: stage count changed in the round trip"]
    out = []
    for nu, (a, b) in enumerate(zip(original.stages, loaded.stages)):
        for point, jet in a.jets.items():
            other = b.jets.get(point)
            if other is None or other.order != jet.order or dict(other.values) != dict(jet.values):
                out.append(f"manifest: stage {nu} jet at {point} changed in the round trip")
    return out


def _in_annulus(point, bump) -> bool:
    t = sum((x - c) ** 2 for x, c in zip(point, bump.center))
    return bump.r_in ** 2 < t < bump.r_out ** 2


def witness_scan_leaves_exact(seq) -> bool:
    """False when some later point lies in the open transition annulus of
    an earlier stage's bump.  verify_solution's witness scan evaluates
    every stage at every point, so there auto mode falls back to float
    even though every jet is rational (a known defect, kept visible
    through verify.exact_label)."""
    for nu, stage in enumerate(seq.stages):
        for point in seq.points[nu + 1 :]:
            if any(_in_annulus(point, bump) for bump in stage.bumps):
                return False
    return True


def verify_failures(result, seq) -> list[str]:
    if not result.passed:
        return [f"verify: FAIL, {len(result.failures)} failure(s)"]
    if not seq.exact:
        allowed = {"float"}
    elif witness_scan_leaves_exact(seq):
        allowed = {"exact"}
    else:
        allowed = {"exact", "float"}
    if result.arithmetic not in allowed:
        return [f"verify: arithmetic {result.arithmetic}, expected {sorted(allowed)}"]
    return []


# ---------------------------------------------------------------------------
# stored seed-0 reference jets


def jets_record(seq) -> list:
    """Per stage, per point, the jet values keyed 'unknown;exponents':
    exact values as strings, float values as numbers."""
    return [
        [
            {
                f"{u};{','.join(map(str, p.entries))}": v if isinstance(v, float) else str(v)
                for (u, p), v in sorted(stage.jets[point].values.items(), key=lambda kv: (kv[0][0], kv[0][1].entries))
            }
            for point in seq.points[: nu + 1]
        ]
        for nu, stage in enumerate(seq.stages)
    ]


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def reference_failures(record, reference) -> list[str]:
    """Exact values must be equal; float values (the eikonal Newton path)
    must agree within 1e-9 relative to max(1, |value|)."""
    if [len(stage) for stage in record] != [len(stage) for stage in reference]:
        return ["reference: stage layout differs"]
    out = []
    for nu, (stage, ref_stage) in enumerate(zip(record, reference)):
        for i, (jet, ref_jet) in enumerate(zip(stage, ref_stage)):
            if jet.keys() != ref_jet.keys():
                out.append(f"reference: stage {nu} point {i} jet coordinates differ")
                continue
            for key, ref in ref_jet.items():
                got = jet[key]
                if isinstance(ref, str):
                    same = isinstance(got, str) and Fraction(got) == Fraction(ref)
                else:
                    same = isinstance(got, float) and abs(got - ref) <= 1e-9 * max(1.0, abs(ref))
                if not same:
                    out.append(f"reference: stage {nu} point {i} {key}: {got} != {ref}")
    return out
