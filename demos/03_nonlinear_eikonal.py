"""The full pipeline on a nonlinear equation, with a manifest round-trip.

The eikonal-type equation (u_x)^2 + (u_y)^2 = 1 + x^2 is smooth and
nonlinear.  The base jets at each point are found by damped Gauss-Newton
with deterministic multistart, which keeps the first root it finds; the
higher-order jets then follow from linear solves, because each
prolongation level is affine in the jets it introduces.
"""

import os
import tempfile

from densepde import (
    DensePointStream,
    construct_sequence,
    load_sequence,
    parse_pde_text,
    sample_grid,
    save_sequence,
    solve_jets_triangular,
    verify_solution,
)
from densepde.jets import prolong
from densepde.printer import point_text

op = parse_pde_text("""
dim: 2
vars: x y
order: 1
domain: (-1,1) (-1,1)
eq: u_x^2 + u_y^2 - 1 - x^2
""")

points = DensePointStream(op.domain).prefix(3)
print("construction points:", [tuple(str(c) for c in p) for p in points])

# one point in detail: solve the jets to level 2
res = solve_jets_triangular(prolong(op, 2), points[0])
print(
    f"jet solve at {point_text(points[0])}: {res.status}, residual {res.residual:.2e}"
)
from densepde import MultiIndex  # noqa: E402

ux = res.jet.values[(1, MultiIndex((1, 0)))]
uy = res.jet.values[(1, MultiIndex((0, 1)))]
print(f"gradient at the point: ({ux:.6f}, {uy:.6f}); |grad|^2 = {ux*ux+uy*uy:.6f}")
# note u itself is not among the equation's jets, so it keeps its
# default 0 -- the information is in the derivatives

# three stages with growing order
seq = construct_sequence(op, points, [0, 1, 2])
result = verify_solution(op, seq, tol=1e-9)
print(
    f"{seq.stage_count} stages, verification "
    f"{'PASS' if result.passed else 'FAIL'} ({result.arithmetic}, tol 1e-9)"
)

# everything needed to re-check the construction fits in one JSON file
with tempfile.TemporaryDirectory() as workdir:
    path = os.path.join(workdir, "eikonal.json")
    save_sequence(path, seq)
    again = load_sequence(path)
print("reloaded manifest verifies:", verify_solution(op, again, tol=1e-9).passed)

# and the glued functions can be sampled on a grid (CSV)
print()
print(sample_grid(seq, 3))

# contrast: an equation with empty ranges.  (u_x)^2 = -1 has no real jet
# at any point; the solver reports the residual floor it ran into.
impossible = parse_pde_text("""
dim: 1
vars: x
order: 1
domain: (-1,1)
eq: u_x^2 + 1
""")
bad = solve_jets_triangular(prolong(impossible, 0), points[0][:1])
print(f"(u_x)^2 = -1: {bad.status}, residual floor {bad.residual:.2f}")
