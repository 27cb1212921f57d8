"""Command-line interface and manifest round-trips."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

from densepde.cli import main
from densepde.construct import DensePointStream, construct_sequence
from densepde.jets import parse_pde_text
from densepde.manifest import (
    load_sequence,
    read_json,
    sample_grid,
    save_sequence,
    sequence_from_json,
    sequence_to_json,
    write_atomic,
    write_json,
)
from densepde.multiindex import MultiIndex, multi_indices
from densepde.verify import verify_solution

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TRANSPORT = """dim: 1
vars: x
order: 1
domain: (0,1)
eq: u_x - u
"""

EXPONENTIAL = """dim: 1
vars: x
order: 1
domain: (0,1)
eq: u_x - exp(x)
"""

OVERFLOW = """dim: 1
vars: x
order: 1
domain: (0,1)
eq: u_x - exp(1000*x)
"""

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

LEWY = """dim: 3
vars: x y z
unknowns: v w
order: 1
domain: (-1,1) (-1,1) (-1,1)
eq: v_x - w_y - 2*x*v_z + 2*y*w_z = x
eq: w_x + v_y - 2*x*w_z - 2*y*v_z = y
"""

IMPOSSIBLE = """dim: 1
vars: x
order: 1
domain: (0,1)
eq: u_x^2 + 1
"""


def add_overlapping_bumps(raw):
    """Add v2 bump records to stage 1, both supports reaching 3/4 of the
    way to the other centre."""
    c0, c1 = (F(a[0]) for a in raw["points"])
    r_out = abs(c1 - c0) * F(3, 4)
    raw["stages"][1]["bumps"] = [
        {"center": a, "r_in": str(r_out / 2), "r_out": str(r_out)}
        for a in raw["points"]
    ]


def add_respelled_coordinate(raw):
    """Store one jet value a second time under another spelling of its
    coordinate."""
    values = raw["stages"][1]["jets"][0]["values"]
    key = next(iter(values))
    values[key.replace("(", "( ")] = values[key]


def assert_one_error_line(capsys, message):
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert message in lines[0]


@pytest.fixture
def pde_file(tmp_path):
    path = tmp_path / "transport.pde"
    path.write_text(TRANSPORT)
    return str(path)


class TestManifest:
    def build(self):
        op = parse_pde_text(TRANSPORT)
        return op, construct_sequence(
            op, [(F(1, 4),), (F(3, 4),)], [1, 2], seed={(1, (0,)): 1}
        )

    def test_roundtrip_verifies(self, tmp_path):
        op, seq = self.build()
        path = tmp_path / "seq.json"
        save_sequence(str(path), seq, header={"created": "t"})
        loaded = load_sequence(str(path))
        assert verify_solution(op, loaded).passed
        assert loaded.orders == seq.orders

    def test_payload_deterministic(self):
        _, seq = self.build()
        a = json.dumps(sequence_to_json(seq), sort_keys=True)
        b = json.dumps(sequence_to_json(seq), sort_keys=True)
        assert a == b

    def test_tampered_jet_fails_verification(self, tmp_path):
        op, seq = self.build()
        path = tmp_path / "seq.json"
        save_sequence(str(path), seq)
        raw = read_json(str(path))
        values = raw["stages"][1]["jets"][0]["values"]
        key = sorted(values)[0]
        values[key] = "7/3"
        write_json(str(path), raw)
        result = verify_solution(op, load_sequence(str(path)))
        assert not result.passed

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError):
            sequence_from_json({"format": "something-else"})

    def test_grid_samples_header_and_rows(self):
        _, seq = self.build()
        text = sample_grid(seq, 3)
        lines = text.strip().splitlines()
        assert lines[0] == "x,unknown,value"
        assert len(lines) == 4
        # sample at 1/4 sits on the first bump plateau: value 1
        assert lines[1] == "0.25,u,1.0"

    def test_grid_samples_match_pointwise_values(self):
        op = parse_pde_text(POISSON)
        seq = construct_sequence(op, DensePointStream(op.domain).prefix(3), [1, 1, 1])
        axis = [F(i, 5) for i in range(1, 5)]
        (fn,) = seq.stages[-1].functions
        expected = [
            f"{float(x)!r},{float(y)!r},u,{fn.value((x, y))!r}" for x in axis for y in axis
        ]
        assert sample_grid(seq, 4).splitlines()[1:] == expected


    def test_failed_write_leaves_the_old_file_and_no_temp_file(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("old\n")
        with pytest.raises(TypeError):
            write_atomic(str(path), None)  # fails inside the write
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["samples.csv"]
        write_atomic(str(path), "new\n")
        assert path.read_text() == "new\n"
        assert os.listdir(tmp_path) == ["samples.csv"]

class TestExitCodes:
    def test_range_ok(self, pde_file, capsys):
        assert main(["range", pde_file, "--level", "2", "--count", "2"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_range_math_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.pde"
        bad.write_text("""dim: 1
vars: x
order: 0
domain: (0,1)
eq: 0*u - 1
""")
        assert main(["range", str(bad), "--level", "1"]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_range_failure_prints_the_point_plainly(self, tmp_path, capsys):
        bad = tmp_path / "bad.pde"
        bad.write_text(
            "dim: 2\nvars: x y\norder: 0\ndomain: (-1,1) (-1,1)\neq: 0*u - 1\n"
        )
        assert main(["range", str(bad), "--level", "1"]) == 1
        err = capsys.readouterr().err
        assert "first at point (0, 0) level 0: " in err, err

    def test_point_outside_the_box_prints_the_point_plainly(self, tmp_path, capsys):
        path = tmp_path / "poisson.pde"
        path.write_text(POISSON)
        assert main(["range", str(path), "--points", "2,2", "--level", "1"]) == 2
        assert_one_error_line(capsys, "point (2, 2) outside the domain box")

    def test_negative_operator_order_rejected(self, tmp_path, capsys):
        # a usage error, not a rank deficiency of an operator without jets
        bad = tmp_path / "negative.pde"
        bad.write_text("dim: 1\nvars: x\norder: -1\ndomain: (0,1)\neq: x - 1/2\n")
        for command in ("range", "construct"):
            assert main([command, str(bad)]) == 2
            assert_one_error_line(capsys, "order must be a whole number >= 0, got -1")

    def test_float_overflow_is_clean_error(self, tmp_path):
        path = tmp_path / "overflow.pde"
        path.write_text(OVERFLOW)
        paths = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        proc = subprocess.run(
            [sys.executable, "-m", "densepde.cli", "range", str(path),
             "--level", "0", "--count", "3"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr

    @pytest.mark.parametrize("exponent", [300, 400])
    def test_exact_no_solution_beyond_float_range(self, tmp_path, capsys, exponent):
        # 10^400 does not fit in a float: the exact verdict stands, and the
        # floor, about 10^-400, lies below the positive floats, so it is inf
        # (null in JSON), not 0 and not a traceback
        path = tmp_path / "big.pde"
        path.write_text(
            "dim: 2\nvars: x y\norder: 1\ndomain: (-1,1) (-1,1)\n"
            f"eq: 10^{exponent}*(u_x + u_y) - 1\neq: u_x + u_y\n"
        )
        assert main(["range", str(path), "--points", "0,0", "--level", "1"]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.err and "inconsistent linear system" in captured.err
        floors = [
            rec["residual_floor"]
            for levels in json.loads(captured.out)["points"].values()
            for rec in levels.values()
        ]
        assert len(floors) == 2
        assert all((f is None) == (exponent == 400) for f in floors)
        out = str(tmp_path / "out")
        args = ["construct", str(path), "--schedule", "0", "--count", "1", "--out", out]
        assert main(args) == 1
        floor = "inf" if exponent == 400 else "1e-300"
        assert capsys.readouterr().err.splitlines() == [
            f"FAIL: stage 0 failed: no-solution at point (0, 0): residual floor {floor} "
            "inconsistent affine system at level 0"
        ]

    def test_exact_no_solution_reports_the_exact_floor(self, tmp_path, capsys):
        # inconsistent in exact arithmetic, equal rows once rounded to
        # floats: the floor is the exact one, 10^-20 / sqrt(2 + ...), not 0
        path = tmp_path / "close.pde"
        path.write_text(
            "dim: 2\nvars: x y\norder: 1\ndomain: (-1,1) (-1,1)\n"
            "eq: u_x + u_y - 1\neq: (1 + 1/100000000000000000000)*(u_x + u_y) - 1\n"
        )
        assert main(["range", str(path), "--points", "0,0", "--level", "0"]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.err and "inconsistent linear system" in captured.err
        (levels,) = json.loads(captured.out)["points"].values()
        assert levels["0"]["outcome"] == "no-solution"
        assert levels["0"]["residual_floor"] == pytest.approx(1e-20 / math.sqrt(2), rel=1e-12)
        args = ["construct", str(path), "--points", "0,0", "--schedule", "0"]
        assert main(args) == 1
        assert capsys.readouterr().err.splitlines() == [
            "FAIL: stage 0 failed: no-solution at point (0, 0): residual floor 7.07e-21 "
            "inconsistent affine system at level 0"
        ]

    def test_construct_and_verify(self, pde_file, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = main(
            ["construct", pde_file, "--schedule", "1,2", "--count", "2",
             "--out", out, "--resolution", "2"]
        )
        assert code == 0
        manifest = f"{out}/sequence.json"
        assert main(["verify", manifest]) == 0
        assert "PASS" in capsys.readouterr().out
        assert (tmp_path / "out" / "samples.csv").exists()

    def test_construct_impossible_fails(self, tmp_path, capsys):
        bad = tmp_path / "imp.pde"
        bad.write_text(IMPOSSIBLE)
        assert main(["construct", str(bad), "--count", "1"]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_verify_tampered_manifest_fails(self, pde_file, tmp_path, capsys):
        out = str(tmp_path / "out")
        main(["construct", pde_file, "--schedule", "0,1", "--count", "2",
              "--out", out])
        path = f"{out}/sequence.json"
        raw = read_json(path)
        values = raw["stages"][0]["jets"][0]["values"]
        values[sorted(values)[0]] = "5"
        write_json(path, raw)
        assert main(["verify", path]) == 1

    def test_exact_claim_on_inexact_data_is_clean_error(self, tmp_path, capsys):
        # jets relabelled exact under an operator with exp: exact
        # verification cannot evaluate the error terms, exit 2, no traceback
        op = parse_pde_text(EXPONENTIAL)
        raw = sequence_to_json(construct_sequence(op, [(F(1, 2),)], [0]))
        for jet in raw["stages"][0]["jets"]:
            jet["arithmetic"] = "exact"
            jet["values"] = {k: str(F(v)) for k, v in jet["values"].items()}
        path = str(tmp_path / "sequence.json")
        write_json(path, raw)
        assert main(["verify", path, "--arith", "exact"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_version_1_manifest_rejected(self, pde_file, tmp_path, capsys):
        out = str(tmp_path / "out")
        main(["construct", pde_file, "--schedule", "0,1", "--count", "2",
              "--out", out])
        path = f"{out}/sequence.json"
        raw = read_json(path)
        for version in (1, 2):
            raw["version"] = version
            write_json(path, raw)
            capsys.readouterr()
            assert main(["verify", path]) == 2
            assert "version" in capsys.readouterr().err

    def edited_manifest(self, pde_file, tmp_path, edit):
        """The manifest of a two-stage transport sequence after `edit`."""
        out = str(tmp_path / "out")
        main(["construct", pde_file, "--schedule", "0,1", "--count", "2",
              "--out", out])
        path = f"{out}/sequence.json"
        raw = read_json(path)
        edit(raw)
        write_json(path, raw)
        return path

    def assert_rejected(self, path, capsys, message):
        capsys.readouterr()
        assert main(["verify", path]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "PASS" not in captured.out

    @pytest.mark.parametrize("edit, message", [
        (add_overlapping_bumps, "stage 1: keys"),
        (lambda raw: raw["stages"][1].update(points=raw["points"]), "stage 1: keys"),
        (lambda raw: raw["stages"][1].update(level=raw["orders"][1]), "stage 1: keys"),
        (lambda raw: raw["stages"][1].update(arithmetic="exact"), "stage 1: keys"),
        (lambda raw: raw["stages"][1].update(stage=1), "stage 1: keys"),
        (lambda raw: raw["stages"][1]["jets"].append(raw["stages"][1]["jets"][0]),
         "stage 1: need one jet per stage point"),
        (lambda raw: raw["stages"][1]["jets"].pop(),
         "stage 1: need one jet per stage point"),
        (lambda raw: raw.update(bumps=[]), "manifest: keys"),
        (lambda raw: raw["stages"].reverse(),
         "stage 0: need one jet per stage point"),
        (lambda raw: raw["operator"].update(dim=5), "operator: dim 5"),
        (lambda raw: raw["operator"].update(note=""), "operator: keys"),
    ], ids=[
        "v2-bumps", "v2-points", "v2-level", "v2-arithmetic", "v2-stage",
        "extra-jet", "missing-jet", "top-level-key", "swapped-stages",
        "operator-dim", "operator-key",
    ])
    def test_edited_manifest_rejected(
        self, pde_file, tmp_path, capsys, edit, message
    ):
        path = self.edited_manifest(pde_file, tmp_path, edit)
        self.assert_rejected(path, capsys, message)

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw["stages"][1]["jets"][0].update(note=""),
         "stage 1 jet 0: keys"),
        (add_respelled_coordinate, "is not canonical"),
        (lambda raw: raw["points"][1].pop(), "box dimension 1"),
        (lambda raw: raw["orders"].__setitem__(0, -1), "levels must be >= 0"),
        # fields of the wrong JSON type
        (lambda raw: raw["stages"][1]["jets"][0].update(values=[]),
         "stage 1 jet 0: values: expected an object"),
        (lambda raw: raw.update(points=5), "points: expected an array of arrays"),
        (lambda raw: raw.update(orders=["a", "b"]), "orders: expected an array of integers"),
        (lambda raw: raw["stages"][1].update(jets=5), "stage 1: jets: expected an array"),
        (lambda raw: raw["operator"].update(order="2"), "order must be a whole number >= 0"),
        (lambda raw: raw["operator"].update(equations=[5]),
         "operator: equations: expected an array of strings"),
        # a string of the one variable name would load as a list of names
        (lambda raw: raw["operator"].update(vars="x"),
         "operator: vars: expected an array of strings"),
    ], ids=[
        "jet-key", "duplicate-coordinate", "point-dimension", "negative-level",
        "values-array", "points-number", "orders-strings", "jets-number",
        "order-string", "equation-number", "vars-string",
    ])
    def test_malformed_jet_or_point_rejected(
        self, pde_file, tmp_path, capsys, edit, message
    ):
        path = self.edited_manifest(pde_file, tmp_path, edit)
        self.assert_rejected(path, capsys, message)

    def test_raised_jet_order_rejected(self, pde_file, tmp_path, capsys):
        # stage 1 (level 1) of a first-order equation stores order-2 jets;
        # an order-3 term only moves derivatives the check never reaches
        def raise_order(raw):
            jet = raw["stages"][1]["jets"][0]
            jet["order"] += 1
            jet["values"][f"1;{MultiIndex((jet['order'],))}"] = "5"

        path = self.edited_manifest(pde_file, tmp_path, raise_order)
        self.assert_rejected(path, capsys, "stage 1 jet 0: order 3, expected 2")

    @pytest.mark.parametrize("text, level, order", [
        (POISSON, 0, 2.0), (EIKONAL, 0, True),
    ], ids=["poisson-float-order", "eikonal-bool-order"])
    def test_jet_order_not_an_integer_rejected(
        self, tmp_path, capsys, text, level, order
    ):
        # 2.0 == 2 and true == 1 in JSON, but neither is an integer
        op = parse_pde_text(text)
        pts = [(F(1, 2), F(1, 2)), (F(1, 4), F(1, 4))]
        raw = sequence_to_json(construct_sequence(op, pts, [level, level]))
        jet = raw["stages"][1]["jets"][1]
        assert jet["order"] == order
        jet["order"] = order
        path = str(tmp_path / "sequence.json")
        write_json(path, raw)
        self.assert_rejected(
            path, capsys, f"stage 1 jet 1: order {json.dumps(order)} is not an integer"
        )

    def test_exact_values_stored_as_numbers_rejected(
        self, pde_file, tmp_path, capsys
    ):
        def to_numbers(raw):
            for stage in raw["stages"]:
                for jet in stage["jets"]:
                    jet["values"] = {
                        key: float(F(v)) for key, v in jet["values"].items()
                    }

        path = self.edited_manifest(pde_file, tmp_path, to_numbers)
        self.assert_rejected(path, capsys, "is not a string")

    def test_float_values_stored_as_strings_rejected(self, tmp_path, capsys):
        op = parse_pde_text(EXPONENTIAL)
        raw = sequence_to_json(construct_sequence(op, [(F(1, 2),)], [0]))
        for jet in raw["stages"][0]["jets"]:
            assert jet["arithmetic"] == "float"
            jet["values"] = {k: repr(v) for k, v in jet["values"].items()}
        path = str(tmp_path / "sequence.json")
        write_json(path, raw)
        self.assert_rejected(path, capsys, "is not a number")

    def test_downgraded_exact_claim_rejected(self, tmp_path, capsys):
        # exact jets relabelled float, their values rewritten as numbers:
        # the Poisson equation is solved exactly at rational points, so a
        # float jet can only be a weakened claim
        op = parse_pde_text(POISSON)
        pts = [(F(1, 2), F(1, 2)), (F(1, 4), F(1, 4)), (F(1, 4), F(3, 4))]
        raw = sequence_to_json(construct_sequence(op, pts, [0, 1, 1]))
        for stage in raw["stages"]:
            for jet in stage["jets"]:
                assert jet["arithmetic"] == "exact"
                jet["arithmetic"] = "float"
                jet["values"] = {k: float(F(v)) for k, v in jet["values"].items()}
        path = str(tmp_path / "sequence.json")
        write_json(path, raw)
        self.assert_rejected(path, capsys, "stage 0: float jet")

    def test_float_jets_of_newton_operator_load(self, tmp_path, capsys):
        op = parse_pde_text(EIKONAL)
        pts = [(F(1, 2), F(1, 2)), (F(1, 4), F(1, 4))]
        path = str(tmp_path / "sequence.json")
        save_sequence(path, construct_sequence(op, pts, [0, 1]))
        assert read_json(path)["stages"][1]["jets"][0]["arithmetic"] == "float"
        assert main(["verify", path]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_usage_error_missing_file(self, capsys):
        assert main(["range", "no-such-file.pde"]) == 2
        assert "error" in capsys.readouterr().err

    def test_usage_error_bad_points(self, pde_file, capsys):
        assert main(["range", pde_file, "--points", "1/2,1/2"]) == 2

    def test_zero_denominator_point(self, pde_file, capsys):
        assert main(["range", pde_file, "--level", "1", "--points", "1/0"]) == 2
        assert_one_error_line(capsys, "'1/0' is not a rational number")

    def test_zero_denominator_domain(self, tmp_path, capsys):
        path = tmp_path / "domain.pde"
        path.write_text(TRANSPORT.replace("domain: (0,1)", "domain: (0,1/0)"))
        assert main(["range", str(path), "--level", "1"]) == 2
        assert_one_error_line(capsys, "'1/0' is not a rational number")

    @pytest.mark.parametrize("edit", [
        lambda raw: raw["points"][0].__setitem__(0, "1/0"),
        lambda raw: raw["operator"]["domain"][0].__setitem__(1, "1/0"),
        lambda raw: raw["stages"][0]["jets"][0]["values"].update({"1;(0)": "1/0"}),
    ], ids=["point", "domain", "jet-value"])
    def test_zero_denominator_in_manifest(self, pde_file, tmp_path, capsys, edit):
        path = self.edited_manifest(pde_file, tmp_path, edit)
        capsys.readouterr()
        assert main(["verify", path]) == 2
        assert_one_error_line(capsys, "'1/0' is not a rational number")

    def assert_bad_tol_is_usage_error(self, argv, capsys):
        for tol in ("nan", "-1", "inf", "abc"):
            with pytest.raises(SystemExit) as info:
                main(argv + [f"--tol={tol}"])
            assert info.value.code == 2
            assert "--tol" in capsys.readouterr().err

    def test_range_rejects_bad_tol(self, tmp_path, capsys):
        # u_x^2 = 1 + x is solvable: NaN or a negative tol used to fail
        # every Newton start, inf to accept any residual
        path = tmp_path / "square.pde"
        path.write_text(TRANSPORT.replace("u_x - u", "u_x^2 - 1 - x"))
        self.assert_bad_tol_is_usage_error(["range", str(path), "--level", "1"], capsys)

    def test_construct_rejects_bad_tol(self, pde_file, capsys):
        self.assert_bad_tol_is_usage_error(["construct", pde_file], capsys)

    def test_verify_rejects_bad_tol(self, pde_file, tmp_path, capsys):
        path = self.edited_manifest(pde_file, tmp_path, lambda raw: None)
        self.assert_bad_tol_is_usage_error(["verify", path], capsys)
        assert main(["verify", path, "--tol", "0"]) == 0

    def test_argparse_usage_exit(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["no-such-command"])
        assert info.value.code == 2

    def test_demo_model(self, capsys):
        assert main(["demo", "model"]) == 0
        assert "witness" in capsys.readouterr().out

    def test_demo_lewy(self, capsys):
        assert main(["demo", "lewy"]) == 0
        assert "PASS" in capsys.readouterr().out


def exit_code(argv) -> int:
    """main's exit status, from its return value or an argparse exit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestConstructOptions:
    """Every usage error of construct exits 2 before any file is written."""

    def test_resolution_needs_out(self, pde_file, capsys):
        assert exit_code(["construct", pde_file, "--resolution", "5"]) == 2
        captured = capsys.readouterr()
        assert "--resolution needs --out" in captured.err
        assert captured.out == ""

    def test_negative_resolution_rejected(self, pde_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert exit_code(["construct", pde_file, "--resolution", "-1", "--out", str(out)]) == 2
        assert "--resolution" in capsys.readouterr().err
        assert not out.exists()


class TestEditedLaterStage:
    def test_edited_jet_of_a_later_stage_fails(self, tmp_path, capsys):
        """Stages 0-3 all store a jet at z_0; the polynomial glued for
        stage 3 must come from its own stored jet, not from the equal
        jets of the stages before it."""
        path = tmp_path / "poisson.pde"
        path.write_text(POISSON)
        out = str(tmp_path / "out")
        assert main(["construct", str(path), "--schedule", "1,1,1,1", "--count", "4", "--out", out]) == 0
        manifest = f"{out}/sequence.json"
        assert main(["verify", manifest]) == 0
        raw = read_json(manifest)
        values = raw["stages"][3]["jets"][0]["values"]
        values["1;(2,0)"] = str(F(values["1;(2,0)"]) + 1)
        write_json(manifest, raw)
        capsys.readouterr()
        assert main(["verify", manifest]) == 1
        assert "stage 3" in capsys.readouterr().err


class TestNewtonConsistencyFloor:
    """A Newton base that stops at a stationary residual above tol but
    within ranges.CONSISTENCY_FLOOR is a solver failure, not a verdict
    that the equation has no solution."""

    def range_entries(self, tmp_path, capsys, equation, tol):
        path = tmp_path / "e.pde"
        path.write_text(f"dim: 1\nvars: x\norder: 1\ndomain: (0,1)\neq: {equation}\n")
        args = ["range", str(path), "--level", "1", "--count", "2", "--tol", tol]
        assert main(args) == 1
        report = json.loads(capsys.readouterr().out)
        return [rec for levels in report["points"].values() for rec in levels.values()]

    @pytest.mark.parametrize(
        "equation, tol",
        [
            # solvable, with a tol below float rounding
            ("u_x^2 - 1 - x", "0"),
            ("u_x^2 - 1 - x", "1e-17"),
            # no real root, with min |F| = 1e-10 between tol and the floor
            ("u_x^2 + 1/10000000000", "1e-12"),
        ],
    )
    def test_floor_within_consistency_floor_is_solver_failed(
        self, tmp_path, capsys, equation, tol
    ):
        entries = self.range_entries(tmp_path, capsys, equation, tol)
        assert len(entries) == 4
        for rec in entries:
            assert rec["outcome"] == "solver-failed"
            assert float(tol) < rec["residual_floor"] <= 1e-9
            assert "consistency floor 1e-09" in rec["detail"]
            assert f"tol {float(tol):g}" in rec["detail"]

    @pytest.mark.parametrize(
        "equation, floor", [("u_x^2 + 1", 1.0), ("u_x^2 + 1/100000000", 1e-8)]
    )
    def test_floor_above_consistency_floor_stays_no_solution(
        self, tmp_path, capsys, equation, floor
    ):
        entries = self.range_entries(tmp_path, capsys, equation, "0")
        assert [rec["outcome"] for rec in entries] == ["no-solution"] * 4
        assert all(rec["residual_floor"] == pytest.approx(floor) for rec in entries)


class TestDeterminism:
    def test_range_output_stable(self, pde_file, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["range", pde_file, "--level", "1", "--out", out1])
        main(["range", pde_file, "--level", "1", "--out", out2])
        a = read_json(f"{out1}/range.json")
        b = read_json(f"{out2}/range.json")
        a.pop("header")
        b.pop("header")
        assert a == b


class TestProlong:
    @pytest.fixture
    def lewy_file(self, tmp_path):
        path = tmp_path / "lewy.pde"
        path.write_text(LEWY)
        return str(path)

    def test_one_row_per_equation_and_index(self, lewy_file, capsys):
        # both equations at each p with |p| <= 2, in graded-lex order of p
        assert main(["prolong", lewy_file, "--level", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["level"] == 2
        rows = [(rec["equation"], rec["index"]) for rec in data["equations"]]
        assert rows == [(j, str(p)) for p in multi_indices(3, 2) for j in (1, 2)]
        assert len(rows) == 2 * 10

    def test_tol_rejected(self, lewy_file, capsys):
        # prolong solves nothing, so it takes no tolerance
        assert exit_code(["prolong", lewy_file, "--tol", "1e-9"]) == 2
        assert "--tol" in capsys.readouterr().err
