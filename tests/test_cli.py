"""Command-line interface and manifest round-trips."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

from densepde.cli import main
from densepde.construct import construct_sequence
from densepde.jets import parse_pde_text
from densepde.manifest import (
    load_sequence,
    read_json,
    sample_grid,
    save_sequence,
    sequence_from_json,
    sequence_to_json,
    write_json,
)
from densepde.multiindex import MultiIndex
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
    ], ids=["jet-key", "duplicate-coordinate", "point-dimension", "negative-level"])
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
