"""End-to-end checks of the command line wiring, schemas, and exit codes."""

import functools
import json
import subprocess
import sys

from cf3 import roots, sail
from cf3.cli import main

GOLDEN = "0,1,0;0,0,1;1,2,-1"
A42 = "1,2,0;0,1,2;-7,0,29"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_census_summary_csv(capsys):
    code, out, _ = run_cli(capsys, "census", "--dim", "3", "--norm", "3")
    assert code == 0
    assert out == "norm,count_M,count_H\n3,0,0\n"


def test_census_jsonl_stream(capsys):
    code, out, _ = run_cli(capsys, "census", "--dim", "3", "--norm", "2",
                           "--emit", "jsonl")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines
    for record in lines:
        assert set(record) == {"matrix", "norm", "class"}
        assert record["norm"] == 2
        assert record["class"] == "reducible"


def test_frobenius_counterexample_json(capsys):
    code, out, _ = run_cli(capsys, "frobenius", "--matrix", A42)
    assert code == 0
    doc = json.loads(out)
    assert doc["norm"] == 42
    assert doc["status"] == "non_frobenius"
    assert doc["solvability"]["certificate"]["modulus"] == 7
    assert doc["solvability"]["certificate"]["residues"] == [0, 2, 5]


def test_frobenius_zero_caps_undecided(capsys):
    code, out, _ = run_cli(capsys, "frobenius", "--matrix", A42,
                           "--box", "0", "--modcap", "0")
    assert code == 3
    assert json.loads(out)["status"] == "undecided"


def test_frobenius_full_caps_undecided(capsys):
    # a complex cubic with no ternary witness in box 50 and no obstruction
    # below 100: both engines run to their default caps
    code, out, _ = run_cli(capsys, "frobenius", "--matrix", "0,0,1;2,0,0;-1,-3,0")
    assert code == 3
    doc = json.loads(out)
    assert doc["status"] == "undecided"
    assert doc["solvability"]["search_bound"] == 50
    assert doc["solvability"]["modulus_cap"] == 100


def test_frobenius_pell_step_cap_undecided(capsys):
    # the reduction walk of this form runs past its step cap
    code, out, _ = run_cli(capsys, "frobenius", "--matrix", "0,3;1000000000039,0")
    assert code == 3
    assert json.loads(out)["status"] == "undecided"


def test_frobenius_golden_witness(capsys):
    code, out, _ = run_cli(capsys, "frobenius", "--matrix", GOLDEN)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "frobenius"
    assert abs(doc["solvability"]["value"]) == 1


def test_solve_golden(capsys):
    code, out, _ = run_cli(capsys, "solve", "--matrix", GOLDEN)
    assert code == 0
    doc = json.loads(out)
    assert doc["solvability"]["verdict"] == "solvable"
    assert abs(doc["solvability"]["value"]) == 1
    assert len(doc["solvability"]["witness"]) == 5


def test_commutant_counterexample(capsys):
    code, out, _ = run_cli(capsys, "commutant", "--matrix", A42)
    assert code == 0
    doc = json.loads(out)
    assert doc["basis"]["e"] == "1,0,0;0,1,0;0,0,1"
    assert doc["alpha"] == "1/2"
    assert doc["power_basis_index"] == 2
    assert len(doc["lattice_basis"]) == 3


def test_forms_product_schema(capsys):
    code, out, _ = run_cli(capsys, "forms", "--matrix", A42,
                           "--factor", "product")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["binary_cubic"]["primitive"]) == 4
    assert len(doc["ternary_cubic"]["primitive"]) == 10
    assert len(doc["ternary_cubic"]["monomials"]) == 10
    assert "scaling_product" not in doc
    # each factor's coefficients are its signed content times its primitive
    # part; on the canonical basis of the norm-42 matrix both contents are 1
    for key in ("binary_cubic", "ternary_cubic"):
        factor = doc[key]
        assert "scale" not in factor
        assert factor["coefficients"] == [factor["content"] * v for v in factor["primitive"]]
        assert factor["content"] == 1
    assert doc["binary_cubic"]["coefficients"] == [2, 56, 392, 7]
    assert doc["content"] == 1


def test_classify_norm5(capsys, tmp_path):
    path = tmp_path / "labels.jsonl"
    code, out, _ = run_cli(capsys, "classify", "--norm", "5",
                           "--jsonl", str(path))
    assert code == 0
    rows = dict(line.split(",") for line in out.splitlines()[1:])
    assert rows == {"golden_ratio": "48", "M_-1_3_1": "0", "M_0_3_1": "0",
                    "other": "0", "unresolved": "0"}
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == 48
    assert all(r["class"] == "golden_ratio" for r in records)


def test_sail_golden_json_and_svg(capsys, tmp_path):
    json_path = tmp_path / "sail.json"
    svg_path = tmp_path / "sail.svg"
    code, out, _ = run_cli(capsys, "sail", "--matrix", GOLDEN,
                           "--json", str(json_path), "--svg", str(svg_path))
    assert code == 0
    assert out == ""
    doc = json.loads(json_path.read_text())
    assert doc["orbits"] == {"vertices": 1, "edges": 3, "faces": 2}
    assert doc["invariant"]["face_profile"] == [[3, 1], [3, 1]]
    assert doc["group_certified"] is True
    assert doc["faces"] and doc["vertices"]
    svg = svg_path.read_text()
    assert svg.startswith("<svg") and "<polygon" in svg


def test_sail_tiny_radius_recovers_invariant(capsys):
    code, out, _ = run_cli(capsys, "sail", "--matrix", GOLDEN,
                           "--radius", "1")
    assert code == 0
    doc = json.loads(out)
    # no certified faces inside radius 1, but the invariant ladder recovers
    assert doc["faces"] == []
    assert doc["invariant"]["face_orbits"] == 2


def test_sail_tiny_radius_cannot_draw_svg(capsys, tmp_path):
    svg_path = tmp_path / "none.svg"
    code, _, err = run_cli(capsys, "sail", "--matrix", GOLDEN,
                           "--radius", "1", "--svg", str(svg_path))
    assert code == 3
    assert "no certified faces" in err
    assert not svg_path.exists()


def test_sail_unit_box_cap_exits_3(capsys):
    # a norm-69 conjugate of M(0,3,1) with no unit pair within UNIT_BOXES
    code, _, err = run_cli(capsys, "sail", "--matrix", "5,-7,10;-1,2,9;11,-17,-7")
    assert code == 3
    assert "fewer than two independent positive units" in err


def test_sail_int64_unit_box_exits_3(capsys):
    # the determinant form's coefficients leave no int64 headroom at box 4,
    # so the unit ladder stops before any pair is found
    code, _, err = run_cli(capsys, "sail", "--matrix", "0,1,0;1000,-998000,997999001;1,-998,997999")
    assert code == 3
    assert "may overflow int64" in err


def test_sail_independence_cap_exits_3(capsys, monkeypatch):
    # Log intervals that always straddle zero never separate the generators.
    monkeypatch.setattr(sail, "_log_intervals", lambda units, m: [(-1.0, 1.0)] * 2)
    monkeypatch.setattr(sail._Roots, "refine", lambda self, bits: None)
    code, _, err = run_cli(capsys, "sail", "--matrix", GOLDEN)
    assert code == 3
    assert "generator logs not separated from dependence" in err


def test_sail_enclosure_cap_exits_3(capsys, monkeypatch):
    # Without refinement the unit eigenvalue enclosures never separate.
    monkeypatch.setattr(sail, "refine_interval", lambda p, interval, width: interval)
    code, _, err = run_cli(capsys, "sail", "--matrix", GOLDEN)
    assert code == 3
    assert "positive eigenvalue failed to separate from zero" in err


def test_sail_bisection_cap_exits_3(capsys, monkeypatch):
    # With no bisections allowed no sign at a root separates from zero.
    monkeypatch.setattr(sail, "sign_at_root",
                        functools.partial(roots.sign_at_root, max_bisections=0))
    code, _, err = run_cli(capsys, "sail", "--matrix", GOLDEN)
    assert code == 3
    assert "sign not separated after 0 bisections" in err


def test_hunt_stream(capsys):
    code, out, _ = run_cli(capsys, "hunt", "--max-norm", "7",
                           "--count", "3", "--seed", "demo")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 3
    assert all(r["norm"] == 7 for r in records)
    assert all(r["status"] == "frobenius" for r in records)
    # identical seed, identical stream
    code2, out2, _ = run_cli(capsys, "hunt", "--max-norm", "7",
                             "--count", "3", "--seed", "demo")
    assert (code2, out2) == (code, out)


def test_bad_inputs_exit_1(capsys):
    assert run_cli(capsys, "frobenius", "--matrix", "1,2;3")[0] == 1
    assert run_cli(capsys, "census", "--norm", "-2")[0] == 1
    assert run_cli(capsys, "sail", "--matrix", "1,0,0;0,1,0;0,0,1")[0] == 1
    assert run_cli(capsys, "hunt", "--max-norm", "5")[0] == 1
    assert run_cli(capsys, "bogus")[0] == 1
    assert run_cli(capsys, "census")[0] == 1


def test_hunt_rejects_negative_count(capsys):
    code, out, err = run_cli(capsys, "hunt", "--max-norm", "7", "--count", "-2")
    assert code == 1
    assert out == ""
    assert "count must be nonnegative" in err


def test_console_script_repro_zero_caps():
    """The documented cap-zero path: witness claims report UNDECIDED and the
    process exits 3, while every cap-independent claim still passes."""
    proc = subprocess.run(
        [sys.executable, "-m", "cf3.cli", "repro",
         "--box-bound", "0", "--modulus-cap", "0"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 3
    lines = proc.stdout.splitlines()
    assert len(lines) == 7
    statuses = {line.split()[1]: line.split()[0] for line in lines}
    assert statuses["frobenius_sweep"] == "UNDECIDED"
    assert statuses["counterexample"] == "UNDECIDED"
    passing = [name for name, status in statuses.items() if status == "PASS"]
    assert len(passing) == 5
