import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from k3chambers import cli, gallery, linalg, model


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def quartic_file(tmp_path):
    path = tmp_path / "quartic.json"
    path.write_text(model.model_to_json(gallery.quartic_example().model))
    return str(path)


@pytest.fixture()
def double_cover_file(tmp_path):
    path = tmp_path / "double-cover.json"
    path.write_text(model.model_to_json(gallery.double_cover_example().model))
    return str(path)


def test_validate_ok(capsys, quartic_file):
    code, out, _ = run_cli(capsys, "validate", quartic_file)
    assert code == 0
    doc = json.loads(out)
    assert doc == {"schema_version": 1, "valid": True, "failures": []}


def test_validate_reports_failures(capsys, tmp_path):
    bad = gallery.quartic_example().model
    doc = model.model_to_document(bad)
    doc["curves"][0]["coords"] = [1, 0, 1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 2
    report = json.loads(out)
    assert not report["valid"] and report["failures"]


def test_validate_missing_file(capsys):
    code, out, _ = run_cli(capsys, "validate", "/nonexistent/model.json")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "invalid_model"


@pytest.mark.parametrize("curves", [[1], ["C1"], [None]])
def test_non_object_curve_entry_exits_2(capsys, tmp_path, curves):
    doc = {"mode": "configuration", "gram": [[-2]], "curves": curves,
           "ample": {"dots": [1], "self": 2}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "chambers", str(path))
    assert code == 2
    assert json.loads(out)["error"]["code"] == "invalid_model"


def test_decompose_report(capsys, quartic_file):
    code, out, err = run_cli(capsys, "decompose", quartic_file, "[5,2,2]")
    assert code == 0
    doc = json.loads(out)
    assert doc["P"] == {"coords": ["3", "2", "2"]}
    assert doc["N"] == {"L1": "2"}
    assert doc["neg_set"] == ["L1"]
    assert doc["volume"] == "18"
    assert "assumed complete" in err  # curve-list assumption banner


def test_decompose_accepts_comma_form(capsys, quartic_file):
    code, out, _ = run_cli(capsys, "decompose", quartic_file, "5,7,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["P"] == {"coords": ["4", "4", "2"]}
    assert doc["N"] == {"L1": "1", "L2": "3"}


def test_decompose_not_big_exits_3(capsys, quartic_file):
    code, out, _ = run_cli(capsys, "decompose", quartic_file, "[-2,-2,-2]")
    assert code == 3
    assert json.loads(out)["error"]["code"] == "not_big"


def test_decompose_bad_divisor_exits_2(capsys, quartic_file):
    code, out, _ = run_cli(capsys, "decompose", quartic_file, "[1,2]")
    assert code == 2


def test_chambers_report(capsys, quartic_file):
    code, out, _ = run_cli(capsys, "chambers", quartic_file)
    assert code == 0
    doc = json.loads(out)
    supports = [e["support"] for e in doc["zariski"]["family"]]
    assert supports == [[], ["L1"], ["L2"], ["C"], ["L1", "L2"]]
    assert [e["support"] for e in doc["weyl"]["family"]] == supports
    assert doc["bijection"] == {"equal": True, "only_zariski": [], "only_weyl": []}


def test_chambers_double_cover_five_entries(capsys, double_cover_file):
    code, out, _ = run_cli(capsys, "chambers", double_cover_file)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["zariski"]["family"]) == 5
    assert len(doc["weyl"]["family"]) == 5


def test_compare_quartic(capsys, quartic_file):
    code, out, _ = run_cli(capsys, "compare", quartic_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["coincide"] is False
    assert doc["pair"] == ["L1", "L2"]
    assert doc["witness"] == {"coords": ["5", "7", "2"]}
    assert doc["witness_weyl_support"] == ["L2"]
    assert doc["witness_zariski_support"] == ["L1", "L2"]


def test_compare_double_cover(capsys, double_cover_file):
    code, out, _ = run_cli(capsys, "compare", double_cover_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["coincide"] is True and doc["pair"] is None


def test_criteria_report(capsys, quartic_file):
    code, out, _ = run_cli(capsys, "criteria", quartic_file, "L1")
    assert code == 0
    doc = json.loads(out)
    assert doc["set"] == ["L1"]
    assert doc["ade"] == ["A1"]
    assert doc["weyl_in_zariski"] == {"holds": False, "counterexample": "L2"}
    assert doc["zariski_interior_in_weyl"] == {"holds": True, "pair": None}


def test_criteria_non_nd_exits_3(capsys, quartic_file):
    code, out, _ = run_cli(capsys, "criteria", quartic_file, "L1", "C")
    assert code == 3
    assert json.loads(out)["error"]["code"] == "not_negative_definite"


def test_criteria_unknown_name_exits_2(capsys, quartic_file):
    code, out, _ = run_cli(capsys, "criteria", quartic_file, "L9")
    assert code == 2


def test_internal_invariant_exits_4(capsys, quartic_file, monkeypatch):
    monkeypatch.setattr(linalg, "solve_linear", lambda a, b: tuple(Fraction(-1) for _ in b))
    code, out, _ = run_cli(capsys, "witness", quartic_file, "L1")
    assert code == 4
    assert json.loads(out)["error"]["code"] == "internal_invariant"


def test_witness_report(capsys, quartic_file):
    code, out, _ = run_cli(capsys, "witness", quartic_file, "L1", "L2")
    assert code == 0
    doc = json.loads(out)
    assert doc["divisor"] == {"coords": ["5", "5", "2"]}
    assert doc["pairings"] == {"L1": "-1", "L2": "-1", "C": "16"}


def test_plot_writes_svg_and_reports(capsys, quartic_file, tmp_path):
    out_path = tmp_path / "q.svg"
    code, out, _ = run_cli(
        capsys, "plot", quartic_file, "--res", "24", "-o", str(out_path)
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["panels"]["weyl"]["regions"] == 5
    assert doc["panels"]["zariski"]["regions"] == 5
    data = out_path.read_bytes()
    assert data.startswith(b'<?xml version="1.0"')
    # determinism across runs
    code, _, _ = run_cli(
        capsys, "plot", quartic_file, "--res", "24", "-o", str(out_path)
    )
    assert code == 0
    assert out_path.read_bytes() == data


def test_plot_custom_corners(capsys, quartic_file, tmp_path):
    out_path = tmp_path / "c.svg"
    code, out, _ = run_cli(
        capsys, "plot", quartic_file,
        "--corners", "[1,0,0]", "[0,1,0]", "[0,0,1]",
        "--res", "8", "--mode", "zariski", "-o", str(out_path),
    )
    assert code == 0
    assert json.loads(out)["mode"] == "zariski"
    assert out_path.exists()


def test_plot_degenerate_corners_exit_2(capsys, quartic_file, tmp_path):
    code, out, _ = run_cli(
        capsys, "plot", quartic_file,
        "--corners", "[1,0,0]", "[0,1,0]", "[1,1,0]",
        "--res", "8", "-o", str(tmp_path / "x.svg"),
    )
    assert code == 2
    assert json.loads(out)["error"]["code"] == "degenerate_corners"


def test_gallery_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "gallery", "quartic")
    assert code == 0
    m = model.model_from_json(out)
    assert m == gallery.quartic_example().model
    code, out, _ = run_cli(capsys, "gallery", "nope")
    assert code == 2


def test_random_subcommand_is_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "random", "--seed", "5", "--n", "4")
    assert code == 0
    code, out2, _ = run_cli(capsys, "random", "--seed", "5", "--n", "4")
    assert out1 == out2
    m = model.model_from_json(out1)
    assert model.validate_model(m).valid
    assert m == gallery.random_configuration(5, 4)


@pytest.mark.parametrize("density", ["7", "-0.1", "nan"])
def test_random_rejects_density_outside_unit_interval(capsys, density):
    code, out, _ = run_cli(capsys, "random", "--seed", "1", "--n", "3", "--density", density)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "invalid_model"


def test_configuration_model_via_cli(capsys, tmp_path):
    cfg = model.to_configuration(gallery.quartic_example().model)
    path = tmp_path / "cfg.json"
    path.write_text(model.model_to_json(cfg))
    code, out, _ = run_cli(capsys, "decompose", str(path), '{"t": 1, "a": [3, 5, 0]}')
    assert code == 0
    doc = json.loads(out)
    assert doc["N"] == {"L1": "1", "L2": "3"}
    code, out, _ = run_cli(capsys, "decompose", str(path), '{"t": 0, "a": [1, 1, 1]}')
    assert code == 3
    assert json.loads(out)["error"]["code"] == "mode_unsupported"


def test_entry_point_subprocess(quartic_file):
    """End-to-end: run the module as a subprocess and check exit codes."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "k3chambers", "compare", quartic_file],
        capture_output=True, text=True, env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["coincide"] is False
