import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st, given

from k3chambers import chambers, cli, gallery, linalg, model, zariski
from k3chambers.errors import InvalidModel, SingularMatrix


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
    assert report["error"]["code"] == "invalid_model"
    assert all(f in report["error"]["message"] for f in report["failures"])


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


def test_string_divisor_coords_exit_2(capsys, quartic_file):
    """A string where the coordinates belong is refused, not read as the
    divisor [5, 7, 2] digit by digit."""
    code, out, _ = run_cli(capsys, "decompose", quartic_file, '{"coords":"572"}')
    assert code == 2
    assert json.loads(out)["error"] == {
        "code": "invalid_model", "message": 'divisor "coords" must be a JSON array'
    }


def test_string_ample_dots_fail_validate(capsys, tmp_path):
    doc = model.model_to_document(model.to_configuration(gallery.quartic_example().model))
    doc["ample"]["dots"] = "541"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert json.loads(out)["error"] == {
        "code": "invalid_model", "message": 'ample "dots" must be a JSON array'
    }


@pytest.mark.parametrize("spoil", [
    lambda doc: doc.update(gram="-2"),
    lambda doc: doc["gram"].__setitem__(0, {"-2": 1}),
    lambda doc: doc["curves"][0].update(coords="101"),
    lambda doc: doc["ample"].update(coords="112"),
], ids=["gram", "gram-row", "curve-coords", "ample-coords"])
def test_non_array_in_a_model_exits_2(capsys, tmp_path, spoil):
    doc = model.model_to_document(gallery.quartic_example().model)
    spoil(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert "must be a JSON array" in json.loads(out)["error"]["message"]


def test_string_divisor_a_exits_2(capsys, tmp_path):
    cfg = model.to_configuration(gallery.quartic_example().model)
    path = tmp_path / "cfg.json"
    path.write_text(model.model_to_json(cfg))
    code, out, _ = run_cli(capsys, "decompose", str(path), '{"t": 1, "a": "350"}')
    assert code == 2
    assert json.loads(out)["error"]["message"] == 'divisor "a" must be a JSON array'


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


def test_decompose_bare_divisor_may_start_with_a_minus_sign(capsys, quartic_file, tmp_path):
    """A comma list such as -1,0,5 is a divisor, not an option, without
    "--" in front of it."""
    code, out, _ = run_cli(capsys, "decompose", quartic_file, "-1,0,5")
    assert code == 3
    assert json.loads(out)["error"]["code"] == "not_big"
    # the quartic with its first basis vector negated, where -5,7,2 is the
    # divisor 5,7,2 of the quartic
    doc = json.loads(Path(quartic_file).read_text())
    flip = (-1, 1, 1)
    doc["gram"] = [[x * flip[i] * flip[j] for j, x in enumerate(row)]
                   for i, row in enumerate(doc["gram"])]
    for entry in [*doc["curves"], doc["ample"]]:
        entry["coords"] = [x * f for x, f in zip(entry["coords"], flip)]
    path = tmp_path / "flipped.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "decompose", str(path), "-5,7,2")
    assert code == 0
    report = json.loads(out)
    assert report["P"] == {"coords": ["-4", "4", "2"]}
    assert report["N"] == {"L1": "1", "L2": "3"}


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


def _random_model_file(capsys, tmp_path, seed, n, density):
    assert cli.main(["random", "--seed", str(seed), "--n", str(n), "--density", str(density)]) == 0
    path = tmp_path / ("random-%d-%d.json" % (seed, n))
    path.write_text(capsys.readouterr().out)
    return str(path)


# With the Chernikov rule, keeping the strongest row's own origins when
# rows of one direction are merged drops chambers on these two graphs.
@pytest.mark.parametrize("seed,n", [(9, 6), (4, 7)])
def test_chambers_bijection_on_dense_graphs(capsys, tmp_path, seed, n):
    path = _random_model_file(capsys, tmp_path, seed, n, 0.5)
    code, out, _ = run_cli(capsys, "chambers", path)
    assert code == 0
    assert json.loads(out)["bijection"]["equal"]


def test_chambers_finishes_where_plain_fourier_motzkin_blew_up(capsys, tmp_path):
    """Without redundancy elimination some of this model's 512 sign systems
    grow past 20k rows and the enumeration runs out of memory."""
    path = _random_model_file(capsys, tmp_path, 3, 9, 0.2)
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "chambers", path)
    assert time.perf_counter() - start < 5
    assert code == 0
    doc = json.loads(out)
    assert len(doc["zariski"]["family"]) == len(doc["weyl"]["family"]) == 102
    assert doc["bijection"]["equal"]


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


def _inject_wrong_solutions(monkeypatch):
    """Every solve against a negative definite Gram returns all -1; the
    definiteness verdicts stay right."""
    real = linalg.solve_negative_definite

    def wrong(s, rhs=()):
        sols = real(s, rhs)
        return sols if sols is None else tuple(tuple(Fraction(-1) for _ in b) for b in rhs)

    monkeypatch.setattr(linalg, "solve_negative_definite", wrong)


def test_internal_invariant_exits_4(capsys, quartic_file, monkeypatch):
    _inject_wrong_solutions(monkeypatch)
    code, out, _ = run_cli(capsys, "witness", quartic_file, "L1")
    assert code == 4
    assert json.loads(out)["error"]["code"] == "internal_invariant"


def test_singular_matrix_exits_4(capsys, quartic_file, monkeypatch):
    """An error class without an exit code of its own exits 4 with its
    code, not with a traceback."""

    def singular(s, b):
        raise SingularMatrix("matrix is singular")

    monkeypatch.setattr(linalg, "solve_linear", singular)
    code, out, _ = run_cli(capsys, "compare", quartic_file)
    assert code == 4
    assert json.loads(out)["error"] == {"code": "singular_matrix", "message": "matrix is singular"}


def test_divergence_witness_invariant_exits_4(capsys, quartic_file, monkeypatch):
    """A wrong pair solve moves the divergence witness out of W_{L2}; the
    witness's own sign check catches it, also under python -O."""
    real = linalg.solve_linear
    monkeypatch.setattr(linalg, "solve_linear", lambda s, b: tuple(10 * x for x in real(s, b)))
    code, out, _ = run_cli(capsys, "compare", quartic_file)
    assert code == 4
    assert json.loads(out)["error"] == {
        "code": "internal_invariant",
        "message": "divergence_witness: Weyl support is not {1}",
    }


def test_fm_invariant_exits_4(capsys, quartic_file, monkeypatch):
    """A sample that fails its exact check is a typed error, not a traceback."""
    wrong = linalg.SignConstraint(linalg.vec([0, 0, 0]), Fraction(1), ">")
    real = chambers._sign_system

    def corrupted(rows, s):
        problem = real(rows, s)
        for row in problem.strict_rows:
            row.__dict__["integer_row"] = wrong.integer_row
        return problem

    monkeypatch.setattr(chambers, "_sign_system", corrupted)
    code, out, _ = run_cli(capsys, "chambers", quartic_file)
    assert code == 4
    assert json.loads(out)["error"]["code"] == "internal_invariant"


def test_corrupted_infeasibility_certificate_exits_4(capsys, quartic_file, monkeypatch):
    """An infeasible sign pattern whose certificate fails its exact check is
    a typed error, not a dropped chamber.  Here each contradiction names a
    wrong multiplier of its lower parent row."""
    real = linalg._combine

    def corrupted(low, up, v, limit):
        try:
            return real(low, up, v, limit)
        except linalg._Infeasible as contradiction:
            lam, mu, g, low, up = contradiction.derivation
            raise linalg._Infeasible((lam + 1, mu, g, low, up))

    monkeypatch.setattr(linalg, "_combine", corrupted)
    code, out, _ = run_cli(capsys, "chambers", quartic_file)
    assert code == 4
    assert json.loads(out)["error"]["code"] == "internal_invariant"


def test_wrong_piece_solve_in_the_atlas_exits_4(capsys, tmp_path, monkeypatch):
    """The atlas solves each member of a component's local family once and
    reuses it; a wrong member solution is still caught by the checks on the
    record."""
    path = tmp_path / "pieces.json"
    path.write_text(model.model_to_json(gallery.random_configuration(0, 8, 0.2)))
    _inject_wrong_solutions(monkeypatch)
    code, out, _ = run_cli(capsys, "chambers", str(path))
    assert code == 4
    assert json.loads(out)["error"]["code"] == "internal_invariant"


def test_compare_decomposes_the_witness_once(capsys, quartic_file, monkeypatch):
    calls = []
    original = zariski.zariski_decompose

    def counting(m, d):
        calls.append(d)
        return original(m, d)

    monkeypatch.setattr(zariski, "zariski_decompose", counting)
    code, out, _ = run_cli(capsys, "compare", quartic_file)
    assert code == 0
    assert json.loads(out)["witness_zariski_support"] == ["L1", "L2"]
    assert len(calls) == 1


def _disjoint_curves_model(tmp_path, n):
    """n disjoint curves: every one of the 2^n subsets is negative definite,
    so any enumeration before the size check would not finish."""
    doc = {
        "mode": "configuration",
        "gram": [[-2 if i == j else 0 for j in range(n)] for i in range(n)],
        "curves": [{"name": "C%d" % i} for i in range(n)],
        "ample": {"dots": [1] * n, "self": 2},
    }
    path = tmp_path / ("disjoint%d.json" % n)
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("n", [13, 30])
def test_chambers_refuses_more_than_twelve_curves(capsys, tmp_path, n):
    code, out, _ = run_cli(capsys, "chambers", _disjoint_curves_model(tmp_path, n))
    assert code == 2
    assert json.loads(out)["error"]["code"] == "size_limit"


def test_fourier_motzkin_over_its_budget_is_a_size_limit(capsys, quartic_file, monkeypatch):
    monkeypatch.setattr(linalg, "MAX_FM_ROWS", 2)
    code, out, _ = run_cli(capsys, "chambers", quartic_file)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "size_limit"


_UNDER_MEMORY_CAP = """
import sys
try:
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (64 << 20, resource.getrlimit(resource.RLIMIT_AS)[1]))
except (ImportError, ValueError, OSError) as exc:
    print("cannot cap the address space: %s" % exc, file=sys.stderr)
    sys.exit(99)
from k3chambers import cli
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.fixture(scope="module")
def r12_report(tmp_path_factory):
    """The model file of random_configuration(0, 12, 0.1) and its uncapped
    4096-chamber ``chambers`` report (4.9 MB)."""
    path = tmp_path_factory.mktemp("r12") / "r12.json"
    path.write_text(model.model_to_json(gallery.random_configuration(0, 12, 0.1)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["chambers", str(path)]) == 0
    return str(path), out.getvalue()


def test_running_out_of_memory_is_a_size_limit(r12_report):
    """Under a 64 MB address-space cap, which the child process sets on
    itself, the 4096-chamber report of random_configuration(0, 12, 0.1)
    either completes with the uncapped bytes or ends in a size_limit
    report with exit 2, never in a traceback."""
    path, uncapped = r12_report
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _UNDER_MEMORY_CAP, "chambers", path],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
    )
    if proc.returncode == 99:
        pytest.skip(proc.stderr.strip())
    assert "Traceback" not in proc.stderr
    assert proc.returncode in (0, 2), proc.stderr
    if proc.returncode == 2:
        assert json.loads(proc.stdout)["error"] == {"code": "size_limit", "message": "out of memory"}
    else:
        assert proc.stdout == uncapped


def test_report_parts_are_written_unjoined(r12_report, monkeypatch):
    """_emit writes the parts it built without joining them, so the 4.9 MB
    report is not held a second time as one string: its peak stays under
    the parts' own size plus half the text."""
    text = r12_report[1]
    doc = json.loads(text)
    parts: list = []
    cli._encode(doc, "", parts)
    bound = sys.getsizeof(parts) + sum(map(sys.getsizeof, parts)) + len(text) // 2
    del parts
    with open(os.devnull, "w", encoding="utf-8") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            cli._emit(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < bound


def test_plot_eliminates_only_the_supports_its_samples_reach(capsys, tmp_path, monkeypatch):
    """14 disjoint curves have 2^14 negative definite subsets; the plot's
    growth reaches a handful of them, and no table is built for the rest."""
    path = _disjoint_curves_model(tmp_path, 14)
    calls = []
    real = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda rows, n: calls.append(n) or real(rows, n))
    code, out, _ = run_cli(capsys, "plot", path, "--res", "4", "-o", str(tmp_path / "d.svg"))
    assert code == 0
    assert json.loads(out)["panels"]["zariski"]["regions"] == 4
    assert 0 < len(calls) <= 30


def test_wrong_kernel_support_exits_4(capsys, quartic_file, monkeypatch):
    """A growth kernel that stops before the support is complete leaves a
    nef part that meets L1 negatively; the check on the model's own
    pairings catches it, also under python -O."""

    def no_growth(q, table):
        s = tuple(i for i, x in enumerate(q) if x < 0)
        inv, den, cols = tab = table(s)
        x = [sum(a * q[j] for a, j in zip(row, s)) for row in inv]
        return s, tab, x, ()

    code, out, _ = run_cli(capsys, "decompose", quartic_file, "[5,7,2]")
    assert code == 0 and json.loads(out)["neg_set"] == ["L1", "L2"]
    monkeypatch.setattr(zariski, "grow_support", no_growth)
    code, out, _ = run_cli(capsys, "decompose", quartic_file, "[5,7,2]")
    assert code == 4
    assert json.loads(out)["error"]["code"] == "internal_invariant"


def test_plot_refuses_resolution_over_limit(capsys, quartic_file, tmp_path):
    out_path = tmp_path / "big.svg"
    code, out, _ = run_cli(
        capsys, "plot", quartic_file, "--res", "1001", "-o", str(out_path)
    )
    assert code == 2
    assert json.loads(out)["error"]["code"] == "size_limit"
    assert not out_path.exists()


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
    # t = 0: the sum of all curves is nef with square 4, its own nef part
    code, out, _ = run_cli(capsys, "decompose", str(path), '{"t": 0, "a": [1, 1, 1]}')
    assert code == 0
    doc = json.loads(out)
    assert doc["P"] == doc["divisor"] == {"t": "0", "a": ["1", "1", "1"]}
    assert doc["N"] == {} and doc["volume"] == "4"


def test_entry_point_subprocess(quartic_file):
    """End-to-end: run the module as a subprocess and check exit codes."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "k3chambers", "compare", quartic_file],
        capture_output=True, text=True, env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["coincide"] is False


@pytest.mark.parametrize("command", ["gallery", "chambers"])
def test_closed_stdout_ends_quietly(capsys, tmp_path, command):
    """A reader that closes stdout early (``| head -1``) ends the command
    with CLOSED_STDOUT_EXIT and no traceback.  The child's stdout is a pipe
    whose read end is closed before it starts, so every write fails.  The
    chambers report is larger than a pipe buffer (64 KiB on Linux), so it
    fails inside the report write, not at the exit flush."""
    if command == "gallery":
        argv = ["gallery", "quartic"]
    else:
        path = tmp_path / "random9.json"
        assert cli.main(["random", "--seed", "0", "--n", "9", "--density", "0.2"]) == 0
        path.write_text(capsys.readouterr().out)
        argv = ["chambers", str(path)]
        assert cli.main(argv) == 0
        assert len(capsys.readouterr().out) > 1 << 16
    src = str(Path(__file__).resolve().parents[1] / "src")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "k3chambers", *argv], stdout=write_end,
            stderr=subprocess.PIPE, text=True, timeout=120,
            env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
        )
    finally:
        os.close(write_end)
    assert proc.returncode == cli.CLOSED_STDOUT_EXIT == 141
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def test_corrupted_pairing_rows_exit_4(capsys, tmp_path, monkeypatch):
    """A configuration model validates without its pairing rows, so wrong
    rows reach the witness check, which reports them as a typed error."""
    path = tmp_path / "cfg.json"
    path.write_text(model.model_to_json(model.to_configuration(gallery.quartic_example().model)))
    real = model.model_from_json

    def corrupted(text):
        m = real(text)
        rows, q = m.pairing_rows
        m.__dict__["pairing_rows"] = (tuple(tuple(-x for x in row) for row in rows), q)
        return m

    monkeypatch.setattr(model, "model_from_json", corrupted)
    code, out, _ = run_cli(capsys, "witness", str(path), "L1")
    assert code == 4
    assert json.loads(out)["error"]["code"] == "internal_invariant"


# ---------------------------------------------------------------------------
# rational strings with exponents
# ---------------------------------------------------------------------------

HUGE_EXPONENTS = ["1e10000000", "1e-10000000", "3E+1_000_000_000", "0e4301", "-2.5e-4301"]


@pytest.mark.parametrize("value", HUGE_EXPONENTS)
def test_huge_exponent_in_model_exits_2_at_once(capsys, tmp_path, value):
    doc = {"mode": "configuration", "gram": [[-2]], "curves": [{"name": "C1"}],
           "ample": {"dots": [value], "self": 2}}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert json.loads(out)["error"]["code"] == "invalid_model"


@pytest.mark.parametrize("value", HUGE_EXPONENTS)
def test_huge_exponent_in_divisor_exits_2_at_once(capsys, quartic_file, value):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "decompose", quartic_file, json.dumps([value, 0, 0]))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert json.loads(out)["error"]["code"] == "invalid_model"


def test_exponents_up_to_the_limit_still_parse(capsys, tmp_path, quartic_file):
    assert model.MAX_EXPONENT == 4300
    # the largest powers of ten that print: 4300 digits in numerator and denominator
    doc = {"mode": "configuration", "gram": [[-2]], "curves": [{"name": "C1"}],
           "ample": {"dots": ["1e4299"], "self": "2.5e-4298"}}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 0 and json.loads(out)["valid"]
    m = model.model_from_json(path.read_text())
    assert m.ample_dots == (Fraction(10) ** 4299,)
    assert m.ample_self == Fraction(25, 10 ** 4299)
    code, out, _ = run_cli(capsys, "decompose", quartic_file, '["5e0", "0.7E1", "2_0e-1"]')
    assert code == 0
    assert json.loads(out)["divisor"] == {"coords": ["5", "7", "2"]}


@pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
                    reason="needs Python's default limit on integer-string digits")
def test_report_value_too_long_to_print_is_a_size_limit(capsys, quartic_file):
    """Each input prints, but the volume (about 4400 digits) does not."""
    code, out, _ = run_cli(capsys, "decompose", quartic_file, '["5e2200","7e2200","2e2200"]')
    assert code == 2
    error = json.loads(out)["error"]
    assert error["code"] == "size_limit"
    assert "4300" not in error["message"]


@pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
                    reason="needs Python's default limit on integer-string digits")
def test_values_too_long_to_print_are_refused(capsys, quartic_file):
    code, out, _ = run_cli(capsys, "decompose", quartic_file, '["1e4300", "1e4300", "1e4300"]')
    assert code == 2
    assert json.loads(out)["error"]["code"] == "invalid_model"
    m = gallery.quartic_example().model
    for value in ["1e4300", "-1e4300", "1e-4300", "1/%s" % ("9" * 4301), 10 ** 4300, -(10 ** 4300)]:
        with pytest.raises(InvalidModel):
            model.divisor_from_document(m, [value, 0, 0])
    # one digit fewer parses, and the divisor prints
    for value in ["1e4299", "-1e4299", "1e-4299", "%s/7" % ("9" * 4300), 10 ** 4300 - 1]:
        d = model.divisor_from_document(m, [value, 0, 0])
        assert json.dumps(model.divisor_to_document(m, d))


# ---------------------------------------------------------------------------
# fuzzing the command-line boundary
# ---------------------------------------------------------------------------

# leaves that are not small integers: rational strings (some over the
# exponent limit), malformed strings and JSON values of the wrong type
_odd_leaves = st.one_of(
    st.sampled_from(["1/2", "-3/4", "0", "1/0", "2.5e-2", "1e4300", "x", "", *HUGE_EXPONENTS]),
    st.booleans(),
    st.none(),
    st.floats(),
    st.text(max_size=4),
)
_any_json = st.recursive(
    st.one_of(st.integers(-3, 3), _odd_leaves),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=5), inner, max_size=4)
    ),
    max_leaves=12,
)


@st.composite
def _fuzz_cases(draw):
    """A model document with at most 4 curves and 4 lattice dimensions, and
    a divisor argument.  Models are near-valid configurations, the gallery's
    full lattices, random full lattices or arbitrary JSON; in half the cases
    some of their entries are odd leaves.  Divisors mostly fit the model."""
    spoil = draw(st.booleans())

    def leaf(good):
        return draw(_odd_leaves) if spoil and draw(st.integers(0, 5)) == 0 else draw(good)

    kind = draw(st.sampled_from(["configuration", "gallery", "full_lattice", "any"]))
    n = k = draw(st.integers(0, 4))
    if kind == "any":
        doc = draw(_any_json)
    elif kind == "gallery":
        entry = gallery.gallery_entry(draw(st.sampled_from(gallery.GALLERY_IDS)))
        base = model.model_to_document(entry.model)
        doc = json.loads(json.dumps(base), parse_int=lambda x: leaf(st.just(int(x))))
        n, k = len(base["curves"]), len(base["gram"])
    elif kind == "configuration":
        meet = {(i, j): leaf(st.integers(0, 2)) for i in range(n) for j in range(i + 1, n)}
        doc = {
            "mode": leaf(st.just(kind)),
            "gram": [[leaf(st.just(-2)) if i == j else meet[min(i, j), max(i, j)]
                      for j in range(n)] for i in range(n)],
            "curves": [{"name": "C%d" % i} for i in range(n)],
            "ample": {"dots": [leaf(st.integers(1, 3)) for _ in range(n)],
                      "self": leaf(st.integers(1, 4))},
        }
    else:
        k = draw(st.integers(1, 4))
        form = {(i, j): leaf(st.integers(-2, 2)) for i in range(k) for j in range(i, k)}
        doc = {
            "mode": leaf(st.just(kind)),
            "gram": [[form[min(i, j), max(i, j)] for j in range(k)] for i in range(k)],
            "curves": [{"name": "C%d" % i, "coords": [leaf(st.integers(-1, 1)) for _ in range(k)]}
                       for i in range(n)],
            "ample": {"coords": [leaf(st.integers(-1, 2)) for _ in range(k)]},
        }

    small = st.integers(-3, 5)
    shape = draw(st.sampled_from(["coords", "ample", "text", "any"]))
    fits = k if shape != "ample" else n
    length = draw(st.sampled_from([fits, fits, fits, 0, 5]))
    entries = [leaf(small) for _ in range(length)]
    if shape == "text":
        return doc, ",".join(str(x) for x in entries)
    if shape == "any":
        return doc, json.dumps(draw(_any_json))
    if shape == "ample":
        return doc, json.dumps({"t": leaf(small), "a": entries})
    return doc, json.dumps(entries)


@settings(max_examples=200)
@given(_fuzz_cases(), st.sampled_from(["validate", "decompose", "chambers"]))
def test_cli_boundary_fuzz(case, command):
    """Whatever the documents, the CLI exits 0, 2 or 3 with one JSON
    document on stdout, which names an error code on a non-zero exit."""
    doc, divisor = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(doc))
        # "--" so that a divisor such as "-x,0" is not read as an option
        argv = [command, str(path)] + (["--", divisor] if command == "decompose" else [])
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    assert code in (0, 2, 3)
    report = json.loads(out.getvalue())
    if code:
        assert isinstance(report["error"]["code"], str)


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["decompose", "quartic.json", "-x"],
    ["chambers"],
    ["nosuchcommand"],
    ["random", "--seed", "abc", "--n", "3"],
    [],
])
def test_usage_error_prints_a_json_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "invalid_input"
    assert err.startswith("usage: k3chambers")
    assert "error:" in err


def test_help_still_exits_0(capsys):
    for argv in (["--help"], ["decompose", "--help"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: k3chambers")


# ---------------------------------------------------------------------------
# the decompose query path
# ---------------------------------------------------------------------------


def test_decompose_makes_no_pair_call_and_reports_the_result_volume(
    capsys, quartic_file, monkeypatch
):
    """After the model is loaded, a decompose query calls model.pair not at
    all (D^2 and D.H come from one integer product inside
    zariski_decompose) and prints the result's volume."""
    pairs = []
    results = []
    real_pair, real_load, real_decompose = model.pair, cli._load_model, zariski.zariski_decompose

    def counting_pair(m, d1, d2):
        pairs.append((d1, d2))
        return real_pair(m, d1, d2)

    def load(path):  # validation pairs too; count from here on
        m = real_load(path)
        monkeypatch.setattr(model, "pair", counting_pair)
        return m

    def decompose(m, d):
        results.append((m, real_decompose(m, d)))
        return results[-1][1]

    monkeypatch.setattr(cli, "_load_model", load)
    monkeypatch.setattr(zariski, "zariski_decompose", decompose)
    # N = L1 + 3 L2 here, so P^2 = 24 differs from D^2
    code, out, _ = run_cli(capsys, "decompose", quartic_file, "[5,7,2]")
    assert code == 0
    (m, result), = results
    assert pairs == []
    nef = result.nef_part
    assert result.volume == real_pair(m, nef, nef) == 24
    assert json.loads(out)["volume"] == str(result.volume)


# ---------------------------------------------------------------------------
# the report emitter
# ---------------------------------------------------------------------------

# strings with control characters, quotes, backslashes, non-BMP characters
# and lone surrogates
_report_text = st.text(
    alphabet=st.one_of(
        st.characters(codec=None),
        st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x7f", " ", "\ud800", "\udcff",
                         "\U0001d538", "\U0010ffff"]),
    ),
    max_size=8,
)
_report_docs = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.integers(-(10 ** 40), 10 ** 40), _report_text
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(_report_text, max_size=4),
        st.dictionaries(_report_text, inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=300)
@given(_report_docs)
def test_emit_writes_what_json_dumps_writes(doc):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(doc)
    assert out.getvalue() == json.dumps(doc, indent=2) + "\n"


def test_emit_edge_values():
    docs = [{}, [], "", 0, -1, 10 ** 300, True, None, {"": []}, [[], {}, [[]]], {"a": {"b": {}}},
            ["x", "\ud800"], {"\udcff": "\U0001d538\"\\\x1f"}]
    for doc in docs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit(doc)
        assert out.getvalue() == json.dumps(doc, indent=2) + "\n", doc


@pytest.mark.parametrize("bad", [
    {"a": [1, 2.5]},  # no floats in reports
    {"a": (1, 2)},
    {"a": {1: "x"}},
    {"a": ["x", ("y",)]},
    {"a": Fraction(1, 2)},
])
def test_a_report_that_is_not_json_exits_4(capsys, monkeypatch, bad):
    """A value that a report may not hold ends in an internal_invariant
    report, alone on stdout, not in a traceback or a partial report."""
    monkeypatch.setattr(model, "model_to_document", lambda m: {"schema_version": 1, **bad})
    code, out, _ = run_cli(capsys, "gallery", "quartic")
    assert code == 4
    assert json.loads(out)["error"]["code"] == "internal_invariant"
