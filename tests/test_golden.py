"""Byte-level pins of CLI outputs on fixed inputs.

Every report and SVG is byte-deterministic, so a refactor must leave these
sha256 digests unchanged; only a deliberate change of output may update
them.
"""

import hashlib

import pytest

from k3chambers import cli

MODELS = {
    "quartic.json": ["gallery", "quartic"],
    "double-cover.json": ["gallery", "double-cover"],
    "random.json": ["random", "--seed", "3", "--n", "7", "--density", "0.2"],
    "random9.json": ["random", "--seed", "0", "--n", "9", "--density", "0.2"],
    "random9-3.json": ["random", "--seed", "3", "--n", "9", "--density", "0.2"],
    "random12.json": ["random", "--seed", "148", "--n", "12", "--density", "0.2"],
    "random12-sparse.json": ["random", "--seed", "0", "--n", "12", "--density", "0.1"],
}

STDOUT_DIGESTS = {
    "chambers quartic": (
        ["chambers", "quartic.json"],
        "f32c5142664c6609fe3d803f05aec476ec630aae65e561e669d5b938fb2fe5e3",
    ),
    "chambers double-cover": (
        ["chambers", "double-cover.json"],
        "7f3c02f7c44d4c519b6a5bca495b8f57a1686c0d19b7bf6b02f03db7d3261ced",
    ),
    "chambers random": (
        ["chambers", "random.json"],
        "7d4cf7fc1492346c3e1c37b676f6d58d5c0ad839ed47a5eec19cb3c024ce8f2d",
    ),
    # 512 Fourier-Motzkin systems whose samples carry rational entries
    "chambers random n9": (
        ["chambers", "random9.json"],
        "a34aab23accefb5d6c2883edd8b6bbf884dce4e055d4c917530f56171d096f59",
    ),
    # recorded with Chernikov's rule in Fourier-Motzkin; without it some of
    # these 512 systems grow past 20k rows and the run does not finish
    "chambers random n9 seed 3": (
        ["chambers", "random9-3.json"],
        "fb34bb19339c9c19ebe85b57ecff62db8637712ca72a8499fb4c74c405bdc8d9",
    ),
    # a hyperbolic model with 2968 chambers in each family; its curve graph
    # is a 9-curve component and three isolated curves.  Recorded before the
    # atlases were factored over the components
    "chambers random n12 seed 148": (
        ["chambers", "random12.json"],
        "879a4608cff79e6796a3de443e967b2c0410cf78906680cefb08982ff3050539",
    ),
    # a hyperbolic model (inertia (1, 12, 0)) with 4096 chambers: its 4096
    # Zariski supports split into 23552 connected pieces, only 13 distinct.
    # Recorded before the Zariski atlas joined its records from pieces
    "chambers random n12 seed 0 sparse": (
        ["chambers", "random12-sparse.json"],
        "830fca1035f9aeb6bad1d388999f4dc5f7a8e18d97a0001768f963ff1224af2e",
    ),
    "decompose quartic": (
        ["decompose", "quartic.json", "[5,7,2]"],
        "3c9739d2b86d1afdb39be98313616b65a2501fb0fe4de96aeffd8238c2db62cc",
    ),
    "plot quartic": (
        ["plot", "quartic.json", "--res", "40", "-o", "plot.svg"],
        "f3999e607666405aafcc52183a37d91d6357f5ac6f9b55b4c8eb42c39bf796b8",
    ),
}

PLOT_SVG_DIGEST = "3dfc890a14169ec9402246ccc053ff7ba23bc9caf70c3a303283b9bebaec331e"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture()
def model_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, argv in MODELS.items():
        assert cli.main(argv) == 0
        (tmp_path / name).write_text(capsys.readouterr().out)
    return tmp_path


@pytest.mark.parametrize("case", sorted(STDOUT_DIGESTS))
def test_stdout_digest(case, model_dir, capsys):
    argv, digest = STDOUT_DIGESTS[case]
    assert cli.main(argv) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == digest


def test_plot_svg_digest(model_dir, capsys):
    assert cli.main(STDOUT_DIGESTS["plot quartic"][0]) == 0
    assert _sha256((model_dir / "plot.svg").read_bytes()) == PLOT_SVG_DIGEST
