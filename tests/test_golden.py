"""Byte-level pins of CLI outputs on fixed inputs.

Every report and SVG is byte-deterministic, so a refactor must leave these
sha256 digests unchanged; only a deliberate change of output may update
them.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from k3chambers import cli, linalg

MODELS = {
    "quartic.json": ["gallery", "quartic"],
    "double-cover.json": ["gallery", "double-cover"],
    "random.json": ["random", "--seed", "3", "--n", "7", "--density", "0.2"],
    "random9.json": ["random", "--seed", "0", "--n", "9", "--density", "0.2"],
    "random9-3.json": ["random", "--seed", "3", "--n", "9", "--density", "0.2"],
    "random12.json": ["random", "--seed", "148", "--n", "12", "--density", "0.2"],
    "random12-sparse.json": ["random", "--seed", "0", "--n", "12", "--density", "0.1"],
    # the configuration model of the benchmark's plots
    "random6.json": ["random", "--seed", "0", "--n", "6", "--density", "0.2"],
}

# curve names that the report must escape: non-ASCII, non-BMP, a quote, a
# backslash, a control character and the lone surrogate that Python reads an
# undecodable command-line byte as
ESCAPE_NAMES = ["\u00e9t\u00e9", "q\"b\\s", "x\udcff", "\U0001d538\t"]

FILES = {
    "escape.json": json.dumps({
        "mode": "configuration",
        "gram": [[-2, 1, 0, 0], [1, -2, 0, 0], [0, 0, -2, 1], [0, 0, 1, -2]],
        "curves": [{"name": name} for name in ESCAPE_NAMES],
        "ample": {"dots": [1, 1, 1, 1], "self": 4},
    }),
    # the quartic with its first line moved off the lattice basis
    "invalid.json": json.dumps({
        "mode": "full_lattice",
        "gram": [[-2, 1, 2], [1, -2, 2], [2, 2, -2]],
        "curves": [{"name": "L1", "coords": [1, 0, 1]}, {"name": "L2", "coords": [0, 1, 0]},
                   {"name": "C", "coords": [0, 0, 1]}],
        "ample": {"coords": [1, 1, 1]},
    }),
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
    "compare quartic": (
        ["compare", "quartic.json"],
        "bff7626bd2cabc81a4eb52e7c9b7155b521687773806af03c0fca49381e7832e",
    ),
    "criteria quartic": (
        ["criteria", "quartic.json", "L1", "L2"],
        "09bcaef5678b912b1412ef7efba38c6f910ff85b06c6ce6402e14de609df3f69",
    ),
    "witness quartic": (
        ["witness", "quartic.json", "L1", "L2"],
        "8cadce3fcecbd1d4d3e959ed8833e092c046cdba3dd3d8a59acec6c87768d637",
    ),
    "validate quartic": (
        ["validate", "quartic.json"],
        "50241d6077d4c546b13a255fcfb8aefffc320605189b44a2e65eea5edd72f130",
    ),
    "gallery double-cover": (
        ["gallery", "double-cover"],
        "492e049e540c1260a1b8e986de9b9874b992256eee38b44c7c2e3d4767c2fac2",
    ),
    "random seed 0 n 6": (
        ["random", "--seed", "0", "--n", "6"],
        "71719e2e9fad59dd44c486142886ad31f291c9ac53d0f525fc0361d686429850",
    ),
    "criteria escaped names": (
        ["criteria", "escape.json", *ESCAPE_NAMES],
        "f1e335fca4b1148d24702cb594e9f3ab7fe8d078765e91c3f8bfcab7f00b91e1",
    ),
    # reports of failing exits; EXIT_CODES has their codes
    "validate invalid": (
        ["validate", "invalid.json"],
        "d0ff3ea01ce501057c9f4a91ed23a02ae65048d22aed071e2a77af4e5ebb9fb6",
    ),
    # the message holds the known names as they are, so the report escapes them
    "criteria unknown name": (
        ["criteria", "escape.json", "nosuch"],
        "f16ddfa3e81bf19dd8091dc909248a06321cad761125be8f2008b242382422f9",
    ),
    "criteria not negative definite": (
        ["criteria", "quartic.json", "L1", "C"],
        "61398a29b181f0f3cf47aa7a9f97296aadbd0aa0cc0688bec3b38f3d20131512",
    ),
    "plot quartic": (
        ["plot", "quartic.json", "--res", "40", "-o", "plot.svg"],
        "f3999e607666405aafcc52183a37d91d6357f5ac6f9b55b4c8eb42c39bf796b8",
    ),
    "plot quartic weyl": (
        ["plot", "quartic.json", "--res", "40", "--mode", "weyl", "-o", "plot.svg"],
        "496330f7b5103ffd90d34ad2eae367dc0acdd487bf62d8b8b4f714ce1367f946",
    ),
    "plot quartic zariski": (
        ["plot", "quartic.json", "--res", "40", "--mode", "zariski", "-o", "plot.svg"],
        "a67d2cd55fd6d5ef3f3eff93d525f02e788ac938736083513fa0e78a4583b8e4",
    ),
    # corners with L1-pairings (0, 1, -1): samples with equal second and
    # third weights lie on the L1 wall and are drawn gray
    "plot quartic wall corners": (
        ["plot", "quartic.json", "--res", "40", "-o", "plot.svg",
         "--corners", "[2,2,1]", "[1,1,1]", "[4,3,2]"],
        "acb73197f424569202bae3e062abcab570e5417c5d6c5599a755d5fe961d0a39",
    ),
    "plot double-cover": (
        ["plot", "double-cover.json", "--res", "40", "-o", "plot.svg"],
        "e86d0741a6e2e45848a3012b85ebcbe2e308e939b2d3db5a87ed20d94758eb06",
    ),
    # configuration mode, default corners H + C_i
    "plot random n6": (
        ["plot", "random6.json", "--res", "40", "-o", "plot.svg"],
        "02c2e66be1592cd73164ad492c5f7e7be1edec19b4dfcf31d16aa670248d4208",
    ),
    # the benchmark's grid size on the quartic
    "plot quartic res 200": (
        ["plot", "quartic.json", "--res", "200", "-o", "plot.svg"],
        "439e6da9bab6882b912deaa947048d3782edfacfde93cf9ce44418bfba5a3566",
    ),
    # a hyperbolic n = 12 model: the triangle crosses the walls of 12 Weyl
    # and 13 Zariski chambers, and a quarter of its samples, toward the
    # corner with t = -1, are not big
    "plot random n12 wall crossing": (
        ["plot", "random12.json", "--res", "100", "-o", "plot.svg", "--corners",
         '{"t":1,"a":[0,0,0,2,0,2,0,0,0,0,1,0]}', '{"t":1,"a":[0,0,1,3,0,3,0,3,0,3,1,1]}',
         '{"t":-1,"a":[0,3,0,0,3,3,0,0,0,2,2,0]}'],
        "175b9f4f50db7e3ea16c3c6fd40e4ebf48c299f95d931e42fd202f9acd0b4d8f",
    ),
    # a model that is not hyperbolic (inertia (2, 6, 0)): between two big
    # samples of one chamber on a grid row, one sample here is not big
    "plot random not hyperbolic": (
        ["plot", "random.json", "--res", "60", "-o", "plot.svg", "--corners",
         '{"t":-1,"a":[3,1,-1,-1,3,2,1]}', '{"t":2,"a":[0,-1,1,-1,-1,-1,-1]}',
         '{"t":-1,"a":[1,2,3,3,3,3,0]}'],
        "85e59c5774bdb276ae8f447f7a30ce3cb66ec36ced2a94fe0964dee68c1774a3",
    ),
}

EXIT_CODES = {
    "validate invalid": 2,
    "criteria unknown name": 2,
    "criteria not negative definite": 3,
}

# the report of a witness whose solve comes back negative (exit 4)
INVARIANT_DIGEST = "fb909dca0dc8a7b6e6bd182456605f4686e3d34039ade4eae01a6b12aa689e89"

# the SVG that each plot case of STDOUT_DIGESTS writes
PLOT_SVG_DIGESTS = {
    "plot quartic": "3dfc890a14169ec9402246ccc053ff7ba23bc9caf70c3a303283b9bebaec331e",
    "plot quartic weyl": "1590627faa4ed8260709a8174bcb70f840773eba7cab8da05b6044aa201d98cb",
    "plot quartic zariski": "5656aeca4c30b0ad993c7deff2007467231edb4612df80b4c318e4b39e42feb4",
    "plot quartic wall corners": "838429a1a8a688075a4aaab36f137b230e3d9ed4932dcda370bb466911df0998",
    "plot double-cover": "0e5437105d0b3a7fae742bdc0a70600303e2eff46defa95900ec7b671308f7a3",
    "plot random n6": "a032269917e15f300a1505210c4cc10c1066953500774ee3d8e5053294748590",
    "plot quartic res 200": "848b4c6bca9e031109b302c22a82d21410f1a3c3267b92b3ae7274ef5b3e7930",
    "plot random n12 wall crossing": "c142d1ea5f71f4012f7a049bae9a7e7680474a7c5130fd56048d6ed28f3fa033",
    "plot random not hyperbolic": "2d2ed65bd5f7599b0a3a0f4072c0e163f2639d4b655ed4cf54212aac19e35d5c",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture()
def model_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, argv in MODELS.items():
        assert cli.main(argv) == 0
        (tmp_path / name).write_text(capsys.readouterr().out)
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    return tmp_path


@pytest.mark.parametrize("case", sorted(STDOUT_DIGESTS))
def test_stdout_digest(case, model_dir, capsys):
    argv, digest = STDOUT_DIGESTS[case]
    assert cli.main(argv) == EXIT_CODES.get(case, 0)
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == digest


@pytest.mark.parametrize("case", sorted(PLOT_SVG_DIGESTS))
def test_plot_svg_digest(case, model_dir, capsys):
    assert cli.main(STDOUT_DIGESTS[case][0]) == 0
    assert _sha256((model_dir / "plot.svg").read_bytes()) == PLOT_SVG_DIGESTS[case]


def test_internal_invariant_digest(model_dir, capsys, monkeypatch):
    real = linalg.solve_negative_definite

    def wrong(s, rhs=()):
        sols = real(s, rhs)
        return sols if sols is None else tuple(tuple(Fraction(-1) for _ in b) for b in rhs)

    monkeypatch.setattr(linalg, "solve_negative_definite", wrong)
    assert cli.main(["witness", "quartic.json", "L1"]) == 4
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == INVARIANT_DIGEST
