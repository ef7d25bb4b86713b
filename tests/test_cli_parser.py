"""Pins of the command line's help, usage and error output.

Each pin holds the exit code and the bytes of stdout and stderr that
argparse and the JSON error report give for one help, usage or error
command line, so that a change to how the parser is built shows here.
"""

import contextlib
import hashlib
import io
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from k3chambers import cli, gallery, model

EMPTY = hashlib.sha256(b"").hexdigest()

# (argv, exit code, sha256 of stdout, sha256 of stderr), with COLUMNS=80.
# Where a digest is a pair, Python 3.13 wraps usage and prints an option's
# metavar once ("-o, --output OUTPUT"), and the pair is (before 3.13, 3.13).
# No file is read: each line ends in help or a usage error first.
USAGE_PINS = [
    ([], 2,
     "c797bac821d1007f4e65999e255c52aaf661a2cad2552014f788b72949e853b9",
     ("cf2c2ab056b0be5aa46ef74b784d2ffb3c6894df67eff44309db9a017ac74a20",
      "5b1ce9e15f7a97dd14f02837ba432e2dbc4d524864c873b83aba0d007577735f")),
    (["-h"], 0,
     ("18939320fb9ce3603bb8bbd3c74477adecbe050534e3908ca8c5fec9103d7aa7",
      "ea5293bbe22eb1bb67b0329b3391328caa981055deeb0ffd434f6585f856213f"),
     EMPTY),
    (["--help"], 0,
     ("18939320fb9ce3603bb8bbd3c74477adecbe050534e3908ca8c5fec9103d7aa7",
      "ea5293bbe22eb1bb67b0329b3391328caa981055deeb0ffd434f6585f856213f"),
     EMPTY),
    (["-x"], 2,
     "c797bac821d1007f4e65999e255c52aaf661a2cad2552014f788b72949e853b9",
     ("cf2c2ab056b0be5aa46ef74b784d2ffb3c6894df67eff44309db9a017ac74a20",
      "5b1ce9e15f7a97dd14f02837ba432e2dbc4d524864c873b83aba0d007577735f")),
    (["--seed", "1"], 2,
     "de465f574fb11c4b689f6811e4a8895fbeaaf2b36ac4bf78a6636e60c160dc67",
     ("e56dddfed947458a3b95e40304a9fc258e63317c906382a54aabc6cfebf120a5",
      "5fc76f18b726d1818c522dc607b4001ad2c2d2f2b4abdacadabcd80f236c7ea0")),
    (["nosuchcommand"], 2,
     "78d709f2c6582d64dcc10b3ed7d32a60d2488df14ea74fafb92551c3b0609174",
     ("ecdbb55f36cd1b0bdce2458e136f76f57cf23a0d542435eb623c9e3c9211e881",
      "85c9511e974666127c24d4f081b052937798cfebaf9afe6f06a5aadb4dc615bb")),
    (["validate", "-h"], 0,
     "c989aacd0b3dc5487ad7644d0673e5c368e0e0bba441656c231a62284084a871",
     EMPTY),
    (["decompose", "-h"], 0,
     "12e79f9203102642f9d849c36e88872367a8523f03964884aae197dd2351267b",
     EMPTY),
    (["chambers", "-h"], 0,
     "9765c9311c551262a97be8e198d44303f9e2b6ada6821c8bf1946393640493b1",
     EMPTY),
    (["compare", "-h"], 0,
     "6aba4a7067b88d3a7c3a772249c447c93701a2d86c49c746a2155ee531dedb50",
     EMPTY),
    (["criteria", "-h"], 0,
     "c7706c5fc4e8eb887828b96109054fc02c9a5e6d8e8f0d9a3a831df2858c33bc",
     EMPTY),
    (["witness", "-h"], 0,
     "5fc76e2ed8d6d287b4ff42ebb9b3b74975484c2c6b1c8427238c8ac5dfce457c",
     EMPTY),
    (["plot", "-h"], 0,
     ("21d75f206bf10e86c02bacace5d11f5050cbd09be910b41caf19f2eb26f449db",
      "c00ae0091f25def6dee2a6e321eadb140e4867062ee42862a508dcd906509a90"),
     EMPTY),
    (["gallery", "-h"], 0,
     "0aa3fdc3b5a26133c4e728937be9f4999dc461beb540b16c6e0b31acc062093d",
     EMPTY),
    (["random", "-h"], 0,
     "967a659ebc2f0f610db4f5cbc71aa84b4f854865c97c5c9bcd05f59296e40c34",
     EMPTY),
    (["decompose", "q.json"], 2,
     "3d9734d9a58fb822098beb3df2a0b14d159044a71ac3832eea264391296fadd4",
     "f26aa3ff43c146838cbe0b4054c7308733d5d6564d815d37eb1db21ea0fb676f"),
    (["chambers"], 2,
     "a551c424e1a6e3f646034cb549ad76bf8b9b914cc04c37e7b89a9d1984e33b38",
     "11a2f5d928005083276b92759f25be9258fe628f0e388bbee8c2d5e23a3ac5d9"),
    (["witness", "m"], 2,
     "0cf0714493aed6554652ac10065df226756a92d17e3510eb5586b9b92b851724",
     "6bd86349fad2246e8d5b104ce66a65609f2154c61170b4253a2fe9134c7f6e64"),
    (["decompose", "q.json", "-x"], 2,
     "3d9734d9a58fb822098beb3df2a0b14d159044a71ac3832eea264391296fadd4",
     "f26aa3ff43c146838cbe0b4054c7308733d5d6564d815d37eb1db21ea0fb676f"),
    (["validate", "--bogus", "m"], 2,
     "b74dab97587ee6b979b3feb4d1403d27074cc05939dfd0cbf21cfab76329f25d",
     ("2db9d0a47e7d7008a84ced4b4768faafda2ad8e87ceb683cfcba4a7b614f2f71",
      "0e3cafe3c69ce1a50d2c3770e3578b8f033b7aa6fa19b3da1fd685aa4baeeeac")),
    (["decompose", "q.json", "1,2", "extra"], 2,
     "9c0a79a16b0b7780f1ffa131d55a41b6e932f15f4fa3d19bcc9aa4a69867e435",
     ("f252353859a2f7d00b78fbf5b0d5dfeca4ffc5713e9463bfb46f89171eb6da19",
      "be225695b16842a911c309f3e34ac18273e62731b311f49051afc60c2fd94ad7")),
    (["chambers", "a", "b"], 2,
     "d7a19eef9e13fc2f5d16cada50748f35eb9699c2b9ead6d0942902be66c114aa",
     ("d8df8a5dfd9361eb13b80e452bfbcfef02df39261f298ea97b4a61aacf6cf72c",
      "b00023ce711e69d68e72eeceaa28969c931bddb7eba643463840ab8703674c36")),
    (["plot", "m.json", "--mode", "bad", "-o", "x"], 2,
     "57c6ec60c93b4cc36779642e081ca4ae548f84ed4119ba90fcfd9b4e7adad8a9",
     "648e68475bd7c616c726eed9e8b4d62da72a4415c17c3668540ad707757a41da"),
    (["plot", "m.json"], 2,
     "ed98b78d2aa902e7eec163739d09193974ef144dc5aabc7f60ae3c4e28b7681b",
     "8fb2f403bbe65fd2ad000f4f83f93ca5cbc2bf8a1ca7abb229590aa31ff35793"),
    (["random", "--seed", "abc", "--n", "3"], 2,
     "a56f968604486b188273f4f1434a4be1a2ced124e5df84bb6e3a947edcdf6ff9",
     "ef3f5b774fd969950f8dc0374e84c1cb6aff288f25f1cf45886bc85a9684d6bb"),
    (["decompose", "m", "-1,0,5", "--x"], 2,
     "68faa85f3b1ecbf3385a938875034387ce89dbe45dcb6f07afae47e71b0ce5a4",
     ("ffd18054d96ee26b1d6094c6fd0305a8d05c8724e4d325593b77ea806f5359e2",
      "64025e01db7635f96b9bf93f15fdfd0b20538aa7b2030c7c815d394937b06695")),
]


def _unquote_choices(text: str) -> str:
    """Later patch releases of Python print the choices of an invalid
    choice without quotes; the digests are taken of that wording."""
    return re.sub(
        r"\(choose from ([^)]*)\)",
        lambda m: "(choose from %s)" % m.group(1).replace("'", ""),
        text,
    )


def run_main(argv):
    """Exit code, stdout and stderr of ``cli.main(argv)``; help exits
    through SystemExit, as argparse does."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(_unquote_choices(text).encode("utf-8")).hexdigest()


@pytest.mark.skipif(sys.version_info[:2] > (3, 13), reason="pins recorded on Python 3.10-3.13")
@pytest.mark.parametrize(
    "argv, code, out, err", USAGE_PINS, ids=[" ".join(p[0]) or "(empty)" for p in USAGE_PINS]
)
def test_usage_pin(monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    pick = 1 if sys.version_info >= (3, 13) else 0
    got = run_main(argv)
    assert got[0] == code
    assert _digest(got[1]) == (out if isinstance(out, str) else out[pick])
    assert _digest(got[2]) == (err if isinstance(err, str) else err[pick])


# ---------------------------------------------------------------------------
# the parser of one subcommand against the full parser
# ---------------------------------------------------------------------------

SUBCOMMANDS = ["validate", "decompose", "chambers", "compare", "criteria", "witness",
               "plot", "gallery", "random"]
OPTIONS = ["--corners", "--res", "--mode", "-o", "--output", "--seed", "--n", "--density",
           "-h", "--help", "--"]
VALUES = ["m.json", "-1,0", "-1", "5,7,2", "[5,7,2]", "3", "0.5", "weyl", "both", "L1",
          "abc", "", "-x", "--x", "x.svg"]


def _parse(parser, argv):
    """What ``parser.parse_args(argv)`` gives: its Namespace, or the help
    or usage error it prints, and how it ends."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parser.parse_args(argv)
        except SystemExit as exc:
            result = ("exit", exc.code)
        except cli._UsageError as exc:
            result = ("usage error", str(exc))
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=300)
@given(
    st.one_of(st.sampled_from(SUBCOMMANDS), st.sampled_from(OPTIONS + VALUES)),
    st.lists(st.sampled_from(SUBCOMMANDS + OPTIONS + VALUES), max_size=7),
)
def test_one_subcommand_parses_as_the_full_parser(first, rest):
    argv = [first] + rest
    assert _parse(cli.build_parser(argv[0]), argv) == _parse(cli.build_parser(), argv)


def test_empty_command_line_parses_as_the_full_parser():
    assert _parse(cli.build_parser(None), []) == _parse(cli.build_parser(), [])


def _subcommands(parser):
    return list(next(a for a in parser._actions if a.dest == "command").choices)


def test_full_parser_lists_every_subcommand():
    assert _subcommands(cli.build_parser()) == SUBCOMMANDS
    assert _subcommands(cli.build_parser("nosuchcommand")) == SUBCOMMANDS
    assert _subcommands(cli.build_parser("decompose")) == ["decompose"]


def test_decompose_builds_two_parsers(monkeypatch, tmp_path):
    path = tmp_path / "quartic.json"
    path.write_text(model.model_to_json(gallery.quartic_example().model))
    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    assert run_main(["decompose", str(path), "5,7,2"])[0] == 0
    assert built == ["k3chambers", "k3chambers decompose"]


# ---------------------------------------------------------------------------
# where the command line comes from
# ---------------------------------------------------------------------------


def test_main_accepts_a_tuple(monkeypatch):
    expected = run_main(["gallery", "quartic"])
    assert expected[0] == 0
    assert run_main(("gallery", "quartic")) == expected
    # with no argv, the command line is sys.argv without the program name
    monkeypatch.setattr(sys, "argv", ["k3chambers", "gallery", "quartic"])
    assert run_main(None) == expected


def test_fresh_process_prints_the_in_process_bytes(tmp_path):
    path = tmp_path / "quartic.json"
    path.write_text(model.model_to_json(gallery.quartic_example().model))
    argv = ["decompose", str(path), "5,7,2"]
    code, out, err = run_main(argv)
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "k3chambers", *argv],
        capture_output=True, env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
    )
    assert code == 0
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())
