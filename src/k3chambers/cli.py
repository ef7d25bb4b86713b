"""Command-line front end.

Every subcommand prints a deterministic JSON report on standard output
(reports carry a top-level schema_version).  Exit codes: 0 on success, 2 on
invalid input or input over a size limit (size_limit), 3 when a query is
mathematically infeasible (non-big divisor, non-negative-definite curve set,
unsupported divisor form), 4 when an internal invariant check fails (a bug,
reported as internal_invariant) or another failure inside the package
occurs.  Each error class in ``errors`` carries its exit code.

Every intersection number in a report comes from the model's one integer
form (``SurfaceModel.pairing_form``): ``model.pair`` evaluates it, and the
curve pairings use its curve rows.  The volume of ``decompose`` is the
``ZariskiResult.volume`` computed with the decomposition, not a second
pairing.

Reports are written by ``_emit``, which reproduces ``json.dumps(doc,
indent=2)`` byte for byte but writes only dict (str keys), list, str, int,
bool and None; any other value, a float included, is an internal error
(exit 4) and nothing of that report is written.

``main`` builds the top-level parser and only the parser of the subcommand
that the command line starts with; help, an unknown command or an empty
command line build every subcommand's parser.  Help, usage and error text
are the same either way.  No parser is kept between calls.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from . import chambers, gallery, model, plot, zariski
from .errors import InvalidModel, InvariantViolated, K3ChambersError, SizeLimit

SCHEMA_VERSION = 1

_ASSUMPTION_NOTE = (
    "note: nef/big verdicts are relative to the listed curve classes; "
    "the curve list is assumed complete."
)


_quote = json.encoder.encode_basestring_ascii


def _encode(value, indent: str, out: list) -> None:
    """Append the parts of ``value`` as ``json.dumps(value, indent=2)``
    writes it, at the given indent, to ``out``.  Only the JSON types a
    report is built from are written: dict with str keys, list, str, int,
    bool and None; anything else, a float included, is an internal error."""
    kind = type(value)
    if kind is str:
        out.append(_quote(value))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key, item in value.items():
            if type(key) is not str:
                raise InvariantViolated("report key %r is not a string" % (key,))
            out.append(sep + _quote(key) + ": ")
            _encode(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif kind is list:
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        if all(type(x) is str for x in value):
            out.append("[\n" + inner + (",\n" + inner).join(map(_quote, value)))
        else:
            sep = "[\n" + inner
            for item in value:
                out.append(sep)
                _encode(item, inner, out)
                sep = ",\n" + inner
        out.append("\n" + indent + "]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif kind is int:
        out.append(repr(value))
    else:
        raise InvariantViolated("report value of type %s is not a JSON type" % kind.__name__)


def _emit(doc: dict) -> None:
    """Write the report as ``json.dumps(doc, indent=2)`` does, and a
    newline.  The whole text is built before anything is written, so a
    report that cannot be written leaves stdout empty for its error; its
    parts are written without being joined, so it is not held twice."""
    out: list = []
    _encode(doc, "", out)
    out.append("\n")
    sys.stdout.writelines(out)


def _banner() -> None:
    print(_ASSUMPTION_NOTE, file=sys.stderr)


def _read_model(path: str) -> model.SurfaceModel:
    """The model document at ``path``, parsed but not validated."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InvalidModel("cannot read model file: %s" % exc) from exc
    return model.model_from_json(text)


def _load_model(path: str) -> model.SurfaceModel:
    m = _read_model(path)
    report = model.validate_model(m)
    if not report.valid:
        raise InvalidModel(_failed_validation(report))
    return m


def _failed_validation(report: model.ValidationReport) -> str:
    return "model failed validation: " + "; ".join(report.failures)


def _parse_divisor(m: model.SurfaceModel, text: str) -> model.DivisorClass:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = [part.strip() for part in text.split(",")]
    return model.divisor_from_document(m, doc)


def _indices_for_names(m: model.SurfaceModel, names) -> tuple[int, ...]:
    lookup = {name: i for i, name in enumerate(model.curve_names(m))}
    out = []
    for name in names:
        if name not in lookup:
            raise InvalidModel(
                "unknown curve name %r (known: %s)" % (name, ", ".join(lookup))
            )
        out.append(lookup[name])
    return tuple(sorted(set(out)))


def _names(m: model.SurfaceModel, indices) -> list[str]:
    names = model.curve_names(m)
    return [names[i] for i in indices]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    report = model.validate_model(_read_model(args.model))
    doc = {
        "schema_version": SCHEMA_VERSION,
        "valid": report.valid,
        "failures": list(report.failures),
    }
    if not report.valid:
        doc["error"] = {"code": InvalidModel.code, "message": _failed_validation(report)}
    _emit(doc)
    return 0 if report.valid else 2


def _cmd_decompose(args) -> int:
    m = _load_model(args.model)
    _banner()
    d = _parse_divisor(m, args.divisor)
    result = zariski.zariski_decompose(m, d)
    neg_names = _names(m, (i for i, _ in result.neg_coeffs))
    _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "divisor": model.divisor_to_document(m, d),
            "P": model.divisor_to_document(m, result.nef_part),
            "N": dict(zip(neg_names, model.rational_texts(b for _, b in result.neg_coeffs))),
            "neg_set": _names(m, result.neg_set),
            "null_set": _names(m, result.null_set),
            "volume": model.rational_texts([result.volume])[0],
            "boundary": set(result.null_set) > set(result.neg_set),
        }
    )
    return 0


def _cmd_chambers(args) -> int:
    m = _load_model(args.model)
    _banner()
    chambers.check_weyl_size(m)  # refuse before any work, not after the Zariski atlas
    z = chambers.enumerate_zariski_chambers(m)
    w = chambers.enumerate_weyl_chambers(m)
    bij = chambers.verify_bijection(z, w)
    _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "curves": list(model.curve_names(m)),
            "zariski": chambers.atlas_to_document(m, z),
            "weyl": chambers.atlas_to_document(m, w),
            "bijection": {
                "equal": bij.equal,
                "only_zariski": [_names(m, s) for s in bij.only_zariski],
                "only_weyl": [_names(m, s) for s in bij.only_weyl],
            },
        }
    )
    return 0


def _cmd_compare(args) -> int:
    m = _load_model(args.model)
    _banner()
    report = chambers.decompositions_coincide(m)
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "coincide": report.coincide,
        "pair": None if report.pair is None else _names(m, report.pair),
        "witness": None
        if report.witness is None
        else model.divisor_to_document(m, report.witness),
    }
    if report.witness is not None:
        check = zariski.is_big(m, report.witness)
        doc["witness_weyl_support"] = _names(
            m, chambers.weyl_signature(m, report.witness, check).support
        )
        doc["witness_zariski_support"] = _names(
            m, chambers.zariski_chamber_of(m, report.witness, check.decomposition).support
        )
    _emit(doc)
    return 0


def _cmd_criteria(args) -> int:
    m = _load_model(args.model)
    _banner()
    s = _indices_for_names(m, args.names)
    wz = chambers.weyl_in_zariski(m, s)
    zw = chambers.zariski_interior_in_weyl(m, s)
    _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "set": _names(m, s),
            "ade": list(chambers.classify_ade(m, s)),
            **chambers.verdicts_to_document(model.curve_names(m), wz, zw),
        }
    )
    return 0


def _cmd_witness(args) -> int:
    m = _load_model(args.model)
    _banner()
    s = _indices_for_names(m, args.names)
    if not s:
        raise InvalidModel("witness needs a nonempty curve set")
    d = chambers.weyl_witness(m, s)
    dots = model.pairings_with_curves(m, d)
    names = model.curve_names(m)
    _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "set": _names(m, s),
            "divisor": model.divisor_to_document(m, d),
            "pairings": dict(zip(names, model.rational_texts(dots))),
        }
    )
    return 0


def _cmd_plot(args) -> int:
    m = _load_model(args.model)
    _banner()
    corners = None
    if args.corners is not None:
        corners = tuple(_parse_divisor(m, text) for text in args.corners)
    spec = plot.CrossSectionSpec(
        corners=corners, resolution=args.res, coloring=args.mode
    )
    cs = plot.classify_cross_section(m, spec)
    svg = plot.render_cross_section(m, cs)
    Path(args.output).write_bytes(svg.encode("utf-8"))
    attained = {kind: cs.attained_supports(kind) for kind in cs.kinds}
    _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "output": args.output,
            "resolution": args.res,
            "mode": args.mode,
            "panels": {
                kind: {
                    "regions": len(supports),
                    "supports": [
                        _names(m, s) for s in sorted(supports, key=lambda s: (len(s), s))
                    ],
                }
                for kind, supports in attained.items()
            },
        }
    )
    return 0


def _cmd_gallery(args) -> int:
    try:
        entry = gallery.gallery_entry(args.id)
    except KeyError as exc:
        raise InvalidModel(str(exc.args[0])) from exc
    _emit(model.model_to_document(entry.model))
    return 0


def _cmd_random(args) -> int:
    if args.n < 0 or args.n > chambers.MAX_WEYL_CURVES:
        raise InvalidModel("curve count must be between 0 and %d" % chambers.MAX_WEYL_CURVES)
    if not 0 <= args.density <= 1:
        raise InvalidModel("edge density must be between 0 and 1")
    m = gallery.random_configuration(args.seed, args.n, args.density)
    _emit(model.model_to_document(m))
    return 0


class _UsageError(ValueError):
    """A command line that argparse refuses; reported as invalid_input."""


class _Parser(argparse.ArgumentParser):
    """Reads a token that starts with a minus sign and a number, such as
    the divisor ``-1,0,5``, as a value rather than as an unknown option.
    argparse already reads plain negative numbers (``-1``) as values by
    matching this attribute; the wider pattern is safe because no option of
    this CLI starts with a minus sign and a digit.

    A usage error prints usage and message on stderr, as argparse does, and
    then raises instead of exiting, so that ``main`` reports it as JSON."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise _UsageError(message)


def _model_args(p) -> None:
    p.add_argument("model")


def _decompose_args(p) -> None:
    p.add_argument("model")
    p.add_argument("divisor", help='JSON divisor, e.g. "[5,7,2]" or \'{"t":1,"a":[1,0,0]}\'')


def _criteria_args(p) -> None:
    p.add_argument("model")
    p.add_argument("names", nargs="*", help="curve names forming the set")


def _witness_args(p) -> None:
    p.add_argument("model")
    p.add_argument("names", nargs="+")


def _plot_args(p) -> None:
    p.add_argument("model")
    p.add_argument("--corners", nargs=3, metavar="DIV", default=None)
    p.add_argument("--res", type=int, default=400)
    p.add_argument(
        "--mode",
        choices=[plot.MODE_WEYL, plot.MODE_ZARISKI, plot.MODE_BOTH],
        default=plot.MODE_BOTH,
    )
    p.add_argument("-o", "--output", required=True)


def _gallery_args(p) -> None:
    p.add_argument("id", help="one of: %s" % ", ".join(gallery.GALLERY_IDS))


def _random_args(p) -> None:
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--density", type=float, default=0.4,
        help="chance that two curves meet, between 0 and 1",
    )


# name -> (handler, help, function adding the subcommand's arguments), in
# the order that the top-level help lists them
_SUBCOMMANDS = {
    "validate": (_cmd_validate, "check a model document", _model_args),
    "decompose": (_cmd_decompose, "Zariski decomposition of a divisor", _decompose_args),
    "chambers": (_cmd_chambers, "enumerate both chamber families", _model_args),
    "compare": (_cmd_compare, "decide whether the decompositions coincide", _model_args),
    "criteria": (_cmd_criteria, "inclusion criteria for one support set", _criteria_args),
    "witness": (_cmd_witness, "divisor pairing to -1 with the given curves", _witness_args),
    "plot": (_cmd_plot, "render a cross-section of the chamber structure", _plot_args),
    "gallery": (_cmd_gallery, "print a built-in model document", _gallery_args),
    "random": (_cmd_random, "print a seeded random configuration model", _random_args),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The command-line parser.  When ``command`` names a subcommand, only
    that subcommand's parser is built, since it is the only one a command
    line starting with it can reach; otherwise (help, an unknown command,
    no command) every subcommand's parser is built.  Either way help,
    usage and error text are the same."""
    parser = _Parser(
        prog="k3chambers",
        description="Exact Zariski/Weyl chamber computations on K3 lattice models",
    )
    single = command in _SUBCOMMANDS
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        # with one subcommand built, the usage line still names them all
        metavar="{%s}" % ",".join(_SUBCOMMANDS) if single else None,
    )
    for name in [command] if single else _SUBCOMMANDS:
        func, help_text, add_arguments = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=func)
    return parser


def _error_doc(exc: Exception, code: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "error": {"code": code, "message": str(exc)},
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        return args.func(args)
    except K3ChambersError as exc:
        _emit(_error_doc(exc, exc.code))
        return exc.exit_code
    except ValueError as exc:
        _emit(_error_doc(exc, "invalid_input"))
        return 2
    except MemoryError:
        pass
    # out of the except block, the traceback and the partial work are freed
    _emit(_error_doc(SizeLimit("out of memory"), SizeLimit.code))
    return SizeLimit.exit_code


if __name__ == "__main__":
    sys.exit(main())
