"""Command-line front end.

Every subcommand prints a deterministic JSON report on standard output
(reports carry a top-level schema_version).  Exit codes: 0 on success, 2 on
invalid input, 3 when a query is mathematically infeasible (non-big divisor,
non-negative-definite curve set, unsupported divisor form), 4 when an
internal invariant check fails (a bug, reported as internal_invariant).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import chambers, gallery, model, plot, zariski
from .errors import (
    DegenerateCorners,
    IndexOutOfRange,
    InvalidModel,
    InvariantViolated,
    ModeMismatch,
    ModeUnsupported,
    NotBig,
    NotNegativeDefinite,
    NotSymmetric,
    PreconditionViolated,
    UnrecognizedDiagram,
)

SCHEMA_VERSION = 1

_ASSUMPTION_NOTE = (
    "note: nef/big verdicts are relative to the listed curve classes; "
    "the curve list is assumed complete."
)


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _banner() -> None:
    print(_ASSUMPTION_NOTE, file=sys.stderr)


def _load_model(path: str) -> model.SurfaceModel:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InvalidModel("cannot read model file: %s" % exc) from exc
    m = model.model_from_json(text)
    report = model.validate_model(m)
    if not report.valid:
        raise InvalidModel("model failed validation: " + "; ".join(report.failures))
    return m


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
    try:
        text = Path(args.model).read_text(encoding="utf-8")
    except OSError as exc:
        raise InvalidModel("cannot read model file: %s" % exc) from exc
    m = model.model_from_json(text)
    report = model.validate_model(m)
    _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "valid": report.valid,
            "failures": list(report.failures),
        }
    )
    return 0 if report.valid else 2


def _cmd_decompose(args) -> int:
    m = _load_model(args.model)
    _banner()
    d = _parse_divisor(m, args.divisor)
    result = zariski.zariski_decompose(m, d)
    vol = model.pair(m, result.nef_part, result.nef_part)
    names = model.curve_names(m)
    _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "divisor": model.divisor_to_document(m, d),
            "P": model.divisor_to_document(m, result.nef_part),
            "N": {names[i]: str(b) for i, b in result.neg_coeffs},
            "neg_set": _names(m, result.neg_set),
            "null_set": _names(m, result.null_set),
            "volume": str(vol),
            "boundary": set(result.null_set) > set(result.neg_set),
        }
    )
    return 0


def _cmd_chambers(args) -> int:
    m = _load_model(args.model)
    _banner()
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
        doc["witness_weyl_support"] = _names(
            m, chambers.weyl_signature(m, report.witness).support
        )
        doc["witness_zariski_support"] = _names(
            m, chambers.zariski_chamber_of(m, report.witness).support
        )
    _emit(doc)
    return 0


def _cmd_criteria(args) -> int:
    m = _load_model(args.model)
    _banner()
    s = _indices_for_names(m, args.names)
    wz = chambers.weyl_in_zariski(m, s)
    zw = chambers.zariski_interior_in_weyl(m, s)
    names = model.curve_names(m)
    _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "set": _names(m, s),
            "ade": list(chambers.classify_ade(m, s)),
            "weyl_in_zariski": {
                "holds": wz.holds,
                "counterexample": None
                if wz.counterexample is None
                else names[wz.counterexample],
            },
            "zariski_interior_in_weyl": {
                "holds": zw.holds,
                "pair": None if zw.pair is None else _names(m, zw.pair),
            },
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
            "pairings": {names[i]: str(dots[i]) for i in range(len(names))},
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
    _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "output": args.output,
            "resolution": args.res,
            "mode": args.mode,
            "panels": {
                kind: {
                    "regions": len(cs.attained_supports(kind)),
                    "supports": [
                        _names(m, s)
                        for s in sorted(
                            cs.attained_supports(kind), key=lambda s: (len(s), s)
                        )
                    ],
                }
                for kind in cs.kinds
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
    if args.n < 0 or args.n > 12:
        raise InvalidModel("curve count must be between 0 and 12")
    if not 0 <= args.density <= 1:
        raise InvalidModel("edge density must be between 0 and 1")
    m = gallery.random_configuration(args.seed, args.n, args.density)
    _emit(model.model_to_document(m))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="k3chambers",
        description="Exact Zariski/Weyl chamber computations on K3 lattice models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model document")
    p.add_argument("model")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("decompose", help="Zariski decomposition of a divisor")
    p.add_argument("model")
    p.add_argument("divisor", help='JSON divisor, e.g. "[5,7,2]" or \'{"t":1,"a":[1,0,0]}\'')
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("chambers", help="enumerate both chamber families")
    p.add_argument("model")
    p.set_defaults(func=_cmd_chambers)

    p = sub.add_parser("compare", help="decide whether the decompositions coincide")
    p.add_argument("model")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("criteria", help="inclusion criteria for one support set")
    p.add_argument("model")
    p.add_argument("names", nargs="*", help="curve names forming the set")
    p.set_defaults(func=_cmd_criteria)

    p = sub.add_parser("witness", help="divisor pairing to -1 with the given curves")
    p.add_argument("model")
    p.add_argument("names", nargs="+")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("plot", help="render a cross-section of the chamber structure")
    p.add_argument("model")
    p.add_argument("--corners", nargs=3, metavar="DIV", default=None)
    p.add_argument("--res", type=int, default=400)
    p.add_argument(
        "--mode",
        choices=[plot.MODE_WEYL, plot.MODE_ZARISKI, plot.MODE_BOTH],
        default=plot.MODE_BOTH,
    )
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("gallery", help="print a built-in model document")
    p.add_argument("id", help="one of: %s" % ", ".join(gallery.GALLERY_IDS))
    p.set_defaults(func=_cmd_gallery)

    p = sub.add_parser("random", help="print a seeded random configuration model")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--density", type=float, default=0.4,
        help="chance that two curves meet, between 0 and 1",
    )
    p.set_defaults(func=_cmd_random)

    return parser


def _error_doc(exc: Exception, code: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "error": {"code": code, "message": str(exc)},
    }


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NotBig, NotNegativeDefinite, ModeUnsupported) as exc:
        _emit(_error_doc(exc, exc.code))
        return 3
    except (
        InvalidModel,
        ModeMismatch,
        IndexOutOfRange,
        NotSymmetric,
        PreconditionViolated,
        DegenerateCorners,
        UnrecognizedDiagram,
    ) as exc:
        _emit(_error_doc(exc, exc.code))
        return 2
    except ValueError as exc:
        _emit(_error_doc(exc, "invalid_input"))
        return 2
    except InvariantViolated as exc:
        _emit(_error_doc(exc, exc.code))
        return 4


if __name__ == "__main__":
    sys.exit(main())
