"""Lattice model of a surface: intersection form, (-2)-curves, ample class.

Two input modes are supported.  ``FULL_LATTICE`` carries the full
Neron-Severi Gram matrix together with integer coordinate vectors for the
curves; ``CONFIGURATION`` carries only the curve-curve intersection numbers
plus the ample pairing data, which is all that chamber computations need.

Model assumption (documented, not checkable): the curve list is the complete
set of irreducible (-2)-curves, so nefness and chamber membership are decided
relative to the listed curves.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from . import linalg
from .errors import IndexOutOfRange, InvalidModel, ModeMismatch
from .linalg import Mat, Vec


class Mode(Enum):
    FULL_LATTICE = "full_lattice"
    CONFIGURATION = "configuration"


@dataclass(frozen=True)
class Curve:
    name: str
    coords: Vec | None = None


@dataclass(frozen=True)
class SurfaceModel:
    mode: Mode
    gram: Mat
    curves: tuple[Curve, ...]
    ample_coords: Vec | None = None
    ample_dots: Vec | None = None
    ample_self: Fraction | None = None

    # lazy, so that validate_model reports a malformed model instead of raising
    @cached_property
    def curve_gram(self) -> Mat:
        """The curve-curve intersection matrix."""
        if self.mode is Mode.CONFIGURATION:
            return self.gram
        vecs = [c.coords for c in self.curves]
        gw = [linalg.mat_vec(self.gram, w) for w in vecs]
        return tuple(tuple(linalg.dot(v, x) for x in gw) for v in vecs)

    @cached_property
    def ample_pairings(self) -> Vec:
        """Intersection of the ample class with each listed curve."""
        if self.mode is Mode.CONFIGURATION:
            return self.ample_dots
        gh = linalg.mat_vec(self.gram, self.ample_coords)
        return tuple(linalg.dot(c.coords, gh) for c in self.curves)


@dataclass(frozen=True)
class DivisorClass:
    """A divisor class: coordinates in the lattice basis (full-lattice mode)
    or an ample coefficient plus curve coefficients, representing
    t*H + sum(a_i * C_i) (configuration mode)."""

    coords: Vec | None = None
    ample_coeff: Fraction | None = None
    curve_coeffs: Vec | None = None


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    failures: tuple[str, ...]


def full_lattice_model(gram, curves: Sequence[tuple[str, Sequence]], ample) -> SurfaceModel:
    return SurfaceModel(
        mode=Mode.FULL_LATTICE,
        gram=linalg.mat(gram),
        curves=tuple(Curve(name, linalg.vec(coords)) for name, coords in curves),
        ample_coords=linalg.vec(ample),
    )


def configuration_model(gram, names: Sequence[str], ample_dots, ample_self) -> SurfaceModel:
    return SurfaceModel(
        mode=Mode.CONFIGURATION,
        gram=linalg.mat(gram),
        curves=tuple(Curve(name) for name in names),
        ample_dots=linalg.vec(ample_dots),
        ample_self=Fraction(ample_self),
    )


def full_divisor(coords) -> DivisorClass:
    return DivisorClass(coords=linalg.vec(coords))


def config_divisor(t, a) -> DivisorClass:
    return DivisorClass(ample_coeff=Fraction(t), curve_coeffs=linalg.vec(a))


def curve_count(m: SurfaceModel) -> int:
    return len(m.curves)


def curve_names(m: SurfaceModel) -> tuple[str, ...]:
    return tuple(c.name for c in m.curves)


def curve_gram(m: SurfaceModel) -> Mat:
    return m.curve_gram


def ample_pairings(m: SurfaceModel) -> Vec:
    return m.ample_pairings


def ample_square(m: SurfaceModel) -> Fraction:
    if m.mode is Mode.CONFIGURATION:
        return m.ample_self
    return linalg.dot(m.ample_coords, linalg.mat_vec(m.gram, m.ample_coords))


def ample_divisor(m: SurfaceModel) -> DivisorClass:
    if m.mode is Mode.CONFIGURATION:
        return config_divisor(1, linalg.zero_vec(curve_count(m)))
    return DivisorClass(coords=m.ample_coords)


def _check_divisor(m: SurfaceModel, d: DivisorClass) -> None:
    if m.mode is Mode.FULL_LATTICE:
        if d.coords is None or len(d.coords) != linalg.dim(m.gram):
            raise ModeMismatch("divisor does not match a full-lattice model")
    else:
        if d.ample_coeff is None or d.curve_coeffs is None:
            raise ModeMismatch("divisor does not match a configuration model")
        if len(d.curve_coeffs) != curve_count(m):
            raise ModeMismatch("curve coefficient count mismatch")


def pair(m: SurfaceModel, d1: DivisorClass, d2: DivisorClass) -> Fraction:
    """Exact intersection number of two divisor classes."""
    _check_divisor(m, d1)
    _check_divisor(m, d2)
    if m.mode is Mode.FULL_LATTICE:
        return linalg.dot(d1.coords, linalg.mat_vec(m.gram, d2.coords))
    h = m.ample_dots
    t1, a1 = d1.ample_coeff, d1.curve_coeffs
    t2, a2 = d2.ample_coeff, d2.curve_coeffs
    return (
        t1 * t2 * m.ample_self
        + t1 * linalg.dot(h, a2)
        + t2 * linalg.dot(h, a1)
        + linalg.dot(a1, linalg.mat_vec(m.gram, a2))
    )


def curve_divisor(m: SurfaceModel, i: int) -> DivisorClass:
    if i < 0 or i >= curve_count(m):
        raise IndexOutOfRange("curve index %d out of range" % i)
    if m.mode is Mode.FULL_LATTICE:
        return DivisorClass(coords=m.curves[i].coords)
    unit = [Fraction(0)] * curve_count(m)
    unit[i] = Fraction(1)
    return config_divisor(0, unit)


def pairings_with_curves(m: SurfaceModel, d: DivisorClass) -> Vec:
    """D . C_i for every listed curve."""
    _check_divisor(m, d)
    if m.mode is Mode.FULL_LATTICE:
        gd = linalg.mat_vec(m.gram, d.coords)
        return tuple(linalg.dot(c.coords, gd) for c in m.curves)
    h = m.ample_dots
    ga = linalg.mat_vec(m.gram, d.curve_coeffs)
    return tuple(d.ample_coeff * h[i] + ga[i] for i in range(curve_count(m)))


def divisor_from_ample_and_curves(m: SurfaceModel, t, a) -> DivisorClass:
    """The class t*H + sum(a_i * C_i), in the model's native representation."""
    t = Fraction(t)
    a = linalg.vec(a)
    if len(a) != curve_count(m):
        raise ModeMismatch("curve coefficient count mismatch")
    if m.mode is Mode.CONFIGURATION:
        return config_divisor(t, a)
    coords = linalg.vec_scale(t, m.ample_coords)
    for ai, c in zip(a, m.curves):
        coords = linalg.vec_add(coords, linalg.vec_scale(ai, c.coords))
    return DivisorClass(coords=coords)


def add_divisors(m: SurfaceModel, d1: DivisorClass, d2: DivisorClass) -> DivisorClass:
    _check_divisor(m, d1)
    _check_divisor(m, d2)
    if m.mode is Mode.FULL_LATTICE:
        return DivisorClass(coords=linalg.vec_add(d1.coords, d2.coords))
    return config_divisor(
        d1.ample_coeff + d2.ample_coeff,
        linalg.vec_add(d1.curve_coeffs, d2.curve_coeffs),
    )


def scale_divisor(m: SurfaceModel, c, d: DivisorClass) -> DivisorClass:
    _check_divisor(m, d)
    c = Fraction(c)
    if m.mode is Mode.FULL_LATTICE:
        return DivisorClass(coords=linalg.vec_scale(c, d.coords))
    return config_divisor(c * d.ample_coeff, linalg.vec_scale(c, d.curve_coeffs))


def restrict_gram(m: SurfaceModel, indices) -> Mat:
    """Principal submatrix of the curve Gram on the given index set,
    rows/columns in sorted index order."""
    n = curve_count(m)
    idx = sorted(set(indices))
    if any(i < 0 or i >= n for i in idx):
        raise IndexOutOfRange("curve index out of range: %r" % (sorted(indices),))
    g = curve_gram(m)
    return tuple(tuple(g[i][j] for j in idx) for i in idx)


def to_configuration(m: SurfaceModel) -> SurfaceModel:
    """Reduce a full-lattice model to its configuration data."""
    if m.mode is Mode.CONFIGURATION:
        return m
    return SurfaceModel(
        mode=Mode.CONFIGURATION,
        gram=curve_gram(m),
        curves=tuple(Curve(c.name) for c in m.curves),
        ample_dots=ample_pairings(m),
        ample_self=ample_square(m),
    )


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate_model(m: SurfaceModel) -> ValidationReport:
    """Check every model invariant; failures are reported, never raised."""
    fails: list[str] = []
    n = linalg.dim(m.gram)
    if n == 0 and m.mode is Mode.FULL_LATTICE:
        return ValidationReport(False, ("gram matrix is empty",))
    if any(len(row) != n for row in m.gram):
        return ValidationReport(False, ("gram matrix is not square",))
    if not linalg.is_symmetric(m.gram):
        fails.append("gram matrix is not symmetric")
        return ValidationReport(False, tuple(fails))

    names = [c.name for c in m.curves]
    if len(set(names)) != len(names):
        fails.append("curve names are not unique")

    if m.mode is Mode.FULL_LATTICE:
        if m.ample_coords is None or m.ample_dots is not None or m.ample_self is not None:
            return ValidationReport(False, ("full-lattice model must carry ample coords only",))
        if len(m.ample_coords) != n:
            return ValidationReport(False, ("ample coordinate dimension mismatch",))
        sig = linalg.signature(m.gram)
        if sig != (1, n - 1, 0):
            fails.append("gram signature %r is not (1, %d, 0)" % (sig, n - 1))
        curves_ok = True
        for i, c in enumerate(m.curves):
            if c.coords is None or len(c.coords) != n:
                fails.append("curve %d has missing or mismatched coordinates" % i)
                curves_ok = False
                continue
            if any(x.denominator != 1 for x in c.coords):
                fails.append("curve %d has non-integer coordinates" % i)
            self_int = linalg.dot(c.coords, linalg.mat_vec(m.gram, c.coords))
            if self_int != -2:
                fails.append("curve %d: self-intersection %s violates -2" % (i, self_int))
        if curves_ok:
            g = curve_gram(m)
            k = len(m.curves)
            for i in range(k):
                for j in range(i + 1, k):
                    if g[i][j].denominator != 1:
                        fails.append("curves %d,%d: non-integer intersection %s" % (i, j, g[i][j]))
                    if g[i][j] < 0:
                        fails.append("curves %d,%d: negative intersection %s" % (i, j, g[i][j]))
            if ample_square(m) <= 0:
                fails.append("ample self-intersection %s is not positive" % ample_square(m))
            h = ample_pairings(m)
            for i in range(k):
                if h[i] <= 0:
                    fails.append("ample pairing with curve %d is %s, not positive" % (i, h[i]))
    else:
        if m.ample_dots is None or m.ample_self is None or m.ample_coords is not None:
            return ValidationReport(False, ("configuration model must carry ample dots and self",))
        if n != len(m.curves):
            return ValidationReport(False, ("curve gram dimension differs from curve count",))
        for i, c in enumerate(m.curves):
            if c.coords is not None:
                fails.append("curve %d carries coordinates in configuration mode" % i)
        for i in range(n):
            if m.gram[i][i] != -2:
                fails.append("curve %d: diagonal %s violates -2" % (i, m.gram[i][i]))
            for j in range(i + 1, n):
                if m.gram[i][j].denominator != 1:
                    fails.append("curves %d,%d: non-integer intersection %s" % (i, j, m.gram[i][j]))
                if m.gram[i][j] < 0:
                    fails.append("curves %d,%d: negative intersection %s" % (i, j, m.gram[i][j]))
        if len(m.ample_dots) != n:
            fails.append("ample pairing vector length mismatch")
        else:
            for i, x in enumerate(m.ample_dots):
                if x <= 0:
                    fails.append("ample pairing with curve %d is %s, not positive" % (i, x))
        if m.ample_self <= 0:
            fails.append("ample self-intersection %s is not positive" % m.ample_self)

    return ValidationReport(not fails, tuple(fails))


# ---------------------------------------------------------------------------
# Canonical JSON model documents
# ---------------------------------------------------------------------------


def _rat_to_json(x: Fraction):
    return int(x) if x.denominator == 1 else str(x)


def _rat_from_json(value) -> Fraction:
    if isinstance(value, bool):
        raise InvalidModel("boolean is not a rational number")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidModel("bad rational string %r" % value) from exc
    raise InvalidModel("expected integer or 'p/q' string, got %r" % (value,))


def model_to_document(m: SurfaceModel) -> dict:
    doc: dict = {
        "mode": m.mode.value,
        "gram": [[_rat_to_json(x) for x in row] for row in m.gram],
        "curves": [
            {"name": c.name} if c.coords is None
            else {"name": c.name, "coords": [_rat_to_json(x) for x in c.coords]}
            for c in m.curves
        ],
    }
    if m.mode is Mode.FULL_LATTICE:
        doc["ample"] = {"coords": [_rat_to_json(x) for x in m.ample_coords]}
    else:
        doc["ample"] = {
            "dots": [_rat_to_json(x) for x in m.ample_dots],
            "self": _rat_to_json(m.ample_self),
        }
    return doc


def model_from_document(doc) -> SurfaceModel:
    if not isinstance(doc, dict):
        raise InvalidModel("model document must be a JSON object")
    try:
        mode = Mode(doc["mode"])
        gram = linalg.mat([[_rat_from_json(x) for x in row] for row in doc["gram"]])
        curves = []
        for c in doc["curves"]:
            if not isinstance(c, dict):
                raise InvalidModel("curve entry %r is not a JSON object" % (c,))
            coords = c.get("coords")
            curves.append(
                Curve(str(c["name"]), None if coords is None else tuple(_rat_from_json(x) for x in coords))
            )
        ample = doc["ample"]
        if mode is Mode.FULL_LATTICE:
            return SurfaceModel(
                mode=mode,
                gram=gram,
                curves=tuple(curves),
                ample_coords=tuple(_rat_from_json(x) for x in ample["coords"]),
            )
        return SurfaceModel(
            mode=mode,
            gram=gram,
            curves=tuple(curves),
            ample_dots=tuple(_rat_from_json(x) for x in ample["dots"]),
            ample_self=_rat_from_json(ample["self"]),
        )
    except InvalidModel:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidModel("malformed model document: %s" % exc) from exc


def model_to_json(m: SurfaceModel) -> str:
    return json.dumps(model_to_document(m), indent=2)


def model_from_json(text: str) -> SurfaceModel:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidModel("invalid JSON: %s" % exc) from exc
    return model_from_document(doc)


# ---------------------------------------------------------------------------
# Divisor documents (used by the CLI)
# ---------------------------------------------------------------------------


def divisor_to_document(m: SurfaceModel, d: DivisorClass) -> dict:
    _check_divisor(m, d)
    if m.mode is Mode.FULL_LATTICE:
        return {"coords": [str(x) for x in d.coords]}
    return {"t": str(d.ample_coeff), "a": [str(x) for x in d.curve_coeffs]}


def divisor_from_document(m: SurfaceModel, doc) -> DivisorClass:
    """Parse a divisor document.

    Accepted forms: a bare array or ``{"coords": [...]}`` (full-lattice
    coordinates), or ``{"t": ..., "a": [...]}`` meaning t*H + sum(a_i C_i)
    in either mode.
    """
    if isinstance(doc, list):
        doc = {"coords": doc}
    if not isinstance(doc, dict):
        raise InvalidModel("divisor document must be a JSON object or array")
    try:
        if "coords" in doc:
            if m.mode is not Mode.FULL_LATTICE:
                raise InvalidModel("coordinate divisors need a full-lattice model")
            d = DivisorClass(coords=tuple(_rat_from_json(x) for x in doc["coords"]))
        else:
            d = divisor_from_ample_and_curves(
                m,
                _rat_from_json(doc["t"]),
                [_rat_from_json(x) for x in doc["a"]],
            )
    except (InvalidModel, ModeMismatch):
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidModel("malformed divisor document: %s" % exc) from exc
    _check_divisor(m, d)
    return d
