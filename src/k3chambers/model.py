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
import re
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Sequence

from . import linalg
from .errors import IndexOutOfRange, InvalidModel, ModeMismatch, SizeLimit, require
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
    def pairing_form(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """An integer matrix ``B`` and a denominator ``q > 0`` with
        ``D1 . D2 = (v1^T B v2) / q``, where ``v`` is the divisor's
        coordinates (full lattice) or ``(t, a_1, ..., a_n)`` (configuration):
        ``B / q`` is the Gram (full lattice) or ``[[H^2, h^T], [h, G]]`` with
        ``h_i = H . C_i`` (configuration).  Built in integers and checked
        once against the rational data."""
        if self.mode is Mode.CONFIGURATION:
            rational = ((self.ample_self, *self.ample_dots),
                        *((h, *row) for h, row in zip(self.ample_dots, self.gram, strict=True)))
        else:
            rational = self.gram
        flat, q = linalg.over_common_denominator(x for row in rational for x in row)
        k = len(rational)
        form = tuple(flat[i * k:(i + 1) * k] for i in range(k))
        require(
            all(b * x.denominator == q * x.numerator
                for row, xs in zip(form, rational, strict=True)
                for b, x in zip(row, xs, strict=True)),
            "SurfaceModel.pairing_form: form differs from the rational pairings",
        )
        return form, q

    @cached_property
    def pairing_rows(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """Integer rows ``R`` and a denominator ``q > 0`` with
        ``D . C_i = (R_i . v) / q``, ``v`` as in ``pairing_form``: the curve
        rows of that form (configuration), or the curves' integer coordinates
        times it over their common denominator (full lattice)."""
        form, q = self.pairing_form
        if self.mode is Mode.CONFIGURATION:
            return form[1:], q
        k = len(form)
        if any(len(c.coords) != k for c in self.curves):
            raise ValueError("dimension mismatch")
        rational = tuple(x for c in self.curves for x in c.coords)
        coords, c_den = linalg.over_common_denominator(rational)
        require(
            all(w * x.denominator == c_den * x.numerator for w, x in zip(coords, rational)),
            "SurfaceModel.pairing_rows: coordinates differ from the curves' coordinates",
        )
        cols = tuple(zip(*form))
        rows = tuple(
            tuple(sum(map(mul, coords[i * k:(i + 1) * k], col)) for col in cols)
            for i in range(len(self.curves))
        )
        return rows, q * c_den

    @cached_property
    def curve_gram(self) -> Mat:
        """The curve-curve intersection matrix."""
        if self.mode is Mode.CONFIGURATION:
            return self.gram
        cols = (_pairing_numerators(self, c.coords) for c in self.curves)
        return tuple(zip(*(tuple(Fraction(x, den) for x in nums) for nums, den in cols)))

    @cached_property
    def integer_curve_gram(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """Integers ``K`` and a denominator ``c > 0`` with ``C_i . C_j =
        K_ij / c``: the curve block of ``pairing_form`` (configuration), or
        the curve Gram over its common denominator (full lattice)."""
        if self.mode is Mode.CONFIGURATION:
            form, q = self.pairing_form
            return tuple(row[1:] for row in form[1:]), q
        flat, c = linalg.over_common_denominator(x for row in self.curve_gram for x in row)
        n = len(self.curves)
        return tuple(flat[i * n:(i + 1) * n] for i in range(n)), c

    @cached_property
    def ample_pairings(self) -> Vec:
        """Intersection of the ample class with each listed curve."""
        if self.mode is Mode.CONFIGURATION:
            return self.ample_dots
        nums, den = _pairing_numerators(self, self.ample_coords)
        return tuple(Fraction(x, den) for x in nums)


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
    h = ample_divisor(m)
    return pair(m, h, h)


def ample_divisor(m: SurfaceModel) -> DivisorClass:
    if m.mode is Mode.CONFIGURATION:
        return config_divisor(1, (Fraction(0),) * curve_count(m))
    return DivisorClass(coords=m.ample_coords)


def _check_divisor(m: SurfaceModel, d: DivisorClass) -> None:
    if m.mode is Mode.FULL_LATTICE:
        if d.coords is None or len(d.coords) != len(m.gram):
            raise ModeMismatch("divisor does not match a full-lattice model")
    else:
        if d.ample_coeff is None or d.curve_coeffs is None:
            raise ModeMismatch("divisor does not match a configuration model")
        if len(d.curve_coeffs) != curve_count(m):
            raise ModeMismatch("curve coefficient count mismatch")


def vector(m: SurfaceModel, d: DivisorClass) -> Sequence[Fraction]:
    """The vector ``v`` of a divisor: its coordinates (full lattice) or
    ``(t, a_1, ..., a_n)`` (configuration).  Raises ModeMismatch unless the
    divisor matches the model."""
    _check_divisor(m, d)
    if m.mode is Mode.FULL_LATTICE:
        return d.coords
    return (d.ample_coeff, *d.curve_coeffs)


def pair(m: SurfaceModel, d1: DivisorClass, d2: DivisorClass) -> Fraction:
    """Exact intersection number of two divisor classes: one integer
    bilinear form over the two divisors' common denominators."""
    form, q = m.pairing_form
    w1, den1 = linalg.over_common_denominator(vector(m, d1))
    w2, den2 = linalg.over_common_denominator(vector(m, d2))
    total = sum(x * sum(map(mul, row, w2)) for x, row in zip(w1, form) if x)
    return Fraction(total, q * den1 * den2)


def curve_divisor(m: SurfaceModel, i: int) -> DivisorClass:
    if i < 0 or i >= curve_count(m):
        raise IndexOutOfRange("curve index %d out of range" % i)
    if m.mode is Mode.FULL_LATTICE:
        return DivisorClass(coords=m.curves[i].coords)
    unit = [Fraction(0)] * curve_count(m)
    unit[i] = Fraction(1)
    return config_divisor(0, unit)


def _pairing_numerators(m: SurfaceModel, v: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """Integers ``n_i`` and ``den > 0`` with ``D . C_i = n_i / den`` for
    every listed curve, where v is the vector of D as in ``pairing_form``:
    one integer mat-vec over v's common denominator."""
    rows, q = m.pairing_rows
    w, den = linalg.over_common_denominator(v)
    return tuple(sum(map(mul, row, w)) for row in rows), den * q


def pairing_numerators(m: SurfaceModel, d: DivisorClass) -> tuple[tuple[int, ...], int]:
    """D . C_i = n_i / den for every listed curve, as the integers and the
    denominator ``den > 0``."""
    return _pairing_numerators(m, vector(m, d))


def pairings_with_curves(m: SurfaceModel, d: DivisorClass) -> Vec:
    """D . C_i for every listed curve."""
    nums, den = pairing_numerators(m, d)
    return tuple(Fraction(x, den) for x in nums)


def divisor_from_ample_and_curves(m: SurfaceModel, t, a) -> DivisorClass:
    """The class t*H + sum(a_i * C_i), in the model's native representation."""
    t = Fraction(t)
    a = linalg.vec(a)
    if len(a) != curve_count(m):
        raise ModeMismatch("curve coefficient count mismatch")
    if m.mode is Mode.CONFIGURATION:
        return DivisorClass(ample_coeff=t, curve_coeffs=a)
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


def check_curve_indices(m: SurfaceModel, indices) -> None:
    """Raise IndexOutOfRange unless every index names a listed curve."""
    n = curve_count(m)
    if any(i < 0 or i >= n for i in indices):
        raise IndexOutOfRange("curve index out of range: %r" % (sorted(indices),))


def restrict_gram(m: SurfaceModel, indices) -> Mat:
    """Principal submatrix of the curve Gram on the given index set,
    rows/columns in sorted index order."""
    check_curve_indices(m, indices)
    idx = sorted(set(indices))
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
    n = len(m.gram)
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
            curve = DivisorClass(coords=c.coords)
            self_int = pair(m, curve, curve)
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


# largest exponent magnitude accepted in a rational string such as "5e-3"; the
# same bound as Python's limit on the digits of an integer string
MAX_EXPONENT = 4300
# the exponent of a decimal rational string, as fractions.Fraction parses it
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _rat_to_json(x: Fraction):
    return int(x) if x.denominator == 1 else str(x)


def _printable(n: int) -> bool:
    """Whether ``str(n)`` stays within Python's limit on the digits of an
    integer string (no limit where the interpreter has none)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return not limit or n.bit_length() <= 3 * limit or abs(n) < 10**limit


def _rat_from_json(value) -> Fraction:
    """A model or divisor entry: an integer, or a rational string such as
    ``"3/2"`` or ``"5e-3"``; a bool or any other value is refused."""
    if type(value) is int and _printable(value):  # the common case: no parsing
        return Fraction(value)
    if isinstance(value, str):
        try:
            # Fraction("1e10000000") computes 10**10000000, so a large
            # exponent is refused before it is applied
            exponent = _EXPONENT.search(value)
            if exponent is not None and abs(int(exponent.group(1))) > MAX_EXPONENT:
                raise InvalidModel(
                    "exponent of rational string %r exceeds %d in magnitude" % (value, MAX_EXPONENT)
                )
            x = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidModel("bad rational string %r" % value) from exc
    elif isinstance(value, bool):
        raise InvalidModel("boolean is not a rational number")
    elif isinstance(value, int):
        x = Fraction(value)
    else:
        raise InvalidModel("expected integer or 'p/q' string, got %r" % (value,))
    # a value the reports could not print is refused here, not while printing
    if not (_printable(x.numerator) and _printable(x.denominator)):
        raise InvalidModel("rational value has more digits than an integer string may have")
    return x


def _json_array(value, what: str) -> list:
    """``value`` when it is a JSON array.  A string or an object in its place
    would otherwise be read item by item, as if its characters or keys were
    the entries."""
    if not isinstance(value, list):
        raise InvalidModel("%s must be a JSON array" % what)
    return value


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
        gram = linalg.mat([
            [_rat_from_json(x) for x in _json_array(row, 'each "gram" row')]
            for row in _json_array(doc["gram"], '"gram"')
        ])
        curves = []
        for c in doc["curves"]:
            if not isinstance(c, dict):
                raise InvalidModel("curve entry %r is not a JSON object" % (c,))
            coords = c.get("coords")
            curves.append(
                Curve(
                    str(c["name"]),
                    None if coords is None
                    else tuple(_rat_from_json(x) for x in _json_array(coords, 'curve "coords"')),
                )
            )
        ample = doc["ample"]
        if mode is Mode.FULL_LATTICE:
            return SurfaceModel(
                mode=mode,
                gram=gram,
                curves=tuple(curves),
                ample_coords=tuple(
                    _rat_from_json(x) for x in _json_array(ample["coords"], 'ample "coords"')
                ),
            )
        return SurfaceModel(
            mode=mode,
            gram=gram,
            curves=tuple(curves),
            ample_dots=tuple(_rat_from_json(x) for x in _json_array(ample["dots"], 'ample "dots"')),
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


def rational_texts(values) -> list[str]:
    """The values as report strings.  A value computed from printable inputs
    (a product, say) can still have more digits than Python prints as an
    integer string; such a report is refused as over a size limit."""
    try:
        return [str(x) for x in values]
    except ValueError as exc:
        raise SizeLimit(
            "a report value has more digits than an integer string may have"
        ) from exc


def divisor_to_document(m: SurfaceModel, d: DivisorClass) -> dict:
    _check_divisor(m, d)
    if m.mode is Mode.FULL_LATTICE:
        return {"coords": rational_texts(d.coords)}
    t, *a = rational_texts((d.ample_coeff, *d.curve_coeffs))
    return {"t": t, "a": a}


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
            coords = _json_array(doc["coords"], 'divisor "coords"')
            d = DivisorClass(coords=tuple(_rat_from_json(x) for x in coords))
        else:
            d = divisor_from_ample_and_curves(
                m,
                _rat_from_json(doc["t"]),
                [_rat_from_json(x) for x in _json_array(doc["a"], 'divisor "a"')],
            )
    except (InvalidModel, ModeMismatch):
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidModel("malformed divisor document: %s" % exc) from exc
    _check_divisor(m, d)
    return d
