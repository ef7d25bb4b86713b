"""Cross-section rendering of the chamber structure.

A triangle spanned by three divisor classes is subdivided into resolution^2
small triangles; the centroid of each is classified exactly (rational
barycentric coordinates, integer sign tests) into its Weyl and/or Zariski
chamber, and the classified grid is rendered as an SVG document with one
color per support set.  No float is used anywhere: pixel coordinates are
exact rationals, written with 3 decimals by exact integer round-half-even,
so output bytes are deterministic for fixed inputs.

Classification runs the decomposition's own engine, ``zariski.grow_support``,
on each sample's integer pairings with the curves.  The tables of the curve
sets it visits are kept for the whole plot and built on first use, so only
supports that some sample's growth reaches are ever eliminated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from hashlib import sha256
from itertools import groupby
from operator import mul

from . import linalg, model, zariski
from .errors import DegenerateCorners, SizeLimit
from .model import DivisorClass, Mode, SurfaceModel

MODE_WEYL = "weyl"
MODE_ZARISKI = "zariski"
MODE_BOTH = "both"

# largest accepted resolution: the grid has resolution^2 samples
MAX_RESOLUTION = 1000

_PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948",
    "#b07aa1", "#ff9da7", "#9c755f", "#8cd17d", "#86bcb6", "#d37295",
)
_BOUNDARY_COLOR = "#c8c8c8"

# rational stand-in for sqrt(3)/2; geometry only, never classification
_ROOT3_HALF = Fraction(866025, 1000000)


@dataclass(frozen=True)
class CrossSectionSpec:
    corners: tuple[DivisorClass, DivisorClass, DivisorClass] | None = None
    resolution: int = 400
    coloring: str = MODE_BOTH


@dataclass(frozen=True)
class CrossSection:
    """Classified barycentric grid.

    Each sample is (u1, u2, u3, weyl_support, weyl_boundary,
    zariski_support, zariski_boundary); the barycentric coordinates are
    u / (3 * resolution).  Support fields are None, and wall flags False,
    when the sample is not big (such samples stay uncolored); samples with
    equal supports share one tuple.  ``attained`` holds the supports that
    occur, Weyl then Zariski."""

    resolution: int
    samples: tuple
    corners: tuple[DivisorClass, DivisorClass, DivisorClass]
    coloring: str
    attained: tuple[frozenset, frozenset]

    @property
    def kinds(self) -> list[str]:
        """The panels drawn: one per chamber kind in the coloring."""
        return [MODE_WEYL, MODE_ZARISKI] if self.coloring == MODE_BOTH else [self.coloring]

    def attained_supports(self, kind: str) -> frozenset[tuple[int, ...]]:
        return self.attained[kind == MODE_ZARISKI]


def default_corners(m: SurfaceModel) -> tuple[DivisorClass, DivisorClass, DivisorClass]:
    """First three curve classes; in configuration mode the curves are
    shifted by the ample class (t = 1) so that samples stay decomposable."""
    if model.curve_count(m) < 3:
        raise DegenerateCorners("model has fewer than three curves; pass corners explicitly")
    if m.mode is Mode.FULL_LATTICE:
        return tuple(model.curve_divisor(m, i) for i in range(3))
    n = model.curve_count(m)
    corners = []
    for i in range(3):
        a = [Fraction(0)] * n
        a[i] = Fraction(1)
        corners.append(model.config_divisor(1, a))
    return tuple(corners)


def classify_cross_section(m: SurfaceModel, spec: CrossSectionSpec) -> CrossSection:
    if spec.resolution < 2:
        raise ValueError("resolution must be >= 2")
    if spec.resolution > MAX_RESOLUTION:
        raise SizeLimit("resolution must be at most %d" % MAX_RESOLUTION)
    if spec.coloring not in (MODE_WEYL, MODE_ZARISKI, MODE_BOTH):
        raise ValueError("coloring must be weyl, zariski or both")
    corners = spec.corners if spec.corners is not None else default_corners(m)
    if len(corners) != 3:
        raise DegenerateCorners("exactly three corners required")
    if linalg.rank([model.vector(m, c) for c in corners]) != 3:
        raise DegenerateCorners("corner classes are linearly dependent")
    res = spec.resolution
    n = model.curve_count(m)

    # one integer table over one denominator den: per corner and then H, its
    # pairings with the corners and H, then with the curves
    points = (*corners, model.ample_divisor(m))
    flat, den = linalg.over_common_denominator(
        x for a in points
        for x in (*(model.pair(m, a, b) for b in points), *model.pairings_with_curves(m, a))
    )
    w = 4 + n
    g = [flat[k * w:k * w + 4] for k in range(4)]
    cd1, cd2, cd3, hh = (flat[k * w + 4:(k + 1) * w] for k in range(4))

    gram, c = m.integer_curve_gram
    # curve set -> its support_table (or None), built on first use
    tables: dict = {}

    def table(s):
        if s not in tables:
            tables[s] = zariski.support_table(gram, s)
        return tables[s]

    # per chamber kind, each big sample's support -> its one shared tuple
    attained = ({}, {})

    def classify(u1: int, u2: int, u3: int):
        q = [u1 * a + u2 * b + u3 * d for a, b, d in zip(cd1, cd2, cd3)]
        s, tab, x, zero = zariski.grow_support(q, table)
        if tab is None or (s and min(x) <= 0):
            return (None, False, None, False)
        # bigness: P^2 > 0 and P . ample > 0, times det * den^2 with
        # det = tab[1] (N = sum of c x_j / (det * den) C_j)
        det = tab[1]
        q2 = (
            u1 * u1 * g[0][0] + u2 * u2 * g[1][1] + u3 * u3 * g[2][2]
            + 2 * (u1 * u2 * g[0][1] + u1 * u3 * g[0][2] + u2 * u3 * g[1][2])
        )
        qh = u1 * g[0][3] + u2 * g[1][3] + u3 * g[2][3]
        t1, t2 = det * den * q2, det * den * qh
        if s:
            t1 -= c * sum(map(mul, x, [q[j] for j in s]))
            t2 -= c * sum(map(mul, x, [hh[j] for j in s]))
        if t1 <= 0 or t2 <= 0:
            return (None, False, None, False)
        # the curves met negatively, all inside the Zariski support
        wsup = tuple([j for j in s if q[j] < 0])
        return (
            attained[0].setdefault(wsup, wsup), 0 in q,
            attained[1].setdefault(s, s), bool(zero),
        )

    # per row, the upward triangles (offset 1), then the downward ones
    # (offset 2), which the last row has none of
    samples = []
    for level in range(res):
        for off in (1, 2):
            u3 = 3 * (res - level) - 2 * off
            for i in range(level + 1 if u3 > 0 else 0):
                u1, u2 = 3 * i + off, 3 * (level - i) + off
                samples.append((u1, u2, u3, *classify(u1, u2, u3)))
    return CrossSection(
        res, tuple(samples), corners, spec.coloring,
        tuple(frozenset(a) for a in attained),
    )


# ---------------------------------------------------------------------------
# SVG assembly
# ---------------------------------------------------------------------------


def format3(x: Fraction) -> str:
    """Fixed 3-decimal formatting with exact round-half-even."""
    q = x * 1000
    n, d = q.numerator, q.denominator
    whole = n // d
    rem2 = 2 * (n - whole * d)
    if rem2 > d or (rem2 == d and whole % 2):
        whole += 1
    sign = "-" if whole < 0 else ""
    a = abs(whole)
    return "%s%d.%03d" % (sign, a // 1000, a % 1000)


def support_color(names: tuple[str, ...]) -> str:
    label = ",".join(names)
    digest = sha256(label.encode("utf-8")).digest()
    return _PALETTE[int.from_bytes(digest[:8], "big") % len(_PALETTE)]


def _support_label(names) -> str:
    return "∅ (nef)" if not names else ",".join(names)


_SIDE = 420
_MARGIN = 24
_LEGEND_W = 150


def _panel(m: SurfaceModel, cs: CrossSection, kind: str, offset_x: int) -> list[str]:
    names = model.curve_names(m)
    res = cs.resolution
    scale3 = 3 * res
    left = Fraction(offset_x + _MARGIN)
    bottom = _MARGIN + _ROOT3_HALF * _SIDE
    unit_x = Fraction(_SIDE, 2 * scale3)
    unit_y = Fraction(_SIDE, scale3) * _ROOT3_HALF

    def pix(x2, u3):
        # the point with weights (u1, u2, u3) / scale3 and x2 = 2*u2 + u3;
        # corner 1 bottom-left, corner 2 bottom-right, corner 3 apex
        return left + x2 * unit_x, bottom - u3 * unit_y

    parts = [
        '<g id="panel-%s">' % kind,
        '<text x="%s" y="%s" font-size="14" font-family="sans-serif">%s</text>'
        % (
            format3(left),
            format3(Fraction(14)),
            "simple Weyl chambers" if kind == MODE_WEYL else "Zariski chambers",
        ),
    ]

    half_w = Fraction(_SIDE, 2 * res)
    half_h = half_w * _ROOT3_HALF
    # per attained support: its color, integer sums of (2*u2 + u3) and u3,
    # and a count, turned into a pixel centroid only at the end
    attained: dict[tuple[int, ...], list] = {}

    # runs of row-major consecutive samples with equal u3 and color key: the
    # support, or "boundary" when the wall flag next to it is set; u2 falls
    # along a row, so a run's first sample is its right end
    f = 3 if kind == MODE_WEYL else 5
    for (u3, key), run in groupby(cs.samples, key=lambda s: (s[2], "boundary" if s[f + 1] else s[f])):
        if key is None:
            continue
        run = list(run)
        if key == "boundary":
            fill = _BOUNDARY_COLOR
        else:
            acc = attained.get(key)
            if acc is None:
                acc = attained[key] = [support_color(tuple(names[i] for i in key)), 0, 0, 0]
            acc[1] += sum(2 * s[1] + u3 for s in run)
            acc[2] += u3 * len(run)
            acc[3] += len(run)
            fill = acc[0]
        x_hi, y_mid = pix(2 * run[0][1] + u3, u3)
        x_lo = pix(2 * run[-1][1] + u3, u3)[0]
        parts.append(
            '<rect x="%s" y="%s" width="%s" height="%s" fill="%s"/>'
            % (
                format3(x_lo - half_w),
                format3(y_mid - half_h),
                format3(x_hi - x_lo + 2 * half_w),
                format3(2 * half_h),
                fill,
            )
        )

    # corner labels
    anchors = [(pix(0, 0), "start"), (pix(2 * scale3, 0), "end"), (pix(scale3, scale3), "middle")]
    for ((x, y), anchor), label in zip(anchors, _corner_names(m, cs.corners)):
        parts.append(
            '<text x="%s" y="%s" font-size="12" font-family="sans-serif" text-anchor="%s">%s</text>'
            % (format3(x), format3(y + 14), anchor, label)
        )

    # region labels at sample centroids (nef chamber stays unlabelled)
    supports = sorted(attained, key=lambda t: (len(t), t))
    for sup in supports:
        if not sup:
            continue
        _, sx2, su3, count = attained[sup]
        cx, cy = pix(Fraction(sx2, count), Fraction(su3, count))
        parts.append(
            '<text x="%s" y="%s" font-size="11" font-family="sans-serif" text-anchor="middle">%s</text>'
            % (format3(cx), format3(cy), ",".join(names[i] for i in sup))
        )

    # legend
    ly = Fraction(_MARGIN + 20)
    lx = left + _SIDE + 16
    for sup in supports:
        parts.append(
            '<rect x="%s" y="%s" width="12" height="12" fill="%s"/>'
            % (format3(lx), format3(ly), attained[sup][0])
        )
        parts.append(
            '<text x="%s" y="%s" font-size="11" font-family="sans-serif">%s</text>'
            % (format3(lx + 18), format3(ly + 10), _support_label(tuple(names[i] for i in sup)))
        )
        ly += 18
    parts.append("</g>")
    return parts


def _corner_names(m: SurfaceModel, corners) -> list[str]:
    names = []
    for c in corners:
        match = None
        for i in range(model.curve_count(m)):
            if c == model.curve_divisor(m, i):
                match = model.curve_names(m)[i]
                break
            if m.mode is Mode.CONFIGURATION and c == model.add_divisors(
                m, model.ample_divisor(m), model.curve_divisor(m, i)
            ):
                match = "H+%s" % model.curve_names(m)[i]
                break
        names.append(match if match is not None else "corner")
    return names


def render_cross_section(m: SurfaceModel, cs: CrossSection) -> str:
    """Draw a classified grid as an SVG 1.1 document (a single panel, or two
    side-by-side panels when coloring mode is 'both')."""
    panel_w = _SIDE + 2 * _MARGIN + _LEGEND_W
    width = panel_w * len(cs.kinds)
    height = int(_ROOT3_HALF * _SIDE) + 2 * _MARGIN + 20
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="%d" height="%d">' % (width, height),
        '<rect x="0" y="0" width="%d" height="%d" fill="#ffffff"/>' % (width, height),
    ]
    for pos, kind in enumerate(cs.kinds):
        parts.extend(_panel(m, cs, kind, pos * panel_w))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
