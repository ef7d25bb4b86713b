"""Cross-section rendering of the chamber structure.

A triangle spanned by three divisor classes is subdivided into resolution^2
small triangles; the centroid of each is classified exactly (rational
barycentric coordinates, integer sign tests) into its Weyl and/or Zariski
chamber, and the classified grid is rendered as an SVG document with one
color per support set.  Floats never enter the classification; they appear
only in the final fixed 3-decimal coordinate formatting, which uses
round-half-even, so output bytes are deterministic for fixed inputs.

Classification uses an integerized membership scan over the enumerated
negative definite supports (solve via precomputed adjugates, then check that
the negative-part coefficients are positive and the nef candidate is
nonnegative on every curve).  By uniqueness of the decomposition this agrees
with the iterative engine; the test suite cross-checks the two on sampled
points.  The scan stays because it is 10 to 70 times cheaper: at resolution
60 on the quartic and ``random_configuration(0, 6, 0.2)`` it took 5-18 us
per sample, against 0.17-0.39 ms for ``is_big`` plus ``zariski_chamber_of``,
and all 3600 samples of each agreed (Python 3.11, shared 2-vCPU Xeon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from hashlib import sha256

from . import chambers, linalg, model
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
    u / (3 * resolution).  Support fields are None when the sample is not
    big (such samples stay uncolored)."""

    resolution: int
    samples: tuple
    corners: tuple[DivisorClass, DivisorClass, DivisorClass]
    coloring: str

    @property
    def kinds(self) -> list[str]:
        """The panels drawn: one per chamber kind in the coloring."""
        return [MODE_WEYL, MODE_ZARISKI] if self.coloring == MODE_BOTH else [self.coloring]

    def attained_supports(self, kind: str) -> set[tuple[int, ...]]:
        out = set()
        for s in self.samples:
            sup = s[3] if kind == MODE_WEYL else s[5]
            if sup is not None:
                out.add(sup)
        return out


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


def _corner_matrix(m: SurfaceModel, corners) -> list[list[Fraction]]:
    if m.mode is Mode.FULL_LATTICE:
        return [list(c.coords) for c in corners]
    return [[c.ample_coeff, *c.curve_coeffs] for c in corners]


def _scan_tables(m: SurfaceModel):
    """Integer adjugate/determinant data for every negative definite
    support, in (size, lex) order."""
    gi = [[int(x) for x in row] for row in model.curve_gram(m)]
    tables = []
    for s in chambers.negative_definite_subsets(m):
        det, adj = linalg.adjugate(model.restrict_gram(m, s))
        adj = [[int(x) for x in row] for row in adj]
        cols = [[row[j] for j in s] for row in gi]
        tables.append((s, adj, int(det), 1 if det > 0 else -1, cols))
    return tables


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
    if linalg.rank(_corner_matrix(m, corners)) != 3:
        raise DegenerateCorners("corner classes are linearly dependent")
    res = spec.resolution
    n = model.curve_count(m)

    corner_dots = [model.pairings_with_curves(m, c) for c in corners]
    corner_prods = [[model.pair(m, a, b) for b in corners] for a in corners]
    amp = model.ample_divisor(m)
    corner_amp = [model.pair(m, c, amp) for c in corners]
    h = model.ample_pairings(m)

    fracs = [x for row in corner_dots for x in row]
    fracs += [x for row in corner_prods for x in row]
    fracs += list(corner_amp) + list(h)
    den = math.lcm(1, *(f.denominator for f in fracs))
    cd = [[int(x * den) for x in row] for row in corner_dots]
    cp = [[int(x * den) for x in row] for row in corner_prods]
    ca = [int(x * den) for x in corner_amp]
    hh = [int(x * den) for x in h]

    tables = _scan_tables(m)

    def classify(u1: int, u2: int, u3: int):
        q = [u1 * cd[0][i] + u2 * cd[1][i] + u3 * cd[2][i] for i in range(n)]
        q2 = (
            u1 * u1 * cp[0][0] + u2 * u2 * cp[1][1] + u3 * u3 * cp[2][2]
            + 2 * (u1 * u2 * cp[0][1] + u1 * u3 * cp[0][2] + u2 * u3 * cp[1][2])
        )
        qh = u1 * ca[0] + u2 * ca[1] + u3 * ca[2]

        zsup = None
        zbound = False
        for s, adj, det, sign, cols in tables:
            k = len(s)
            if k:
                ds = [q[j] for j in s]
                bnum = [sum(adj[r][c] * ds[c] for c in range(k)) for r in range(k)]
                if any(sign * b <= 0 for b in bnum):
                    continue
            else:
                bnum = []
            ok = True
            boundary = False
            for i in range(n):
                if i in s:
                    continue
                val = det * q[i]
                if k:
                    ci = cols[i]
                    val -= sum(ci[c] * bnum[c] for c in range(k))
                sval = sign * val
                if sval < 0:
                    ok = False
                    break
                if sval == 0:
                    boundary = True
            if not ok:
                continue
            # bigness: P^2 > 0 and P . ample > 0
            t1 = det * den * q2 - sum(bnum[c] * q[s[c]] for c in range(len(s)))
            t2 = det * den * qh - sum(bnum[c] * hh[s[c]] for c in range(len(s)))
            if sign * t1 > 0 and sign * t2 > 0:
                zsup, zbound = s, boundary
            break
        big = zsup is not None
        if big:
            wsup = tuple(i for i in range(n) if q[i] < 0)
            wbound = any(x == 0 for x in q)
        else:
            wsup, wbound = None, False
        return (wsup, wbound, zsup, zbound)

    samples = []
    for level in range(res):
        k3 = 3 * (res - level) - 2
        for i in range(level + 1):
            u1, u2, u3 = 3 * i + 1, 3 * (level - i) + 1, k3
            samples.append((u1, u2, u3, *classify(u1, u2, u3)))
        if level <= res - 2:
            k3d = 3 * (res - level) - 4
            for i in range(level + 1):
                u1, u2, u3 = 3 * i + 2, 3 * (level - i) + 2, k3d
                samples.append((u1, u2, u3, *classify(u1, u2, u3)))
    return CrossSection(res, tuple(samples), corners, spec.coloring)


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


def _xy(u1: int, u2: int, u3: int, scale3: int) -> tuple[Fraction, Fraction]:
    # corner 1 bottom-left, corner 2 bottom-right, corner 3 apex
    x = Fraction(2 * u2 + u3, 2 * scale3)
    y = Fraction(u3, scale3) * _ROOT3_HALF
    return x, y


def _panel(m: SurfaceModel, cs: CrossSection, kind: str, offset_x: int) -> list[str]:
    names = model.curve_names(m)
    res = cs.resolution
    scale3 = 3 * res
    height = _ROOT3_HALF * _SIDE
    top = Fraction(_MARGIN)

    def pix(u1, u2, u3):
        x, y = _xy(u1, u2, u3, scale3)
        return (Fraction(offset_x) + _MARGIN + x * _SIDE, top + height - y * _SIDE)

    parts = [
        '<g id="panel-%s">' % kind,
        '<text x="%s" y="%s" font-size="14" font-family="sans-serif">%s</text>'
        % (
            format3(Fraction(offset_x) + _MARGIN),
            format3(Fraction(14)),
            "simple Weyl chambers" if kind == MODE_WEYL else "Zariski chambers",
        ),
    ]

    half_h = Fraction(_SIDE, 2 * res) * _ROOT3_HALF
    half_w = Fraction(_SIDE, 2 * res)
    # per attained support: integer sums of (2*u2 + u3), u3 and a count,
    # turned into a pixel centroid only at the end
    attained: dict[tuple[int, ...], list] = {}

    # group row-major consecutive samples of equal u3 and equal color key
    samples = cs.samples
    idx = 0
    total = len(samples)
    while idx < total:
        u3 = samples[idx][2]
        row = []
        while idx < total and samples[idx][2] == u3:
            row.append(samples[idx])
            idx += 1
        run_start = 0
        while run_start < len(row):
            s0 = row[run_start]
            key = _color_key(s0, kind)
            run_end = run_start
            while run_end + 1 < len(row) and _color_key(row[run_end + 1], kind) == key:
                run_end += 1
            if key is not None:
                xs = []
                for s in (row[run_start], row[run_end]):
                    px, _ = pix(s[0], s[1], s[2])
                    xs.append(px)
                y_mid = pix(*row[run_start][:3])[1]
                x_lo, x_hi = min(xs), max(xs)
                if key == "boundary":
                    fill = _BOUNDARY_COLOR
                else:
                    fill = support_color(tuple(names[i] for i in key))
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
            run_start = run_end + 1
        for s in row:
            key = _color_key(s, kind)
            if key is not None and key != "boundary":
                acc = attained.setdefault(key, [0, 0, 0])
                acc[0] += 2 * s[1] + s[2]
                acc[1] += s[2]
                acc[2] += 1

    # corner labels
    corner_names = _corner_names(m, cs.corners)
    anchors = [
        (pix(scale3, 0, 0), "start"),
        (pix(0, scale3, 0), "end"),
        (pix(0, 0, scale3), "middle"),
    ]
    for (pos, anchor), label in zip(anchors, corner_names):
        parts.append(
            '<text x="%s" y="%s" font-size="12" font-family="sans-serif" text-anchor="%s">%s</text>'
            % (format3(pos[0]), format3(pos[1] + 14), anchor, label)
        )

    # region labels at sample centroids (nef chamber stays unlabelled)
    supports = sorted(attained, key=lambda t: (len(t), t))
    for sup in supports:
        if not sup:
            continue
        sx2, su3, count = attained[sup]
        cx = Fraction(offset_x) + _MARGIN + Fraction(sx2, 2 * scale3 * count) * _SIDE
        cy = top + height - Fraction(su3, scale3 * count) * _ROOT3_HALF * _SIDE
        parts.append(
            '<text x="%s" y="%s" font-size="11" font-family="sans-serif" text-anchor="middle">%s</text>'
            % (format3(cx), format3(cy), ",".join(names[i] for i in sup))
        )

    # legend
    ly = top + 20
    lx = Fraction(offset_x) + _MARGIN + _SIDE + 16
    for sup in supports:
        sup_names = tuple(names[i] for i in sup)
        parts.append(
            '<rect x="%s" y="%s" width="12" height="12" fill="%s"/>'
            % (format3(lx), format3(ly), support_color(sup_names))
        )
        parts.append(
            '<text x="%s" y="%s" font-size="11" font-family="sans-serif">%s</text>'
            % (format3(lx + 18), format3(ly + 10), _support_label(sup_names))
        )
        ly += 18
    parts.append("</g>")
    return parts


def _color_key(sample, kind: str):
    if kind == MODE_WEYL:
        sup, bound = sample[3], sample[4]
    else:
        sup, bound = sample[5], sample[6]
    if sup is None:
        return None
    return "boundary" if bound else sup


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
