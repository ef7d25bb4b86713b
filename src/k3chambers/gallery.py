"""Built-in example models and seeded random generators for property suites.

The two built-in surfaces are desk-scale rank-three models: a quartic
carrying two lines and a conic whose chamber decompositions differ, and a
double-cover configuration with two disjoint curves where the decompositions
coincide.  Each entry states its ample class, which is checked at
construction to pair positively with itself and every curve.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg, model
from .linalg import Mat, Vec
from .model import SurfaceModel


@dataclass(frozen=True)
class InclusionExpectation:
    weyl_in_zariski: bool
    zariski_interior_in_weyl: bool


@dataclass(frozen=True)
class GalleryEntry:
    id: str
    model: SurfaceModel
    expected_chamber_count: int
    expected_coincide: bool
    expected_inclusions: tuple[tuple[tuple[str, ...], InclusionExpectation], ...]


def _interior_ample(gram: Mat, curves: list[Vec], ample) -> Vec:
    """The ample class, checked to pair positively with itself and every
    curve."""
    v = linalg.vec(ample)
    gv = linalg.mat_vec(gram, v)
    if linalg.dot(v, gv) <= 0 or any(linalg.dot(c, gv) <= 0 for c in curves):
        raise ValueError("ample class %r is not interior" % (ample,))
    return v


def quartic_example() -> GalleryEntry:
    """Quartic surface containing two lines and a conic with
    L1.L2 = 1, L1.C = L2.C = 2; the two chamber decompositions differ."""
    gram = linalg.mat([[-2, 1, 2], [1, -2, 2], [2, 2, -2]])
    curves = [linalg.vec(v) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    ample = _interior_ample(gram, curves, (2, 2, 2))
    m = model.full_lattice_model(
        gram,
        [("L1", curves[0]), ("L2", curves[1]), ("C", curves[2])],
        ample,
    )
    return GalleryEntry(
        id="quartic",
        model=m,
        expected_chamber_count=5,
        expected_coincide=False,
        expected_inclusions=(
            ((), InclusionExpectation(True, True)),
            (("L1",), InclusionExpectation(False, True)),
            (("L2",), InclusionExpectation(False, True)),
            (("C",), InclusionExpectation(True, True)),
            (("L1", "L2"), InclusionExpectation(True, False)),
        ),
    )


def double_cover_example() -> GalleryEntry:
    """Double-cover configuration with two disjoint curves and a conic,
    F1.F2 = 0, F1.C = F2.C = 2; the two chamber decompositions coincide."""
    gram = linalg.mat([[-2, 0, 2], [0, -2, 2], [2, 2, -2]])
    curves = [linalg.vec(v) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    # (2, 2, 2) is orthogonal to F1 and F2; (2, 2, 3) pairs 2 with each curve
    ample = _interior_ample(gram, curves, (2, 2, 3))
    m = model.full_lattice_model(
        gram,
        [("F1", curves[0]), ("F2", curves[1]), ("C", curves[2])],
        ample,
    )
    return GalleryEntry(
        id="double-cover",
        model=m,
        expected_chamber_count=5,
        expected_coincide=True,
        expected_inclusions=(
            ((), InclusionExpectation(True, True)),
            (("F1",), InclusionExpectation(True, True)),
            (("F2",), InclusionExpectation(True, True)),
            (("C",), InclusionExpectation(True, True)),
            (("F1", "F2"), InclusionExpectation(True, True)),
        ),
    )


GALLERY_IDS = ("quartic", "double-cover")


def gallery_entry(entry_id: str) -> GalleryEntry:
    if entry_id == "quartic":
        return quartic_example()
    if entry_id == "double-cover":
        return double_cover_example()
    raise KeyError("unknown gallery id %r (known: %s)" % (entry_id, ", ".join(GALLERY_IDS)))


# ---------------------------------------------------------------------------
# Seeded random generators
# ---------------------------------------------------------------------------


def random_configuration(seed: int, curve_count: int, edge_density: float = 0.4) -> SurfaceModel:
    """Deterministic random configuration-mode model.

    Curve Gram: diagonal -2, off-diagonals 0 with probability
    1 - edge_density, else 1 or 2.  Ample pairings in 1..5, ample square in
    {2, 4, ..., 12}.
    """
    if curve_count > 12:
        raise ValueError("curve_count must be <= 12")
    rng = random.Random("config:%d:%d:%s" % (seed, curve_count, edge_density))
    n = curve_count
    entries = [[Fraction(-2)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_density:
                value = Fraction(rng.choice((1, 2)))
            else:
                value = Fraction(0)
            entries[i][j] = entries[j][i] = value
    dots = [rng.randint(1, 5) for _ in range(n)]
    self_int = rng.choice((2, 4, 6, 8, 10, 12))
    return model.configuration_model(
        entries,
        ["C%d" % (i + 1) for i in range(n)],
        dots,
        self_int,
    )


_ADE_SHAPES = (
    [("A", k) for k in range(1, 9)]
    + [("D", k) for k in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8)]
)


def _diagram_edges(kind: str, size: int) -> list[tuple[int, int]]:
    if kind == "A":
        return [(i, i + 1) for i in range(size - 1)]
    if kind == "D":
        # path on 0..size-2 with the last node forking off node 1
        return [(i, i + 1) for i in range(size - 2)] + [(1, size - 1)]
    # E6/E7/E8: path on 0..size-2 with the last node attached to node 2
    return [(i, i + 1) for i in range(size - 2)] + [(2, size - 1)]


def random_ade_gram(seed: int, max_nodes: int = 8) -> Mat:
    """Gram matrix -2*I + adjacency of a random disjoint union of A-D-E
    diagrams on at most max_nodes nodes, with indices shuffled.  Always
    negative definite with nonnegative off-diagonal entries."""
    rng = random.Random("ade:%d:%d" % (seed, max_nodes))
    total = rng.randint(1, max_nodes)
    blocks: list[tuple[str, int]] = []
    left = total
    while left:
        options = [(k, s) for k, s in _ADE_SHAPES if s <= left]
        kind, size = rng.choice(options)
        blocks.append((kind, size))
        left -= size
    perm = rng.sample(range(total), total)
    entries = [[Fraction(0)] * total for _ in range(total)]
    for i in range(total):
        entries[i][i] = Fraction(-2)
    offset = 0
    for kind, size in blocks:
        for a, b in _diagram_edges(kind, size):
            i, j = perm[offset + a], perm[offset + b]
            entries[i][j] = entries[j][i] = Fraction(1)
        offset += size
    return tuple(tuple(row) for row in entries)


def ade_diagram_gram(kind: str, size: int) -> Mat:
    """Gram matrix of a single named diagram (for classifier tests)."""
    entries = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        entries[i][i] = Fraction(-2)
    for a, b in _diagram_edges(kind, size):
        entries[a][b] = entries[b][a] = Fraction(1)
    return tuple(tuple(row) for row in entries)
