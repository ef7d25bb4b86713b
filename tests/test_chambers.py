import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from helpers_oracle import sample_big_divisor
from k3chambers import chambers, gallery, linalg, model
from k3chambers.chambers import (
    ChamberKind,
    classify_ade,
    decompositions_coincide,
    divergence_witness,
    enumerate_weyl_chambers,
    enumerate_zariski_chambers,
    negative_definite_subsets,
    verify_bijection,
    weyl_in_zariski,
    weyl_only_witness,
    weyl_signature,
    weyl_witness,
    zariski_chamber_of,
    zariski_interior_in_weyl,
)
from k3chambers.errors import NotBig, NotNegativeDefinite
from k3chambers.model import config_divisor, full_divisor


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_quartic_zariski_family(quartic):
    atlas = enumerate_zariski_chambers(quartic.model)
    assert atlas.supports == ((), (0,), (1,), (2,), (0, 1))
    assert len(atlas.records) == 5


def test_double_cover_zariski_family(double_cover):
    atlas = enumerate_zariski_chambers(double_cover.model)
    assert atlas.supports == ((), (0,), (1,), (2,), (0, 1))


def test_no_curves_gives_only_the_nef_chamber():
    m = model.full_lattice_model([[4]], [], [1])
    assert enumerate_zariski_chambers(m).supports == ((),)
    assert enumerate_weyl_chambers(m).supports == ((),)


def test_quartic_weyl_family_matches(quartic):
    atlas = enumerate_weyl_chambers(quartic.model)
    assert atlas.supports == ((), (0,), (1,), (2,), (0, 1))
    # every witness divisor realizes its sign pattern
    for r in atlas.records:
        dots = model.pairings_with_curves(quartic.model, r.witness)
        assert {i for i, x in enumerate(dots) if x < 0} == set(r.support)
        assert all(x != 0 for x in dots)


def test_weyl_infeasible_pattern_excluded(quartic):
    atlas = enumerate_weyl_chambers(quartic.model)
    assert (0, 2) not in atlas.supports  # {L1, C} is not negative definite


def test_family_is_downward_closed(quartic, double_cover):
    for entry in (quartic, double_cover):
        fam = set(enumerate_zariski_chambers(entry.model).supports)
        for s in fam:
            for k in range(len(s)):
                for sub in combinations(s, k):
                    assert sub in fam


def test_bijection_on_gallery(quartic, double_cover):
    for m in (quartic.model, double_cover.model):
        assert verify_bijection(enumerate_zariski_chambers(m), enumerate_weyl_chambers(m)).equal


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------


def test_weyl_signature_examples(quartic):
    m = quartic.model
    sig = weyl_signature(m, full_divisor([5, 7, 2]))
    assert sig.support == (1,) and not sig.boundary
    assert sig.kind is ChamberKind.WEYL
    sig = weyl_signature(m, full_divisor([5, 5, 2]))
    assert sig.support == (0, 1) and not sig.boundary
    # big class orthogonal to both lines: boundary, empty support
    sig = weyl_signature(m, full_divisor([2, 2, 1]))
    assert sig.support == () and sig.boundary


def test_weyl_signature_requires_big(quartic):
    with pytest.raises(NotBig):
        weyl_signature(quartic.model, full_divisor([1, 0, 1]))  # square 0
    with pytest.raises(NotBig):
        weyl_signature(quartic.model, full_divisor([-2, -2, -2]))


def test_zariski_chamber_examples(quartic):
    m = quartic.model
    sig = zariski_chamber_of(m, full_divisor([5, 7, 2]))
    assert sig.support == (0, 1) and not sig.boundary
    assert sig.kind is ChamberKind.ZARISKI
    assert sig.support != weyl_signature(m, full_divisor([5, 7, 2])).support
    assert zariski_chamber_of(m, full_divisor([5, 2, 2])).support == (0,)
    ample = zariski_chamber_of(m, full_divisor([2, 2, 2]))
    assert ample.support == () and not ample.boundary
    wall = zariski_chamber_of(m, full_divisor([2, 2, 1]))
    assert wall.support == () and wall.boundary


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------


def test_weyl_witness_examples(quartic, double_cover):
    m = quartic.model
    d = weyl_witness(m, (0, 1))
    assert d.coords == (5, 5, 2)
    assert model.pairings_with_curves(m, d) == (-1, -1, 16)
    d = weyl_witness(m, (2,))
    assert d.coords == (2, 2, Fraction(9, 2))
    assert model.pairings_with_curves(m, d) == (7, 7, -1)
    # double cover, single curve: coefficient (h1 + 1) / 2
    dc = double_cover.model
    d = weyl_witness(dc, (0,))
    h1 = model.ample_pairings(dc)[0]
    assert d.coords[0] - dc.ample_coords[0] == (h1 + 1) / 2


def test_witness_invariants_are_checked_under_python_O():
    """The witness checks are explicit raises, so an optimized interpreter
    still rejects a wrong solve."""
    script = textwrap.dedent("""
        import sys
        from fractions import Fraction
        from k3chambers import chambers, linalg, quartic_example
        from k3chambers.errors import InvariantViolated
        if not sys.flags.optimize:
            sys.exit("interpreter is not optimized")
        linalg.solve_linear = lambda a, b: tuple(Fraction(-1) for _ in b)
        try:
            chambers.weyl_witness(quartic_example().model, (0,))
        except InvariantViolated:
            sys.exit(0)
        sys.exit("weyl_witness accepted a negative solution")
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr


def test_weyl_witness_rejects_bad_sets(quartic):
    with pytest.raises(NotNegativeDefinite):
        weyl_witness(quartic.model, (0, 2))
    with pytest.raises(ValueError):
        weyl_witness(quartic.model, ())


def test_divergence_witness_construction(quartic):
    m = quartic.model
    d = divergence_witness(m, 0, 1)
    assert d.coords == (5, 7, 2)
    assert weyl_signature(m, d).support == (1,)
    assert zariski_chamber_of(m, d).support == (0, 1)
    with pytest.raises(ValueError):
        divergence_witness(m, 0, 2)  # L1 . C = 2


def test_decompositions_coincide_gallery(quartic, double_cover):
    rep = decompositions_coincide(quartic.model)
    assert not rep.coincide and rep.pair == (0, 1)
    assert rep.witness.coords == (5, 7, 2)
    rep = decompositions_coincide(double_cover.model)
    assert rep.coincide and rep.pair is None and rep.witness is None
    m = model.full_lattice_model([[4]], [], [1])
    assert decompositions_coincide(m).coincide


# ---------------------------------------------------------------------------
# inclusion criteria
# ---------------------------------------------------------------------------


def test_quartic_inclusion_table(quartic):
    m = quartic.model
    assert weyl_in_zariski(m, (0, 1)).holds  # only candidate C gives non-ND set
    v = weyl_in_zariski(m, (0,))
    assert not v.holds and v.counterexample == 1
    v = weyl_in_zariski(m, (1,))
    assert not v.holds and v.counterexample == 0
    assert weyl_in_zariski(m, (2,)).holds
    assert weyl_in_zariski(m, ()).holds

    assert zariski_interior_in_weyl(m, (2,)).holds
    assert zariski_interior_in_weyl(m, (0,)).holds
    assert zariski_interior_in_weyl(m, (1,)).holds
    v = zariski_interior_in_weyl(m, (0, 1))
    assert not v.holds and v.pair == (0, 1)


def test_double_cover_inclusion_table(double_cover):
    m = double_cover.model
    for s in negative_definite_subsets(m):
        assert weyl_in_zariski(m, s).holds
        assert zariski_interior_in_weyl(m, s).holds


def test_criteria_reject_non_nd_sets(quartic):
    with pytest.raises(NotNegativeDefinite):
        weyl_in_zariski(quartic.model, (0, 2))
    with pytest.raises(NotNegativeDefinite):
        zariski_interior_in_weyl(quartic.model, (0, 1, 2))


def test_weyl_only_witness_realizes_the_failure(quartic):
    m = quartic.model
    d = weyl_only_witness(m, (0,), 1)
    assert weyl_signature(m, d).support == (0,)
    assert zariski_chamber_of(m, d).support == (0, 1)


@pytest.mark.parametrize("seed", range(40))
def test_weyl_only_witness_on_random_models(seed):
    """Wherever the W-in-Z criterion fails, the explicit construction
    produces a divisor whose Weyl support is S but whose Zariski support
    differs."""
    m = gallery.random_configuration(seed, 2 + seed % 5, 0.6)
    for s in negative_definite_subsets(m):
        if not s:
            continue
        verdict = weyl_in_zariski(m, s)
        if verdict.holds:
            continue
        d = weyl_only_witness(m, s, verdict.counterexample)
        assert weyl_signature(m, d).support == s
        assert zariski_chamber_of(m, d).support != s


@pytest.mark.parametrize("seed", range(20))
def test_atlas_witness_lands_in_its_chamber_when_criterion_holds(seed):
    """The atlas witness is a Weyl witness for S; whenever W_S is contained
    in Z_S its Zariski support must be exactly S."""
    m = gallery.random_configuration(seed, 1 + seed % 5, 0.5)
    for record in enumerate_zariski_chambers(m).records:
        if not record.support:
            continue
        assert weyl_signature(m, record.witness).support == record.support
        if record.weyl_in_zariski.holds:
            assert zariski_chamber_of(m, record.witness).support == record.support


# ---------------------------------------------------------------------------
# criteria consistency (equality theorem vs per-chamber criteria)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(30))
def test_coincidence_equals_all_inclusions(seed):
    m = gallery.random_configuration(seed, seed % 6, 0.5)
    coincide = decompositions_coincide(m).coincide
    fam = negative_definite_subsets(m)
    all_hold = all(
        weyl_in_zariski(m, s).holds and zariski_interior_in_weyl(m, s).holds
        for s in fam
    )
    assert coincide == all_hold


def test_sign_dichotomy_under_coincidence(double_cover):
    m = double_cover.model
    assert decompositions_coincide(m).coincide
    rng = random.Random("dichotomy")
    checked = 0
    while checked < 30:
        d = sample_big_divisor(m, rng)
        z = zariski_chamber_of(m, d)
        if z.boundary:
            continue
        w = weyl_signature(m, d)
        assert not w.boundary
        assert w.support == z.support
        checked += 1


# ---------------------------------------------------------------------------
# ADE classification
# ---------------------------------------------------------------------------


def test_ade_examples(quartic, double_cover):
    assert classify_ade(quartic.model, (0, 1)) == ("A2",)
    assert classify_ade(double_cover.model, (0, 1)) == ("A1", "A1")
    assert classify_ade(quartic.model, ()) == ()


@pytest.mark.parametrize("kind,size", [("A", n) for n in range(1, 9)]
    + [("D", n) for n in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8)])
def test_ade_classifier_on_named_diagrams(kind, size):
    g = gallery.ade_diagram_gram(kind, size)
    assert linalg.is_negative_definite(g)
    m = model.configuration_model(g, ["c%d" % i for i in range(size)], [1] * size, 2)
    assert classify_ade(m, tuple(range(size))) == ("%s%d" % (kind, size),)


def test_ade_classifier_on_shuffled_unions():
    rng = random.Random("ade-unions")
    for seed in range(30):
        g = gallery.random_ade_gram(seed)
        n = len(g)
        m = model.configuration_model(g, ["c%d" % i for i in range(n)], [1] * n, 2)
        labels = classify_ade(m, tuple(range(n)))
        assert sum(int(label[1:]) for label in labels) == n


def test_ade_rejects_non_nd(quartic):
    with pytest.raises(NotNegativeDefinite):
        classify_ade(quartic.model, (0, 1, 2))


def test_nd_supports_pair_in_zero_or_one():
    for seed in range(30):
        m = gallery.random_configuration(seed, 1 + seed % 6, 0.7)
        g = model.curve_gram(m)
        for s in negative_definite_subsets(m):
            for i, j in combinations(s, 2):
                assert g[i][j] in (0, 1)


# ---------------------------------------------------------------------------
# atlas metadata and serialization
# ---------------------------------------------------------------------------


def test_zariski_atlas_metadata(quartic):
    m = quartic.model
    atlas = enumerate_zariski_chambers(m)
    by_support = {r.support: r for r in atlas.records}
    assert by_support[(0, 1)].ade == ("A2",)
    assert by_support[(0,)].weyl_in_zariski.counterexample == 1
    assert by_support[(0, 1)].zariski_interior_in_weyl.pair == (0, 1)
    # empty chamber's witness is the ample class itself
    assert by_support[()].witness == model.ample_divisor(m)
    # witness of {L1,L2} lands in its own chamber (criterion holds there)
    r = by_support[(0, 1)]
    assert zariski_chamber_of(m, r.witness).support == (0, 1)


def test_atlas_document_shape(quartic):
    m = quartic.model
    doc = chambers.atlas_to_document(m, enumerate_zariski_chambers(m))
    assert doc["kind"] == "zariski"
    assert [e["support"] for e in doc["family"]] == [
        [], ["L1"], ["L2"], ["C"], ["L1", "L2"],
    ]
    entry = doc["family"][-1]
    assert entry["ade"] == ["A2"]
    assert entry["weyl_in_zariski"] == {"holds": True, "counterexample": None}
    assert entry["zariski_interior_in_weyl"] == {"holds": False, "pair": ["L1", "L2"]}
    assert entry["witness"] == {"coords": ["5", "5", "2"]}
    wdoc = chambers.atlas_to_document(m, enumerate_weyl_chambers(m))
    assert wdoc["kind"] == "weyl"
    assert "ade" not in wdoc["family"][0]


def test_configuration_mode_signatures(quartic):
    cfg = model.to_configuration(quartic.model)
    d = config_divisor(1, [3, 5, 0])  # the divergence witness in t/a form
    assert weyl_signature(cfg, d).support == (1,)
    assert zariski_chamber_of(cfg, d).support == (0, 1)
