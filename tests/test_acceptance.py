"""Acceptance suite.

One test per criterion; each prints a PASS line (visible with -s or -rA)
and enforces the stated exactness and time bounds.  Expected values are
frozen from independent hand computations (2x2 solves, direct quadratic
forms) or brute-force oracles in helpers_oracle.
"""

import random
import time
from fractions import Fraction

from helpers_oracle import sample_big_divisor, valid_supports_brute_force
from k3chambers import chambers, gallery, linalg, model, plot, zariski
from k3chambers.chambers import (
    classify_ade,
    decompositions_coincide,
    enumerate_weyl_chambers,
    enumerate_zariski_chambers,
    negative_definite_subsets,
    verify_bijection,
    weyl_in_zariski,
    weyl_signature,
    zariski_chamber_of,
    zariski_interior_in_weyl,
)
from k3chambers.plot import CrossSectionSpec, classify_cross_section, render_cross_section

DENSITIES = (0.2, 0.35, 0.5, 0.65, 0.8)


def _random_models(count):
    for seed in range(count):
        yield gallery.random_configuration(seed, seed % 7, DENSITIES[seed % 5])


def test_criterion_01_quartic_chamber_families():
    entry = gallery.quartic_example()
    t0 = time.monotonic()
    z = enumerate_zariski_chambers(entry.model)
    w = enumerate_weyl_chambers(entry.model)
    elapsed = time.monotonic() - t0
    assert z.supports == ((), (0,), (1,), (2,), (0, 1))
    assert len(z.records) == 5
    assert w.supports == z.supports
    assert verify_bijection(z, w).equal
    assert elapsed < 1.0
    print("ACCEPTANCE 1 PASS: quartic has 5 Zariski chambers, Weyl family equal "
          "(%.3fs)" % elapsed)


def test_criterion_02_double_cover_five_chambers_coincide():
    entry = gallery.double_cover_example()
    t0 = time.monotonic()
    z = enumerate_zariski_chambers(entry.model)
    report = decompositions_coincide(entry.model)
    elapsed = time.monotonic() - t0
    assert len(z.records) == 5
    assert z.supports == ((), (0,), (1,), (2,), (0, 1))
    assert report.coincide is True
    assert elapsed < 1.0
    print("ACCEPTANCE 2 PASS: double cover has 5 chambers and coinciding "
          "decompositions (%.3fs)" % elapsed)


def test_criterion_03_quartic_divergence_certificate():
    m = gallery.quartic_example().model
    report = decompositions_coincide(m)
    assert report.coincide is False
    i, j = report.pair
    assert model.curve_gram(m)[i][j] == 1
    d = report.witness
    # frozen oracle: solve [[-2,1],[1,-2]] x = (-2,-2) by hand gives x = (2,2),
    # so a = (x1+1, x2+3) = (3,5) and D = H + 3 L1 + 5 L2 = (5,7,2)
    assert d.coords == (5, 7, 2)
    assert weyl_signature(m, d).support == (1,)       # {L2}
    assert zariski_chamber_of(m, d).support == (0, 1)  # {L1, L2}
    r = zariski.zariski_decompose(m, d)
    assert r.nef_part.coords == (4, 4, 2)
    assert dict(r.neg_coeffs) == {0: Fraction(1), 1: Fraction(3)}
    print("ACCEPTANCE 3 PASS: witness (5,7,2) has Weyl support {L2}, Zariski "
          "support {L1,L2}, P=(4,4,2), N=L1+3L2")


def test_criterion_04_quartic_inclusion_table():
    m = gallery.quartic_example().model
    t0 = time.monotonic()
    zw = {s: zariski_interior_in_weyl(m, s) for s in negative_definite_subsets(m)}
    wz = {s: weyl_in_zariski(m, s) for s in negative_definite_subsets(m)}
    elapsed = time.monotonic() - t0
    assert zw[(2,)].holds and zw[(0,)].holds and zw[(1,)].holds
    assert not zw[(0, 1)].holds and zw[(0, 1)].pair == (0, 1)
    assert not wz[(0,)].holds and wz[(0,)].counterexample == 1
    assert not wz[(1,)].holds and wz[(1,)].counterexample == 0
    assert elapsed < 1.0
    print("ACCEPTANCE 4 PASS: inclusion verdicts match the three-curve table "
          "(%.3fs)" % elapsed)


def test_criterion_05_inverse_sign_property_suite():
    t0 = time.monotonic()
    failures = 0
    for seed in range(1000):
        g = gallery.random_ade_gram(seed)
        if not linalg.inverse_nonpositive_check(g):
            failures += 1
    elapsed = time.monotonic() - t0
    assert failures == 0
    assert elapsed < 30.0
    print("ACCEPTANCE 5 PASS: 1000 ADE-generated matrices, inverse entries "
          "all nonpositive, 0 failures (%.1fs)" % elapsed)


def test_criterion_06_bijection_property_suite():
    t0 = time.monotonic()
    mismatches = []
    for i, m in enumerate(_random_models(200)):
        assert model.curve_count(m) <= 6
        report = verify_bijection(enumerate_zariski_chambers(m), enumerate_weyl_chambers(m))
        if not report.equal:
            mismatches.append(i)
    elapsed = time.monotonic() - t0
    assert mismatches == []
    assert elapsed < 300.0
    print("ACCEPTANCE 6 PASS: 200 random configurations, Weyl enumeration by "
          "feasibility equals ND-subset enumeration, 0 mismatches (%.1fs)" % elapsed)


def test_criterion_07_equality_criterion_consistency():
    t0 = time.monotonic()
    models = [gallery.quartic_example().model, gallery.double_cover_example().model]
    models.extend(_random_models(200))
    coinciding = 0
    for m in models:
        coincide = decompositions_coincide(m).coincide
        all_hold = all(
            weyl_in_zariski(m, s).holds and zariski_interior_in_weyl(m, s).holds
            for s in negative_definite_subsets(m)
        )
        assert coincide == all_hold
        if not coincide:
            continue
        coinciding += 1
        rng = random.Random("criterion7:%d" % coinciding)
        checked = attempts = 0
        while checked < 50 and attempts < 500:
            attempts += 1
            d = sample_big_divisor(m, rng)
            z = zariski_chamber_of(m, d)
            if z.boundary:
                continue
            w = weyl_signature(m, d)
            assert not w.boundary
            assert w.support == z.support
            checked += 1
        assert checked == 50
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print("ACCEPTANCE 7 PASS: coincide verdict equals all-inclusions on %d "
          "models; 50 signature agreements per coinciding model (%d models, "
          "%.1fs)" % (len(models), coinciding, elapsed))


def test_criterion_08_uniqueness_oracle():
    models = [gallery.quartic_example().model, gallery.double_cover_example().model]
    for seed in range(20):
        models.append(gallery.random_configuration(1000 + seed, seed % 5, 0.5))
    violations = 0
    for m in models:
        assert model.curve_count(m) <= 4
        rng = random.Random("criterion8")
        for _ in range(100):
            d = sample_big_divisor(m, rng)
            r = zariski.zariski_decompose(m, d)
            if valid_supports_brute_force(m, d) != [r.neg_set]:
                violations += 1
    assert violations == 0
    print("ACCEPTANCE 8 PASS: brute force over all ND supports confirms "
          "uniqueness on %d models x 100 divisors, 0 violations" % len(models))


def test_criterion_09_cross_section_reproduction():
    quartic = gallery.quartic_example().model
    spec = CrossSectionSpec(resolution=400, coloring=plot.MODE_BOTH)
    t0 = time.monotonic()
    cs = classify_cross_section(quartic, spec)
    svg = render_cross_section(quartic, cs)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    # deterministic bytes
    assert render_cross_section(quartic, classify_cross_section(quartic, spec)) == svg

    expected = {(), (0,), (1,), (2,), (0, 1)}
    assert cs.attained_supports(plot.MODE_WEYL) == expected
    assert cs.attained_supports(plot.MODE_ZARISKI) == expected
    differing = [
        s for s in cs.samples
        if s[3] is not None and not s[4] and not s[6] and s[3] != s[5]
    ]
    assert differing
    # the W_{L2} cap of int Z_{L1,L2} around the (5,7,2) ray is sampled
    assert any(s[3] == (1,) and s[5] == (0, 1) for s in differing)

    dc = gallery.double_cover_example().model
    cs_dc = classify_cross_section(dc, spec)
    assert len(cs_dc.attained_supports(plot.MODE_ZARISKI)) == 5
    for s in cs_dc.samples:
        if s[3] is not None and not s[4] and not s[6]:
            assert s[3] == s[5]
    print("ACCEPTANCE 9 PASS: quartic panels attain 5 supports each and "
          "differ on %d samples; double-cover panels agree pointwise; "
          "deterministic bytes (%.1fs render)" % (len(differing), elapsed))


def test_criterion_10_ade_classifier():
    # the 8x8 -E8 Gram exactly as printed (branch node in position 5)
    e8_printed = linalg.mat([
        [-2, 1, 0, 0, 0, 0, 0, 0],
        [1, -2, 1, 0, 0, 0, 0, 0],
        [0, 1, -2, 1, 0, 0, 0, 0],
        [0, 0, 1, -2, 1, 0, 0, 0],
        [0, 0, 0, 1, -2, 1, 0, 1],
        [0, 0, 0, 0, 1, -2, 1, 0],
        [0, 0, 0, 0, 0, 1, -2, 0],
        [0, 0, 0, 0, 1, 0, 0, -2],
    ])
    assert linalg.is_negative_definite(e8_printed)
    m = model.configuration_model(e8_printed, ["r%d" % i for i in range(8)], [1] * 8, 2)
    assert classify_ade(m, tuple(range(8))) == ("E8",)

    for n in range(1, 9):
        g = gallery.ade_diagram_gram("A", n)
        cfg = model.configuration_model(g, ["c%d" % i for i in range(n)], [1] * n, 2)
        assert classify_ade(cfg, tuple(range(n))) == ("A%d" % n,)
    for n in range(4, 9):
        g = gallery.ade_diagram_gram("D", n)
        cfg = model.configuration_model(g, ["c%d" % i for i in range(n)], [1] * n, 2)
        assert classify_ade(cfg, tuple(range(n))) == ("D%d" % n,)
    for n in (6, 7, 8):
        g = gallery.ade_diagram_gram("E", n)
        cfg = model.configuration_model(g, ["c%d" % i for i in range(n)], [1] * n, 2)
        assert classify_ade(cfg, tuple(range(n))) == ("E%d" % n,)
    print("ACCEPTANCE 10 PASS: printed -E8 Gram classifies as [E8]; "
          "A1..A8, D4..D8, E6..E8 all classify correctly")
