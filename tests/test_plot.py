import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from helpers_oracle import cross_section_per_sample, valid_supports_brute_force
from k3chambers import chambers, gallery, linalg, model, plot, zariski
from k3chambers.errors import DegenerateCorners, NotBig
from k3chambers.model import Mode, full_divisor
from k3chambers.plot import (
    CrossSectionSpec,
    classify_cross_section,
    format3,
    render_cross_section,
    support_color,
)


def test_format3_round_half_even():
    assert format3(Fraction(1, 2000)) == "0.000"     # 0.0005 -> even
    assert format3(Fraction(3, 2000)) == "0.002"     # 0.0015 -> even
    assert format3(Fraction(-1, 2000)) == "0.000"
    assert format3(Fraction(-3, 2000)) == "-0.002"
    assert format3(Fraction(5, 4)) == "1.250"
    assert format3(Fraction(-7, 3)) == "-2.333"
    assert format3(Fraction(12)) == "12.000"


def test_support_color_is_stable():
    assert support_color(("L1", "L2")) == support_color(("L1", "L2"))
    palette = {support_color(s) for s in [(), ("L1",), ("L2",), ("C",), ("L1", "L2")]}
    assert len(palette) >= 2


def test_spec_validation(quartic):
    m = quartic.model
    with pytest.raises(ValueError):
        classify_cross_section(m, CrossSectionSpec(resolution=1))
    with pytest.raises(ValueError):
        classify_cross_section(m, CrossSectionSpec(coloring="green"))
    dependent = (
        full_divisor([1, 0, 0]),
        full_divisor([0, 1, 0]),
        full_divisor([1, 1, 0]),
    )
    with pytest.raises(DegenerateCorners):
        classify_cross_section(m, CrossSectionSpec(corners=dependent, resolution=4))
    # rank 2 with a zero leading column, which the rank elimination skips
    dependent = (full_divisor([0, 1, 0]), full_divisor([0, 0, 1]), full_divisor([0, 1, 1]))
    with pytest.raises(DegenerateCorners):
        classify_cross_section(m, CrossSectionSpec(corners=dependent, resolution=4))


def test_rational_curve_gram_classifies_as_the_decomposition():
    """Curve Gram entries such as 1/2, 3/2 and 1/3, with a rational H^2 or
    H.C_i, classify exactly: every sample's fields are those of
    zariski_decompose and the curve pairings, and a sample that is not big
    is one that zariski_decompose refuses, with the default corners and
    with corners H + C_0, H + C_1, H - 3 C_2 that leave the big cone."""
    cases = [
        ([[-2, "1/2", 0], ["1/2", -2, 0], [0, 0, -2]], [1, 1, 1], 4),
        ([[-2, "1/2", 0], ["1/2", "-3/2", "1/3"], [0, "1/3", -2]], [1, "1/2", 1], "7/2"),
        ([["-3/2", 1, 0, "1/2"], [1, -2, "1/3", 0], [0, "1/3", "-5/2", 1], ["1/2", 0, 1, -2]],
         ["1/3", 1, "1/2", "2/3"], "5/2"),
    ]
    for gram, dots, square in cases:
        m = model.configuration_model(gram, ["C%d" % i for i in range(len(gram))], dots, square)
        h = model.ample_divisor(m)
        c = [model.curve_divisor(m, i) for i in range(3)]
        leaving = (
            model.add_divisors(m, h, c[0]),
            model.add_divisors(m, h, c[1]),
            model.add_divisors(m, h, model.scale_divisor(m, -3, c[2])),
        )
        for corners in (None, leaving):
            cs = classify_cross_section(m, CrossSectionSpec(corners=corners, resolution=9))
            big = 0
            for u1, u2, u3, *fields in cs.samples:
                d = model.scale_divisor(m, u1, cs.corners[0])
                for u, corner in ((u2, cs.corners[1]), (u3, cs.corners[2])):
                    d = model.add_divisors(m, d, model.scale_divisor(m, u, corner))
                try:
                    z = zariski.zariski_decompose(m, d)
                except NotBig:
                    assert fields == [None, False, None, False]
                    continue
                dots_d = model.pairings_with_curves(m, d)
                assert fields == [
                    tuple(i for i, x in enumerate(dots_d) if x < 0), 0 in dots_d,
                    z.neg_set, z.null_set != z.neg_set,
                ]
                big += 1
            assert len(cs.attained_supports(plot.MODE_ZARISKI)) > 2
            assert big == len(cs.samples) if corners is None else 0 < big < len(cs.samples)


def test_default_corners_need_three_curves():
    m = model.full_lattice_model([[4]], [], [1])
    with pytest.raises(DegenerateCorners):
        classify_cross_section(m, CrossSectionSpec(resolution=4))


def test_resolution_two_corner_samples(quartic):
    """At resolution 2 the three corner-adjacent centroids land in the three
    single-curve chambers and the central sample in the nef chamber."""
    cs = classify_cross_section(quartic.model, CrossSectionSpec(resolution=2))
    by_u = {s[:3]: s for s in cs.samples}
    assert by_u[(4, 1, 1)][3] == (0,) and by_u[(4, 1, 1)][5] == (0,)
    assert by_u[(1, 4, 1)][3] == (1,) and by_u[(1, 4, 1)][5] == (1,)
    assert by_u[(1, 1, 4)][3] == (2,) and by_u[(1, 1, 4)][5] == (2,)
    assert by_u[(2, 2, 2)][3] == () and by_u[(2, 2, 2)][5] == ()


def test_region_counts_match_atlas(quartic, double_cover):
    for entry in (quartic, double_cover):
        cs = classify_cross_section(entry.model, CrossSectionSpec(resolution=100))
        expected = set(chambers.enumerate_zariski_chambers(entry.model).supports)
        assert cs.attained_supports(plot.MODE_ZARISKI) == expected
        assert cs.attained_supports(plot.MODE_WEYL) == expected
        # one shared tuple per support, not one per sample
        for field in (3, 5):
            assert len({id(s[field]) for s in cs.samples if s[field] is not None}) == len(expected)


def test_quartic_panels_differ_and_double_cover_agrees(quartic, double_cover):
    cs = classify_cross_section(quartic.model, CrossSectionSpec(resolution=60))
    differing = [
        s for s in cs.samples
        if s[3] is not None and not s[4] and not s[6] and s[3] != s[5]
    ]
    assert differing
    cs = classify_cross_section(double_cover.model, CrossSectionSpec(resolution=60))
    for s in cs.samples:
        if s[3] is not None and not s[4] and not s[6]:
            assert s[3] == s[5]


def _shifted_corners(m):
    """H + C_0, H + C_1 and C_2 - H: part of the triangle leaves the big cone."""
    h = model.ample_divisor(m)
    c = [model.curve_divisor(m, i) for i in range(3)]
    return (
        model.add_divisors(m, h, c[0]),
        model.add_divisors(m, h, c[1]),
        model.add_divisors(m, c[2], model.scale_divisor(m, -1, h)),
    )


def test_classification_agrees_with_decompose_on_sampled_points(quartic, double_cover):
    """Each sample's fields must match zariski_decompose, is_big and the
    pairing signs on a subsample of grid points: on the gallery models with
    their default corners, and on the quartic's configuration form with
    shifted corners, where the samples take t <= 0 as well as t > 0."""
    cfg = model.to_configuration(quartic.model)
    cases = [(quartic.model, None), (double_cover.model, None), (cfg, _shifted_corners(cfg))]
    for m, corners in cases:
        cs = classify_cross_section(m, CrossSectionSpec(corners=corners, resolution=24))
        rng = random.Random("scan-vs-engine")
        samples = rng.sample(cs.samples, 60)
        ts = set()
        for u1, u2, u3, wsup, wbound, zsup, zbound in samples:
            d = model.scale_divisor(m, u1, cs.corners[0])
            for u, corner in zip((u2, u3), cs.corners[1:]):
                d = model.add_divisors(m, d, model.scale_divisor(m, u, corner))
            check = zariski.is_big(m, d)
            if zsup is None:
                assert not check.big
                continue
            assert check.big
            if m.mode is Mode.CONFIGURATION:
                ts.add(d.ample_coeff > 0)
            sig = chambers.zariski_chamber_of(m, d)
            assert sig.support == zsup and sig.boundary == zbound
            wsig = chambers.weyl_signature(m, d)
            assert wsig.support == wsup and wsig.boundary == wbound
        if corners is not None:
            assert ts == {False, True}


def _oracle_cases():
    """The gallery and random models with n <= 6, each with the corners
    H + C_0, H + C_1 and C_2 - H, so that part of every triangle leaves the
    big cone; and the gallery with its default corners, where more chambers
    meet."""
    models = [gallery.quartic_example().model, gallery.double_cover_example().model]
    for seed, n, density in [(0, 6, 0.2), (9, 6, 0.5), (4, 5, 0.5), (1, 4, 0.6), (2, 3, 0.9)]:
        models.append(gallery.random_configuration(seed, n, density))
    cases = []
    for m in models:
        cases.append((m, _shifted_corners(m)))
    return cases + [(gallery.quartic_example().model, None),
                    (gallery.double_cover_example().model, None)]


@pytest.mark.parametrize("m, corners", _oracle_cases())
def test_every_zariski_support_matches_the_brute_force_oracle(m, corners):
    """Independent of the growth engine: for every sample, the first
    negative definite set (in size, index order) with positive coefficients
    and a nef candidate is the Zariski support when its nef part is big,
    and the sample is not big otherwise."""
    cs = classify_cross_section(m, CrossSectionSpec(corners=corners, resolution=9))
    amp = model.ample_divisor(m)
    big = 0
    for u1, u2, u3, wsup, wbound, zsup, zbound in cs.samples:
        d = model.scale_divisor(m, u1, cs.corners[0])
        for u, c in ((u2, cs.corners[1]), (u3, cs.corners[2])):
            d = model.add_divisors(m, d, model.scale_divisor(m, u, c))
        dots = model.pairings_with_curves(m, d)
        expected = (None, False, None, False)
        valid = valid_supports_brute_force(m, d)
        if valid:
            t = valid[0]
            a = [Fraction(0)] * model.curve_count(m)
            sol = linalg.solve_linear(model.restrict_gram(m, t), [dots[j] for j in t])
            for j, b in zip(t, sol):
                a[j] = b
            p = model.add_divisors(
                m, d, model.divisor_from_ample_and_curves(m, 0, [-b for b in a])
            )
            if model.pair(m, p, p) > 0 and model.pair(m, p, amp) > 0:
                p_dots = model.pairings_with_curves(m, p)
                expected = (
                    tuple(i for i, x in enumerate(dots) if x < 0),
                    any(x == 0 for x in dots),
                    t,
                    any(x == 0 for i, x in enumerate(p_dots) if i not in t),
                )
        assert (wsup, wbound, zsup, zbound) == expected
        big += zsup is not None
    assert big and (corners is None or big < len(cs.samples))


def test_render_is_deterministic(quartic):
    spec = CrossSectionSpec(resolution=40, coloring=plot.MODE_BOTH)
    a = render_cross_section(quartic.model, classify_cross_section(quartic.model, spec))
    b = render_cross_section(quartic.model, classify_cross_section(quartic.model, spec))
    assert a == b
    assert a.startswith('<?xml version="1.0"')
    assert "<svg" in a and a.rstrip().endswith("</svg>")


def test_render_modes(quartic):
    def render(coloring):
        spec = CrossSectionSpec(resolution=20, coloring=coloring)
        return render_cross_section(quartic.model, classify_cross_section(quartic.model, spec))

    single = render("weyl")
    assert "panel-weyl" in single and "panel-zariski" not in single
    both = render("both")
    assert "panel-weyl" in both and "panel-zariski" in both
    assert "L1,L2" in both  # region label for the two-line chamber


def test_render_configuration_mode_with_default_corners():
    m = model.to_configuration(gallery.quartic_example().model)
    cs = classify_cross_section(m, CrossSectionSpec(resolution=12))
    assert "H+L1" in render_cross_section(m, cs)
    assert all(s[5] is not None for s in cs.samples)  # every sample is big


def test_boundary_samples_are_neutral(quartic):
    """Default centroids never hit the quartic's walls (their offsets are
    nonzero mod 3), so pick corners with L1-pairings (0, 1, -1): samples
    with equal second and third weights lie exactly on the L1 wall."""
    m = quartic.model
    corners = (full_divisor([2, 2, 1]), full_divisor([1, 1, 1]), full_divisor([4, 3, 2]))
    spec = CrossSectionSpec(corners=corners, resolution=4)
    cs = classify_cross_section(m, spec)
    boundary = [s for s in cs.samples if s[6]]
    assert boundary
    assert all(s[4] for s in boundary)  # zero pairing flags the Weyl side too
    assert "#c8c8c8" in render_cross_section(m, cs)


def test_default_corners_never_hit_walls(quartic):
    cs = classify_cross_section(quartic.model, CrossSectionSpec(resolution=24))
    assert not any(s[4] or s[6] for s in cs.samples)


def _inertia(m):
    return linalg.signature(linalg.mat(m.pairing_form[0]))


@st.composite
def _plot_cases(draw):
    """A gallery model or a small hyperbolic random configuration, three
    linearly independent integer corners and a resolution."""
    m = draw(st.one_of(
        st.sampled_from(["quartic", "double-cover"]).map(lambda k: gallery.gallery_entry(k).model),
        st.builds(
            gallery.random_configuration,
            st.integers(0, 300), st.integers(3, 7), st.sampled_from([0.2, 0.3, 0.5]),
        ).filter(lambda m: _inertia(m)[0] == 1),
    ))
    if m.mode is Mode.FULL_LATTICE:
        dim = len(m.gram)
        corners = tuple(
            full_divisor(draw(st.lists(st.integers(-3, 6), min_size=dim, max_size=dim)))
            for _ in range(3)
        )
    else:
        n = model.curve_count(m)
        corners = tuple(
            model.config_divisor(
                draw(st.integers(-2, 3)), draw(st.lists(st.integers(-2, 4), min_size=n, max_size=n))
            )
            for _ in range(3)
        )
    assume(linalg.rank([model.vector(m, c) for c in corners]) == 3)
    return m, corners, draw(st.integers(2, 60))


@settings(max_examples=60)
@given(_plot_cases())
# the first sample of the bottom row lies on the wall P.L2 = 0 of the
# chamber {L1}, which the rest of the row is inside: a row end that has
# the other end's support and pairing signs but not its null curves
@example((gallery.quartic_example().model,
          (full_divisor([4, 1, 1]), full_divisor([3, 2, 1]), full_divisor([3, 3, 1])), 12))
def test_filled_rows_equal_the_per_sample_oracle(case):
    """Filling the runs between classified run ends gives every sample the
    classification that classifying it on its own gives."""
    m, corners, res = case
    cs = classify_cross_section(m, CrossSectionSpec(corners=corners, resolution=res))
    samples, attained = cross_section_per_sample(m, corners, res)
    assert cs.attained == attained
    for got, want in zip(cs.samples, samples, strict=True):
        assert got == want


def test_only_a_hyperbolic_form_fills(monkeypatch, quartic):
    """Not hyperbolic: every sample is classified, and the samples are the
    oracle's (on these corners one sample that is not big lies between two
    big samples of one chamber and row).  The quartic at the benchmark's
    grid size classifies fewer than a fifth of its samples."""
    calls = []
    real = zariski.grow_support

    def counted(q, table):
        calls.append(None)
        return real(q, table)

    monkeypatch.setattr(zariski, "grow_support", counted)
    m = gallery.random_configuration(3, 7, 0.2)
    assert _inertia(m) == (2, 6, 0)
    corners = (
        model.config_divisor(-1, [3, 1, -1, -1, 3, 2, 1]),
        model.config_divisor(2, [0, -1, 1, -1, -1, -1, -1]),
        model.config_divisor(-1, [1, 2, 3, 3, 3, 3, 0]),
    )
    cs = classify_cross_section(m, CrossSectionSpec(corners=corners, resolution=60))
    assert len(calls) == 60 ** 2
    monkeypatch.setattr(zariski, "grow_support", real)
    assert (cs.samples, cs.attained) == cross_section_per_sample(m, corners, 60)

    monkeypatch.setattr(zariski, "grow_support", counted)
    calls.clear()
    classify_cross_section(quartic.model, CrossSectionSpec(resolution=200))
    assert len(calls) < 0.2 * 200 ** 2
