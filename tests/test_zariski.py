import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from helpers_oracle import sample_big_divisor, valid_supports_brute_force
from k3chambers import gallery, model, zariski
from k3chambers.errors import NotBig
from k3chambers.model import config_divisor, full_divisor, to_configuration
from k3chambers.zariski import is_big, volume, zariski_decompose


def test_decompose_single_curve_support(quartic):
    m = quartic.model
    r = zariski_decompose(m, full_divisor([5, 2, 2]))
    assert r.nef_part.coords == (3, 2, 2)
    assert r.neg_coeffs == ((0, Fraction(2)),)
    assert r.neg_set == (0,)
    assert r.null_set == (0,)


def test_decompose_grows_past_positive_pairing(quartic):
    # D.L1 = +1 > 0 yet L1 ends up in the support
    m = quartic.model
    d = full_divisor([5, 7, 2])
    assert model.pairings_with_curves(m, d) == (1, -5, 20)
    r = zariski_decompose(m, d)
    assert r.nef_part.coords == (4, 4, 2)
    assert dict(r.neg_coeffs) == {0: 1, 1: 3}
    assert r.neg_set == (0, 1)
    assert r.null_set == (0, 1)
    assert volume(m, d) == 24


def test_decompose_nef_divisor_is_its_own_nef_part(quartic):
    m = quartic.model
    ample = full_divisor([2, 2, 2])
    r = zariski_decompose(m, ample)
    assert r.nef_part == ample
    assert r.neg_coeffs == ()
    assert r.neg_set == () and r.null_set == ()


def test_decompose_boundary_nef_class(quartic):
    # C + 2L1 + 2L2 = (2,2,1) is big (square 6) and orthogonal to both lines
    m = quartic.model
    r = zariski_decompose(m, full_divisor([2, 2, 1]))
    assert r.neg_set == ()
    assert r.null_set == (0, 1)


def test_square_zero_nef_class_is_not_big(quartic):
    # C + L1 is nef but has square 0, hence volume 0
    m = quartic.model
    d = full_divisor([1, 0, 1])
    assert model.pair(m, d, d) == 0
    with pytest.raises(NotBig):
        zariski_decompose(m, d)


def test_volume_examples(quartic):
    m = quartic.model
    d = full_divisor([5, 2, 2])
    assert volume(m, d) == 18
    assert model.pair(m, d, d) == 10  # vol > D^2 when N != 0
    # direct quadratic form: (2,2,2) = 2(L1+L2+C), and (L1+L2+C)^2 = 4
    assert volume(m, full_divisor([2, 2, 2])) == 16
    nef = full_divisor([1, 1, 1])
    assert volume(m, nef) == model.pair(m, nef, nef)


def test_not_big_inputs(quartic):
    m = quartic.model
    with pytest.raises(NotBig):
        zariski_decompose(m, full_divisor([-2, -2, -2]))
    with pytest.raises(NotBig):
        volume(m, full_divisor([0, 0, 1]))  # the conic alone: P = 0
    check = is_big(m, full_divisor([-2, -2, -2]))
    assert not check.big and check.decomposition is None


def test_growth_adds_the_most_negative_curve(quartic):
    """The failing support of a divisor that is not big shows the growth
    order.  D = -3 L1 - 2 L2 + 5 C meets C negatively; after solving on
    {C} the candidate meets L1 in -6 and L2 in -9, so L2 joins, and {L2, C}
    is not negative definite (adding L1 would fail on {L1, C} instead).  On
    a big divisor every curve met negatively lies in the support (Bauer), so
    only inputs like this one pin the choice."""
    with pytest.raises(NotBig, match=r"^support \[1, 2\] has a non-negative-definite"):
        zariski_decompose(quartic.model, full_divisor([-3, -2, 5]))


def test_is_big_certificates(quartic):
    m = quartic.model
    check = is_big(m, full_divisor([2, 2, 2]))
    assert check.big and check.decomposition is not None
    check = is_big(m, full_divisor([5, 7, 2]))
    p = check.decomposition.nef_part
    assert model.pair(m, p, p) == 24


def test_configuration_mode_decomposes_nonpositive_ample_coefficient(quartic):
    cfg = to_configuration(quartic.model)
    # the sum of all curves meets each curve positively and has square 4
    d = config_divisor(0, [1, 1, 1])
    r = zariski_decompose(cfg, d)
    assert r.nef_part == d and r.neg_coeffs == () and r.null_set == ()
    assert r.volume == 4
    # H = 2 (L1 + L2 + C), so -H + L1 + L2 + C = -(L1 + L2 + C)
    with pytest.raises(NotBig):
        zariski_decompose(cfg, config_divisor(-1, [1, 1, 1]))


def test_is_big_certifies_nonpositive_ample_coefficient_in_configuration_mode(quartic):
    cfg = to_configuration(quartic.model)
    # 4 L1 + L2 + C has square -8 and lies outside the positive cone, yet
    # it is big: N = 5/2 L1 and P^2 = 9/2
    check = is_big(cfg, config_divisor(0, [4, 1, 1]))
    assert check.big and check.reason is None
    assert check.decomposition.neg_coeffs == ((0, Fraction(5, 2)),)
    assert check.decomposition.volume == Fraction(9, 2)
    check = is_big(cfg, config_divisor(-1, [0, 0, 0]))
    assert not check.big and check.decomposition is None
    assert check.reason == "support [0, 1, 2] has a non-negative-definite intersection matrix"


def test_four_l1_plus_l2_plus_c_has_volume_nine_halves_in_both_modes(quartic):
    """D = 4 L1 + L2 + C (t = 0 in configuration mode, D^2 = -8) is big in
    either representation of the quartic, with the same decomposition."""
    m = quartic.model
    for r in (
        zariski_decompose(m, full_divisor([4, 1, 1])),
        zariski_decompose(to_configuration(m), config_divisor(0, [4, 1, 1])),
    ):
        assert r.neg_coeffs == ((0, Fraction(5, 2)),)
        assert r.neg_set == r.null_set == (0,)
        assert r.volume == Fraction(9, 2)


def _outcome(m, d):
    """The decomposition's mode-free fields, or the NotBig message."""
    try:
        r = zariski_decompose(m, d)
    except NotBig as exc:
        return str(exc)
    return r.neg_coeffs, r.neg_set, r.null_set, r.volume


@pytest.mark.parametrize("entry", ["quartic", "double-cover"])
def test_configuration_form_decomposes_like_the_full_lattice(entry):
    """The gallery lattices have the curves as their basis, so full_divisor(v)
    and t H + sum(v_i C_i) with t = 0 are one class.  Both forms of the
    model must give the same decomposition or the same NotBig message, and
    the same is_big verdict; so must t H + sum(v_i C_i) for other t."""
    m = gallery.gallery_entry(entry).model
    cfg = to_configuration(m)
    rng = random.Random("cross-mode:" + entry)
    big = 0
    for k in range(600):
        v = [rng.randint(-3, 9) for _ in range(3)]
        t = 0 if k % 2 else rng.randint(-2, 2)
        d_full = model.divisor_from_ample_and_curves(m, t, v)
        if t == 0:
            assert d_full == full_divisor(v)
        d_cfg = config_divisor(t, v)
        got = _outcome(cfg, d_cfg)
        assert got == _outcome(m, d_full), (t, v)
        assert is_big(cfg, d_cfg).big == is_big(m, d_full).big == (type(got) is tuple)
        big += type(got) is tuple
    assert 100 < big < 500


@pytest.mark.parametrize("entry", ["quartic", "double-cover"])
def test_uniqueness_against_brute_force_with_nonpositive_ample_coefficient(entry):
    """Big configuration divisors with t <= 0 have exactly one valid
    support too, the one the engine returns."""
    cfg = to_configuration(gallery.gallery_entry(entry).model)
    rng = random.Random("uniqueness-t-nonpositive")
    big = 0
    for _ in range(200):
        d = config_divisor(rng.randint(-2, 0), [rng.randint(-3, 9) for _ in range(3)])
        try:
            r = zariski_decompose(cfg, d)
        except NotBig:
            continue
        big += 1
        assert valid_supports_brute_force(cfg, d) == [r.neg_set]
    assert big > 20


@pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(2), Fraction(3, 5)])
def test_decomposition_scales_with_the_divisor(quartic, lam):
    m = quartic.model
    d = full_divisor([5, 7, 2])
    r = zariski_decompose(m, d)
    scaled = zariski_decompose(m, model.scale_divisor(m, lam, d))
    assert scaled.neg_set == r.neg_set
    assert scaled.null_set == r.null_set
    assert dict(scaled.neg_coeffs) == {i: lam * b for i, b in r.neg_coeffs}
    assert scaled.nef_part == model.scale_divisor(m, lam, r.nef_part)


def _models_for_sampling():
    out = [gallery.quartic_example().model, gallery.double_cover_example().model]
    for seed in (3, 11, 17, 29):
        out.append(gallery.random_configuration(seed, 2 + seed % 3, 0.5))
    return out


@pytest.mark.parametrize("m", _models_for_sampling())
def test_result_invariants_on_sampled_big_divisors(m):
    rng = random.Random("zariski-invariants")
    g = model.curve_gram(m)
    n = model.curve_count(m)
    for _ in range(40):
        d = sample_big_divisor(m, rng)
        dots = model.pairings_with_curves(m, d)
        r = zariski_decompose(m, d)
        # monotone support
        assert set(r.neg_set) >= {i for i in range(n) if dots[i] < 0}
        # positive coefficients, exact reconstruction, orthogonality
        assert all(b > 0 for _, b in r.neg_coeffs)
        a = [Fraction(0)] * n
        for i, b in r.neg_coeffs:
            a[i] = b
        neg = model.divisor_from_ample_and_curves(m, 0, a)
        assert model.add_divisors(m, r.nef_part, neg) == d
        p_dots = model.pairings_with_curves(m, r.nef_part)
        assert all(p_dots[j] == 0 for j in r.neg_set)
        assert all(x >= 0 for x in p_dots)
        assert r.null_set == tuple(i for i in range(n) if p_dots[i] == 0)
        # negative definite support, positive volume
        assert model.restrict_gram(m, r.neg_set) is not None
        assert model.pair(m, r.nef_part, r.nef_part) == r.volume > 0
        assert volume(m, d) == r.volume


@pytest.mark.parametrize("m", _models_for_sampling())
def test_uniqueness_against_brute_force(m):
    if model.curve_count(m) > 4:
        pytest.skip("brute-force oracle runs on models with <= 4 curves")
    rng = random.Random("uniqueness-mini")
    for _ in range(25):
        d = sample_big_divisor(m, rng)
        r = zariski_decompose(m, d)
        assert valid_supports_brute_force(m, d) == [r.neg_set]


@given(st.integers(0, 200))
def test_random_configuration_divisors_always_decompose(seed):
    """t > 0, a >= 0 divisors are big by construction in configuration
    mode; the engine must accept every one of them."""
    m = gallery.random_configuration(seed, 1 + seed % 5, 0.6)
    rng = random.Random(seed)
    d = sample_big_divisor(m, rng)
    r = zariski_decompose(m, d)
    assert model.pair(m, r.nef_part, r.nef_part) > 0


def test_rational_curve_gram_decomposes_exactly():
    """A library-built model may have a rational curve Gram; the integer
    engine works over its common denominator and must not truncate.  Both
    divisors grow past a curve they meet positively (B).  The expected
    results are the ones the Fraction engine gave before the integer one."""
    m = model.configuration_model(
        [[-2, "1/2", 0], ["1/2", -2, "1/3"], [0, "1/3", -2]], ["A", "B", "C"], [1, 1, 1], 4
    )
    f = Fraction
    r = zariski_decompose(m, config_divisor(1, [4, 1, 0]))
    assert r == zariski.ZariskiResult(
        nef_part=config_divisor(1, [f(2, 3), f(2, 3), 0]),
        neg_coeffs=((0, f(10, 3)), (1, f(1, 3))),
        neg_set=(0, 1),
        null_set=(0, 1),
        volume=f(16, 3),
    )
    r = zariski_decompose(m, config_divisor(2, [7, 3, f(5, 2)]))
    assert r == zariski.ZariskiResult(
        nef_part=config_divisor(2, [f(182, 131), f(204, 131), f(165, 131)]),
        neg_coeffs=((0, f(735, 131)), (1, f(189, 131)), (2, f(325, 262))),
        neg_set=(0, 1, 2),
        null_set=(0, 1, 2),
        volume=f(3198, 131),
    )
