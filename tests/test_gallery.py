import pytest

from k3chambers import chambers, gallery, linalg, model
from k3chambers.model import full_divisor, validate_model


def test_quartic_golden_data(quartic):
    m = quartic.model
    assert m.gram == ((-2, 1, 2), (1, -2, 2), (2, 2, -2))
    assert model.curve_names(m) == ("L1", "L2", "C")
    assert m.ample_coords == (2, 2, 2)
    assert model.ample_pairings(m) == (2, 2, 4)
    assert model.ample_square(m) == 16


def test_double_cover_golden_data(double_cover):
    m = double_cover.model
    assert m.gram == ((-2, 0, 2), (0, -2, 2), (2, 2, -2))
    # (2,2,2) pairs to zero with F1 and F2, so the entry states (2,2,3)
    assert m.ample_coords == (2, 2, 3)
    assert model.ample_pairings(m) == (2, 2, 2)
    assert model.ample_square(m) == 14
    assert validate_model(m).valid


def test_ample_class_that_is_not_interior_is_refused(double_cover):
    gram = double_cover.model.gram
    curves = [c.coords for c in double_cover.model.curves]
    with pytest.raises(ValueError, match="not interior"):
        gallery._interior_ample(gram, curves, (2, 2, 2))


@pytest.mark.parametrize("entry_id", ["quartic", "double-cover"])
def test_expected_values_match_fresh_computation(entry_id):
    entry = gallery.gallery_entry(entry_id)
    m = entry.model
    atlas = chambers.enumerate_zariski_chambers(m)
    assert len(atlas.records) == entry.expected_chamber_count
    assert len(chambers.enumerate_weyl_chambers(m).records) == entry.expected_chamber_count
    assert chambers.decompositions_coincide(m).coincide == entry.expected_coincide
    names = model.curve_names(m)
    table = dict(entry.expected_inclusions)
    assert len(table) == len(atlas.records)
    for record in atlas.records:
        expected = table[tuple(names[i] for i in record.support)]
        assert record.weyl_in_zariski.holds == expected.weyl_in_zariski
        assert record.zariski_interior_in_weyl.holds == expected.zariski_interior_in_weyl


def test_quartic_nef_inequalities(quartic):
    """A class a*C + b1*L1 + b2*L2 is nef iff b1+b2 >= a, 2a+b2 >= 2b1,
    2a+b1 >= 2b2 (pairing against C, L1, L2 respectively)."""
    m = quartic.model

    def nef(a, b1, b2):
        dots = model.pairings_with_curves(m, full_divisor([b1, b2, a]))
        return all(x >= 0 for x in dots)

    def inequalities(a, b1, b2):
        return b1 + b2 >= a and 2 * a + b2 >= 2 * b1 and 2 * a + b1 >= 2 * b2

    for a in range(0, 4):
        for b1 in range(0, 4):
            for b2 in range(0, 4):
                assert nef(a, b1, b2) == inequalities(a, b1, b2)
    assert nef(1, 1, 1)
    assert not nef(1, 0, 0)  # the conic alone
    assert model.pair(m, full_divisor([0, 0, 1]), full_divisor([0, 0, 1])) == -2


def test_gallery_entry_lookup():
    assert gallery.gallery_entry("quartic").id == "quartic"
    with pytest.raises(KeyError):
        gallery.gallery_entry("unknown")


def test_random_configuration_is_deterministic():
    a = gallery.random_configuration(42, 5, 0.5)
    b = gallery.random_configuration(42, 5, 0.5)
    assert a == b
    c = gallery.random_configuration(43, 5, 0.5)
    assert a != c


def test_random_configuration_zero_curves():
    m = gallery.random_configuration(1, 0)
    assert validate_model(m).valid
    assert chambers.enumerate_zariski_chambers(m).supports == ((),)


@pytest.mark.parametrize("seed", range(25))
def test_random_configuration_validates(seed):
    m = gallery.random_configuration(seed, seed % 13, 0.1 + (seed % 9) / 10)
    assert validate_model(m).valid


def test_random_configuration_rejects_large_counts():
    with pytest.raises(ValueError):
        gallery.random_configuration(1, 13)


def test_random_ade_gram_determinism_and_shape():
    a = gallery.random_ade_gram(7)
    assert a == gallery.random_ade_gram(7)
    assert 1 <= len(a) <= 8
    assert linalg.is_symmetric(a)
    for i in range(len(a)):
        assert a[i][i] == -2
        for j in range(len(a)):
            if i != j:
                assert a[i][j] in (0, 1)
