import importlib
import json
import pkgutil
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import k3chambers
from k3chambers import chambers, gallery, model
from k3chambers.errors import IndexOutOfRange, InvalidModel, InvariantViolated, ModeMismatch
from k3chambers.model import (
    Mode,
    config_divisor,
    full_divisor,
    full_lattice_model,
    model_from_json,
    model_to_json,
    pair,
    restrict_gram,
    to_configuration,
    validate_model,
)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


# ---------------------------------------------------------------------------
# validate_model
# ---------------------------------------------------------------------------


def test_quartic_is_valid(quartic):
    assert validate_model(quartic.model) == model.ValidationReport(True, ())


def test_broken_curve_vector_is_reported(quartic):
    m = quartic.model
    bad = full_lattice_model(
        m.gram,
        [("L1", (1, 0, 1)), ("L2", (0, 1, 0)), ("C", (0, 0, 1))],
        m.ample_coords,
    )
    report = validate_model(bad)
    assert not report.valid
    assert any("self-intersection 0" in f for f in report.failures)


def test_picard_rank_one_model_is_valid():
    m = full_lattice_model([[4]], [], [1])
    assert validate_model(m).valid
    assert chambers.enumerate_zariski_chambers(m).supports == ((),)


def test_negative_curve_pairing_is_reported():
    # second curve = first curve: pairing -2 < 0 must be flagged
    m = full_lattice_model(
        [[-2, 1, 2], [1, -2, 2], [2, 2, -2]],
        [("A", (1, 0, 0)), ("B", (1, 0, 0)), ("C", (0, 0, 1))],
        (2, 2, 2),
    )
    report = validate_model(m)
    assert not report.valid
    assert any("negative intersection" in f for f in report.failures)
    assert any("not unique" not in f for f in report.failures)


def test_configuration_invariants_are_checked():
    bad_diag = model.configuration_model([[-1]], ["C1"], [1], 2)
    assert not validate_model(bad_diag).valid
    bad_dot = model.configuration_model([[-2]], ["C1"], [0], 2)
    assert not validate_model(bad_dot).valid
    good = model.configuration_model([[-2]], ["C1"], [3], 4)
    assert validate_model(good).valid


def test_empty_configuration_is_valid():
    m = gallery.random_configuration(1, 0)
    assert validate_model(m).valid


# ---------------------------------------------------------------------------
# pair
# ---------------------------------------------------------------------------


def test_pair_examples(quartic):
    m = quartic.model
    l1, l2, c = (model.curve_divisor(m, i) for i in range(3))
    assert pair(m, l1, l2) == 1
    hyperplane = full_divisor([1, 1, 1])
    assert pair(m, hyperplane, hyperplane) == 4
    zero = full_divisor([0, 0, 0])
    assert pair(m, zero, hyperplane) == 0


def test_pair_mode_mismatch(quartic):
    with pytest.raises(ModeMismatch):
        pair(quartic.model, config_divisor(1, [0, 0, 0]), full_divisor([1, 1, 1]))


@given(
    st.lists(rationals, min_size=3, max_size=3),
    st.lists(rationals, min_size=3, max_size=3),
    st.lists(rationals, min_size=3, max_size=3),
    rationals,
    rationals,
)
def test_pair_is_symmetric_and_bilinear(u, v, w, s, t):
    m = gallery.quartic_example().model
    du, dv, dw = full_divisor(u), full_divisor(v), full_divisor(w)
    assert pair(m, du, dv) == pair(m, dv, du)
    combo = full_divisor([s * a + t * b for a, b in zip(u, v)])
    assert pair(m, combo, dw) == s * pair(m, du, dw) + t * pair(m, dv, dw)


@given(
    st.integers(0, 3),
    rationals,
    st.lists(rationals, min_size=4, max_size=4),
    rationals,
    st.lists(rationals, min_size=4, max_size=4),
)
def test_pair_configuration_mode_symmetric_bilinear(seed, t1, a1, t2, a2):
    m = gallery.random_configuration(seed, 4)
    d1, d2 = config_divisor(t1, a1), config_divisor(t2, a2)
    assert pair(m, d1, d2) == pair(m, d2, d1)
    both = config_divisor(t1 + t2, [x + y for x, y in zip(a1, a2)])
    assert pair(m, both, d1) == pair(m, d1, d1) + pair(m, d2, d1)


# ---------------------------------------------------------------------------
# restrict_gram
# ---------------------------------------------------------------------------


def test_restrict_gram_examples(quartic, double_cover):
    assert restrict_gram(quartic.model, {0, 1}) == ((-2, 1), (1, -2))
    assert restrict_gram(quartic.model, set()) == ()
    assert restrict_gram(double_cover.model, {0, 1}) == ((-2, 0), (0, -2))


def test_restrict_gram_bad_index(quartic):
    with pytest.raises(IndexOutOfRange):
        restrict_gram(quartic.model, {0, 7})


# ---------------------------------------------------------------------------
# derived data lives on the model
# ---------------------------------------------------------------------------


def test_derived_data_is_computed_once_per_model(quartic):
    m = quartic.model
    assert model.curve_gram(m) is model.curve_gram(m)
    assert model.ample_pairings(m) is model.ample_pairings(m)


def test_malformed_model_is_reported_not_raised(quartic):
    bad = model.SurfaceModel(
        Mode.FULL_LATTICE, quartic.model.gram, (model.Curve("L1"),), quartic.model.ample_coords
    )
    report = validate_model(bad)
    assert report.failures == ("curve 0 has missing or mismatched coordinates",)


def test_no_module_level_caches():
    for info in pkgutil.iter_modules(k3chambers.__path__):
        if info.name == "__main__":
            continue  # importing it runs the CLI
        module = importlib.import_module("k3chambers." + info.name)
        cached = [name for name, value in vars(module).items() if hasattr(value, "cache_info")]
        assert cached == [], info.name


# ---------------------------------------------------------------------------
# full -> configuration reduction commutes with atlas computations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("entry_id", ["quartic", "double-cover"])
def test_reduction_commutes_with_chamber_computations(entry_id):
    full = gallery.gallery_entry(entry_id).model
    cfg = to_configuration(full)
    assert validate_model(cfg).valid
    assert chambers.enumerate_zariski_chambers(cfg).supports == (
        chambers.enumerate_zariski_chambers(full).supports
    )
    assert chambers.enumerate_weyl_chambers(cfg).supports == (
        chambers.enumerate_weyl_chambers(full).supports
    )
    full_cmp = chambers.decompositions_coincide(full)
    cfg_cmp = chambers.decompositions_coincide(cfg)
    assert full_cmp.coincide == cfg_cmp.coincide
    assert full_cmp.pair == cfg_cmp.pair
    for s in chambers.negative_definite_subsets(full):
        assert chambers.weyl_in_zariski(full, s) == chambers.weyl_in_zariski(cfg, s)
        assert chambers.zariski_interior_in_weyl(full, s) == (
            chambers.zariski_interior_in_weyl(cfg, s)
        )
        assert chambers.classify_ade(full, s) == chambers.classify_ade(cfg, s)


def test_reduction_preserves_divisor_pairings(quartic):
    full = quartic.model
    cfg = to_configuration(full)
    t, a = Fraction(2), [Fraction(1), Fraction(1, 2), Fraction(3)]
    d_full = model.divisor_from_ample_and_curves(full, t, a)
    d_cfg = model.divisor_from_ample_and_curves(cfg, t, a)
    assert model.pairings_with_curves(full, d_full) == model.pairings_with_curves(cfg, d_cfg)
    assert pair(full, d_full, d_full) == pair(cfg, d_cfg, d_cfg)


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("entry_id", ["quartic", "double-cover"])
def test_model_json_roundtrip_gallery(entry_id):
    m = gallery.gallery_entry(entry_id).model
    assert model_from_json(model_to_json(m)) == m
    cfg = to_configuration(m)
    assert model_from_json(model_to_json(cfg)) == cfg


@given(st.integers(0, 500), st.integers(0, 6))
def test_model_json_roundtrip_random(seed, n):
    m = gallery.random_configuration(seed, n)
    assert model_from_json(model_to_json(m)) == m


def test_model_json_rational_entries_roundtrip():
    m = model.configuration_model([[-2]], ["C1"], [Fraction(7, 2)], Fraction(5, 3))
    text = model_to_json(m)
    assert '"7/2"' in text and '"5/3"' in text
    assert model_from_json(text) == m


def test_model_json_rejects_floats():
    with pytest.raises(InvalidModel):
        model_from_json('{"mode": "configuration", "gram": [[-2.0]], '
                        '"curves": [{"name": "C1"}], "ample": {"dots": [1], "self": 2}}')


def _one_curve_document(value):
    return {"mode": "configuration", "gram": [[-2]], "curves": [{"name": "C1"}],
            "ample": {"dots": [1], "self": value}}


@pytest.mark.parametrize("value", [True, False])
def test_boolean_entries_are_refused(value):
    with pytest.raises(InvalidModel, match="boolean"):
        model.model_from_document(_one_curve_document(value))
    with pytest.raises(InvalidModel, match="boolean"):
        model_from_json('{"mode": "configuration", "gram": [[%s]], "curves": [{"name": "C1"}], '
                        '"ample": {"dots": [1], "self": 2}}' % str(value).lower())


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="needs a limit on integer-string digits")
def test_huge_int_in_a_library_built_document_is_invalid_model():
    with pytest.raises(InvalidModel) as exc:
        model.model_from_document(_one_curve_document(10 ** (2 * _DIGIT_LIMIT)))
    assert exc.value.code == "invalid_model"


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="needs a limit on integer-string digits")
def test_integer_entries_keep_the_digit_limit_edges():
    """An integer entry prints as ``str(n)``; it is refused exactly when that
    string would pass Python's digit limit, as a rational string is."""
    limit = _DIGIT_LIMIT
    # the last bit length that needs no digit count, and the first that does
    for ok in [10 ** limit - 1, -(10 ** limit - 1), 2 ** (3 * limit) - 1, 2 ** (3 * limit)]:
        doc = model.model_from_document(_one_curve_document(ok))
        assert doc.ample_self == ok and json.dumps(model.model_to_document(doc))
    for bad in [10 ** limit, -(10 ** limit)]:
        with pytest.raises(InvalidModel, match="more digits"):
            model.model_from_document(_one_curve_document(bad))
    # one digit fewer than the limit reads the same as a string and as an integer
    assert model.model_from_document(_one_curve_document("9" * limit)) == (
        model.model_from_document(_one_curve_document(10 ** limit - 1))
    )


def test_model_json_rejects_garbage():
    with pytest.raises(InvalidModel):
        model_from_json("not json")
    with pytest.raises(InvalidModel):
        model_from_json('{"mode": "nonsense", "gram": [], "curves": [], "ample": {}}')


# ---------------------------------------------------------------------------
# divisor documents
# ---------------------------------------------------------------------------


def test_divisor_document_roundtrip(quartic):
    m = quartic.model
    d = full_divisor([5, Fraction(7, 2), 2])
    doc = model.divisor_to_document(m, d)
    assert doc == {"coords": ["5", "7/2", "2"]}
    assert model.divisor_from_document(m, doc) == d
    # t/a form resolves to coordinates in full-lattice mode
    via_ample = model.divisor_from_document(m, {"t": 1, "a": [3, 5, 0]})
    assert via_ample == full_divisor([5, 7, 2])


def test_divisor_document_config(quartic):
    cfg = to_configuration(quartic.model)
    d = config_divisor(1, [3, 5, 0])
    doc = model.divisor_to_document(cfg, d)
    assert doc == {"t": "1", "a": ["3", "5", "0"]}
    assert model.divisor_from_document(cfg, doc) == d
    with pytest.raises(InvalidModel):
        model.divisor_from_document(cfg, {"coords": [1, 2, 3]})


# ---------------------------------------------------------------------------
# integer pairing rows
# ---------------------------------------------------------------------------


def _fractions(k):
    return st.lists(rationals, min_size=k, max_size=k)


@st.composite
def _config_model_and_divisor(draw):
    n = draw(st.integers(0, 4))
    gram = [draw(_fractions(n)) for _ in range(n)]
    names = ["C%d" % i for i in range(n)]
    m = model.configuration_model(gram, names, draw(_fractions(n)), draw(rationals))
    return m, config_divisor(draw(rationals), draw(_fractions(n)))


@st.composite
def _full_model_and_divisor(draw):
    k = draw(st.integers(1, 4))
    gram = [draw(_fractions(k)) for _ in range(k)]
    curves = [("C%d" % i, draw(_fractions(k))) for i in range(draw(st.integers(0, 4)))]
    m = full_lattice_model(gram, curves, draw(_fractions(k)))
    return m, full_divisor(draw(_fractions(k)))


@given(_config_model_and_divisor())
def test_configuration_pairings_match_fraction_oracle(case):
    m, d = case
    t, a, g, h = d.ample_coeff, d.curve_coeffs, m.gram, m.ample_dots
    expected = tuple(
        t * h[i] + sum((g[i][j] * a[j] for j in range(len(a))), Fraction(0))
        for i in range(len(h))
    )
    assert model.pairings_with_curves(m, d) == expected


@given(_full_model_and_divisor())
def test_full_lattice_pairings_match_fraction_oracle(case):
    m, d = case
    g = m.gram

    def form(u, v):  # u^T Gram v
        terms = (u[j] * g[j][k] * v[k] for j in range(len(u)) for k in range(len(v)))
        return sum(terms, Fraction(0))

    coords = [c.coords for c in m.curves]
    assert model.pairings_with_curves(m, d) == tuple(form(c, d.coords) for c in coords)
    assert m.curve_gram == tuple(tuple(form(c, e) for e in coords) for c in coords)
    assert m.ample_pairings == tuple(form(c, m.ample_coords) for c in coords)


def test_pairing_rows_build_is_checked_against_the_rational_data(monkeypatch):
    m = model_from_json(model_to_json(gallery.quartic_example().model))
    m.pairing_form  # the rows are built from the form, which is checked on its own
    real = model.linalg.over_common_denominator

    def off_by_one(v):
        w, den = real(v)
        return (w[0] + 1, *w[1:]), den

    monkeypatch.setattr(model.linalg, "over_common_denominator", off_by_one)
    with pytest.raises(InvariantViolated, match="pairing_rows"):
        m.pairing_rows


def test_corrupted_pairing_rows_trip_the_witness_check():
    """Witness pairings come from the cached integer rows and are checked
    against the witness's defining equations: a wrong row is caught."""
    m = model_from_json(model_to_json(gallery.quartic_example().model))
    assert validate_model(m).valid  # curve_gram and ample_pairings from the true rows
    rows, q = m.pairing_rows
    m.__dict__["pairing_rows"] = (tuple(tuple(-x for x in row) for row in rows), q)
    with pytest.raises(InvariantViolated, match="weyl_witness"):
        chambers.weyl_witness(m, (0,))


# ---------------------------------------------------------------------------
# integer pairing form
# ---------------------------------------------------------------------------


@st.composite
def _config_model_and_two_divisors(draw):
    m, d1 = draw(_config_model_and_divisor())
    return m, d1, config_divisor(draw(rationals), draw(_fractions(len(m.curves))))


@st.composite
def _full_model_and_two_divisors(draw):
    m, d1 = draw(_full_model_and_divisor())
    return m, d1, full_divisor(draw(_fractions(len(m.gram))))


@given(_config_model_and_two_divisors())
def test_configuration_pair_matches_fraction_oracle(case):
    m, d1, d2 = case
    t1, a1, t2, a2 = d1.ample_coeff, d1.curve_coeffs, d2.ample_coeff, d2.curve_coeffs
    g, h = m.gram, m.ample_dots
    n = len(h)
    # (t1 H + a1 C) . (t2 H + a2 C), the Gram read as given, not symmetrised
    expected = (
        t1 * t2 * m.ample_self
        + t1 * sum((h[j] * a2[j] for j in range(n)), Fraction(0))
        + t2 * sum((a1[i] * h[i] for i in range(n)), Fraction(0))
        + sum((a1[i] * g[i][j] * a2[j] for i in range(n) for j in range(n)), Fraction(0))
    )
    assert pair(m, d1, d2) == expected


@given(_full_model_and_two_divisors())
def test_full_lattice_pair_matches_fraction_oracle(case):
    m, d1, d2 = case
    u, v, g = d1.coords, d2.coords, m.gram
    expected = sum(
        (u[j] * g[j][k] * v[k] for j in range(len(u)) for k in range(len(v))), Fraction(0)
    )
    assert pair(m, d1, d2) == expected


@pytest.mark.parametrize("configuration", [False, True])
def test_pairing_form_build_is_checked_against_the_rational_data(monkeypatch, configuration):
    m = model_from_json(model_to_json(gallery.quartic_example().model))
    if configuration:
        m = to_configuration(m)
    real = model.linalg.over_common_denominator

    def off_by_one(v):
        w, den = real(v)
        return (w[0] + 1, *w[1:]), den

    monkeypatch.setattr(model.linalg, "over_common_denominator", off_by_one)
    with pytest.raises(InvariantViolated, match="pairing_form"):
        m.pairing_form
