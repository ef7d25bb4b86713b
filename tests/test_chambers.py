import hashlib
import json
import os
import random
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers_oracle import (
    criteria_cells,
    nd_family_brute_force,
    sample_big_divisor,
    weyl_records_exhaustive,
    zariski_records_brute_force,
)
from k3chambers import chambers, cli, gallery, linalg, model, zariski
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
from k3chambers.errors import IndexOutOfRange, NotBig, NotNegativeDefinite, SizeLimit
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
        real = linalg.solve_negative_definite

        def wrong(s, rhs=()):
            sols = real(s, rhs)
            return sols if sols is None else tuple(tuple(Fraction(-1) for _ in b) for b in rhs)

        linalg.solve_negative_definite = wrong
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


@pytest.mark.parametrize("s", [(5,), (0, 7), (-1,), (0, -2)])
def test_out_of_range_curve_indices_are_typed_errors(quartic, s):
    """An index past the last curve or below zero names the set, whether
    or not the call tests the set for definiteness first."""
    m = quartic.model

    def message(t):
        return re.escape("curve index out of range: %r" % (sorted(t),))

    for call in (weyl_witness, classify_ade, weyl_in_zariski, zariski_interior_in_weyl):
        with pytest.raises(IndexOutOfRange, match=message(s)):
            call(m, s)
    pair = s if len(s) == 2 else (*s, 0)
    with pytest.raises(IndexOutOfRange, match=message(pair)):
        divergence_witness(m, *pair)
    valid = tuple(i for i in s if 0 <= i < 3)
    cprime = next(c for c in range(3) if c not in s)
    with pytest.raises(IndexOutOfRange, match=message(s + (cprime,))):
        weyl_only_witness(m, s, cprime)
    bad = tuple(i for i in s if not 0 <= i < 3)
    if valid:
        with pytest.raises(IndexOutOfRange, match=message(valid + bad)):
            weyl_only_witness(m, valid, bad[0])


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


@pytest.mark.parametrize(
    "m",
    [gallery.quartic_example().model, gallery.double_cover_example().model]
    + [gallery.random_configuration(seed, n, 0.4)
       for seed, n in [(4, 4), (6, 4), (0, 5), (1, 5), (4, 5), (2, 6), (3, 6), (5, 6)]],
)
def test_criteria_match_the_polyhedral_oracle(m):
    """On the slice H + sum(a_i C_i), a >= 0: every W_S meets int Z_S; W_S
    meets some other int Z_T exactly when weyl_in_zariski(S) fails; int Z_T
    meets some other W_S exactly when zariski_interior_in_weyl(T) fails; and
    the table is diagonal exactly when the decompositions coincide.  Each
    feasible cell's sample is a divisor of that Weyl and Zariski chamber."""
    # the models are hyperbolic, as a K3 surface's are
    assert linalg.signature(m.pairing_form[0])[0] == 1
    cells = criteria_cells(m)
    family = nd_family_brute_force(m)
    feasible = {cell for cell, res in cells.items() if res.feasible}
    for s in family:
        assert (s, s) in feasible
        meets_other = any((s, t) in feasible for t in family if t != s)
        assert meets_other == (not weyl_in_zariski(m, s).holds)
        met_by_other = any((t, s) in feasible for t in family if t != s)
        assert met_by_other == (not zariski_interior_in_weyl(m, s).holds)
    assert all(s == t for s, t in feasible) == decompositions_coincide(m).coincide
    for s, t in feasible:
        d = model.divisor_from_ample_and_curves(m, 1, cells[s, t].sample)
        dots = model.pairings_with_curves(m, d)
        assert 0 not in dots and tuple(j for j, x in enumerate(dots) if x < 0) == s
        z = zariski.zariski_decompose(m, d)
        assert z.neg_set == z.null_set == t


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


# ---------------------------------------------------------------------------
# per-model reuse inside the atlases
# ---------------------------------------------------------------------------


def _count_eliminations(monkeypatch) -> list:
    calls = []
    real = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda rows, n: calls.append(n) or real(rows, n))
    return calls


def test_zariski_atlas_tests_definiteness_only_in_the_search(monkeypatch):
    """Past the search, the records test no set for definiteness and solve
    nothing: W_S in Z_S is decided by membership in the local families the
    search found, and each member's witness solution is the one that its
    search elimination gave."""
    m = gallery.random_configuration(3, 7, 0.2)
    nd_tests = []
    original = linalg.is_negative_definite
    monkeypatch.setattr(
        linalg, "is_negative_definite", lambda s: nd_tests.append(s) or original(s)
    )
    calls = _count_eliminations(monkeypatch)
    negative_definite_subsets(m)
    in_search = len(calls)
    calls.clear()
    enumerate_zariski_chambers(m)
    assert in_search > 0
    assert len(calls) == in_search
    assert not nd_tests


def test_zariski_atlas_splits_each_support_once(monkeypatch):
    """No record splits its support: the curves are split into components
    once, and each nonempty member of a component's local family once into
    its connected pieces, for its A-D-E labels."""
    m = gallery.random_configuration(0, 8, 0.2)
    members = _members(m)
    calls = []
    original = chambers._curve_components
    monkeypatch.setattr(
        chambers, "_curve_components", lambda m, s: calls.append(s) or original(m, s)
    )
    records = enumerate_zariski_chambers(m).records
    assert len(calls) == 1 + len(members) < len(records)


def test_one_elimination_tests_definiteness_and_solves(monkeypatch, quartic):
    """Where a Gram must be negative definite and is then solved against,
    one elimination does both: per growth step of a decomposition, and per
    call of weyl_witness (however many connected pieces its support has)
    and per call of weyl_only_witness."""
    m = gallery.random_configuration(0, 8, 0.2)
    rng = random.Random(5)
    divisors = [sample_big_divisor(m, rng) for _ in range(30)]
    steps = []
    for d in divisors:
        met_negatively = sum(x < 0 for x in model.pairings_with_curves(m, d))
        steps.append(len(zariski.zariski_decompose(m, d).neg_set) - met_negatively + 1)
    assert max(steps) > 1 and sum(steps) > len(steps)
    supports = [s for s in negative_definite_subsets(m) if s]
    pieces = [len(chambers._curve_components(m, s)) for s in supports]
    assert max(pieces) > 1
    g = model.curve_gram(m)
    family = set(negative_definite_subsets(m))
    extensions = [
        (s, c) for s in supports for c in range(8)
        if c not in s and tuple(sorted(s + (c,))) in family and any(g[c][i] for i in s)
    ][:20]
    assert extensions

    calls = _count_eliminations(monkeypatch)
    for d, k in zip(divisors, steps):
        zariski.zariski_decompose(m, d)
        assert len(calls) == k
        calls.clear()
    for s in supports:
        weyl_witness(m, s)
        assert len(calls) == 1
        calls.clear()
    for s, c in extensions:
        weyl_only_witness(m, s, c)
        assert len(calls) == 1
        calls.clear()
    weyl_only_witness(quartic.model, (0,), 1)
    assert len(calls) == 1


@pytest.mark.parametrize("seed", range(4))
def test_family_membership_matches_the_guarded_criteria(seed):
    """The atlas decides W_S in Z_S by membership in its family and joins
    the rest of each record from the members of S; every record equals what
    the single-support functions give, which test definiteness themselves."""
    m = gallery.random_configuration(seed, 6, 0.4)
    for r in enumerate_zariski_chambers(m).records:
        s = r.support
        assert r.ade == classify_ade(m, s)
        assert r.weyl_in_zariski == weyl_in_zariski(m, s)
        assert r.zariski_interior_in_weyl == zariski_interior_in_weyl(m, s)
        assert r.witness == (weyl_witness(m, s) if s else model.ample_divisor(m))


# the atlas-sparse benchmark pool: graph seeds 0..k-1 at each curve count
ATLAS_SPARSE_POOL = [
    (seed, n, 0.2) for n, k in {6: 6, 7: 6, 8: 12, 9: 6}.items() for seed in range(k)
]


def test_zariski_atlas_solves_each_distinct_piece_once(monkeypatch):
    """The atlas runs one elimination per candidate of its search, which
    both tests the candidate and solves for its witness, however many
    supports share a member: 1255 on the atlas-sparse pool, and 13 for the
    4096 records of the n = 12 model."""
    cases = [(ATLAS_SPARSE_POOL, 1255), ([(0, 12, 0.1)], 13)]
    pools = [[gallery.random_configuration(*args) for args in pool] for pool, _ in cases]
    candidates = [sum(_search_candidates(m) for m in models) for models in pools]
    calls = _count_eliminations(monkeypatch)
    for models, (_, eliminations), k in zip(pools, cases, candidates):
        calls.clear()
        records = sum(len(enumerate_zariski_chambers(m).records) for m in models)
        assert len(calls) == k == eliminations < records


def test_a_wrong_piece_row_fails_every_record_check(monkeypatch, tmp_path, capsys):
    """Each record's witness is checked on its members' integer rows, not
    on their solutions: with one member's row off in a single entry and
    every solution right, ``chambers`` ends in an internal_invariant report.
    The check is an explicit raise, so it also holds under ``python -O``."""
    m = gallery.random_configuration(0, 8, 0.2)
    path = tmp_path / "pieces.json"
    path.write_text(model.model_to_json(m))
    assert cli.main(["chambers", str(path)]) == 0
    capsys.readouterr()
    real = chambers._solution_row
    target = max(_members(m), key=lambda t: (len(t), t))
    assert len(target) > 1

    def corrupted(m, curves, sol):
        nums, den = real(m, curves, sol)
        if curves != target:
            return nums, den
        nums = list(nums)
        nums[curves[0]] += 1
        return tuple(nums), den

    monkeypatch.setattr(chambers, "_solution_row", corrupted)
    assert cli.main(["chambers", str(path)]) == 4
    assert json.loads(capsys.readouterr().out)["error"] == {
        "code": "internal_invariant", "message": "weyl_witness: pairing with the support is not -1",
    }


def test_weyl_atlas_witnesses_match_fresh_sign_systems():
    """The atlas shares one set of sign rows across all patterns; every
    pattern must give what a freshly built system gives."""
    m = gallery.random_configuration(3, 7, 0.2)
    witnesses = {r.support: r.witness for r in enumerate_weyl_chambers(m).records}
    for size in range(8):
        for s in combinations(range(7), size):
            res = linalg.fm_feasible(chambers.weyl_sign_system(m, s))
            if res.feasible:
                assert witnesses.pop(s) == model.divisor_from_ample_and_curves(m, 1, res.sample)
    assert not witnesses


# the two dense graphs that catch an unsound Chernikov mask, and n9-g03,
# whose 512 patterns made the largest FM systems; each is a single block
@pytest.mark.parametrize(
    "seed,n,density",
    [(9, 6, 0.5), (4, 7, 0.5), (3, 9, 0.2)],
    ids=["dense 9/6", "dense 4/7", "n9-g03"],
)
def test_weyl_atlas_skips_only_patterns_a_certificate_refutes(monkeypatch, seed, n, density):
    """A pattern whose system contains the rows of an earlier pattern's
    infeasibility certificate is skipped.  Every skipped pattern is
    infeasible by a direct call, and fewer than 2^n systems are solved."""
    m = gallery.random_configuration(seed, n, density)
    assert chambers._weyl_blocks(chambers._weyl_rows(m)) == (tuple(range(n)),)
    solved = []
    real = linalg.fm_feasible
    monkeypatch.setattr(linalg, "fm_feasible", lambda p: solved.append(p) or real(p))
    supports = {r.support for r in enumerate_weyl_chambers(m).records}
    patterns = [tuple(j for j, row in enumerate(p.strict_rows) if row.sense == "<")
                for p in solved]
    assert len(set(patterns)) == len(patterns) < 2 ** n
    skipped = 0
    for size in range(n + 1):
        for s in combinations(range(n), size):
            if s not in patterns:
                skipped += 1
                assert s not in supports
                assert not real(chambers.weyl_sign_system(m, s)).feasible, s
    assert skipped == 2 ** n - len(patterns) > 0


def test_weyl_atlas_reuses_a_certificate_only_where_its_rows_recur():
    """Curves that meet negatively cannot occur on a K3 surface, and this
    sign system shows why the reuse rule needs both sides of a certificate:
    {0, 2} is infeasible while {0, 1, 2} is feasible, because the refutation
    of {0, 2} uses the row that puts curve 1 outside."""
    m = model.configuration_model(
        [[-2, -1, -1], [-1, -2, -1], [-1, -1, -2]], ["c0", "c1", "c2"], [3, 2, 3], 2
    )
    records = enumerate_weyl_chambers(m).records
    assert records == weyl_records_exhaustive(m)
    supports = [r.support for r in records]
    assert (0, 1, 2) in supports and (0, 2) not in supports


def _search_on_rational_grams(m, comp):
    """The hereditary search as it ran before it used the integer curve
    Gram: each candidate solved on its restricted Fraction Gram against
    -1 - H.C_j."""
    h = model.ample_pairings(m)
    family = {}
    frontier = [((), 0)]
    while frontier:
        grown = []
        for s, start in frontier:
            for pos in range(start, len(comp)):
                t = s + (comp[pos],)
                sols = linalg.solve_negative_definite(
                    model.restrict_gram(m, t), [[-1 - h[j] for j in t]]
                )
                if sols is not None:
                    family[t] = sols[0]
                    grown.append((t, pos + 1))
        frontier = grown
    return family


_scales = st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=60)


@st.composite
def _search_models(draw):
    """A gallery model with its lattice form scaled by p / q, q in 3, 5, 7
    not dividing p (so the curve Gram and the ample pairings get a non-unit
    denominator), or a small random configuration with rational ample
    pairings."""
    if draw(st.booleans()):
        m = gallery.gallery_entry(draw(st.sampled_from(gallery.GALLERY_IDS))).model
        q = draw(st.sampled_from((3, 5, 7)))
        r = Fraction(draw(st.integers(min_value=1, max_value=60).filter(lambda p: p % q)), q)
        return model.full_lattice_model(
            [[r * x for x in row] for row in m.gram],
            [(c.name, c.coords) for c in m.curves],
            m.ample_coords,
        )
    n = draw(st.integers(min_value=1, max_value=7))
    m = gallery.random_configuration(
        draw(st.integers(min_value=0, max_value=10**6)), n, draw(st.sampled_from((0.2, 0.5)))
    )
    dots = draw(st.lists(_scales, min_size=n, max_size=n))
    return model.configuration_model(m.gram, model.curve_names(m), dots, draw(_scales))


@settings(max_examples=80)
@given(_search_models())
def test_search_on_the_integer_gram_matches_the_rational_search(m):
    """Same members, in the same order, with the same witness solutions."""
    if m.mode is model.Mode.FULL_LATTICE:
        assert m.integer_curve_gram[1] > 1
    for comp in chambers._curve_components(m, range(model.curve_count(m))):
        found = chambers._hereditary_search(m, comp)
        assert list(found.items()) == list(_search_on_rational_grams(m, comp).items())


# the benchmark's sparse pool graphs (6/6/12/6 graphs at n = 6/7/8/9, in
# their own curve order) and the two dense graphs that catch an unsound
# Chernikov mask
FM_PIN_MODELS = [(g, n, 0.2) for n, k in ((6, 6), (7, 6), (8, 12), (9, 6)) for g in range(k)]
FM_PIN_MODELS += [(9, 6, 0.5), (4, 7, 0.5)]


def test_fourier_motzkin_outputs_of_the_weyl_atlas_are_pinned(monkeypatch):
    """Every fm_feasible call that the Weyl atlas makes on these models, as
    (feasible, sample, certificate multipliers) in call order, hashed.  No
    report prints a certificate, and a report's witness is one sample, so
    this pin guards the rest of Fourier-Motzkin's output."""
    digest = hashlib.sha256()
    calls = 0
    real = linalg.fm_feasible

    def recording(problem):
        nonlocal calls
        res = real(problem)
        cert = res.certificate
        digest.update(("%s|%s|%s|%s\n" % (
            res.feasible,
            None if res.sample is None else ",".join(map(str, res.sample)),
            None if cert is None else cert.strict,
            None if cert is None else cert.nonneg,
        )).encode())
        calls += 1
        return res

    monkeypatch.setattr(linalg, "fm_feasible", recording)
    for seed, n, density in FM_PIN_MODELS:
        enumerate_weyl_chambers(gallery.random_configuration(seed, n, density))
    assert calls == 1148
    assert digest.hexdigest() == "a0e7568ed164e15152e221a4fc496956e38ab25cee262b607c9873377e31fb9f"


def test_twelve_curve_model_finishes_under_a_memory_cap():
    """random_configuration(0, 12, 0.2) once ran out of memory under a
    512 MB cap in the Weyl atlas.  The model is not hyperbolic, so it is
    checked here, at library level: both atlases in a child process under
    that cap and a time bound, with equal counts and families."""
    script = textwrap.dedent("""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
        from k3chambers import chambers, gallery
        m = gallery.random_configuration(0, 12, 0.2)
        z = chambers.enumerate_zariski_chambers(m)
        w = chambers.enumerate_weyl_chambers(m)
        if not len(z.records) == len(w.records) == 684:
            sys.exit("counts %d and %d" % (len(z.records), len(w.records)))
        if not chambers.verify_bijection(z, w).equal:
            sys.exit("the families differ")
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr


def test_weyl_enumeration_refuses_too_many_curves():
    m = model.configuration_model(
        [[-2 if i == j else 2 for j in range(13)] for i in range(13)],
        ["C%d" % i for i in range(13)],
        [1] * 13,
        2,
    )
    with pytest.raises(SizeLimit):
        enumerate_weyl_chambers(m)


# ---------------------------------------------------------------------------
# the product atlases against the exhaustive oracles
# ---------------------------------------------------------------------------


def _components(m) -> list[set[int]]:
    g = model.curve_gram(m)
    left = set(range(model.curve_count(m)))
    comps = []
    while left:
        comp = {left.pop()}
        stack = list(comp)
        while stack:
            v = stack.pop()
            linked = {w for w in left if g[v][w]}
            left -= linked
            stack.extend(linked)
            comp |= linked
        comps.append(comp)
    return comps


def _component_sizes(m):
    return sorted(len(comp) for comp in _components(m))


def _local_families(m) -> list[tuple[set[int], set[tuple[int, ...]]]]:
    """Each component with its local family: the parts in it of the
    negative definite subsets, the empty part included."""
    family = negative_definite_subsets(m)
    return [(comp, {tuple(i for i in s if i in comp) for s in family}) for comp in _components(m)]


def _members(m) -> set[tuple[int, ...]]:
    """The members that the Zariski atlas records are joined from."""
    return {t for _, local in _local_families(m) for t in local if t}


def _search_candidates(m) -> int:
    """The sets the hereditary search eliminates: each member of a local
    family, the empty one included, grown by each curve of the component
    after its last."""
    return sum(
        sum(c > max(t, default=-1) for c in comp)
        for comp, local in _local_families(m) for t in local
    )


def _full_lattice(m):
    """A configuration model as a full-lattice model on the basis
    (H, C_1, ..., C_n), so that its witnesses are built as coordinates."""
    n = model.curve_count(m)
    h = model.ample_pairings(m)
    g = model.curve_gram(m)
    gram = [[model.ample_square(m), *h], *([h[i], *g[i]] for i in range(n))]
    unit = [[int(i == j) for j in range(n + 1)] for i in range(n + 1)]
    return model.full_lattice_model(
        gram, [(name, unit[i + 1]) for i, name in enumerate(model.curve_names(m))], unit[0]
    )


def _isolated_curves(n):
    return model.configuration_model(
        [[-2 if i == j else 0 for j in range(n)] for i in range(n)],
        ["c%d" % i for i in range(n)], list(range(1, n + 1)), 4,
    )


# (seed, n) at density 0.2 whose curve graph has several components; the
# components of several interleave in the curve order
MULTI_COMPONENT = [(0, 6), (3, 7), (6, 7), (0, 8), (2, 8), (5, 8), (1, 9), (4, 9), (7, 9)]

ORACLE_MODELS = {
    **{"multi %d/%d" % sn: lambda sn=sn: gallery.random_configuration(sn[0], sn[1], 0.2)
       for sn in MULTI_COMPONENT},
    "single 2/6": lambda: gallery.random_configuration(2, 6, 0.2),
    "single 0/9": lambda: gallery.random_configuration(0, 9, 0.2),
    "isolated 4/6": lambda: gallery.random_configuration(4, 6, 0.2),
    "isolated 5": lambda: _isolated_curves(5),
    "n0": lambda: _isolated_curves(0),
    "n1": lambda: _isolated_curves(1),
    "quartic": lambda: gallery.quartic_example().model,
    "double-cover": lambda: gallery.double_cover_example().model,
    "dense 9/6": lambda: gallery.random_configuration(9, 6, 0.5),
    "dense 4/7": lambda: gallery.random_configuration(4, 7, 0.5),
    # the gallery surfaces in the other mode, and multi-piece supports in
    # the full lattice
    "quartic configuration": lambda: model.to_configuration(gallery.quartic_example().model),
    "double-cover configuration": lambda: model.to_configuration(
        gallery.double_cover_example().model
    ),
    "full lattice multi 0/8": lambda: _full_lattice(gallery.random_configuration(0, 8, 0.2)),
    "full lattice multi 1/9": lambda: _full_lattice(gallery.random_configuration(1, 9, 0.2)),
}


def test_oracle_models_cover_the_component_shapes():
    shapes = {name: _component_sizes(make()) for name, make in ORACLE_MODELS.items()}
    assert all(len(shapes["multi %d/%d" % sn]) > 1 for sn in MULTI_COMPONENT)
    assert any(max(s) > 2 and len(s) > 2 for s in shapes.values())
    for name in ("single 2/6", "single 0/9", "quartic", "double-cover", "dense 9/6", "dense 4/7",
                 "quartic configuration", "double-cover configuration"):
        assert len(shapes[name]) == 1, name
    modes = {name: make().mode for name, make in ORACLE_MODELS.items()}
    for name in ("quartic", "double-cover", "full lattice multi 0/8", "full lattice multi 1/9"):
        assert modes[name] is model.Mode.FULL_LATTICE, name
    assert len(shapes["full lattice multi 0/8"]) > 1 and len(shapes["full lattice multi 1/9"]) > 1
    assert shapes["isolated 4/6"] == [1] * 6 and shapes["isolated 5"] == [1] * 5
    assert shapes["n0"] == [] and shapes["n1"] == [1]


def test_oracle_records_take_their_verdicts_from_several_members():
    """A record's counterexample and pair are the least of its members'.
    Some oracle record has members with two different counterexamples, and
    some has members with two different pairs, each member's taken from the
    single-support functions; so the oracle comparison below tells the
    least from any other choice."""
    spans = set()
    for make in ORACLE_MODELS.values():
        m = make()
        comps = _components(m)
        for s in negative_definite_subsets(m):
            members = [t for comp in comps if (t := tuple(i for i in s if i in comp))]
            if len({weyl_in_zariski(m, t).counterexample for t in members} - {None}) > 1:
                spans.add("counterexample")
            if len({zariski_interior_in_weyl(m, t).pair for t in members} - {None}) > 1:
                spans.add("pair")
    assert spans == {"counterexample", "pair"}


@pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
def test_product_atlases_match_the_exhaustive_oracles(name):
    """Record by record: support, witness, A-D-E labels and both criteria
    on the Zariski side; support and witness sample on the Weyl side."""
    m = ORACLE_MODELS[name]()
    assert negative_definite_subsets(m) == nd_family_brute_force(m)
    assert enumerate_zariski_chambers(m).records == zariski_records_brute_force(m)
    assert enumerate_weyl_chambers(m).records == weyl_records_exhaustive(m)
