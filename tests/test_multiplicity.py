import itertools
import json
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sp6q import weyl
from sp6q.multiplicity import (
    CASES,
    PROFILE_FIELDS,
    TERM_BY_LETTER,
    TERM_SIGNS,
    TERMS,
    AlternationSet,
    alternation_set,
    coefficient_profile,
    match_case,
    matching_cases,
    mult,
    mult_freudenthal,
    mult_q_cases,
    mult_q_direct,
    root_lattice_parity,
    sigma_coeffs,
    sigma_table,
    symbolic_sigma_rows,
)
from sp6q.qpoly import QPoly
from sp6q.root_system import AlphaVector, WeightFW, fw_to_alpha

F = Fraction
DATA = pathlib.Path(__file__).parent / "data"


def test_sigma_coeffs_examples():
    assert sigma_coeffs(weyl.IDENTITY, (1, 1, 1), (0, 0, 0)) == AlphaVector(F(3), F(5), F(3))
    assert sigma_coeffs(weyl.generator(1), (0, 0, 0), (0, 0, 0)) == AlphaVector(F(-1), F(0), F(0))
    el = weyl.evaluate_word((3, 2, 3, 2))
    assert sigma_coeffs(el, (2, 0, 0), (0, 0, 0)) == AlphaVector(F(2), F(-2), F(-2))


def _fixture_rows():
    raw = json.loads((DATA / "sigma_rows.json").read_text())
    return {
        name: tuple(tuple(F(v) for v in row) for row in rows) for name, rows in raw.items()
    }


def test_symbolic_rows_match_fixture():
    fixture = _fixture_rows()
    assert len(fixture) == 48
    for el, rows in symbolic_sigma_rows():
        assert rows == fixture[weyl.name(el)]


def test_sigma_table_shares_rows():
    # 26 distinct rows serve all 48 elements; the 17 terms use exactly the
    # 14 profile rows, one per variable
    table = sigma_table()
    assert len(table.rows) == 26
    assert len(set(table.profile)) == 14
    term_indices = {weyl.canonical_index(weyl.evaluate_word(t.word)) for t in TERMS}
    assert {r for idx, _sign, ids in table.elements if idx in term_indices for r in ids} == set(table.profile)
    assert [sign for _idx, sign, _ids in table.elements] == [weyl.sign(el) for el in weyl.enumerate_group()]


def test_sigma_coeffs_match_fixture_rows_numerically():
    fixture = _fixture_rows()
    rng = random.Random(11)
    group = weyl.enumerate_group()
    for _ in range(200):
        vals = tuple(rng.randint(0, 8) for _ in range(6))
        lam, mu = WeightFW(*vals[:3]), WeightFW(*vals[3:])
        for el in group:
            rows = fixture[weyl.name(el)]
            expect = tuple(
                sum(row[t] * vals[t] for t in range(6)) + row[6] for row in rows
            )
            assert sigma_coeffs(el, lam, mu).coeffs() == expect


def test_profile_worked_examples():
    # highest root against zero: exactly a, d, e, j, l are nonnegative
    p = coefficient_profile((2, 0, 0), (0, 0, 0))
    nonneg = {f for f in PROFILE_FIELDS if p.value(f) >= 0}
    assert nonneg == {"a", "d", "e", "j", "l"}
    assert (p.a, p.d, p.e, p.j, p.l) == (2, 2, 1, F(1), F(0))

    p = coefficient_profile((0, 0, 0), (0, 0, 0))
    nonneg = {f for f in PROFILE_FIELDS if p.value(f) >= 0}
    assert nonneg == {"a", "d", "j"}
    assert (p.a, p.d, p.j, p.b, p.c) == (0, 0, F(0), -1, -2)

    p = coefficient_profile((0, 0, 2), (1, 0, 1))
    nonneg = {f for f in PROFILE_FIELDS if p.value(f) >= 0}
    assert nonneg == {"a", "d", "e", "j"}
    assert (p.a, p.e, p.d, p.j) == (0, 0, 1, F(1))


def test_profile_triples_equal_sigma_coeffs():
    rng = random.Random(3)
    for _ in range(20):
        lam = WeightFW(*(rng.randint(0, 7) for _ in range(3)))
        mu = WeightFW(*(rng.randint(0, 7) for _ in range(3)))
        profile = coefficient_profile(lam, mu)
        for term in TERMS:
            el = weyl.evaluate_word(term.word)
            assert tuple(F(v) for v in profile.triple(term)) == sigma_coeffs(el, lam, mu).coeffs()


def test_alternation_set_examples():
    assert alternation_set((2, 1, 0), (0, 0, 0)).names() == [
        "1", "s1", "s2", "s3", "s2*s3", "s3*s1",
    ]
    assert len(alternation_set((0, 0, 0), (0, 0, 2))) == 0
    assert alternation_set((0, 0, 0), (0, 0, 0)).names() == ["1"]


def test_alternation_sets_stay_within_contributing():
    contributing = {weyl.evaluate_word(t.word) for t in TERMS}
    rng = random.Random(5)
    for _ in range(50):
        lam = WeightFW(*(rng.randint(0, 9) for _ in range(3)))
        mu = WeightFW(*(rng.randint(0, 9) for _ in range(3)))
        for el in alternation_set(lam, mu).elements():
            assert el in contributing


def test_membership_matches_defining_condition():
    # membership iff the coefficient vector is integral and nonnegative,
    # checked against the exact vectors over all 48 elements, for weights
    # of either sign
    rng = random.Random(6)
    for _ in range(12):
        lam = WeightFW(*(rng.randint(-6, 6) for _ in range(3)))
        mu = WeightFW(*(rng.randint(-6, 6) for _ in range(3)))
        aset = alternation_set(lam, mu)
        for el in weyl.enumerate_group():
            v = sigma_coeffs(el, lam, mu)
            assert (el in aset) == (v.is_integral() and v.is_nonnegative())


def test_mult_q_direct_examples():
    assert mult_q_direct((2, 0, 0), (0, 0, 0)) == QPoly((0, 1, 0, 1, 0, 1))
    assert mult_q_direct((0, 0, 0), (0, 0, 0)) == QPoly((1,))
    assert mult_q_direct((0, 0, 2), (1, 0, 1)) == QPoly((0, 0, 1))


def test_mult_q_cases_examples_and_dispatch():
    assert mult_q_cases((2, 0, 0), (0, 0, 0)) == QPoly((0, 1, 0, 1, 0, 1))
    number, letters = match_case(coefficient_profile((2, 0, 0), (0, 0, 0)))
    assert (number, letters) == (41, "ACD")

    assert mult_q_cases((0, 0, 0), (0, 0, 0)) == QPoly((1,))
    number, letters = match_case(coefficient_profile((0, 0, 0), (0, 0, 0)))
    assert (number, letters) == (45, "A")

    assert mult_q_cases((0, 0, 2), (1, 0, 1)) == QPoly((0, 0, 1))
    number, letters = match_case(coefficient_profile((0, 0, 2), (1, 0, 1)))
    assert (number, letters) == (43, "AC")


def test_mult_examples():
    assert mult((2, 0, 0), (0, 0, 0)) == 3
    assert mult((0, 0, 0), (0, 0, 0)) == 1
    assert mult((3, 1, 2), (3, 1, 2)) == 1


def test_q_multiplicity_positive_and_monic():
    # for dominant lam, mu with m_q(lam, mu) != 0, every coefficient is
    # nonnegative and m_q is monic of degree ht(lam - mu)
    nonzero = 0
    for vals in itertools.product(range(5), repeat=6):
        lam, mu = WeightFW(*vals[:3]), WeightFW(*vals[3:])
        p = mult_q_direct(lam, mu)
        if not p:
            continue
        nonzero += 1
        assert all(c >= 0 for c in p.coeffs), (lam, mu, p)
        assert p.degree() == sum(fw_to_alpha(lam - mu).coeffs()), (lam, mu, p)
        assert p.coeffs[-1] == 1, (lam, mu, p)
    assert nonzero == 3784


def test_parity_examples():
    assert root_lattice_parity((1, 0, 0), (1, 0, 0))
    assert not root_lattice_parity((1, 0, 0), (0, 0, 0))
    assert root_lattice_parity((2, 1, 0), (0, 0, 0))


@given(
    st.tuples(*([st.integers(0, 10)] * 3)),
    st.tuples(*([st.integers(0, 10)] * 3)),
)
@settings(max_examples=80, deadline=None)
def test_odd_parity_forces_zero(lam, mu):
    if not root_lattice_parity(lam, mu):
        assert mult_q_direct(lam, mu) == QPoly(())
        assert mult_q_cases(lam, mu) == QPoly(())
        assert len(alternation_set(lam, mu)) == 0


def test_parity_biconditional_on_action():
    rng = random.Random(17)
    group = weyl.enumerate_group()
    for _ in range(20):
        lam = WeightFW(*(rng.randint(0, 8) for _ in range(3)))
        mu = WeightFW(*(rng.randint(0, 8) for _ in range(3)))
        even = root_lattice_parity(lam, mu)
        for el in group:
            assert sigma_coeffs(el, lam, mu).is_integral() == even


def test_sign_table_matches_group():
    for term in TERMS:
        el = weyl.evaluate_word(term.word)
        assert TERM_SIGNS[term.letter] == weyl.sign(el)
        assert TERM_SIGNS[term.letter] == (-1) ** weyl.length(el)


def test_case_table_shape():
    assert len(CASES) == 45
    # every pattern constrains each of the fourteen variables at most once
    for patterns, letters in CASES:
        for pos, neg in patterns:
            assert not (set(pos) & set(neg))
            assert set(pos) | set(neg) <= set(PROFILE_FIELDS)
        assert set(letters) <= set(TERM_BY_LETTER)
    # the one case with alternative sign patterns carries four of them
    multi = [(i + 1, patterns, letters) for i, (patterns, letters) in enumerate(CASES) if len(patterns) > 1]
    assert multi == [(43, CASES[42][0], "AC")]
    assert len(CASES[42][0]) == 4


def test_case_term_sets_are_the_nonempty_families():
    seen = {letters for _patterns, letters in CASES}
    assert len(seen) == 45


def test_dispatch_equivalence_sample():
    rng = random.Random(23)
    checked = 0
    while checked < 250:
        lam = WeightFW(*(rng.randint(0, 6) for _ in range(3)))
        mu = WeightFW(*(rng.randint(0, 6) for _ in range(3)))
        if not root_lattice_parity(lam, mu):
            continue
        assert mult_q_cases(lam, mu) == mult_q_direct(lam, mu), (lam, mu)
        assert len(matching_cases(coefficient_profile(lam, mu))) <= 1
        checked += 1


def test_freudenthal_examples():
    assert mult_freudenthal((2, 0, 0), (0, 0, 0)) == 3
    assert mult_freudenthal((3, 1, 2), (3, 1, 2)) == 1
    assert mult_freudenthal((0, 0, 2), (1, 0, 1)) == 1


def test_freudenthal_rejects_non_dominant():
    with pytest.raises(ValueError):
        mult_freudenthal((-1, 0, 0), (0, 0, 0))


def test_freudenthal_agrees_with_kostant_sample():
    rng = random.Random(29)
    for _ in range(25):
        lam = WeightFW(*(rng.randint(0, 4) for _ in range(3)))
        mu = WeightFW(*(rng.randint(0, 4) for _ in range(3)))
        assert mult(lam, mu) == mult_freudenthal(lam, mu), (lam, mu)


def test_freudenthal_nondominant_mu_via_conjugate():
    # multiplicities are Weyl-invariant, so a non-dominant mu is looked up
    # through its dominant conjugate; -2w1 is conjugate to the highest
    # weight of the adjoint representation
    assert mult_freudenthal((2, 0, 0), (-2, 0, 0)) == 1
    assert mult((2, 0, 0), (-2, 0, 0)) == 1
    # w1 is not a weight of the adjoint representation at all
    assert mult_freudenthal((2, 0, 0), (-1, 1, 0)) == 0
    assert mult((2, 0, 0), (-1, 1, 0)) == 0


def test_full_scan_outside_dominant_chamber():
    # outside the dominant chamber the 17 terms are not enough: deep in
    # the antidominant region other group elements satisfy the membership
    # predicate, and the scan must cover all 48
    aset = alternation_set((-3, -3, -3), (-3, -3, -3))
    assert weyl.element_from_name("s1*s2*s3") in aset
    contributing = {weyl.evaluate_word(t.word) for t in TERMS}
    assert any(el not in contributing for el in aset.elements())
    # membership still matches the defining condition, element by element
    for el in weyl.enumerate_group():
        v = sigma_coeffs(el, (-3, -3, -3), (-3, -3, -3))
        assert (el in aset) == (v.is_integral() and v.is_nonnegative())


def test_nondominant_mu_agrees_with_freudenthal():
    rng = random.Random(31)
    for _ in range(30):
        lam = tuple(rng.randint(0, 3) for _ in range(3))
        mu = tuple(rng.randint(-4, 4) for _ in range(3))
        assert mult(lam, mu) == mult_freudenthal(lam, mu), (lam, mu)


def _dominant_conjugate_fw(mu):
    x, y, z = mu
    eps = sorted((abs(x + y + z), abs(y + z), abs(z)), reverse=True)
    return (eps[0] - eps[1], eps[1] - eps[2], eps[2])


def test_multiplicity_weyl_invariance():
    # weight multiplicities are constant on Weyl orbits
    rng = random.Random(37)
    for _ in range(20):
        lam = tuple(rng.randint(0, 3) for _ in range(3))
        mu = tuple(rng.randint(-4, 4) for _ in range(3))
        conj = _dominant_conjugate_fw(mu)
        assert mult(lam, mu) == mult(lam, conj), (lam, mu, conj)


def test_alternation_set_type():
    aset = alternation_set((2, 1, 0), (0, 0, 0))
    assert str(aset) == "{1, s1, s2, s3, s2*s3, s3*s1}"
    assert aset.to_json() == ["1", "s1", "s2", "s3", "s2*s3", "s3*s1"]
    assert AlternationSet.from_names(aset.to_json()) == aset
    assert weyl.IDENTITY in aset
    assert weyl.evaluate_word((3, 2, 3, 2)) not in aset
