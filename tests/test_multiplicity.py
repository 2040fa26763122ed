import collections
import hashlib
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sp6q import multiplicity, weyl
from sp6q.census import covered_terms
from sp6q.multiplicity import (
    CASES,
    LETTER_INDEX,
    OTHERWISE_CASE,
    PROFILE_FIELDS,
    TERMS,
    AlternationSet,
    CoefficientProfile,
    SigmaTable,
    _CASE_ELEMENTS,
    _CASE_MASKS,
    _lam_parts,
    _mu_parts,
    _nonzero_terms,
    _row_mask,
    alternation_set,
    case_table,
    coefficient_profile,
    dominant_multiplicities,
    field_mask,
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
from sp6q.root_system import AlphaVector, WeightFW

F = Fraction
DATA = pathlib.Path(__file__).parent / "data"


def test_sigma_coeffs_examples():
    # AlphaVector holds doubled integers; coeffs() gives the true coordinates
    v = sigma_coeffs(weyl.IDENTITY, (1, 1, 1), (0, 0, 0))
    assert v == AlphaVector(6, 10, 6)
    assert v.coeffs() == (3, 5, 3) and v.is_integral()
    assert sigma_coeffs(weyl.generator(1), (0, 0, 0), (0, 0, 0)) == AlphaVector(-2, 0, 0)
    el = weyl.evaluate_word((3, 2, 3, 2))
    assert sigma_coeffs(el, (2, 0, 0), (0, 0, 0)) == AlphaVector(4, -4, -4)
    v = sigma_coeffs(weyl.IDENTITY, (1, 0, 0), (0, 0, 0))
    assert v == AlphaVector(2, 2, 1)
    assert v.coeffs() == (1, 1, F(1, 2)) and not v.is_integral()


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
    # 14 profile rows, rows[:14], one per variable in PROFILE_FIELDS order;
    # each element reads one row per alpha coordinate, and sits at its
    # canonical index; each coordinate's readers hold exactly its rows, each
    # with its row bit and bit 26 + idx of every element idx that reads it
    table = sigma_table()
    assert len(table.rows) == 26
    assert table.terms == tuple(table.elements[weyl.canonical_index(weyl.evaluate_word(t.word))] for t in TERMS)
    for term, (_idx, _sign, ids) in zip(TERMS, table.terms):
        assert ids == tuple(map(PROFILE_FIELDS.index, term.fields)), term.letter
    assert {r for _idx, _sign, ids in table.terms for r in ids} == set(range(14))
    for _idx, _sign, ids in table.elements:
        assert [table.rows[r][4] for r in ids] == [0, 1, 2]
    assert [idx for idx, _sign, _ids in table.elements] == list(range(48))
    assert [sign for _idx, sign, _ids in table.elements] == [weyl.sign(el) for el in weyl.enumerate_group()]
    for i, readers in enumerate(table.readers):
        assert [r for r, _bits in readers] == [r for r, row in enumerate(table.rows) if row[4] == i]
        for r, bits in readers:
            assert bits == 1 << r | sum(1 << (26 + idx) for idx, _sign, ids in table.elements if ids[i] == r), (i, r)


def _rows_at(lam, mu):
    # every row of sigma_table at the pair, straight from its stored form:
    # cm*m + cn*n + ck*k + c1 minus mu_alpha[i] . (x, y, z)
    table = sigma_table()
    (m, n, k), (x, y, z) = lam, mu
    alpha = [cx * x + cy * y + cz * z for cx, cy, cz in table.mu_alpha]
    return [cm * m + cn * n + ck * k + c1 - alpha[i] for cm, cn, ck, c1, i in table.rows]


def test_split_rows_equal_the_full_rows():
    # the cached lam parts minus mu's doubled alpha coordinates, and the
    # profile read from them, against the independent seven-term fixture
    # rows, doubled, for WeightFW and tuple inputs of either sign and parity
    table = sigma_table()
    fixture = _fixture_rows()
    group = weyl.enumerate_group()
    rng = random.Random(13)
    pairs = [((8, 0, 0), (0, 0, 2)), ((1, 0, 0), (0, 0, 0)), ((-3, -3, -3), (-3, -3, -3))]
    pairs += [(tuple(rng.randint(-6, 8) for _ in range(3)), tuple(rng.randint(-6, 8) for _ in range(3))) for _ in range(200)]
    assert {(lam[0] + lam[2] + mu[0] + mu[2]) % 2 for lam, mu in pairs} == {0, 1}
    for lam, mu in pairs:
        parts, alpha = _lam_parts(*lam)[0], _mu_parts(*mu)
        assert (_lam_parts(*WeightFW(*lam)), _mu_parts(*WeightFW(*mu))) == (_lam_parts(*lam), alpha), (lam, mu)
        got = [part - alpha[i] for part, (*_lam, i) in zip(parts, table.rows)]
        assert got == _rows_at(lam, mu), (lam, mu)
        assert coefficient_profile(WeightFW(*lam), WeightFW(*mu)) == coefficient_profile(lam, mu) == tuple(got[:14])
        for idx, _sign, ids in table.elements:
            want = [2 * sum(c * v for c, v in zip(row, (*lam, *mu, 1))) for row in fixture[weyl.name(group[idx])]]
            assert [got[r] for r in ids] == want, (lam, mu, idx)


BOX = list(itertools.product(range(-3, 5), repeat=3))  # [-3, 4]^3: weights of either sign


def test_row_mask_signs_every_row():
    # bit r of the row mask, three bisects into the cached index, is set
    # exactly when row r read straight from its stored form is >= 0, for all
    # 26 rows at every pair of [-3, 4]^6, either parity; and bit 26 + idx
    # exactly when all three rows of element idx are, with no other bit set
    elements = [(idx, sum(1 << r for r in set(ids))) for idx, _sign, ids in sigma_table().elements]
    for lam in BOX:
        for mu in BOX:
            rows = sum(1 << r for r, value in enumerate(_rows_at(lam, mu)) if value >= 0)
            want = rows | sum(1 << (26 + idx) for idx, m in elements if rows & m == m)
            assert _row_mask(lam, mu)[0] == want, (lam, mu)


def test_row_mask_low_bits_are_the_profile_signs():
    # the low 14 bits of the row mask are the field_mask sign pattern that
    # CoefficientProfile.signs() reads off the profile, at every pair of [-3, 4]^6
    for lam in BOX:
        for mu in BOX:
            assert coefficient_profile(lam, mu).signs() == _row_mask(lam, mu)[0] & (1 << 14) - 1, (lam, mu)


@pytest.mark.parametrize("bad", [float, bool, np.int64], ids=lambda t: t.__name__)
def test_non_int_coordinates_raise_on_every_entry(bad):
    # a coordinate that is not a Python int raises TypeError on every entry,
    # whatever its value and wherever it stands, before and after the int
    # pair of the same values is cached.  Every coordinate is 0 or 1, so that
    # bool keeps the value; the pairs are even and odd, with mu below lam and
    # above it
    pairs = [((1, 0, 1), (0, 0, 0)), ((1, 0, 0), (0, 0, 0)), ((0, 0, 0), (1, 0, 1)), ((0, 0, 0), (0, 0, 1))]
    assert [root_lattice_parity(lam, mu) for lam, mu in pairs] == [True, False, True, False]
    assert [min(sigma_coeffs(weyl.IDENTITY, lam, mu).coeffs()) >= 0 for lam, mu in pairs] == [True, True, False, False]
    entries = (alternation_set, mult_q_direct, mult_q_cases, coefficient_profile, mult_freudenthal)
    _lam_parts.cache_clear()
    for lam, mu in pairs:
        for warm in (False, True):
            if warm:
                for entry in entries:
                    entry(lam, mu)
                dominant_multiplicities(lam)
            for pos in range(6):
                coords = [*lam, *mu]
                coords[pos] = bad(coords[pos])
                bad_lam, bad_mu = tuple(coords[:3]), tuple(coords[3:])
                for entry in entries:
                    with pytest.raises(TypeError, match="integers"):
                        entry(bad_lam, bad_mu)
                if pos < 3:
                    with pytest.raises(TypeError, match="integers"):
                        dominant_multiplicities(bad_lam)


def test_sigma_table_and_weyl_action_are_int_only():
    # no Fraction (or any other number type) leaks into the table or the action;
    # every stored row is (cm, cn, ck, c1, i), and the mu part it stands for,
    # minus mu_alpha[i] . (x, y, z), is never positive for dominant mu
    table = sigma_table()
    assert SigmaTable._fields == ("rows", "elements", "terms", "mu_alpha", "readers")
    assert all(len(row) == 5 and row[4] in range(3) for row in table.rows)
    assert all(type(c) is int for row in table.rows + table.mu_alpha for c in row)
    assert min(c for row in table.mu_alpha for c in row) >= 0
    for el in weyl.enumerate_group():
        for v in ((1, 0, 0), (1, 1, 0), (1, 1, 1), (3, 2, 1), (-4, 7, -2)):
            assert all(type(c) is int for c in weyl.apply(el, v))
        assert all(type(c) is int for c in vars(sigma_coeffs(el, (1, 0, 3), (-2, 1, 0))).values())


def test_sigma_table_rejects_a_corrupted_mu_part(monkeypatch):
    derive = multiplicity._affine_rows

    def corrupted():
        rows, elements = derive()
        first = rows[0]
        return (first[:3] + (first[3] + 1,) + first[4:],) + rows[1:], elements

    assert sigma_table.__wrapped__() == sigma_table()
    monkeypatch.setattr(multiplicity, "_affine_rows", corrupted)
    with pytest.raises(RuntimeError, match="mu part"):
        sigma_table.__wrapped__()


def _positive_constant(rows, elements):
    # the last type-1 row (over (m, n, k, x, y, z, 1): lam part <= 0, constant < 0)
    # gets a positive constant, so it is no longer negative at lam = mu = 0
    last = max(r for r, row in enumerate(rows) if max(row[:3]) <= 0 and row[6] < 0)
    return tuple(row[:6] + (2,) if r == last else row for r, row in enumerate(rows)), elements


def _excluded_reads_profile_rows(rows, elements):
    # an excluded element, s1*s2*s3, takes the identity's profile rows in place of its own
    moved = weyl.canonical_index(weyl.evaluate_word((1, 2, 3)))
    return rows, tuple((idx, sign, elements[0][2] if idx == moved else ids) for idx, sign, ids in elements)


def _row_above_the_identity(rows, elements):
    # the coordinate-2 row of s2*s3, profile variable g, gets the constant 2,
    # above the identity's 0; it stays a profile row, so only the dominance
    # bound catches it
    g = elements[weyl.canonical_index(weyl.evaluate_word((2, 3)))][2][1]
    return tuple(row[:6] + (2,) if r == g else row for r, row in enumerate(rows)), elements


def _identity_constant_odd(rows, elements):
    # the identity's coordinate-3 row, profile variable j, gets the constant
    # 1: lam - mu would then be integral at odd m + k + x + z, against the
    # parity gate; j stays a profile row and below no other row, so only the
    # parity guard catches it
    j = elements[0][2][2]
    return tuple(row[:6] + (row[6] + 1,) if r == j else row for r, row in enumerate(rows)), elements


@pytest.mark.parametrize("corrupt, message", [
    (_positive_constant, "rows past the profile rows"),
    (_excluded_reads_profile_rows, "not the TERMS"),
    (_row_above_the_identity, "above the identity"),
    (_identity_constant_odd, "not odd exactly in m, k, x and z"),
])
def test_sigma_table_rejects_a_broken_type1_rule(monkeypatch, corrupt, message):
    derive = multiplicity._affine_rows
    monkeypatch.setattr(multiplicity, "_affine_rows", lambda: corrupt(*derive()))
    with pytest.raises(RuntimeError, match=message):
        sigma_table.__wrapped__()


@pytest.mark.parametrize("name, value, message", [
    ("RHO_EPS", (4, 2, 1), "violate"),  # a wrong rho breaks a-b = m+1
    ("TERMS", (TERMS[0], TERMS[1]._replace(fields=TERMS[0].fields), *TERMS[2:]), "two rows"),
    ("FUNDAMENTAL_EPS", ((-1, 0, 0), (1, 1, 0), (1, 1, 1)), "negative coefficient"),  # -w1 for w1
])
def test_sigma_table_rejects_a_broken_derivation(monkeypatch, name, value, message):
    # __wrapped__ derives a fresh table, so the cached one is never replaced
    monkeypatch.setattr(multiplicity, name, value)
    with pytest.raises(RuntimeError, match=message):
        sigma_table.__wrapped__()


def test_sigma_coeffs_match_fixture_rows_numerically():
    # weights of either sign and pairs of either parity, so that half-integral
    # coordinates are exercised as often as integral ones
    fixture = _fixture_rows()
    rng = random.Random(11)
    group = weyl.enumerate_group()
    samples = [tuple(rng.randint(-9, 9) for _ in range(6)) for _ in range(200)]
    assert {(v[0] + v[2] + v[3] + v[5]) % 2 for v in samples} == {0, 1}
    for vals in samples:
        lam, mu = WeightFW(*vals[:3]), WeightFW(*vals[3:])
        for el in group:
            rows = fixture[weyl.name(el)]
            expect = tuple(
                sum(row[t] * vals[t] for t in range(6)) + row[6] for row in rows
            )
            assert sigma_coeffs(el, lam, mu).coeffs() == expect


def test_profile_worked_examples():
    # values are doubled: twice each substitution variable
    # highest root against zero: exactly a, d, e, j, l are nonnegative
    p = coefficient_profile((2, 0, 0), (0, 0, 0))
    nonneg = {f for f in PROFILE_FIELDS if getattr(p, f) >= 0}
    assert nonneg == {"a", "d", "e", "j", "l"}
    assert (p.a, p.d, p.e, p.j, p.l) == (4, 4, 2, 2, 0)

    p = coefficient_profile((0, 0, 0), (0, 0, 0))
    nonneg = {f for f in PROFILE_FIELDS if getattr(p, f) >= 0}
    assert nonneg == {"a", "d", "j"}
    assert (p.a, p.d, p.j, p.b, p.c) == (0, 0, 0, -2, -4)

    p = coefficient_profile((0, 0, 2), (1, 0, 1))
    nonneg = {f for f in PROFILE_FIELDS if getattr(p, f) >= 0}
    assert nonneg == {"a", "d", "e", "j"}
    assert (p.a, p.e, p.d, p.j) == (0, 0, 2, 2)
    assert all(type(v) is int for v in p)

    # odd parity: j, l, o, p, r are odd, a..i stay even
    p = coefficient_profile((1, 0, 0), (0, 0, 0))
    assert [v % 2 for v in p] == [0] * 9 + [1] * 5


def test_profile_triples_equal_sigma_coeffs():
    # each term's three profile values are twice its coefficient vector,
    # for pairs of either sign and either parity
    rng = random.Random(3)
    for _ in range(60):
        lam = WeightFW(*(rng.randint(-4, 7) for _ in range(3)))
        mu = WeightFW(*(rng.randint(-4, 7) for _ in range(3)))
        profile = coefficient_profile(lam, mu)
        for term in TERMS:
            el = weyl.evaluate_word(term.word)
            v = sigma_coeffs(el, lam, mu)
            doubled = (v.d1, v.d2, v.d3)
            assert tuple(getattr(profile, f) for f in term.fields) == doubled, (lam, mu, term.letter)


def test_alternation_set_examples():
    assert alternation_set((2, 1, 0), (0, 0, 0)).names() == [
        "1", "s1", "s2", "s3", "s2*s3", "s3*s1",
    ]
    assert len(alternation_set((0, 0, 0), (0, 0, 2))) == 0
    assert alternation_set((0, 0, 0), (0, 0, 0)).names() == ["1"]


def test_membership_matches_defining_condition():
    # membership iff the coefficient vector is integral and nonnegative,
    # checked against the exact vectors over all 48 elements, for weights
    # of either sign and for dominant pairs
    rng = random.Random(6)
    pairs = [[WeightFW(*(rng.randint(low, 6) for _ in range(3))) for _ in range(2)] for low in (-6, 0) for _ in range(12)]
    assert any(min(lam) < 0 or min(mu) < 0 for lam, mu in pairs)
    for lam, mu in pairs:
        aset = alternation_set(lam, mu)
        for el in weyl.enumerate_group():
            v = sigma_coeffs(el, lam, mu)
            assert (el in aset) == (v.is_integral() and all(c >= 0 for c in v.coeffs()))


def _full_scan(lam, mu):
    # every one of the 48 elements over all 26 rows, whatever the signs of the pair
    table = sigma_table()
    doubled = _rows_at(lam, mu)
    out = []
    for idx, sign, ids in table.elements:
        values = [doubled[r] for r in ids]
        if all(d >= 0 and d % 2 == 0 for d in values):
            out.append((idx, sign, tuple(d // 2 for d in values)))
    return out


def test_nonzero_terms_equal_the_full_scan():
    # _nonzero_terms must list the full scan's (sign, vector) terms, in its
    # order, and alternation_set's mask must hold exactly its indices, at
    # every pair of [-2, 3]^6: weights of either sign and parity, dominant or
    # not.  The set reads the row mask alone and the terms go through _terms,
    # so each is checked against the scan on its own.
    box = list(itertools.product(range(-2, 4), repeat=3))
    assert len(box) ** 2 == 46_656
    nonempty = 0
    for lam in box:
        for mu in box:
            want = _full_scan(lam, mu)
            assert _nonzero_terms(lam, mu) == [(sign, v) for _idx, sign, v in want], (lam, mu)
            assert alternation_set(lam, mu).mask == sum(1 << idx for idx, _sign, _v in want), (lam, mu)
            nonempty += bool(want)
            assert root_lattice_parity(lam, mu) == sigma_coeffs(weyl.IDENTITY, lam, mu).is_integral(), (lam, mu)
    assert nonempty > 10_000


def test_mult_q_direct_examples():
    assert mult_q_direct((2, 0, 0), (0, 0, 0)) == QPoly((0, 1, 0, 1, 0, 1))
    assert mult_q_direct((0, 0, 0), (0, 0, 0)) == QPoly((1,))
    assert mult_q_direct((0, 0, 2), (1, 0, 1)) == QPoly((0, 0, 1))
    # outside the dominant chamber: 28 terms of up to 57 coefficients, which
    # all cancel, so the sum trims to the zero polynomial
    assert len(_nonzero_terms((-1, 3, 3), (-3, -3, -3))) == 28
    assert mult_q_direct((-1, 3, 3), (-3, -3, -3)).coeffs == ()


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
        # ht(lam - mu): the identity term sigma(lam+rho) - rho - mu is lam - mu
        assert len(p.coeffs) - 1 == sum(sigma_coeffs(weyl.IDENTITY, lam, mu).coeffs()), (lam, mu, p)
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
    # both routes read each term's sign from sigma_table, and the dispatch
    # names a case's terms by their bits in the element layout of the row mask
    terms = sigma_table().terms
    for term, (_idx, sign, _ids) in zip(TERMS, terms, strict=True):
        el = weyl.evaluate_word(term.word)
        assert sign == (-1) ** len(term.word) == weyl.sign(el) == (-1) ** weyl.length(el), term.letter
        assert TERMS[LETTER_INDEX[term.letter]] == term
    assert len(_CASE_ELEMENTS) == OTHERWISE_CASE + 1 and _CASE_ELEMENTS[0] == _CASE_ELEMENTS[OTHERWISE_CASE] == 0
    for number, (_patterns, letters) in enumerate(CASES, start=1):
        assert _CASE_ELEMENTS[number] == sum(1 << terms[LETTER_INDEX[c]][0] for c in letters), number


def _mask_fields(mask):
    return {f for i, f in enumerate(PROFILE_FIELDS) if mask >> i & 1}


def test_case_table_shape():
    assert len(CASES) == 45
    # every pattern constrains each of the fourteen variables at most once,
    # and compiles to the (constrained, nonnegative) masks of its strings
    assert [number for number, _letters, _masks in _CASE_MASKS] == list(range(1, 46))
    for (patterns, letters), (_number, compiled_letters, masks) in zip(CASES, _CASE_MASKS):
        assert (compiled_letters, len(masks)) == (letters, len(patterns))
        for (pos, neg), (care, nonneg) in zip(patterns, masks):
            assert not (set(pos) & set(neg))
            assert set(pos) | set(neg) <= set(PROFILE_FIELDS)
            assert (_mask_fields(nonneg), _mask_fields(care & ~nonneg)) == (set(pos), set(neg))
        assert set(letters) <= set(LETTER_INDEX)
    # the one case with alternative sign patterns carries four of them
    multi = [(i + 1, patterns, letters) for i, (patterns, letters) in enumerate(CASES) if len(patterns) > 1]
    assert multi == [(43, CASES[42][0], "AC")]
    assert len(CASES[42][0]) == 4


def test_case_letters_follow_from_the_nonnegative_part():
    # a term contributes iff its three variables are nonnegative, so every
    # alternative pattern of a case yields exactly that case's letters,
    # and covered_terms maps the pattern to the same term mask
    covered = covered_terms()
    assert covered[0] == 0 and covered[field_mask(PROFILE_FIELDS)] == (1 << 17) - 1
    for patterns, letters in CASES:
        for pos, _neg in patterns:
            assert letters == "".join(t.letter for t in TERMS if set(t.fields) <= set(pos)), (pos, letters)
            assert covered[field_mask(pos)] == sum(1 << LETTER_INDEX[L] for L in letters), (pos, letters)


def test_covered_terms_matches_each_pattern():
    # the vectorized table against a per-pattern evaluation of the rule:
    # a term is covered when its three variables lie in the pattern
    want = []
    for s in range(1 << 14):
        nonneg = {v for b, v in enumerate(PROFILE_FIELDS) if s >> b & 1}
        want.append(sum(1 << i for i, t in enumerate(TERMS) if set(t.fields) <= nonneg))
    covered = covered_terms()
    assert covered.dtype == np.uint32 and covered.tolist() == want


def test_field_mask_and_signs():
    assert field_mask("a") == 1 and field_mask("r") == 1 << 13
    assert field_mask(PROFILE_FIELDS) == (1 << 14) - 1
    assert field_mask("pr") == field_mask(["r", "p", "p"])
    with pytest.raises(ValueError):
        field_mask("k")
    # half-integral variables included: odd-parity and non-dominant pairs
    rng = random.Random(41)
    for _ in range(200):
        lam = tuple(rng.randint(-4, 6) for _ in range(3))
        mu = tuple(rng.randint(-4, 6) for _ in range(3))
        p = coefficient_profile(lam, mu)
        assert _mask_fields(p.signs()) == {f for f in PROFILE_FIELDS if getattr(p, f) >= 0}


def _profile_with_signs(s):
    return CoefficientProfile._make(0 if s >> i & 1 else -1 for i in range(14))


def test_case_table_is_the_match():
    table = case_table()
    assert isinstance(table, bytes) and len(table) == 1 << 14
    with pytest.raises(TypeError):
        table[0] = 1
    # the cases are pairwise disjoint, so the order case_table walks them in does not matter
    for s in range(1 << 14):
        profile = _profile_with_signs(s)
        assert len(matching_cases(profile)) <= 1, s
        number = next(iter(matching_cases(profile)), OTHERWISE_CASE)
        assert table[s] == number, s
        assert match_case(profile) == (number, CASES[number - 1][1] if number != OTHERWISE_CASE else ""), s


def test_every_realized_sign_pattern_dispatches_to_its_covered_terms():
    # the 74 sign patterns of even-parity pairs in [0,16]^6, each with its
    # lexicographically first witness; the matching case must carry
    # exactly the terms whose three variables the pattern makes nonnegative
    witnesses = json.loads((DATA / "sign_pattern_witnesses.json").read_text())
    assert len(witnesses) == len({w["signs"] for w in witnesses}) == 74
    covered = covered_terms()
    for w in witnesses:
        lam, mu, s = tuple(w["lam"]), tuple(w["mu"]), w["signs"]
        assert field_mask(w["nonnegative"]) == s
        assert min(lam + mu) >= 0 and max(lam + mu) <= 16 and root_lattice_parity(lam, mu)
        assert coefficient_profile(lam, mu).signs() == s, w
        want = "".join(t.letter for i, t in enumerate(TERMS) if int(covered[s]) >> i & 1)
        assert match_case(coefficient_profile(lam, mu))[1] == want, w
        # the case theorem in mask form: the matched case admits exactly the nonzero terms
        assert _CASE_ELEMENTS[case_table()[s]] == _row_mask(lam, mu)[0] >> 26, w
        assert mult_q_cases(lam, mu) == mult_q_direct(lam, mu), w


def test_case_term_sets_are_the_nonempty_families():
    seen = {letters for _patterns, letters in CASES}
    assert len(seen) == 45


def test_multiplicity_does_not_import_numpy():
    # the alternating sum, the case dispatch and Freudenthal are plain
    # integer arithmetic; building case_table must not load numpy either
    src = str(pathlib.Path(multiplicity.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    script = (
        "import sys\n"
        "from sp6q.multiplicity import mult_freudenthal, mult_q_cases\n"
        "print(mult_q_cases((2, 0, 0), (0, 0, 0)).coeffs, mult_freudenthal((2, 0, 0), (0, 0, 0)), 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{mult_q_cases((2, 0, 0), (0, 0, 0)).coeffs} 3 False\n"


def test_freudenthal_examples():
    assert mult_freudenthal((2, 0, 0), (0, 0, 0)) == 3
    assert mult_freudenthal((3, 1, 2), (3, 1, 2)) == 1
    assert mult_freudenthal((0, 0, 2), (1, 0, 1)) == 1


def test_freudenthal_rejects_non_dominant():
    for lam in ((-1, 0, 0), WeightFW(0, 2, -1)):
        with pytest.raises(ValueError, match="highest weight must be dominant"):
            mult_freudenthal(lam, (0, 0, 0))
        with pytest.raises(ValueError, match="highest weight must be dominant"):
            dominant_multiplicities(lam)


def test_freudenthal_rejects_an_indivisible_numerator(monkeypatch):
    # with a1's step dropped from every wall class (sent below every key, so
    # it reads the zero row, as a step off the weights does) the chain sums
    # are wrong, and the numerator at the weight 0 of lam = omega2 is not a
    # multiple of its denominator
    assert multiplicity._POSITIVE_EPS[0] == (1, -1, 0)
    step_table = multiplicity._step_table

    def faulted(bits):
        return tuple(((-(1 << 3 * bits), 0), *steps[1:]) for steps in step_table(bits))

    monkeypatch.setattr(multiplicity, "_step_table", faulted)
    with pytest.raises(ArithmeticError, match="not divisible"):
        dominant_multiplicities((0, 1, 0))


def test_step_table_is_the_conjugation_per_wall_class():
    # for every dominant nu with ambient coordinates <= 12 and every
    # positive root, the table's step of nu's wall class is the step
    # _conjugate_step takes from nu itself
    bits = multiplicity._MIN_KEY_BITS
    table = multiplicity._step_table(bits)
    key = lambda v: v[0] << 2 * bits | v[1] << bits | v[2]
    classes = set()
    for nu in itertools.product(range(13), repeat=3):
        n1, n2, n3 = nu
        if not n1 >= n2 >= n3:
            continue
        wall = (min(n1 - n2, 2) * 3 + min(n2 - n3, 2)) * 3 + min(n3, 2)
        classes.add(wall)
        for root, (delta, i) in zip(multiplicity._POSITIVE_EPS, table[wall], strict=True):
            up, want = multiplicity._conjugate_step(nu, root)
            u = tuple(a + r for a, r in zip(nu, root))
            assert up == _dominant_eps(u), (nu, root)
            assert (key(nu) + delta, i) == (key(up), want), (nu, root)
            # <u+, beta_i> = <u, beta_j>
            beta = multiplicity._POSITIVE_EPS[i]
            assert sum(a * r for a, r in zip(up, beta)) == sum(a * r for a, r in zip(u, root)), (nu, root)
    assert len(table) == 27 and classes == set(range(27))


def test_freudenthal_key_width_guard(monkeypatch):
    # with at most 4-bit key coordinates the largest first ambient
    # coordinate, m + n + k, is 13: the step along 2 e1 from lam reaches
    # 15 = 2**4 - 1; with no least width, such a pass packs 4 bits
    at_limit = ((13, 0, 0), (0, 12, 1), (2, 5, 6))
    want = [dominant_multiplicities(lam) for lam in at_limit]
    monkeypatch.setattr(multiplicity, "_KEY_BITS", 4)
    monkeypatch.setattr(multiplicity, "_MIN_KEY_BITS", 1)
    assert [dominant_multiplicities(lam) for lam in at_limit] == want
    assert mult_freudenthal((13, 0, 0), (1, 0, 0)) == want[0][1, 0, 0]
    for lam in ((14, 0, 0), (0, 13, 1), (2, 6, 6)):
        with pytest.raises(ValueError, match="highest weight too large"):
            dominant_multiplicities(lam)
        with pytest.raises(ValueError, match="highest weight too large"):
            mult_freudenthal(lam, lam)


def test_dominant_multiplicities_at_20_20_20_are_pinned():
    # entries and their order, as computed before the step table
    mults = dominant_multiplicities((20, 20, 20))
    assert len(mults) == 15_791
    digest = hashlib.sha256(repr(list(mults.items())).encode()).hexdigest()
    assert digest == "948f2519be0e68f4205dafdf1c6248f1755042a0c3a90e62a9728a079d12dfe1"


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
    # predicate, and membership must range over all 48
    aset = alternation_set((-3, -3, -3), (-3, -3, -3))
    assert weyl.element_from_name("s1*s2*s3") in aset
    contributing = {weyl.evaluate_word(t.word) for t in TERMS}
    assert any(el not in contributing for el in aset.elements())
    # membership still matches the defining condition, element by element
    for el in weyl.enumerate_group():
        v = sigma_coeffs(el, (-3, -3, -3), (-3, -3, -3))
        assert (el in aset) == (v.is_integral() and all(c >= 0 for c in v.coeffs()))


def test_nondominant_mu_agrees_with_freudenthal():
    rng = random.Random(31)
    for _ in range(30):
        lam = tuple(rng.randint(0, 3) for _ in range(3))
        mu = tuple(rng.randint(-4, 4) for _ in range(3))
        assert mult(lam, mu) == mult_freudenthal(lam, mu), (lam, mu)


def _eps(w):
    """Ambient coordinates of a weight given in fundamental weights."""
    x, y, z = w
    return (x + y + z, y + z, z)


def _dominant_eps(v):
    """The dominant conjugate of an ambient triple: W acts by signed permutations."""
    return tuple(sorted(map(abs, v), reverse=True))


def _dominant_conjugate_fw(mu):
    a, b, c = _dominant_eps(_eps(mu))
    return (a - b, b - c, c)


def test_multiplicity_weyl_invariance():
    # weight multiplicities are constant on Weyl orbits
    rng = random.Random(37)
    for _ in range(20):
        lam = tuple(rng.randint(0, 3) for _ in range(3))
        mu = tuple(rng.randint(-4, 4) for _ in range(3))
        conj = _dominant_conjugate_fw(mu)
        assert mult(lam, mu) == mult(lam, conj), (lam, mu, conj)


def _dominant_weights_below(lam):
    """Dominant mu with lam - mu a nonnegative integer sum of simple roots,
    read from the identity's term of the alternating sum."""
    top = range(sum(lam) + 1)
    return [
        mu for mu in itertools.product(top, repeat=3)
        if (v := sigma_coeffs(weyl.IDENTITY, lam, mu)).is_integral() and min(v.coeffs()) >= 0
    ]


def test_dominant_multiplicities_equal_the_alternating_sum():
    # one Freudenthal pass against mult_q_direct at q = 1, over whole
    # characters; mult_freudenthal walks only the weights between mu and
    # lam, and must return the entry the whole pass gives
    pairs = 0
    for lam in itertools.product(range(4), repeat=3):
        mults = dominant_multiplicities(lam)
        mus = _dominant_weights_below(lam)
        assert sorted(mults) == mus, lam
        for mu in mus:
            assert mults[mu] == mult(lam, mu) == mult_freudenthal(lam, mu), (lam, mu)
        pairs += len(mus)
    assert pairs == 1412
    # deep weights: long root strings and ties, well below lam
    mults = dominant_multiplicities((6, 6, 6))
    assert len(mults) == 531
    for mu, m in mults.items():
        assert m == mult((6, 6, 6), mu), mu
    # a non-dominant mu is read through its dominant conjugate
    rng = random.Random(41)
    weights = 0
    for _ in range(200):
        lam = tuple(rng.randint(0, 4) for _ in range(3))
        mu = tuple(rng.randint(-5, 5) for _ in range(3))
        want = dominant_multiplicities(lam).get(_dominant_conjugate_fw(mu), 0)
        assert mult_freudenthal(lam, mu) == want, (lam, mu)
        weights += want > 0
    assert weights >= 50


def test_freudenthal_equals_the_whole_pass_on_a_box():
    # every pair of [0,3]^3 x [-4,5]^3: mu+ below lam, above it, beside it
    # in the third simple-root coordinate alone, or in the other coset
    seen = collections.Counter()
    for lam in itertools.product(range(4), repeat=3):
        mults = dominant_multiplicities(lam)
        l1, l2, l3 = _eps(lam)
        for mu in itertools.product(range(-4, 6), repeat=3):
            conj = _dominant_conjugate_fw(mu)
            assert mult_freudenthal(lam, mu) == mults.get(conj, 0), (lam, mu)
            v1, v2, v3 = _dominant_eps(_eps(mu))
            c1, c2 = l1 - v1, l1 + l2 - v1 - v2
            twice_c3 = c2 + l3 - v3
            seen["other coset" if twice_c3 % 2 else
                 "below" if min(c1, c2, twice_c3) >= 0 else
                 "c3 only negative" if min(c1, c2) >= 0 else "not below"] += 1
    assert sum(seen.values()) == 64_000 and min(seen.values()) > 0 and len(seen) == 4, seen


# The positive roots of C3 in ambient coordinates, written out here.
_ROOTS_EPS = (
    (1, -1, 0), (0, 1, -1), (0, 0, 2), (1, 0, -1), (0, 1, 1),
    (1, 0, 1), (1, 1, 0), (2, 0, 0), (0, 2, 0),
)


def _chain_walk_multiplicities(lam):
    """The chain-walking Freudenthal pass, kept as a reference: every chain
    nu + t*beta, t >= 1, is walked until its first non-weight."""
    L = _eps(lam)

    def height_below(nu):
        c1 = L[0] - nu[0]
        c2 = c1 + L[1] - nu[1]
        twice_c3 = c2 + L[2] - nu[2]
        if min(c1, c2, twice_c3) < 0 or twice_c3 % 2:
            return None
        return c1 + c2 + twice_c3 // 2

    weights = sorted(
        (h, nu) for nu in itertools.product(range(L[0] + 1), repeat=3)
        if nu[0] >= nu[1] >= nu[2] and (h := height_below(nu)) is not None
    )
    rho = (3, 2, 1)
    norm = lambda v: sum((a + r) ** 2 for a, r in zip(v, rho))
    mults = {}
    for h, nu in weights:
        if not h:
            mults[nu] = 1
            continue
        acc = 0
        for root in _ROOTS_EPS:
            length = sum(r * r for r in root)
            u = tuple(a + r for a, r in zip(nu, root))
            dot = sum(a * r for a, r in zip(nu, root)) + length
            while (m_up := mults.get(_dominant_eps(u))) is not None:
                acc += m_up * dot
                u = tuple(a + r for a, r in zip(u, root))
                dot += length
        num, denom = 2 * acc, norm(L) - norm(nu)
        assert num % denom == 0, (lam, nu)
        mults[nu] = num // denom
    return {(a - b, b - c, c): m for (a, b, c), m in mults.items()}


def test_freudenthal_pass_equals_the_chain_walk():
    # the pass reads each chain sum off one step and the sums of the
    # dominant conjugate above it; the reference walks every chain
    for lam in [*itertools.product(range(5), repeat=3), (10, 10, 10)]:
        assert dominant_multiplicities(lam) == _chain_walk_multiplicities(lam), lam


def test_root_strings_sum_to_zero():
    # the beta-string through any weight is symmetric under the reflection
    # s_beta, so sum over all t of m(nu + t*beta) <nu + t*beta, beta> is 0
    strings = 0
    for lam in itertools.product(range(4), repeat=3):
        mults = {_eps(mu): m for mu, m in dominant_multiplicities(lam).items()}
        reach = 2 * _eps(lam)[0] + 1  # no weight has a coordinate above lam's first in size
        for nu in mults:
            for root in _ROOTS_EPS:
                total = 0
                for t in range(-reach, reach + 1):
                    v = tuple(a + t * r for a, r in zip(nu, root))
                    total += mults.get(_dominant_eps(v), 0) * sum(a * r for a, r in zip(v, root))
                assert total == 0, (lam, nu, root)
                strings += 1
    assert strings == 9 * 1412


def _weyl_dimension(lam):
    """prod over the positive roots alpha of <lam+rho, alpha> / <rho, alpha>,
    with the roots e_i - e_j, e_i + e_j (i < j) and 2 e_i in ambient coordinates."""
    def product(v):
        out = 1
        for i in range(3):
            out *= 2 * v[i]
            for j in range(i + 1, 3):
                out *= (v[i] - v[j]) * (v[i] + v[j])
        return out

    m, n, k = lam
    num, den = product((m + n + k + 3, n + k + 2, k + 1)), product((3, 2, 1))
    assert num % den == 0
    return num // den


def _orbit_size(mu):
    """|W mu|: the distinct signed permutations of mu's ambient coordinates."""
    x, y, z = mu
    return len({
        tuple(s * c for s, c in zip(signs, perm))
        for perm in itertools.permutations((x + y + z, y + z, z))
        for signs in itertools.product((1, -1), repeat=3)
    })


def test_weyl_dimension_formula_over_whole_characters():
    # the natural, the two other fundamental and the adjoint representation
    assert [_weyl_dimension(lam) for lam in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0))] == [6, 14, 14, 21]
    for lam in [*itertools.product(range(5), repeat=3), (10, 10, 10), (14, 0, 3), (0, 12, 1)]:
        total = sum(_orbit_size(mu) * m for mu, m in dominant_multiplicities(lam).items())
        assert total == _weyl_dimension(lam), lam


def _dominance_order(lam):
    """The dominant weights of V(lam), from one Freudenthal pass, with their
    multiplicities, the heights of lam - mu, and below[i, j] true exactly
    when mu_i < mu_j: mu_j - mu_i is a nonzero sum of positive roots."""
    mults = dominant_multiplicities(lam)
    eps = np.array([_eps(mu) for mu in mults])
    # every difference of two weights lies in the root lattice (both lie in
    # lam minus it), and its partial sums are its alpha coordinates c1, c2
    # and 2 c3, so it is in the positive root cone exactly when they are
    # nonnegative
    diff = eps[None, :, :] - eps[:, None, :]
    below = (np.cumsum(diff, axis=2) >= 0).all(axis=2)
    np.fill_diagonal(below, False)
    c1, c2, c3_2 = np.cumsum(np.array(_eps(lam)) - eps, axis=1).T
    return list(mults), np.array(list(mults.values())), c1 + c2 + c3_2 // 2, below


def test_dominance_monotonicity_at_q_1():
    # The classical theorem on weight multiplicities: for dominant weights
    # mu < nu of V(lam), nu - mu a nonzero sum of positive roots,
    # m(lam, mu) >= m(lam, nu).
    pairs = 0
    for lam in itertools.product(range(5), repeat=3):
        weights, m, _height, below = _dominance_order(lam)
        pairs += int(below.sum())
        bad = np.argwhere(below & (m[:, None] < m[None, :]))
        assert not len(bad), (lam, [(weights[i], weights[j]) for i, j in bad[:3]])
    assert pairs == 159757


def test_dominance_monotonicity_in_q_on_the_observed_box():
    """An observation, not a theorem the sources here prove: for dominant
    weights mu < nu of V(lam), m_q(lam, mu) - q^ht(nu-mu) m_q(lam, nu) has
    nonnegative coefficients on every comparable pair with lam in [0,4]^3."""
    # Row i holds m_q(lam, mu_i), computed once, with the coefficient of q^e
    # in column ht(lam - mu_i) - e; q^ht(nu-mu) then moves m_q(lam, nu)'s
    # coefficients into the columns of m_q(lam, mu)'s, and the difference is
    # nonnegative exactly when row i is >= row j in every column.
    pairs = 0
    for lam in itertools.product(range(5), repeat=3):
        weights, _m, height, below = _dominance_order(lam)
        top = np.zeros((len(weights), int(height.max()) + 1), dtype=np.int64)
        for i, (mu, h) in enumerate(zip(weights, height)):
            coeffs = mult_q_direct(lam, mu).coeffs
            assert len(coeffs) == h + 1, (lam, mu)
            top[i, h - np.arange(h + 1)] = coeffs
        pairs += int(below.sum())
        bad = np.argwhere(below & ~(top[:, None, :] >= top[None, :, :]).all(axis=2))
        assert not len(bad), (lam, [(weights[i], weights[j]) for i, j in bad[:3]])
    assert pairs == 159757


def test_alternation_set_type():
    aset = alternation_set((2, 1, 0), (0, 0, 0))
    assert str(aset) == "{1, s1, s2, s3, s2*s3, s3*s1}"
    assert aset.to_json() == ["1", "s1", "s2", "s3", "s2*s3", "s3*s1"]
    assert AlternationSet.from_names(aset.to_json()) == aset
    assert weyl.IDENTITY in aset
    assert weyl.evaluate_word((3, 2, 3, 2)) not in aset


def test_alternation_set_mask_matches_a_frozenset_model():
    # from_mask reads a term mask 6 bits at a time; the plain model adds the
    # terms one at a time, so that entry t of want is the element mask of
    # term mask t, over all 2^17 term masks
    want = [0]
    for idx, _sign, _ids in sigma_table().terms:
        want += [w | 1 << idx for w in want]
    assert len(want) == 1 << 17
    assert [AlternationSet.from_mask(t).mask for t in range(1 << 17)] == want
    # the bit-reading methods agree with a frozenset of canonical indices, on
    # term sets and on arbitrary subsets of the group
    rng = random.Random(36)
    group = weyl.enumerate_group()
    sample = [AlternationSet.from_mask(rng.getrandbits(17)) for _ in range(150)]
    sample += [AlternationSet(rng.getrandbits(48) & rng.getrandbits(48)) for _ in range(150)]
    sample += [AlternationSet(0), AlternationSet((1 << 48) - 1)]
    models = [frozenset(i for i in range(48) if a.mask >> i & 1) for a in sample]
    for aset, model in zip(sample, models):
        assert aset.indices == model
        assert len(aset) == len(model)
        assert [el in aset for el in group] == [i in model for i in range(48)]
        assert aset.names() == [weyl.NAMES[i] for i in sorted(model)]
        assert aset.elements() == [group[i] for i in sorted(model)]
        twin = AlternationSet.from_names(reversed(aset.names() * 2))
        assert twin == aset and hash(twin) == hash(aset)
    for (a, ma), (b, mb) in itertools.product(list(zip(sample, models))[::10], repeat=2):
        assert (a == b) == (ma == mb)
    assert len(set(sample)) == len(set(models))
