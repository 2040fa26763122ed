import hashlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sp6q import census, weyl
from sp6q.census import (
    _CATALOG_RULES,
    _STAGE2_RULES,
    CONTRADICTION_RULES,
    SWEEP_MAX_PAIRS,
    check_sweep_box,
    covered_terms,
    _family_order,
    _forced_table,
    _passes,
    _stage_tables,
    _step,
    filter_pipeline,
    load_family_fixture,
    load_witness_fixture,
    sweep_census,
    type1_excluded,
    verify_census,
)
from sp6q.multiplicity import LETTER_INDEX, PROFILE_FIELDS, TERMS, AlternationSet, alternation_set, field_mask

SUBSETS = np.arange(1 << 17, dtype=np.uint32)


def test_type1_excludes_s1s2s3_not_identity():
    names = {weyl.name(el) for el in type1_excluded()}
    assert "s1*s2*s3" in names
    assert "1" not in names


def test_term_conditions():
    # a term contributes iff all three of its profile variables are nonnegative
    assert TERMS[LETTER_INDEX["A"]].fields == ("a", "d", "j")
    assert TERMS[LETTER_INDEX["Q"]].fields == ("a", "i", "r")
    assert TERMS[LETTER_INDEX["M"]].fields == ("b", "f", "p")


def test_predicate_catalog():
    rules = CONTRADICTION_RULES
    assert len(rules) == 53
    assert sum(1 for pos, neg in rules if len(pos + neg) == 2) == 47
    assert sum(1 for pos, neg in rules if len(pos + neg) == 3) == 6
    assert rules[0] == ("b", "a")
    assert rules[-1] == ("ci", "o")
    # exactly one rule has no negative variable (two nonnegativities clashing)
    pure = [(pos, neg) for pos, neg in CONTRADICTION_RULES if not neg]
    assert pure == [("pr", "")]


def test_stage_tables_are_pinned():
    # the compiled rules of all three stages, pinned whole: a mistyped
    # catalog or stage-2 rule changes this digest even where the closure
    # test below, which reads the same catalog, would still pass
    tables = json.dumps([array.tolist() for pair in _stage_tables() for array in pair])
    digest = hashlib.sha256(tables.encode()).hexdigest()
    assert digest == "f6d92788687b066e43d6f5a63d6bf5ef04d576e6e43ba6f4533932cb1b5e1828"


def test_direct_clash_rejects_identity_with_s2s1():
    # members {A, F} force b, d, j nonnegative, so the absent first-letter
    # term would have to contribute too
    a = 1 << LETTER_INDEX["A"]
    f = 1 << LETTER_INDEX["F"]
    assert not _passes(SUBSETS, *_stage_tables()[0])[a | f]


def test_stage2_independent_of_stage1():
    # running the derived-clash filter over the whole candidate space and
    # intersecting with stage-1 survivors gives exactly the stage-2 family
    stage1, stage2_direct = (
        set(np.flatnonzero(_passes(SUBSETS, pool, clash)).tolist()) for pool, clash in _stage_tables()[:2]
    )
    assert stage1 & stage2_direct == set(filter_pipeline().masks[1])


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(0, (1 << 17) - 1), max_size=40), st.integers(0, (1 << 17) - 1),
       st.lists(st.tuples(st.integers(10, 16), st.integers(10, 16)), max_size=8))
def test_family_order_sorts_by_size_then_positions(masks, base, moves):
    # the numpy order (size, then the reversed mask descending) against the
    # canonical key on the sorted positions; each move of a member of base
    # from one high position to another free one adds a set of base's size
    # that differs from it only in positions 10..16
    masks |= {base} | {base ^ 1 << old ^ 1 << new for old, new in moves if base >> old & 1 and not base >> new & 1}
    want = sorted(masks, key=lambda m: (m.bit_count(), [i for i in range(17) if m >> i & 1]))
    assert _family_order(np.array(sorted(masks), dtype=np.uint32)).tolist() == want


def _python_closure(pattern, rules):
    while True:
        grown = pattern
        for pre, post in rules:
            if grown & pre == pre:
                grown |= post
        if grown == pattern:
            return pattern
        pattern = grown


def test_stage_tables_over_every_sign_pattern():
    patterns = np.arange(1 << 14)
    (pool1, clash1), (pool2, clash2), (pool3, clash3) = _stage_tables()
    # every catalog rule with a negative variable forces exactly that one variable
    assert len(_CATALOG_RULES) == 52 and all(post and post & post - 1 == 0 for _pre, post in _CATALOG_RULES)
    assert (pool1 == patterns).all() and not clash1.any()
    # stage 3: the closure contains its pattern, is closed under the catalog,
    # is idempotent, and is the least such set, as a plain-Python closure
    # read straight from CONTRADICTION_RULES finds
    assert (pool3 & patterns == patterns).all()
    assert (_step(pool3, _CATALOG_RULES) & ~pool3 == 0).all()
    assert (pool3[pool3] == pool3).all()
    rules = [(field_mask(pos), field_mask(neg)) for pos, neg in CONTRADICTION_RULES]
    assert pool3.tolist() == [_python_closure(f, rules) for f in range(1 << 14)]
    # stage 2: 28 of the catalog's rules, one step of them: the negative
    # variables of the pairs whose nonnegative variables are all forced;
    # the forced set itself is left out
    assert len(_STAGE2_RULES) == 28 and set(_STAGE2_RULES) <= set(CONTRADICTION_RULES)
    want = []
    for f in range(1 << 14):
        forced = {v for b, v in enumerate(PROFILE_FIELDS) if f >> b & 1}
        derived = {w for pos, neg in _STAGE2_RULES if set(pos) <= forced for w in neg}
        want.append(field_mask(derived))
    assert pool2.tolist() == want
    # p and r both nonnegative is a hard clash: in the forced set at stage 2,
    # in its closure at stage 3
    pr = field_mask("pr")
    assert (clash2 == (patterns & pr == pr)).all() and (clash3 == (pool3 & pr == pr)).all()


def test_cached_tables_are_read_only():
    for table in (covered_terms(), _forced_table(), *(array for pair in _stage_tables() for array in pair)):
        with pytest.raises(ValueError):
            table[0] = 1


def test_fixture_families_are_canonically_ordered():
    for stage in ("stage1", "stage2", "final"):
        fam = load_family_fixture(stage)
        keys = [(len(a.indices), tuple(sorted(a.indices))) for a in fam]
        assert keys == sorted(keys)


def test_fixture_nesting():
    fams = {s: {a.indices for a in load_family_fixture(s)} for s in ("stage1", "stage2", "final")}
    assert fams["final"] <= fams["stage2"] <= fams["stage1"]


def test_sweep_trivial_box():
    entries = sweep_census(0, 0)
    assert len(entries) == 1
    assert entries[0].altset.names() == ["1"]
    assert entries[0].lam.coeffs() == (0, 0, 0)
    assert entries[0].mu.coeffs() == (0, 0, 0)


def test_sweep_rejects_negative_bounds():
    with pytest.raises(ValueError):
        sweep_census(-1, 0)


def test_sweep_matches_exact_membership_small_box():
    # the vectorized sweep agrees with the rational-arithmetic path
    entries = sweep_census(2, 2)
    by_witness = {(e.lam.coeffs(), e.mu.coeffs()): e.altset for e in entries}
    for (lam, mu), aset in by_witness.items():
        assert alternation_set(lam, mu).indices == aset.indices


def _first_witnesses(lam_max, mu_max):
    # every even-parity pair of the box in lexicographic (m, n, k, x, y, z)
    # order: each set met, with the first pair that produces it, in order
    first = {}
    for v in itertools.product(*[range(lam_max + 1)] * 3, *[range(mu_max + 1)] * 3):
        if (v[0] + v[2] + v[3] + v[5]) % 2 == 0:
            first.setdefault(alternation_set(v[:3], v[3:]).indices, v)
    return list(first.items())


def _sweep_witnesses(lam_max, mu_max):
    return [(e.altset.indices, e.lam.coeffs() + e.mu.coeffs()) for e in sweep_census(lam_max, mu_max)]


@pytest.mark.parametrize("lam_max, mu_max", [(3, 3), (2, 4), (4, 1), (0, 3), (3, 0)])
def test_sweep_matches_brute_force_first_witnesses(lam_max, mu_max):
    # the sweep returns exactly the sets met, each with its first pair
    assert _sweep_witnesses(lam_max, mu_max) == _first_witnesses(lam_max, mu_max)


def test_sweep_small_blocks_match_brute_force(monkeypatch):
    # 7-pair blocks cut both the lam and the mu range; each block only
    # lowers the least index of a pattern, so the result does not change
    monkeypatch.setattr(census, "SWEEP_BLOCK_PAIRS", 7)
    for lam_max, mu_max in ((2, 2), (0, 3), (3, 0)):
        assert _sweep_witnesses(lam_max, mu_max) == _first_witnesses(lam_max, mu_max)


@pytest.mark.parametrize("block_pairs", [7, 100])
def test_sweep_lam_block_tables_match_brute_force(monkeypatch, block_pairs):
    # a lam block builds its sign tables once, over the box's whole value
    # axis, and reads them for each of its mu blocks: all three boxes have
    # several mu blocks to a lam block at 7 pairs a block, and (1, 4) and
    # (0, 6) at 100; (4, 1) has lam parts far above the axis top, 10 * mu_max,
    # and (0, 6) lam blocks of one triple
    monkeypatch.setattr(census, "SWEEP_BLOCK_PAIRS", block_pairs)
    for lam_max, mu_max in ((4, 1), (1, 4), (0, 6)):
        assert _sweep_witnesses(lam_max, mu_max) == _first_witnesses(lam_max, mu_max)


def test_sweep_single_pair_blocks_match_brute_force(monkeypatch):
    # one pair a block: one of its two parity classes is always empty
    monkeypatch.setattr(census, "SWEEP_BLOCK_PAIRS", 1)
    for lam_max, mu_max in ((1, 1), (2, 0)):
        assert _sweep_witnesses(lam_max, mu_max) == _first_witnesses(lam_max, mu_max)


def test_sweep_peak_memory_is_bounded():
    # numpy reports its buffers to tracemalloc; every sweep array is sized
    # by SWEEP_BLOCK_PAIRS, so one bound holds for square and flat boxes
    sweep_census(0, 0)  # build the cached tables outside the trace
    for lam_max, mu_max in ((10, 10), (20, 3), (0, 40), (40, 0)):
        tracemalloc.start()
        try:
            sweep_census(lam_max, mu_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, (lam_max, mu_max, peak)


def test_sweep_box_budget():
    # each block is charged as a full SWEEP_BLOCK_PAIRS block: the cap
    # accepts every box the suite, the benchmark and the documented
    # baselines run (20x20 at most) and long flat boxes up to 200, and
    # refuses 40x40 and 999x0 before any work.  A box holds at most its
    # charge in pairs, and the cap is below 2^31, so the sweep's int32 flat
    # pair indices are exact
    assert 21**6 <= SWEEP_MAX_PAIRS < 41**6
    assert SWEEP_MAX_PAIRS < 2**31
    # the block steps, which set the charge: square blocks of side 512, or where
    # a side of the box is short, that side whole and the other up to 16 square sides
    assert [census._block_steps(*box) for box in ((10, 10), (0, 40), (40, 0))] == [
        (1331, 1331, 512, 512), (1, 68921, 32, 8192), (68921, 1, 8192, 1),
    ]
    for lam_max, mu_max in ((10, 10), (0, 0), (20, 20), (30, 30), (200, 0), (0, 200)):
        check_sweep_box(lam_max, mu_max)
        assert (lam_max + 1) ** 3 * (mu_max + 1) ** 3 <= SWEEP_MAX_PAIRS
    for lam_max, mu_max in ((1000, 1000), (40, 40), (999, 0), (0, 999), (-1, 0)):
        with pytest.raises(ValueError):
            check_sweep_box(lam_max, mu_max)
        with pytest.raises(ValueError):
            sweep_census(lam_max, mu_max)
        with pytest.raises(ValueError):
            verify_census(lam_max=lam_max, mu_max=mu_max)


@pytest.mark.parametrize("block_pairs", [7, census.SWEEP_BLOCK_PAIRS])
def test_sweep_charge_is_the_blocks_enumerated(monkeypatch, block_pairs):
    # the charge, worked out from the block steps, is exactly one full
    # block per block that _blocks yields, for square, flat and tall boxes
    monkeypatch.setattr(census, "SWEEP_BLOCK_PAIRS", block_pairs)
    for lam_max, mu_max in ((0, 0), (2, 2), (3, 0), (0, 3), (4, 1), (10, 10), (20, 3), (0, 40), (40, 0)):
        charge = len(list(census._blocks(lam_max, mu_max))) * block_pairs
        monkeypatch.setattr(census, "SWEEP_MAX_PAIRS", charge)
        check_sweep_box(lam_max, mu_max)
        monkeypatch.setattr(census, "SWEEP_MAX_PAIRS", charge - 1)
        with pytest.raises(ValueError):
            check_sweep_box(lam_max, mu_max)


def test_every_final_survivor_has_a_sweep_witness():
    # constructivity: each pipeline survivor is realized by a concrete
    # weight pair, and the recorded witness reproduces it exactly
    survivors = {tuple(sorted(AlternationSet.from_mask(mask).indices)) for mask in filter_pipeline().masks[2]}
    entries = sweep_census(10, 10)
    realized = {}
    for e in entries:
        assert alternation_set(e.lam, e.mu).indices == e.altset.indices
        realized[tuple(sorted(e.altset.indices))] = (e.lam, e.mu)
    assert set(realized) == survivors


def test_witness_fixture_has_expected_rows():
    rows = load_witness_fixture()
    assert len(rows) == 46
    by_set = {tuple(sorted(s.indices)): (l.coeffs(), m.coeffs()) for s, l, m in rows}
    empty = by_set[()]
    assert empty == ((0, 0, 0), (0, 0, 2))
    fifteen = [k for k in by_set if len(k) == 15]
    assert len(fifteen) == 2
    assert ((4, 4, 10), (0, 0, 0)) in {by_set[k] for k in fifteen}


def test_verify_census_small_sweep_flags_missing_sets():
    # a tiny box cannot realize all 46 sets, and the report must say so
    report = verify_census(lam_max=1, mu_max=1)
    by_name = {c.name: c for c in report.checks}
    assert not by_name["sweep-family"].passed
    assert by_name["pipeline-final"].passed
    assert by_name["witness-rows"].passed
    assert not report.all_passed
