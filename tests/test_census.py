import json
import pathlib

import pytest

from sp6q import weyl
from sp6q.census import (
    CONTRADICTION_RULES,
    LETTERS,
    AlternationSet,
    _stage1_ok,
    _stage2_ok,
    contributing_elements,
    filter_pipeline,
    letters_sort_key,
    load_family_fixture,
    load_witness_fixture,
    sweep_census,
    type1_excluded,
    verify_census,
)
from sp6q.multiplicity import TERM_BY_LETTER, TERMS, alternation_set

DATA = pathlib.Path(__file__).parent / "data"


def test_type1_excluded_matches_fixture():
    words = json.loads((DATA / "excluded_words.json").read_text())
    got = [weyl.name(el) for el in type1_excluded()]
    assert len(got) == 31
    assert got == words  # canonical order on both sides


def test_type1_excludes_s1s2s3_not_identity():
    names = {weyl.name(el) for el in type1_excluded()}
    assert "s1*s2*s3" in names
    assert "1" not in names


def test_contributing_complement():
    contributing = contributing_elements()
    assert len(contributing) == 17
    assert [weyl.canonical_word(el) for el in contributing] == [t.word for t in TERMS]


def test_term_conditions():
    # a term contributes iff all three of its profile variables are nonnegative
    assert TERM_BY_LETTER["A"].fields == ("a", "d", "j")
    assert TERM_BY_LETTER["Q"].fields == ("a", "i", "r")
    assert TERM_BY_LETTER["M"].fields == ("b", "f", "p")


def test_predicate_catalog():
    rules = CONTRADICTION_RULES
    assert len(rules) == 53
    assert sum(1 for r in rules if len(r) == 2) == 47
    assert sum(1 for r in rules if len(r) == 3) == 6
    assert rules[0] == (("a", True), ("b", False))
    assert rules[-1] == (("o", True), ("c", False), ("i", False))
    # exactly one rule has no negative atom (two nonnegativities clashing)
    pure = [r for r in CONTRADICTION_RULES if all(not neg for _v, neg in r)]
    assert pure == [(("p", False), ("r", False))]


def test_pipeline_counts_and_fixtures():
    result = filter_pipeline()
    assert result.counts == (1124, 150, 46)
    for stage, got in (("stage1", result.stage1), ("stage2", result.stage2), ("final", result.final)):
        want = load_family_fixture(stage)
        got_sets = [AlternationSet.from_letters(s) for s in got]
        assert len(got_sets) == len(want)
        # element-for-element after canonical ordering
        assert [a.indices for a in got_sets] == [a.indices for a in want]


def test_direct_clash_rejects_identity_with_s2s1():
    # members {A, F} force b, d, j nonnegative, so the absent first-letter
    # term would have to contribute too
    a = 1 << LETTERS.index("A")
    f = 1 << LETTERS.index("F")
    assert not _stage1_ok(a | f)


def test_stage2_independent_of_stage1():
    # running the derived-clash filter over the whole candidate space and
    # intersecting with stage-1 survivors gives exactly the stage-2 family
    stage1 = {s for s in range(1 << 17) if _stage1_ok(s)}
    stage2_direct = {s for s in range(1 << 17) if _stage2_ok(s)}
    result = filter_pipeline()
    stage2_masks = {
        sum(1 << LETTERS.index(L) for L in letters) for letters in result.stage2
    }
    assert stage1 & stage2_direct == stage2_masks


def test_fixture_families_are_canonically_ordered():
    for stage in ("stage1", "stage2", "final"):
        fam = load_family_fixture(stage)
        keys = [a.sort_key() for a in fam]
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


def test_sweep_jobs_deterministic():
    assert [
        (e.altset.indices, e.lam, e.mu) for e in sweep_census(3, 3, jobs=1)
    ] == [(e.altset.indices, e.lam, e.mu) for e in sweep_census(3, 3, jobs=4)]


def test_witness_fixture_rows_reproduce():
    for want, lam, mu in load_witness_fixture():
        assert alternation_set(lam, mu).indices == want.indices, (lam, mu)


def test_every_final_survivor_has_a_sweep_witness():
    # constructivity: each pipeline survivor is realized by a concrete
    # weight pair, and the recorded witness reproduces it exactly
    survivors = {
        tuple(sorted(a.indices)) for a in filter_pipeline().final_alternation_sets()
    }
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


def test_letters_sort_key():
    assert letters_sort_key(frozenset("A")) < letters_sort_key(frozenset("AB"))
    assert letters_sort_key(frozenset("AB")) < letters_sort_key(frozenset("AC"))


def test_fixture_env_override(tmp_path, monkeypatch):
    src = load_family_fixture("final")
    target = tmp_path / "alt_sets_final.json"
    target.write_text(json.dumps([a.to_json() for a in src]))
    monkeypatch.setenv("SP6Q_FIXTURES", str(tmp_path))
    assert [a.indices for a in load_family_fixture("final")] == [a.indices for a in src]
    monkeypatch.delenv("SP6Q_FIXTURES")


def test_verify_census_small_sweep_flags_missing_sets():
    # a tiny box cannot realize all 46 sets, and the report must say so
    report = verify_census(lam_max=1, mu_max=1)
    by_name = {c.name: c for c in report.checks}
    assert not by_name["sweep-family"].passed
    assert by_name["pipeline-final"].passed
    assert by_name["witness-rows"].passed
    assert not report.all_passed
