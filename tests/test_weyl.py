import json
import pathlib
from collections import Counter, deque

import pytest

from sp6q import weyl
from sp6q.root_system import POSITIVE_ROOTS, RHO_EPS, doubled_alpha

DATA = pathlib.Path(__file__).parent / "data"
A1, A2, A3 = (1, -1, 0), (0, 1, -1), (0, 0, 2)  # the simple roots, in the ambient basis


def _add(*vs):
    return tuple(map(sum, zip(*vs)))


def _neg(v):
    return tuple(-c for c in v)


def test_generator_actions_on_simple_roots():
    # the defining action of the three reflections on the simple roots
    s1, s2, s3 = (weyl.generator(i) for i in (1, 2, 3))
    assert weyl.apply(s1, A1) == _neg(A1)
    assert weyl.apply(s1, A2) == _add(A1, A2)
    assert weyl.apply(s1, A3) == A3
    assert weyl.apply(s2, A1) == _add(A1, A2)
    assert weyl.apply(s2, A2) == _neg(A2)
    assert weyl.apply(s2, A3) == _add(A2, A2, A3)
    assert weyl.apply(s3, A1) == A1
    assert weyl.apply(s3, A2) == _add(A2, A3)
    assert weyl.apply(s3, A3) == _neg(A3)


def test_generators_are_involutions():
    for i in (1, 2, 3):
        s = weyl.generator(i)
        assert weyl.compose(s, s) == weyl.IDENTITY


def test_identity_acts_trivially():
    for v in (A1, _add(A2, A3), RHO_EPS):
        assert weyl.apply(weyl.IDENTITY, v) == v


def test_generator_index_validation():
    with pytest.raises(ValueError):
        weyl.generator(0)


def test_group_has_48_elements():
    group = weyl.enumerate_group()
    assert len(group) == 48
    assert len(set(group)) == 48
    assert group[0] == weyl.IDENTITY


@pytest.mark.parametrize("words, message", [
    (weyl.CANONICAL_WORDS[:-1], "expected 48"),  # one element short
    (weyl.CANONICAL_WORDS + ((2, 1),), "degenerate"),  # s2*s1 listed twice
])
def test_tables_reject_a_bad_word_list(monkeypatch, words, message):
    # __wrapped__ builds fresh tables, so the cached ones are never replaced
    monkeypatch.setattr(weyl, "CANONICAL_WORDS", words)
    with pytest.raises(RuntimeError, match=message):
        weyl._tables.__wrapped__()


def test_length_distribution():
    group = weyl.enumerate_group()
    dist = Counter(weyl.length(s) for s in group)
    assert [dist[i] for i in range(10)] == [1, 3, 5, 7, 8, 8, 7, 5, 3, 1]


def test_canonical_words_are_reduced():
    # every listed word attains the inversion-count length of its element
    for w in weyl.CANONICAL_WORDS:
        assert weyl.length(weyl.evaluate_word(w)) == len(w)


def test_length_examples():
    assert weyl.length(weyl.IDENTITY) == 0
    assert weyl.length(weyl.evaluate_word((2, 3, 1, 2, 3, 1, 2, 1))) == 8
    longest = weyl.evaluate_word((3, 2, 3, 1, 2, 3, 1, 2, 1))
    assert weyl.length(longest) == 9
    assert sum(1 for w in weyl.CANONICAL_WORDS if len(w) == 9) == 1


def test_sign_examples():
    assert weyl.sign(weyl.IDENTITY) == 1
    assert weyl.sign(weyl.generator(1)) == -1
    assert weyl.sign(weyl.evaluate_word((2, 3, 1, 2, 3, 1, 2, 1))) == 1


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def test_sign_equals_determinant():
    for s in weyl.enumerate_group():
        assert weyl.sign(s) == _det3(weyl.matrix(s))


def test_apply_is_homomorphism():
    group = weyl.enumerate_group()
    vecs = [A1, _add(A2, A3), RHO_EPS]
    for s in group[::7]:
        for t in group[::5]:
            st = weyl.compose(s, t)
            for v in vecs:
                assert weyl.apply(st, v) == weyl.apply(s, weyl.apply(t, v))


def test_apply_permutes_roots_up_to_sign():
    # c1*a1 + c2*a2 + c3*a3 in the ambient basis, for each positive root
    roots = [tuple(sum(c * a[i] for c, a in zip(r, (A1, A2, A3))) for i in range(3)) for r in POSITIVE_ROOTS]
    assert [doubled_alpha(e) for e in roots] == [tuple(2 * c for c in r) for r in POSITIVE_ROOTS]
    pool = set(roots) | {_neg(e) for e in roots}
    assert len(pool) == 18
    for s in weyl.enumerate_group():
        assert {weyl.apply(s, e) for e in roots} | {_neg(weyl.apply(s, e)) for e in roots} == pool


def test_cayley_distance_equals_length():
    # BFS over right multiplication by generators
    dist = {weyl.IDENTITY: 0}
    queue = deque([weyl.IDENTITY])
    while queue:
        s = queue.popleft()
        for i in (1, 2, 3):
            t = weyl.compose(s, weyl.generator(i))
            if t not in dist:
                dist[t] = dist[s] + 1
                queue.append(t)
    assert len(dist) == 48
    for s in weyl.enumerate_group():
        assert dist[s] == weyl.length(s)


def test_names_round_trip():
    for s in weyl.enumerate_group():
        assert weyl.element_from_name(weyl.name(s)) == s
    assert weyl.name(weyl.IDENTITY) == "1"
    assert weyl.name(weyl.evaluate_word((3, 2, 3, 2))) == "s3*s2*s3*s2"
    # any word is accepted, not only canonical ones; index_from_name is
    # memoized, and a malformed word raises on every call, not only the first
    assert weyl.element_from_name(" s1 * s1 ") == weyl.IDENTITY
    assert weyl.element_from_name("s2*s1*s2") == weyl.evaluate_word((1, 2, 1))
    assert weyl.index_from_name(" s2 * s1 * s2 ") == weyl.CANONICAL_WORDS.index((1, 2, 1))
    for _ in range(2):
        for bad in ("s4", "s1**s2", "", "s1*"):
            with pytest.raises(ValueError):
                weyl.element_from_name(bad)
            with pytest.raises(ValueError):
                weyl.index_from_name(bad)


def test_excluded_fixture_words_are_valid_elements():
    words = json.loads((DATA / "excluded_words.json").read_text())
    assert len(words) == 31
    elements = {weyl.element_from_name(w) for w in words}
    assert len(elements) == 31
