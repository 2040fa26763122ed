import hashlib
import random
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sp6q.multiplicity import _nonzero_terms, mult_q_direct
from sp6q.partition import KPF_MAX_HEIGHT, KPF_ORACLE_MAX_HEIGHT, kpf_q, kpf_q_oracle
from sp6q.qpoly import QPoly, eval_at_one
from sp6q.root_system import POSITIVE_ROOTS


def test_formula_known_values():
    assert kpf_q(2, 2, 1) == QPoly((0, 1, 2, 4, 2, 1))
    assert kpf_q(0, 0, 0) == QPoly((1,))
    assert kpf_q(2, 1, 1) == QPoly((0, 0, 1, 2, 1))
    assert kpf_q(1, 0, 0) == QPoly((0, 1))
    assert kpf_q(-1, 0, 0) == QPoly(())
    assert kpf_q(2, 2, 0) == QPoly((0, 0, 1, 1, 1))


def test_pinned_value_for_2_2_0():
    # forced by the worked highest-root example: subtracting the companion
    # terms from q + 2q^2 + 4q^3 + 2q^4 + q^5 must leave q + q^3 + q^5,
    # and brute force agrees
    assert kpf_q(2, 2, 0) == QPoly((0, 0, 1, 1, 1))
    assert kpf_q_oracle(2, 2, 0) == QPoly((0, 0, 1, 1, 1))


def test_oracle_known_values():
    assert kpf_q_oracle(2, 2, 1) == QPoly((0, 1, 2, 4, 2, 1))
    assert kpf_q_oracle(0, 0, 0) == QPoly((1,))
    assert kpf_q_oracle(0, 2, 1) == QPoly((0, 1, 1, 1))


def test_kpf_at_one():
    assert eval_at_one(kpf_q(2, 2, 1)) == 10
    assert eval_at_one(kpf_q(0, 0, 0)) == 1
    assert eval_at_one(kpf_q(1, 1, 0)) == 2


def test_rejects_non_integers():
    from fractions import Fraction

    for bad in (1.5, Fraction(1, 2), True, np.int64(1)):
        for fn in (kpf_q, kpf_q_oracle):
            with pytest.raises(TypeError):
                fn(bad, 0, 0)


def test_height_bound():
    # the bound admits the identity term of m_q((60,60,60), 0), height 660;
    # above it a nonnegative vector is refused, a negative one is still zero
    assert KPF_MAX_HEIGHT >= 660
    assert kpf_q(KPF_MAX_HEIGHT, 0, 0) == QPoly((0,) * KPF_MAX_HEIGHT + (1,))
    for bad in ((KPF_MAX_HEIGHT + 1, 0, 0), (0, 10**23, 0)):
        with pytest.raises(ValueError):
            kpf_q(*bad)
    assert kpf_q(10**23, -1, 0) == QPoly()


def test_oracle_height_bound():
    # the bound admits every oracle call of the suite and the benchmark;
    # at it the oracle agrees with the formula on (25, 25, 25), (30, 30, 15)
    # and the three slowest vectors of height 75, about 0.15 s each.  Above
    # it a nonnegative vector is refused before any enumeration, and a
    # negative one is still zero
    assert 75 <= KPF_ORACLE_MAX_HEIGHT < KPF_MAX_HEIGHT
    for v in ((KPF_ORACLE_MAX_HEIGHT, 0, 0), (25, 25, 25), (30, 30, 15),
              (21, 33, 21), (22, 33, 20), (21, 34, 20)):
        assert kpf_q_oracle(*v) == kpf_q(*v), v
    for bad in ((KPF_ORACLE_MAX_HEIGHT + 1, 0, 0), (200, 300, 200), (0, 10**23, 0)):
        with pytest.raises(ValueError):
            kpf_q_oracle(*bad)
    assert kpf_q_oracle(10**23, -1, 0) == QPoly()


def _nine_root_enumeration(m, n, k):
    # chooses a multiplicity for every one of the nine positive roots and
    # forces none: a choice counts only where it uses up (m, n, k) exactly
    coeffs = [0] * (m + n + k + 1)

    def descend(idx, r1, r2, r3, parts):
        if idx == len(POSITIVE_ROOTS):
            if r1 == r2 == r3 == 0:
                coeffs[parts] += 1
            return
        a1, a2, a3 = POSITIVE_ROOTS[idx]
        while r1 >= 0 and r2 >= 0 and r3 >= 0:
            descend(idx + 1, r1, r2, r3, parts)
            r1, r2, r3, parts = r1 - a1, r2 - a2, r3 - a3, parts + 1

    descend(0, m, n, k, 0)
    return QPoly(tuple(coeffs))


def test_oracle_equals_nine_root_enumeration():
    # the oracle lets a1, a2 and a3 take the remainder of the six others
    for v in product(range(7), repeat=3):
        assert kpf_q_oracle(*v) == _nine_root_enumeration(*v), v


# The two dominant positive roots, which kpf_q peels through its cache.
_GAMMA, _THETA = (1, 2, 1), (2, 2, 1)


def _minus(v, root):
    return tuple(a - b for a, b in zip(v, root))


def test_dominant_root_peel_fills_the_lattice():
    # kpf_q(v) adds q K(v - gamma) + q K(v - theta) - q^2 K(v - gamma - theta)
    # through its own cache: a cold v misses once for each nonnegative
    # v - j theta - l gamma, never for a negative one, and leaves them cached
    v = (12, 12, 6)
    lattice = [w for w in (tuple(a - j * t - l * g for a, t, g in zip(v, _THETA, _GAMMA))
                           for j, l in product(range(13), repeat=2)) if min(w) >= 0]
    assert len(lattice) == 28
    kpf_q.cache_clear()
    try:
        kpf_q(*v)
        assert kpf_q.cache_info().misses == kpf_q.cache_info().currsize == len(lattice)
        for w in lattice:
            kpf_q(*w)
        assert kpf_q.cache_info().misses == len(lattice)
    finally:
        kpf_q.cache_clear()


def test_whole_character_misses_only_its_own_terms():
    # for dominant mu <= lam, mu + gamma and mu + theta are dominant, and
    # v - gamma >= 0 for a term v of (lam, mu) is the term of (lam, mu + gamma)
    # with the same sigma: the term vectors of a whole character are closed
    # under subtracting gamma and theta, so a cold character misses exactly
    # once per term vector
    lam = (4, 4, 4)
    mus = list(product(range(sum(lam) + 1), repeat=3))
    terms = {v for mu in mus for _sign, v in _nonzero_terms(lam, mu)}
    closure, todo = set(), list(terms)
    while todo:
        v = todo.pop()
        if min(v) >= 0 and v not in closure:
            closure.add(v)
            todo += [_minus(v, _GAMMA), _minus(v, _THETA)]
    assert closure == terms
    kpf_q.cache_clear()
    try:
        for mu in mus:
            mult_q_direct(lam, mu)
        assert kpf_q.cache_info().misses == kpf_q.cache_info().currsize == len(terms)
        for v in terms:
            kpf_q(*v)
        assert kpf_q.cache_info().misses == len(terms)
    finally:
        kpf_q.cache_clear()


# SHA-256 of repr([kpf_q(*v).coeffs ...]) over the box [0,13]^3 in product
# order and over the seeded sample below, computed with the formula that
# peeled only the highest root, K(v) = K_{h=0}(v) + q K(v - (2,2,1)).
_BOX_DIGEST = "4c13a0d7e396cc78ef2b91eda9c0f9f1c9c6d40b82c9b6747a974ab4d9439324"
_SAMPLE_DIGEST = "52eecdb3857a2e89a005b37e2ed1d046e8d13beffe9f268b8e8740f1a1a368c2"


def _digest(vectors):
    return hashlib.sha256(repr([kpf_q(*v).coeffs for v in vectors]).encode()).hexdigest()


def test_values_pinned_beyond_the_oracle():
    # the oracle stops at height 75; these pin every value on [0,13]^3 and
    # twelve vectors of height 157 to 271
    rng = random.Random(12)
    sample = [(rng.randint(30, 90), rng.randint(50, 150), rng.randint(20, 75)) for _ in range(12)]
    assert max(map(sum, sample)) == 271
    assert _digest(product(range(14), repeat=3)) == _BOX_DIGEST
    assert _digest(sample) == _SAMPLE_DIGEST


def test_value_pinned_at_the_height_bound():
    # (210, 315, 175) is among the slowest vectors of height 700; digest and
    # value at q = 1 come from the formula that looped over f and i both;
    # the cold vector fills about 9,800 cache entries, cleared after
    try:
        p = kpf_q(210, 315, 175)
        assert hashlib.sha256(repr(p.coeffs).encode()).hexdigest() == (
            "4b8357211178cac91d67fc9c210f999149bb323e9c6e1cd259d29e40628ff555")
        assert eval_at_one(p) == 103_230_807_774
    finally:
        kpf_q.cache_clear()


@given(st.integers(-6, 10), st.integers(-6, 10), st.integers(-6, 10))
@settings(max_examples=120, deadline=None)
def test_total_and_zero_on_negatives(m, n, k):
    p = kpf_q(m, n, k)
    if m < 0 or n < 0 or k < 0:
        assert p == QPoly(())
    else:
        assert eval_at_one(p) >= 1  # the all-simple-roots decomposition exists


@given(st.integers(0, 14), st.integers(0, 14), st.integers(0, 14))
@settings(max_examples=120, deadline=None)
def test_degree_bound_and_contiguous_support(m, n, k):
    p = kpf_q(m, n, k)
    support = [e for e, c in enumerate(p.coeffs) if c]
    assert support[-1] <= m + n + k
    # no internal gaps (observed property; dense storage relies on it)
    assert support == list(range(support[0], support[-1] + 1))


# The nine positive roots of C3 in simple-root coordinates, written out here
# so that the identity below shares nothing with the formula or the oracle.
_ROOTS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1),
          (1, 1, 1), (0, 2, 1), (1, 2, 1), (2, 2, 1))


def _denominator_terms():
    """prod over positive roots of (1 - q x^alpha) as {(shift, degree): coefficient}."""
    terms = Counter()
    for j in range(len(_ROOTS) + 1):
        for subset in combinations(_ROOTS, j):
            shift = tuple(map(sum, zip((0, 0, 0), *subset)))
            terms[shift, j] += (-1) ** j
    return {key: c for key, c in terms.items() if c}


def test_denominator_expansion():
    assert sorted(_ROOTS) == sorted(POSITIVE_ROOTS)
    assert len(_denominator_terms()) == 286


@pytest.mark.parametrize("box", [(8, 8, 8), (4, 16, 4), (12, 4, 12), (12, 12, 6)])
def test_generating_function_identity(box):
    # sum_v kpf_q(v) x^v = prod_alpha 1/(1 - q x^alpha): multiplying back by
    # the denominator must leave 1 at v = 0 and 0 everywhere else
    terms = _denominator_terms()
    for v in product(*(range(top + 1) for top in box)):
        acc = [0] * (sum(v) + 1)
        for (shift, j), c in terms.items():
            for e, x in enumerate(kpf_q(*(a - b for a, b in zip(v, shift))).coeffs):
                acc[e + j] += c * x
        assert QPoly(tuple(acc)) == (QPoly((1,)) if v == (0, 0, 0) else QPoly()), v
