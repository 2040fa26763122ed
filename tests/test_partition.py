import random
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sp6q.partition import KPF_MAX_HEIGHT, KPF_ORACLE_MAX_HEIGHT, kpf, kpf_q, kpf_q_oracle
from sp6q.qpoly import QPoly, eval_at_one
from sp6q.root_system import _POSITIVE_ROOTS


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
    assert kpf(2, 2, 1) == 10
    assert kpf(0, 0, 0) == 1
    assert kpf(1, 1, 0) == 2


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
    # the bound admits every oracle call of the suite and the benchmark,
    # (25, 25, 25) at most; above it a nonnegative vector is refused
    # before any enumeration, and a negative one is still zero
    assert 75 <= KPF_ORACLE_MAX_HEIGHT < KPF_MAX_HEIGHT
    assert kpf_q_oracle(KPF_ORACLE_MAX_HEIGHT, 0, 0) == kpf_q(KPF_ORACLE_MAX_HEIGHT, 0, 0)
    for bad in ((KPF_ORACLE_MAX_HEIGHT + 1, 0, 0), (200, 300, 200), (0, 10**23, 0)):
        with pytest.raises(ValueError):
            kpf_q_oracle(*bad)
    assert kpf_q_oracle(10**23, -1, 0) == QPoly()


def test_oracle_equivalence_small_box():
    for m in range(9):
        for n in range(9):
            for k in range(9):
                assert kpf_q(m, n, k) == kpf_q_oracle(m, n, k), (m, n, k)


def test_oracle_equivalence_random_sample():
    rng = random.Random(20240901)
    for _ in range(60):
        m, n, k = (rng.randint(0, 25) for _ in range(3))
        assert kpf_q(m, n, k) == kpf_q_oracle(m, n, k), (m, n, k)


def test_highest_root_peel_fills_the_chain():
    # kpf_q(v) adds q * kpf_q(v - (2,2,1)) through its own cache: a cold
    # (2h, 2h, h) misses once for each vector of the chain down to (0,0,0),
    # never for a negative one, and leaves the next link cached
    h = 6
    kpf_q.cache_clear()
    try:
        kpf_q(2 * h, 2 * h, h)
        assert kpf_q.cache_info().misses == h + 1
        kpf_q(2 * h - 2, 2 * h - 2, h - 1)
        assert kpf_q.cache_info().misses == h + 1 and kpf_q.cache_info().hits == 1
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


def test_min_exponent_matches_oracle_min_parts():
    rng = random.Random(7)
    for _ in range(40):
        m, n, k = (rng.randint(0, 12) for _ in range(3))
        got, ref = kpf_q(m, n, k), kpf_q_oracle(m, n, k)
        if got:
            got_min, ref_min = (next(e for e, c in enumerate(p.coeffs) if c) for p in (got, ref))
            assert got_min == ref_min


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
    assert sorted(_ROOTS) == sorted(_POSITIVE_ROOTS)
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
