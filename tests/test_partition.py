import random

import pytest
from hypothesis import given, settings, strategies as st

from sp6q.partition import kpf, kpf_q, kpf_q_oracle
from sp6q.qpoly import QPoly, eval_at_one


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

    for bad in (1.5, Fraction(1, 2), True):
        for fn in (kpf_q, kpf_q_oracle):
            with pytest.raises(TypeError):
                fn(bad, 0, 0)


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
    support = p.support()
    assert support[-1] <= m + n + k
    # no internal gaps (observed property; dense storage relies on it)
    assert support == list(range(support[0], support[-1] + 1))


def test_min_exponent_matches_oracle_min_parts():
    rng = random.Random(7)
    for _ in range(40):
        m, n, k = (rng.randint(0, 12) for _ in range(3))
        got, ref = kpf_q(m, n, k), kpf_q_oracle(m, n, k)
        if got:
            assert got.support()[0] == ref.support()[0]
