from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sp6q.root_system import (
    AlphaVector,
    EpsVector,
    WeightFW,
    alpha_to_eps,
    eps_to_alpha,
    fw_to_alpha,
    positive_roots,
    rho_alpha,
)

F = Fraction


def test_positive_roots_canonical():
    roots = positive_roots()
    assert len(roots) == 9
    assert AlphaVector(F(2), F(2), F(1)) in roots  # the highest root
    assert roots[0] == AlphaVector(1, 0, 0)
    for r in roots:
        assert r.is_integral() and all(c >= 0 for c in r.coeffs())


def test_positive_roots_sum_is_twice_rho():
    total = positive_roots()[0]
    for r in positive_roots()[1:]:
        total = total + r
    assert total == rho_alpha() + rho_alpha()


def test_fundamental_weights():
    w1, w2, w3 = (fw_to_alpha(WeightFW(*unit)) for unit in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert w1 == AlphaVector(F(1), F(1), F(1, 2))
    assert w2 == AlphaVector(F(1), F(2), F(1))
    assert w3 == AlphaVector(F(1), F(2), F(3, 2))
    assert w1 + w2 + w3 == AlphaVector(F(3), F(5), F(3))


def test_fw_to_alpha_examples():
    assert fw_to_alpha(WeightFW(2, 0, 0)) == AlphaVector(F(2), F(2), F(1))
    assert fw_to_alpha(WeightFW(1, 1, 1)) == AlphaVector(F(3), F(5), F(3))
    assert fw_to_alpha(WeightFW(0, 0, 2)) == AlphaVector(F(2), F(4), F(3))


def test_rho():
    assert rho_alpha() == AlphaVector(F(3), F(5), F(3))
    assert rho_alpha() == fw_to_alpha(WeightFW(1, 1, 1))


def test_basis_change_examples():
    assert alpha_to_eps(AlphaVector(1, 0, 0)) == EpsVector(F(1), F(-1), F(0))
    assert alpha_to_eps(AlphaVector(0, 0, 1)) == EpsVector(F(0), F(0), F(2))
    assert alpha_to_eps(AlphaVector(F(0), F(0), F(0))) == EpsVector(F(0), F(0), F(0))
    assert alpha_to_eps(rho_alpha()) == EpsVector(F(3), F(2), F(1))


weights = st.builds(
    WeightFW,
    st.integers(-30, 30),
    st.integers(-30, 30),
    st.integers(-30, 30),
)


@given(weights)
def test_round_trip_exact(w):
    v = fw_to_alpha(w)
    assert eps_to_alpha(alpha_to_eps(v)) == v


@given(weights, weights)
def test_fw_to_alpha_linear(w1, w2):
    assert fw_to_alpha(w1 + w2) == fw_to_alpha(w1) + fw_to_alpha(w2)


@given(weights)
def test_integrality_iff_parity(w):
    # alpha coordinates of a fundamental-weight combination are integral
    # exactly when m + k is even
    assert fw_to_alpha(w).is_integral() == ((w.m + w.k) % 2 == 0)


def test_denominator_invariant():
    with pytest.raises(ValueError):
        AlphaVector(F(1, 3), F(0), F(0))
