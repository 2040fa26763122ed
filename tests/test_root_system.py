from fractions import Fraction

from hypothesis import given, strategies as st

from sp6q.root_system import (
    FUNDAMENTAL_EPS,
    POSITIVE_ROOTS,
    RHO_EPS,
    AlphaVector,
    WeightFW,
    doubled_alpha,
)

F = Fraction


def _weight_eps(w):
    # m*w1 + n*w2 + k*w3 in the ambient basis
    return tuple(w.m * a + w.n * b + w.k * c for a, b, c in zip(*FUNDAMENTAL_EPS))


def test_positive_roots_canonical():
    assert len(POSITIVE_ROOTS) == 9
    assert len(set(POSITIVE_ROOTS)) == 9
    assert (2, 2, 1) in POSITIVE_ROOTS  # the highest root
    assert max(POSITIVE_ROOTS, key=sum) == (2, 2, 1)
    assert POSITIVE_ROOTS[0] == (1, 0, 0)
    for r in POSITIVE_ROOTS:
        assert all(type(c) is int and c >= 0 for c in r)


def test_positive_roots_sum_is_twice_rho():
    total = tuple(map(sum, zip(*POSITIVE_ROOTS)))
    assert total == (6, 10, 6) == doubled_alpha(RHO_EPS)


def test_fundamental_weights():
    # doubled alpha coordinates: w1 = a1 + a2 + a3/2, w2 = a1 + 2a2 + a3,
    # w3 = a1 + 2a2 + 3a3/2
    assert [doubled_alpha(w) for w in FUNDAMENTAL_EPS] == [(2, 2, 1), (2, 4, 2), (2, 4, 3)]
    assert AlphaVector(*doubled_alpha(FUNDAMENTAL_EPS[0])).coeffs() == (F(1), F(1), F(1, 2))
    assert _weight_eps(WeightFW(2, 0, 0)) == (2, 0, 0)
    assert doubled_alpha(_weight_eps(WeightFW(2, 0, 0))) == (4, 4, 2)  # the highest root
    assert doubled_alpha(_weight_eps(WeightFW(0, 0, 2))) == (4, 8, 6)


def test_rho():
    assert RHO_EPS == (3, 2, 1) == tuple(map(sum, zip(*FUNDAMENTAL_EPS)))
    assert AlphaVector(*doubled_alpha(RHO_EPS)).coeffs() == (3, 5, 3)


def test_basis_change_examples():
    # the simple roots a1 = e1 - e2, a2 = e2 - e3, a3 = 2*e3
    assert doubled_alpha((1, -1, 0)) == (2, 0, 0)
    assert doubled_alpha((0, 1, -1)) == (0, 2, 0)
    assert doubled_alpha((0, 0, 2)) == (0, 0, 2)
    assert doubled_alpha((0, 0, 0)) == (0, 0, 0)
    assert AlphaVector(*doubled_alpha((1, 0, 0))).coeffs() == (F(1), F(1), F(1, 2))
    assert not AlphaVector(2, 2, 1).is_integral()
    assert AlphaVector(6, 10, 6).is_integral()


eps_triples = st.tuples(*[st.integers(-10**6, 10**6)] * 3)


@given(eps_triples)
def test_round_trip_exact(e):
    # eps -> doubled alpha is exact and integer-valued: the ambient triple
    # comes back from it, and the alpha coordinates are integral exactly
    # when e1 + e2 + e3 is even
    d = doubled_alpha(e)
    assert all(type(c) is int for c in d)
    d1, d2, d3 = d
    assert (d1 % 2, d2 % 2) == (0, 0)
    assert (d1 // 2, (d2 - d1) // 2, d3 - d2 // 2) == e
    v = AlphaVector(*d)
    assert tuple(2 * c for c in v.coeffs()) == d
    assert v.is_integral() == (sum(e) % 2 == 0)


weights = st.builds(
    WeightFW,
    st.integers(-30, 30),
    st.integers(-30, 30),
    st.integers(-30, 30),
)


@given(weights)
def test_integrality_iff_parity(w):
    # alpha coordinates of a fundamental-weight combination are integral
    # exactly when m + k is even
    assert AlphaVector(*doubled_alpha(_weight_eps(w))).is_integral() == ((w.m + w.k) % 2 == 0)
