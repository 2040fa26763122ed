import math

import pytest
from hypothesis import example, given, strategies as st

from sp6q.partition import KPF_MAX_HEIGHT
from sp6q.qpoly import PACK_BITS, QPoly, add_signed, eval_at_one, pack, signed_sum, unpack


def test_add_example():
    # (q + q^3) + q^2 = q + q^2 + q^3
    p = QPoly((0, 1, 0, 1))
    r = QPoly((0, 0, 1))
    assert p + r == QPoly((0, 1, 1, 1))


def test_sub_to_zero():
    p = QPoly((0, 1, 2, 4, 2, 1))
    assert p - p == QPoly()
    assert not p - p


def test_three_term_difference():
    # (q + 2q^2 + 4q^3 + 2q^4 + q^5) - (q^2 + 2q^3 + q^4) - (q^2 + q^3 + q^4)
    # = q + q^3 + q^5
    a = QPoly((0, 1, 2, 4, 2, 1))
    c = QPoly((0, 0, 1, 2, 1))
    d = QPoly((0, 0, 1, 1, 1))
    assert a - c - d == QPoly((0, 1, 0, 1, 0, 1))


def test_monomial_and_eval():
    q5 = QPoly((0, 0, 0, 0, 0, 1))
    assert [e for e, c in enumerate(q5.coeffs) if c] == [5]
    assert eval_at_one(q5) == 1
    assert eval_at_one(QPoly((0, 1, 0, 1, 0, 1))) == 3
    assert eval_at_one(QPoly()) == 0
    assert q5
    assert not QPoly()


def test_normal_form():
    assert QPoly((0, 1, 0, 0)).coeffs == (0, 1)
    assert QPoly((0, 0)).coeffs == ()
    assert QPoly(()) == QPoly()
    assert QPoly((0, 1, 0, 0)) == QPoly((0, 1))


def test_trimmed_tuple_is_kept_and_other_input_is_trimmed():
    # a tuple that is empty or ends in a nonzero is stored as it is; any other
    # input is made a tuple and trimmed, and equality and hashing see only
    # the trimmed coefficients
    trimmed = (0, 1, 0, 2)
    assert QPoly(trimmed).coeffs is trimmed
    assert QPoly(()).coeffs == ()
    assert QPoly([0, 1, 0, 2, 0]).coeffs == trimmed
    assert QPoly(iter((0, 1, 0, 2))).coeffs == trimmed
    assert QPoly((0, 1, 0, 2, 0, 0)) == QPoly(trimmed) == QPoly([0, 1, 0, 2])
    assert len({QPoly(trimmed), QPoly((0, 1, 0, 2, 0)), QPoly(list(trimmed))}) == 1
    assert type(QPoly([3]).coeffs) is tuple


def test_str_rendering():
    assert str(QPoly()) == "0"
    assert str(QPoly((1,))) == "1"
    assert str(QPoly((1, 0, 2, 0, 0, 1))) == "1 + 2*q^2 + q^5"
    assert str(QPoly((0, 1))) == "q"
    assert str(QPoly((0, -1, 3))) == "-q + 3*q^2"
    assert str(QPoly((0, 2, -1))) == "2*q - q^2"


def test_json_round_trip():
    p = QPoly((0, 1, 2, 4, 2, 1))
    assert p.to_json() == ["0", "1", "2", "4", "2", "1"]


def test_degree_and_support():
    p = QPoly((0, 1, 0, 5))
    assert len(p.coeffs) - 1 == 3
    assert [e for e, c in enumerate(p.coeffs) if c] == [1, 3]
    assert p.coeffs[3] == 5
    assert len(p.coeffs) <= 99  # so the coefficient of q^99 is 0
    assert len(QPoly().coeffs) - 1 == -1


polys = st.builds(QPoly, st.tuples(*([st.integers(-50, 50)] * 6)))


@given(polys, polys)
def test_add_commutes(p, r):
    assert p + r == r + p


@given(polys, polys, polys)
def test_add_associates(p, r, s):
    assert (p + r) + s == p + (r + s)


@given(polys, polys)
def test_sub_is_add_negate(p, r):
    assert p - r == p + (QPoly() - r)
    assert add_signed(p, -1, r) == p - r


@given(polys, polys)
def test_eval_at_one_additive(p, r):
    assert eval_at_one(p + r) == eval_at_one(p) + eval_at_one(r)


@given(polys)
def test_zero_is_identity(p):
    assert p + QPoly() == p
    assert p - QPoly() == p


signed_terms = st.lists(
    st.tuples(st.sampled_from((1, -1)), st.builds(QPoly, st.lists(st.integers(-50, 50), max_size=8).map(tuple))),
    max_size=6,
)


@given(signed_terms)
def test_signed_sum_adds_coefficientwise(terms):
    # terms of different lengths, cancelling to a shorter or the zero polynomial
    n = max((len(r.coeffs) for _s, r in terms), default=0)
    want = [sum(s * r.coeffs[e] for s, r in terms if e < len(r.coeffs)) for e in range(n)]
    got = signed_sum(terms)
    assert got == QPoly(tuple(want))
    assert not got.coeffs or got.coeffs[-1] != 0


def test_signed_sum_rejects_other_signs():
    with pytest.raises(ValueError):
        signed_sum([(1, QPoly((1,))), (2, QPoly((1,)))])
    with pytest.raises(ValueError):
        signed_sum([(0, QPoly((1,)))])  # the first term, which is copied, not added
    with pytest.raises(ValueError):
        add_signed(QPoly(), 0, QPoly((1,)))


# A packed signed sum decodes exactly while every coefficient of it is below
# 2**63 in magnitude; with t terms, digits below (2**63 - 1) // t keep it so.
_DIGIT = 2**63 - 1


@st.composite
def packed_terms(draw):
    t = draw(st.integers(1, 4))
    bound = _DIGIT // t
    digit = st.one_of(st.integers(-bound, bound), st.sampled_from((-bound, -1, 0, 1, bound)))
    terms = []
    for _ in range(t):
        lead, trail = draw(st.integers(0, 10)), draw(st.integers(0, 10))
        middle = draw(st.lists(digit, max_size=80 - lead - trail))
        terms.append((draw(st.sampled_from((1, -1))), QPoly((0,) * lead + tuple(middle) + (0,) * trail)))
    return terms


@given(packed_terms())
@example([(1, QPoly((-1, 1)))])  # x > 0 with a digit that reads negative
@example([(-1, QPoly((0, 1)))])  # x < 0
@example([(1, QPoly((_DIGIT, -_DIGIT, _DIGIT)))])
@example([(1, QPoly((-_DIGIT, 0, 0, -_DIGIT)))])
@example([(1, QPoly((5, 7))), (-1, QPoly((5, 7)))])  # x = 0
def test_unpack_of_a_packed_signed_sum_is_the_signed_sum(terms):
    # lengths 0-80 with leading and trailing zeros, of either sign, so x may
    # be negative, zero, or positive with digits that read negative
    x = sum(s * pack(r.coeffs) for s, r in terms)
    assert x == sum(s * c << PACK_BITS * j for s, r in terms for j, c in enumerate(r.coeffs))
    assert unpack(x) == signed_sum(terms)


def test_pack_refuses_a_coefficient_outside_a_signed_word():
    for coeffs in ([2**63], [0, 1, 2**63], [-(2**63) - 1]):
        with pytest.raises(OverflowError):
            pack(coeffs)


def test_packed_kpf_sums_fit_a_signed_word():
    # a vector of height H has at most comb(H // 2 + 6, 6) decompositions,
    # since the six non-simple positive roots have height >= 2 and force the
    # simple roots; an alternating sum adds at most 48 of them, so raising
    # KPF_MAX_HEIGHT must not push such a sum past a signed digit
    assert 48 * math.comb(KPF_MAX_HEIGHT // 2 + 6, 6) < 2 ** (PACK_BITS - 1)
