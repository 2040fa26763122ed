from hypothesis import given, strategies as st

from sp6q.qpoly import QPoly, add_signed, eval_at_one


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
    assert q5.support() == [5]
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
    assert QPoly.from_json(p.to_json()) == p


def test_degree_and_support():
    p = QPoly((0, 1, 0, 5))
    assert p.degree() == 3
    assert p.support() == [1, 3]
    assert p.coefficient(3) == 5
    assert p.coefficient(99) == 0
    assert QPoly().degree() == -1


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
