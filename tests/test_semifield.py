from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import deadline
from gencluster import GroupRingElement, NotLaurentError, TropicalSemifield
from gencluster.semifield import add_terms, exact_div_terms, layout, mul_terms

P = TropicalSemifield(("u", "v"))
U = P.generator("u")
V = P.generator("v")

exponents = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


def elem(exps):
    return P.monomial(exps)


def test_generators_and_parse():
    assert P.ngens == 2
    assert P.generator(0) == U
    assert P.parse("u^2*v^-1") == elem((2, -1))
    assert P.parse("1") == P.one()
    assert str(elem((2, -1))) == "u^2*v^-1"
    assert str(P.one()) == "1"
    with pytest.raises(KeyError):
        P.generator("nope")
    with pytest.raises(ValueError):
        P.parse("u**2")


def test_trivial_semifield():
    T = TropicalSemifield()
    assert T.ngens == 0
    assert T.one().tropical_add(T.one()) == T.one()


@given(exponents, exponents)
def test_mul_adds_exponents(a, b):
    assert elem(a) * elem(b) == elem(tuple(x + y for x, y in zip(a, b)))


@given(exponents, exponents)
def test_tropical_add_is_componentwise_min(a, b):
    got = elem(a).tropical_add(elem(b))
    assert got == elem(tuple(min(x, y) for x, y in zip(a, b)))


@given(exponents)
def test_inverse_and_pow(a):
    x = elem(a)
    assert x * x.inverse() == P.one()
    assert x ** 3 == x * x * x
    assert x ** -2 == (x.inverse()) ** 2
    assert x ** 0 == P.one()


@given(exponents, exponents,
       st.fractions(min_value=Fraction(1, 5), max_value=5),
       st.fractions(min_value=Fraction(1, 5), max_value=5))
def test_evaluate_is_multiplicative(a, b, pu, pv):
    point = (pu, pv)
    x, y = elem(a), elem(b)
    assert (x * y).as_group_ring().evaluate(point) == (
        x.as_group_ring().evaluate(point) * y.as_group_ring().evaluate(point))


# group ring


def gre(c, exps):
    return P.monomial(exps).as_group_ring(c)


@given(st.integers(-5, 5), exponents, st.integers(-5, 5), exponents,
       st.integers(-5, 5), exponents)
def test_group_ring_is_a_commutative_ring(c1, e1, c2, e2, c3, e3):
    a, b, c = gre(c1, e1), gre(c2, e2), gre(c3, e3)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a - a == GroupRingElement(P, {})
    assert a * P.group_ring_one() == a


@given(st.integers(-5, 5), exponents, st.integers(-5, 5), exponents)
def test_group_ring_exact_div_round_trip(c1, e1, c2, e2):
    a, b = gre(c1, e1), gre(c2, e2)
    if b.is_zero():
        return
    assert (a * b).exact_div(b) == a


def test_group_ring_division_cases():
    one = P.group_ring_one()
    u = U.as_group_ring()
    v = V.as_group_ring()
    # (1 - u^2) / (1 - u) = 1 + u
    num = one - u * u
    den = one - u
    assert num.exact_div(den) == one + u
    with pytest.raises(NotLaurentError):
        (one + v).exact_div(one + u)
    with pytest.raises(ZeroDivisionError):
        one.exact_div(GroupRingElement(P, {}))
    # coefficient divisibility matters, not just supports
    with pytest.raises(NotLaurentError):
        (one + u + u * u).exact_div(one + u)


def test_group_ring_str_and_predicates():
    one = P.group_ring_one()
    u = U.as_group_ring()
    assert str(one + u) == "1 + u"
    assert str(one - u) == "1 - u"
    assert str(U.as_group_ring(-2)) == "-2*u"
    assert (one + u - one).is_monomial()
    assert not (one + u).is_monomial()
    assert one.is_one()
    e = one - one
    assert e.is_zero() and str(e) == "0"


def test_group_ring_pow_and_units():
    u = U.as_group_ring()
    one = P.group_ring_one()
    assert (one + u) ** 3 == (one + u) * (one + u) * (one + u)
    assert u ** -2 == U.inverse().as_group_ring() ** 2
    with pytest.raises(ValueError):
        (one + u) ** -1


@given(st.integers(-5, 5), exponents,
       st.fractions(min_value=Fraction(1, 4), max_value=4),
       st.fractions(min_value=Fraction(1, 4), max_value=4))
def test_group_ring_evaluate_matches_fractions(c, e, pu, pv):
    point = (pu, pv)
    x = gre(c, e)
    assert x.evaluate(point) == Fraction(c) * pu ** e[0] * pv ** e[1]


def test_semifield_laws_bulk():
    # spot checks above; the laws again on a large flat sample
    import random
    rng = random.Random(271828)
    for _ in range(1000):
        a, b, c = (elem((rng.randint(-9, 9), rng.randint(-9, 9)))
                   for _ in range(3))
        assert a.tropical_add(b) == b.tropical_add(a)
        assert a.tropical_add(b).tropical_add(c) == a.tropical_add(
            b.tropical_add(c))
        assert (a * b.tropical_add(c)
                == (a * b).tropical_add(a * c))
        assert a.tropical_add(a) == a


def test_group_ring_has_no_zero_divisors():
    import random
    rng = random.Random(314159)
    zero = GroupRingElement(P, {})
    for _ in range(300):
        a = sum((gre(rng.randint(-3, 3), (rng.randint(-2, 2), rng.randint(-2, 2)))
                 for _ in range(rng.randint(1, 3))), zero)
        b = sum((gre(rng.randint(-3, 3), (rng.randint(-2, 2), rng.randint(-2, 2)))
                 for _ in range(rng.randint(1, 3))), zero)
        if a.is_zero() or b.is_zero():
            continue
        assert not (a * b).is_zero()


def test_distinct_semifields_do_not_mix():
    Q = TropicalSemifield(("u",))
    with pytest.raises(Exception):
        U * Q.generator("u")
    assert P != Q
    assert P == TropicalSemifield(("u", "v"))


# ---- the term-dict kernel itself ----
#
# The kernel works on packed term dicts; these tests draw exponent-tuple
# dicts and pack them at the default layout of their variable count.


def packed(terms, lay):
    return {lay.pack(e): c for e, c in terms.items()}


def term_dicts(nvars):
    """Packed term dicts in ``nvars`` variables (0 allowed), exponents in
    +-20, with their layout."""
    lay = layout(nvars)
    return st.dictionaries(
        st.tuples(*[st.integers(-20, 20)] * nvars),
        st.integers(-9, 9).filter(bool), min_size=1, max_size=6).map(
            lambda terms: packed(terms, lay))


kernel_operands = st.integers(0, 5).flatmap(
    lambda n: st.tuples(term_dicts(n), term_dicts(n), st.just(n)))


def divide(num, den, nvars):
    """exact_div_terms with the layout and the minima its caller passes."""
    lay = layout(nvars)
    return exact_div_terms(num, den, lay, lay.minima(num), lay.minima(den))


def test_exact_div_width_covers_the_divisor():
    # the dividend alone has total degree 0 after shifting; guard fields
    # sized from it overflow on the divisor's degree-4 terms and the
    # division runs away instead of failing
    lay = layout(2)
    num = packed({(0, 1): 3}, lay)
    den = packed({(-2, -1): -3, (1, -1): 1, (2, -2): -1}, lay)
    with deadline(5), pytest.raises(NotLaurentError):
        divide(num, den, 2)


def test_exact_div_width_covers_the_divisor_past_the_default_width():
    # the same division with every exponent scaled past 2^29: the
    # shifted divisor no longer fits the default 32-bit fields, so the
    # division has to widen them
    scale = 1 << 29
    Q = TropicalSemifield(("a", "b"))

    def grow(terms):
        return GroupRingElement(Q, {tuple(scale * e for e in exps): c
                                    for exps, c in terms.items()})

    num = grow({(0, 1): 3})
    den = grow({(-2, -1): -3, (1, -1): 1, (2, -2): -1})
    with deadline(5), pytest.raises(NotLaurentError):
        num.exact_div(den)
    assert (num * den).exact_div(den) == num


@given(kernel_operands)
def test_exact_div_inverts_mul(operands):
    a, b, n = operands
    assert divide(mul_terms(a, b), b, n) == a


@given(kernel_operands, st.data())
def test_exact_div_rejects_a_spoiled_multiple(operands, data):
    a, b, n = operands
    if len(b) == 1 and abs(next(iter(b.values()))) == 1:
        return  # a unit divides everything
    # a multiple of b plus one monomial: b is not a unit, so the monomial,
    # and with it the sum, is not a multiple of b
    spoil = layout(n).pack(data.draw(st.tuples(*[st.integers(-20, 20)] * n)))
    with pytest.raises(NotLaurentError):
        divide(add_terms(mul_terms(a, b), {spoil: 1}), b, n)


@given(kernel_operands)
def test_square_matches_the_general_product(operands):
    a, _, _ = operands
    assert mul_terms(a, a) == mul_terms(a, dict(a))
