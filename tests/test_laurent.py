from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gencluster import (EvaluationError, LaurentPolynomial, NotLaurentError,
                        TropicalSemifield)

P = TropicalSemifield(("u",))
U = P.generator("u")
X1 = LaurentPolynomial.variable(2, P, 0)
X2 = LaurentPolynomial.variable(2, P, 1)
ONE = LaurentPolynomial.one(2, P)


def mono(e1, e2, coeff=1, uexp=0):
    c = P.monomial((uexp,)).as_group_ring(coeff)
    return LaurentPolynomial.monomial(2, P, (e1, e2), c)


# random Laurent polynomials with a handful of terms
coeffs = st.integers(-4, 4)
exps = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
terms = st.lists(st.tuples(exps, coeffs, st.integers(-2, 2)),
                 min_size=0, max_size=4)


def from_terms(ts):
    out = LaurentPolynomial.zero(2, P)
    for (e1, e2), c, ue in ts:
        out = out + mono(e1, e2, c, ue)
    return out


laurents = st.builds(from_terms, terms)


def test_constructors_and_str():
    assert str(X1) == "x1"
    assert str(ONE) == "1"
    assert str(LaurentPolynomial.zero(2, P)) == "0"
    assert str(X1 * X2 ** -2) == "x1*x2^-2"
    assert str(X1 + ONE) == "x1 + 1"
    assert str(mono(0, 1, 1, 1) + mono(-1, 0)) == "u*x2 + x1^-1"
    # multi-term coefficients are parenthesized
    two_u = mono(1, 0, 1, 1) + mono(1, 0, 1, 0)
    assert str(two_u) == "(1 + u)*x1"


@given(laurents, laurents, laurents)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a - a == LaurentPolynomial.zero(2, P)
    assert a * ONE == a


@given(laurents, laurents)
def test_exact_div_round_trip(a, b):
    if b.is_zero():
        return
    assert (a * b).exact_div(b) == a


def test_exact_div_round_trip_bulk():
    import random
    rng = random.Random(1729)

    def rand_poly():
        out = LaurentPolynomial.zero(2, P)
        for _ in range(rng.randint(1, 3)):
            out = out + mono(rng.randint(-3, 3), rng.randint(-3, 3),
                             rng.randint(-3, 3), rng.randint(-1, 1))
        return out

    done = 0
    while done < 1000:
        a, b = rand_poly(), rand_poly()
        if b.is_zero():
            continue
        assert (a * b).exact_div(b) == a
        done += 1


def test_denominator_vector_monomial_shift():
    import random
    rng = random.Random(60902)
    for _ in range(200):
        p = mono(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(1, 3))
        p = p + mono(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(1, 3))
        m = (rng.randint(-3, 3), rng.randint(-3, 3))
        shifted = p * LaurentPolynomial.monomial(2, P, m)
        base = p.denominator_vector()
        assert shifted.denominator_vector() == tuple(
            d - v for d, v in zip(base, m))


def test_exact_div_oracles():
    # (x1^2 - x2^2) / (x1 - x2) = x1 + x2
    num = X1 * X1 - X2 * X2
    assert num.exact_div(X1 - X2) == X1 + X2
    # dividing by a monomial with negative exponents
    assert (ONE + X2).exact_div(X1 ** -1) == X1 * X2 + X1
    # x-monomials are units of the Laurent ring, so these always divide
    assert (ONE + X1 * X2).exact_div(X1) == X2 + X1 ** -1
    assert (ONE + X2).exact_div(X1) == X1 ** -1 + X1 ** -1 * X2
    with pytest.raises(NotLaurentError):
        (ONE + X2).exact_div(ONE + X1)
    with pytest.raises(ZeroDivisionError):
        ONE.exact_div(LaurentPolynomial.zero(2, P))
    # semifield monomial coefficients are units, so this succeeds
    assert mono(1, 0, 2).exact_div(mono(0, 0, 1, 1)) == mono(1, 0, 2, -1)
    # non-monomial coefficients must divide in the group ring
    with pytest.raises(NotLaurentError):
        mono(1, 0, 2).exact_div(mono(1, 0, 1, 0) + mono(1, 0, 1, 1))


def test_truediv_operator():
    assert (X1 * X2) / X1 == X2
    assert (X1 + X2) / U == mono(1, 0, 1, -1) + mono(0, 1, 1, -1)


def test_pow():
    assert (X1 + ONE) ** 2 == X1 * X1 + X1 + X1 + ONE
    assert (X1 * X2 ** -1) ** -3 == X1 ** -3 * X2 ** 3
    assert (X1 + ONE) ** 0 == ONE
    with pytest.raises(ValueError):
        (X1 + ONE) ** -1


def test_denominator_vector():
    assert ((ONE + X2) * X1 ** -1).denominator_vector() == (1, 0)
    assert X1.denominator_vector() == (-1, 0)
    assert ONE.denominator_vector() == (0, 0)
    assert mono(0, 0, 1, 2).denominator_vector() == (0, 0)
    assert (X1 ** 2 * X2 ** -3 + X2).denominator_vector() == (0, 3)


@given(laurents, laurents)
def test_partial_derivative_leibniz(a, b):
    for i in (0, 1):
        lhs = (a * b).partial_derivative(i)
        rhs = a.partial_derivative(i) * b + a * b.partial_derivative(i)
        assert lhs == rhs


def test_partial_derivative_oracle():
    f = X1 ** 2 * X2 + X2 ** -1
    assert f.partial_derivative(0) == mono(1, 1, 2)
    assert f.partial_derivative(1) == X1 ** 2 - X2 ** -2


@given(laurents,
       st.fractions(min_value=Fraction(1, 4), max_value=4),
       st.fractions(min_value=Fraction(1, 4), max_value=4),
       st.fractions(min_value=Fraction(1, 4), max_value=4))
def test_evaluate_is_a_homomorphism(a, p1, p2, pu):
    x_point = (p1, p2)
    s_point = (pu,)
    got = (a * a + a).evaluate(x_point, s_point)
    v = a.evaluate(x_point, s_point)
    assert got == v * v + v


def _evaluate_by_fractions(p, x_point, s_point):
    """Term-by-term Fraction evaluation: the reference for ``evaluate``."""
    vals = [Fraction(v) for v in (*x_point, *s_point)]
    total = Fraction(0)
    for exps, c in p.terms():
        term = Fraction(c)
        for v, e in zip(vals, exps):
            term *= v ** e
        total += term
    return total


nonzero_values = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-4, max_value=4, max_denominator=9)).filter(bool)


@given(laurents, nonzero_values, nonzero_values, nonzero_values)
def test_evaluate_matches_fraction_reference(a, p1, p2, pu):
    got = a.evaluate((p1, p2), (pu,))
    assert isinstance(got, Fraction)
    assert got == _evaluate_by_fractions(a, (p1, p2), (pu,))


def test_evaluate_errors():
    with pytest.raises(EvaluationError):
        (X1 ** -1).evaluate((0, 1), (1,))
    with pytest.raises(EvaluationError):   # even where no term reads x1
        X2.evaluate((0, 1), (1,))
    f = X1 + X2
    assert f.evaluate((Fraction(1, 2), 2), (3,)) == Fraction(5, 2)
    for uexp in (1, -2):
        with pytest.raises(EvaluationError):
            (f + mono(0, 1, 3, uexp)).evaluate((1, 2), (0,))
    # every exponent of u is 0, so u = 0 is a valid point
    assert f.evaluate((Fraction(-1, 3), 2), (0,)) == Fraction(5, 3)
    assert LaurentPolynomial.zero(2, P).evaluate((1, 1), (0,)) == 0


def test_rank_mismatch_rejected():
    other = LaurentPolynomial.variable(3, P, 0)
    with pytest.raises(Exception):
        X1 + other
