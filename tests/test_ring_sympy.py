"""Differential tests of the exact ring against sympy.

Random small elements of ZP[x1^±, x2^±] and of ZP, with P the tropical
semifield on (u, v), are read through their text rendering into sympy's
field of rational functions, so these tests also pin that the rendering
is a faithful expression.  sympy is only a test oracle; the library
itself stays pure stdlib.
"""

import random
import re

import pytest

from gencluster import (GroupRingElement, LaurentPolynomial, NotLaurentError,
                        TropicalSemifield)

sympy = pytest.importorskip("sympy")
from sympy.polys.fields import field  # noqa: E402

P = TropicalSemifield(("u", "v"))
# sympy's field of rational functions Q(x1, x2, u, v); its elements are
# kept in lowest terms with integer numerator and denominator
K, *GENS = field("x1,x2,u,v", sympy.ZZ)
NAMES = {str(g): g for g in GENS}
CASES = 150


def to_sympy(element):
    """Read a rendered element into K (the rendering is plain arithmetic)."""
    text = str(element).replace("^", "**")
    assert re.fullmatch(r"[\w*+\- ()]+", text), text
    return eval(text, {"__builtins__": {}}, dict(NAMES))


def same(element, expr):
    return to_sympy(element) == expr


def rand_group_ring(rng):
    out = GroupRingElement(P, {})
    for _ in range(rng.randint(1, 3)):
        exps = (rng.randint(-2, 2), rng.randint(-2, 2))
        out = out + P.monomial(exps).as_group_ring(rng.randint(-3, 3))
    return out


def rand_laurent(rng):
    out = LaurentPolynomial.zero(2, P)
    for _ in range(rng.randint(1, 3)):
        xexps = (rng.randint(-2, 2), rng.randint(-2, 2))
        out = out + LaurentPolynomial.monomial(2, P, xexps, rand_group_ring(rng))
    return out


def is_laurent_over_z(expr):
    """True when expr lies in Z[x1^±, x2^±, u^±, v^±]: in lowest terms its
    denominator is a monomial with coefficient 1."""
    terms = expr.denom.terms()
    return len(terms) == 1 and terms[0][1] == 1


@pytest.mark.parametrize("make", [rand_laurent, rand_group_ring],
                         ids=["laurent", "group_ring"])
def test_ring_ops_match_sympy(make):
    rng = random.Random(20191007)
    for _ in range(CASES):
        a, b = make(rng), make(rng)
        sa, sb = to_sympy(a), to_sympy(b)
        assert same(a + b, sa + sb)
        assert same(a - b, sa - sb)
        assert same(a * b, sa * sb)
        n = rng.randint(0, 3)
        assert same(a ** n, sa ** n)
        if not b.is_zero():
            assert same((a * b).exact_div(b), sa)


@pytest.mark.parametrize("make", [rand_laurent, rand_group_ring],
                         ids=["laurent", "group_ring"])
def test_exact_div_fails_exactly_on_a_remainder(make):
    rng = random.Random(1910)
    outcomes = set()
    for _ in range(CASES):
        a, b = make(rng), make(rng)
        if b.is_zero():
            continue
        if rng.random() < 0.3:
            # a multiple of b, half the time spoiled into a non-multiple
            a = b * make(rng)
            if rng.random() < 0.5:
                a = a * rng.choice((2, 3)) + 1
        quotient = to_sympy(a) / to_sympy(b)
        expected = is_laurent_over_z(quotient)
        try:
            got = a.exact_div(b)
        except NotLaurentError:
            assert not expected, "exact_div(%s, %s) raised" % (a, b)
            outcomes.add(False)
            continue
        assert expected, "exact_div(%s, %s) = %s" % (a, b, got)
        assert same(got, quotient)
        outcomes.add(True)
    assert outcomes == {True, False}
