"""The integer coefficient mutation against a semifield-operation oracle.

``seeds._mutate_coefficients`` mutates y on exponent vectors.  The
oracle here is the same mutation written with ``SemifieldElement``
operations,

    y_k' = y_k^{-1},
    y_i' = y_i (y_k^{[b_{ki}]_+})^{r_k} (Z_k|_P(y_k))^{-b_{ki}},

with ``Z_k|_P(y_k)`` the tropical value of the exchange polynomial
(``eval_poly_tropical``).
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gencluster import TropicalSemifield, mutate_matrix
from gencluster.seeds import _mutate_coefficients
from test_seeds import random_pattern

P = TropicalSemifield(("u", "v"))
U = P.generator("u")
V = P.generator("v")


def eval_poly_tropical(coeffs, arg):
    """Tropically evaluate ``sum_s coeffs[s] * arg^s``.

    ``coeffs`` is the coefficient list (c_0, ..., c_r) of an exchange
    polynomial; c_0 = c_r = 1 is required there, and this routine checks
    nothing beyond nonemptiness so it can also fold arbitrary monomial
    lists.
    """
    coeffs = list(coeffs)
    if not coeffs:
        raise ValueError("empty coefficient list")
    acc = coeffs[0]
    power = None
    for c in coeffs[1:]:
        power = arg if power is None else power * arg
        acc = acc.tropical_add(c * power)
    return acc


def oracle_mutate_coefficients(y, row, pair, k):
    """y mutated in direction k and Z_k|_P(y_k), by semifield operations."""
    rk = pair.degrees[k]
    trop = eval_poly_tropical(pair.poly_coeffs(k), y[k])
    new = tuple(y[k].inverse() if i == k
                else y[i] * (y[k] ** max(row[i], 0)) ** rk * trop ** (-row[i])
                for i in range(len(y)))
    return new, trop


def test_poly_tropical_eval():
    one = P.one()
    # coefficient list (1, u, 1): degree-2 reciprocal shape
    coeffs = (one, U, one)
    assert eval_poly_tropical(coeffs, V) == P.one()
    got = eval_poly_tropical(coeffs, V.inverse())
    assert got == V ** -2
    # mirrored argument differs by the full power of the argument
    for arg in (U, U * V ** -3, V ** 2):
        lhs = eval_poly_tropical(coeffs, arg.inverse())
        assert lhs == arg ** -2 * eval_poly_tropical(coeffs, arg)


def test_poly_tropical_identity_case():
    one = P.one()
    assert eval_poly_tropical((one, one, one), one) == one
    with pytest.raises(ValueError):
        eval_poly_tropical((), U)


@given(st.integers(0, 10 ** 6), st.integers(2, 4),
       st.lists(st.integers(0, 3), max_size=3))
def test_coefficient_mutation_matches_the_oracle(seed, n, path):
    # random y and z in two generators, degrees up to 3, paths of depth 3
    pattern = random_pattern(random.Random(seed), n)
    pair = pattern.pair
    b, y = pattern.b0, pattern.y0
    for k in (d % n for d in path):
        got, trop = _mutate_coefficients(y, b.rows[k], pair, k)
        want, want_trop = oracle_mutate_coefficients(y, b.rows[k], pair, k)
        assert got == want
        assert trop == want_trop.exponents
        y, b = got, mutate_matrix(b, pair, k)
