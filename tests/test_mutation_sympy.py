"""Single seed mutations against sympy.

A random rank-2 or rank-3 pattern with exchange degrees up to 3, with
trivial, principal or random monomial coefficients, is mutated along a
path of length at most 2; one more mutation in direction k must give
the quotient of the exchange relation

    x_k * x_k' = sum_s z_{k,s} U^s V^{r_k - s} / Z_k|_P(y_k)

as sympy's field of rational functions computes it from the seed's own
cluster, coefficients and matrix column.  The other variables must not
move.  sympy is only a test oracle; the library stays pure stdlib.
"""

import random

import pytest

from gencluster import ClusterPattern, mutate_seed, principal_pattern
from test_seeds import random_pattern

sympy = pytest.importorskip("sympy")
from sympy.polys.fields import field  # noqa: E402

CASES = 40


def random_case(rng):
    """A rank-2 or rank-3 pattern with degrees up to 3 and trivial,
    principal or random monomial coefficients."""
    data = random_pattern(rng, rng.choice((2, 3)), max_degree=3,
                          max_entry=1, max_scale=2)
    rows, degrees = data.b0.rows, data.pair.degrees
    kind = rng.choice(("trivial", "principal", "random"))
    if kind == "trivial":
        return ClusterPattern.build(rows, degrees=degrees)
    if kind == "principal":
        return principal_pattern(rows, degrees)
    return data


def monomial(gens, exps):
    out = 1
    for g, e in zip(gens, exps):
        out *= g ** e
    return out


def test_single_mutation_matches_sympy():
    rng = random.Random(20260)
    for _ in range(CASES):
        pattern = random_case(rng)
        n, P = pattern.n, pattern.semifield
        path = tuple(rng.randrange(n) for _ in range(rng.randint(0, 2)))
        seed = pattern.seed_at(path)
        k = rng.randrange(n)

        names = ["x%d" % (i + 1) for i in range(n)] + list(P.generators)
        K, *gens = field(",".join(names), sympy.ZZ)
        ugens = gens[n:]

        def to_k(element):
            """Read flat terms into K as a polynomial times a monomial."""
            terms = dict(element.terms())
            low = [min(col) for col in zip(*terms)]
            numer = K.ring.from_dict({tuple(e - m for e, m in zip(exps, low)): c
                                      for exps, c in terms.items()})
            return K.new(numer, K.ring.one) * monomial(gens, low)

        xs = [to_k(v) for v in seed.x]
        col = seed.B.column(k)
        yk = seed.y[k].exponents
        big_u = monomial(ugens, yk) * monomial(xs, [max(b, 0) for b in col])
        big_v = monomial(xs, [max(-b, 0) for b in col])
        r = pattern.pair.degrees[k]
        zs = pattern.pair.poly_coeffs(k)
        numerator = sum(monomial(ugens, zs[s].exponents) * big_u ** s
                        * big_v ** (r - s) for s in range(r + 1))
        # Z_k|_P(y_k): the tropical sum of z_s * y_k^s, exponentwise minima
        trop = [min(z + s * y for s, z in
                    ((s, zs[s].exponents[j]) for s in range(r + 1)))
                for j, y in enumerate(yk)]
        expected = numerator / (xs[k] * monomial(ugens, trop))

        mutated = mutate_seed(seed, pattern.pair, k)
        assert to_k(mutated.x[k]) == expected, (pattern.b0, path, k)
        assert mutated.x[:k] + mutated.x[k + 1:] == seed.x[:k] + seed.x[k + 1:]
