import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gencluster import (ClusterPattern, DimensionError, ExchangeMatrix,
                        LaurentPolynomial, MutationPair,
                        NotSkewSymmetrizableError, Seed, TropicalSemifield,
                        apply_path, check_classic_compat,
                        check_cluster_formula, coefficient_walk,
                        find_skew_symmetrizer, hat_y, mutate_matrix,
                        mutate_seed)


def random_pattern(rng, n, max_degree=3, gens=("u", "v"), max_entry=2,
                   max_scale=3):
    """Random skew-symmetrizable data: B = C * diag(d) with C skew and
    nonzero, so n >= 2."""
    if n < 2:
        raise ValueError("a random pattern needs n >= 2, got %d" % n)
    while True:
        c = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                c[i][j] = rng.randint(-max_entry, max_entry)
                c[j][i] = -c[i][j]
        if any(any(row) for row in c):
            break
    d = [rng.randint(1, max_scale) for _ in range(n)]
    rows = [[c[i][j] * d[j] for j in range(n)] for i in range(n)]
    P = TropicalSemifield(gens)
    degrees = [rng.randint(1, max_degree) for _ in range(n)]

    def monomial():
        return P.monomial(tuple(rng.randint(-2, 2) for _ in gens))

    frozen = []
    for r in degrees:
        # choose the lower half freely, mirror it to stay reciprocal
        half = [monomial() for _ in range(r // 2)]
        frozen.append(tuple(half[min(s, r - s) - 1] for s in range(1, r)))
    y0 = tuple(monomial() for _ in range(n))
    return ClusterPattern.build(rows, degrees=degrees, semifield=P,
                                y0=y0, frozen=frozen)


def test_random_pattern_rejects_rank_one():
    # a 1x1 skew matrix is zero, so the draw loop would never end
    for n in (0, 1):
        with pytest.raises(ValueError):
            random_pattern(random.Random(0), n)


# ---- symmetrizer ----


def test_symmetrizer_values():
    assert find_skew_symmetrizer(((0, 2), (-1, 0))) == (1, 2)
    assert find_skew_symmetrizer(((0, 1), (-1, 0))) == (1, 1)
    assert find_skew_symmetrizer(((0, 1, 0), (-1, 0, 1), (0, -1, 0))) == (1, 1, 1)
    # two blocks scaled independently still normalize per component
    assert find_skew_symmetrizer(
        ((0, 2, 0), (-1, 0, 0), (0, 0, 0))) == (1, 2, 1)


def test_symmetrizer_rejections():
    for rows in (((0, 1), (1, 0)),        # same sign at (i,j),(j,i)
                 ((1, 0), (0, 0)),        # nonzero diagonal
                 ((0, 1), (0, 0))):       # asymmetric zero pattern
        with pytest.raises(NotSkewSymmetrizableError):
            find_skew_symmetrizer(rows)


@given(st.integers(0, 10 ** 6))
def test_symmetrizer_verifies_on_random_input(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    pattern = random_pattern(rng, n)
    b = pattern.b0
    s = b.symmetrizer
    assert all(v >= 1 for v in s)
    for i in range(n):
        for j in range(n):
            assert s[i] * b.rows[i][j] == -s[j] * b.rows[j][i]


# ---- matrix mutation ----


def test_mutate_matrix_oracles():
    b = ExchangeMatrix(((0, 1), (-1, 0)))
    assert mutate_matrix(b, (1, 1), 0).rows == ((0, -1), (1, 0))
    # a degree-2 direction doubles the correction term
    assert mutate_matrix(b, (2, 1), 0).rows == ((0, -1), (1, 0))
    b3 = ExchangeMatrix(((0, 1, 0), (-1, 0, 1), (0, -1, 0)))
    assert mutate_matrix(b3, (1, 1, 1), 1).rows == (
        (0, -1, 1), (1, 0, -1), (-1, 1, 0))
    assert mutate_matrix(b3, (1, 2, 1), 1).rows == (
        (0, -1, 2), (1, 0, -1), (-2, 1, 0))


def test_mutate_matrix_checks_the_carried_symmetrizer():
    # B = [[0, 2], [-1, 0]] is skew-symmetrized by (1, 2), not (1, 1)
    b = ExchangeMatrix._derived(((0, 2), (-1, 0)), (1, 1))
    with pytest.raises(NotSkewSymmetrizableError):
        mutate_matrix(b, (1, 1), 0)


def test_mutate_matrix_checks_a_changed_row_against_a_kept_one():
    # S = (1, 2, 2) symmetrizes B, (1, 2, 1) fails only on the pair
    # (1, 2); mutating at 0 changes rows 0 and 1 and keeps row 2
    b = ExchangeMatrix._derived(((0, 2, 0), (-1, 0, 1), (0, -1, 0)), (1, 2, 1))
    with pytest.raises(NotSkewSymmetrizableError):
        mutate_matrix(b, (1, 1, 1), 0)
    assert mutate_matrix(ExchangeMatrix(b.rows), (1, 1, 1), 0).symmetrizer == (1, 2, 2)


@given(st.integers(0, 10 ** 6))
def test_mutate_matrix_involution_and_compat(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    pattern = random_pattern(rng, n)
    b = pattern.b0
    for k in range(n):
        mutated = mutate_matrix(b, pattern.pair, k)
        # mutation carries the symmetrizer instead of searching again
        assert find_skew_symmetrizer(mutated.rows) == mutated.symmetrizer
        assert mutate_matrix(mutated, pattern.pair, k).rows == b.rows
        assert check_classic_compat(b, pattern.pair, k)


# ---- mutation pair validation ----


def test_mutation_pair_validation():
    P = TropicalSemifield(("w",))
    w = P.generator("w")
    with pytest.raises(ValueError):
        MutationPair(P, (0, 1))
    with pytest.raises(DimensionError):
        MutationPair(P, (2, 1), [(), ()])
    with pytest.raises(ValueError):
        MutationPair(P, (3, 1), [(w, P.one()), ()])  # not reciprocal
    with pytest.raises(TypeError):
        MutationPair(P, (2, 1), [("w",), ()])
    pair = MutationPair(P, (3, 1), [(w, w), ()])
    assert pair.poly_coeffs(0) == (P.one(), w, w, P.one())
    assert pair.poly_coeffs(1) == (P.one(), P.one())


# ---- seed mutation ----


def test_mutate_seed_classic_with_coefficients(a2_coeff):
    s0 = a2_coeff.initial_seed()
    P = a2_coeff.semifield
    u = P.generator("u")
    s1 = mutate_seed(s0, a2_coeff.pair, 0)
    x1p = (LaurentPolynomial.monomial(2, P, (-1, 1))
           + LaurentPolynomial.monomial(2, P, (-1, 0), u.as_group_ring()))
    assert s1.x == (x1p, s0.x[1])
    assert s1.B.rows == ((0, -1), (1, 0))
    # y_1 flips, y_2 absorbs the tropical correction
    assert s1.y[0] == u.inverse()
    v = P.generator("v")
    assert s1.y[1] == v * u * (u.tropical_add(P.one())).inverse()


def test_mutate_seed_generalized_oracle(gen2):
    s0 = gen2.initial_seed()
    P = gen2.semifield
    s1 = mutate_seed(s0, gen2.pair, 0)
    assert str(s1.x[0]) == "x1^-1*x2^2 + w*x1^-1*x2 + x1^-1"
    assert s1.x[1] == s0.x[1]
    s2 = mutate_seed(s1, gen2.pair, 0)
    assert s2.x == s0.x and s2.y == s0.y and s2.B.rows == s0.B.rows


@given(st.integers(0, 10 ** 6))
def test_mutate_seed_involution_random(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 3)
    pattern = random_pattern(rng, n)
    s0 = pattern.initial_seed()
    k = rng.randrange(n)
    s1 = mutate_seed(s0, pattern.pair, k)
    s2 = mutate_seed(s1, pattern.pair, k)
    assert s2.x == s0.x and s2.y == s0.y and s2.B.rows == s0.B.rows


def test_pentagon(a2):
    s = a2.seed_at((0, 1, 0, 1, 0))
    s0 = a2.initial_seed()
    assert s.x == (s0.x[1], s0.x[0])
    assert s.B.rows == ((0, -1), (1, 0))


def test_hexagon_closure(gen2):
    s = gen2.seed_at((0, 1) * 3)
    s0 = gen2.initial_seed()
    assert set(map(str, s.x)) == set(map(str, s0.x))


def test_hat_y(prin_a2):
    s0 = prin_a2.initial_seed()
    P = prin_a2.semifield
    y1 = P.generator("y1")
    want = LaurentPolynomial.monomial(2, P, (0, -1), y1.as_group_ring())
    assert hat_y(s0, 0) == want


def test_apply_path_matches_stepwise(gen2):
    path = (0, 1, 0, 1)
    s = gen2.initial_seed()
    for k in path:
        s = mutate_seed(s, gen2.pair, k)
    assert apply_path(gen2.initial_seed(), gen2.pair, path).x == s.x


def test_coefficient_walk_matches_full_mutation(gen2_coeff):
    path = (0, 1, 0, 1, 0)
    b, y = coefficient_walk(gen2_coeff, path)
    full = gen2_coeff.seed_at(path)
    assert b.rows == full.B.rows
    assert y == full.y


def test_rebase(gen2_coeff):
    path = (0, 1)
    rb = gen2_coeff.rebase(path)
    full = gen2_coeff.seed_at(path)
    assert rb.b0.rows == full.B.rows
    assert rb.y0 == full.y
    # walking back along the reversed path restores the original data
    b, y = coefficient_walk(rb, tuple(reversed(path)))
    assert b.rows == gen2_coeff.b0.rows and y == gen2_coeff.y0


# ---- cluster formula ----


def test_cluster_formula_basic(prin_a2, prin_gen2):
    for pattern, path in ((prin_a2, (0,)), (prin_gen2, (0, 1, 0))):
        rep = check_cluster_formula(pattern, path, trials=10)
        assert rep.ok and rep.checked == 10 and not rep.failures
        assert set(rep.determinants) <= {-1, 1}


def test_cluster_formula_from_moved_base(gen2_coeff):
    rep = check_cluster_formula(gen2_coeff, (0, 1), t0_path=(1,), trials=8)
    assert rep.ok and rep.checked == 8


def test_cluster_formula_deterministic(prin_a2):
    a = check_cluster_formula(prin_a2, (0, 1), trials=6, rng_seed=99)
    b = check_cluster_formula(prin_a2, (0, 1), trials=6, rng_seed=99)
    assert a == b


# ---- seed container checks ----


def test_seed_length_validation(a2):
    s0 = a2.initial_seed()
    with pytest.raises(DimensionError):
        Seed(s0.B, s0.x[:1], s0.y)


def test_render_shape(a2):
    r = a2.initial_seed().render()
    assert r == {"B": [[0, 1], [-1, 0]], "x": ["x1", "x2"], "y": ["1", "1"]}
