import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gencluster import (DimensionError, LaurentPolynomial, NotHomogeneousError,
                        PrincipalPattern, Seed, c_matrix, check_cg_duality,
                        d_matrix_by_recurrence, d_matrix_from_laurent,
                        f_polynomial, f_polynomials, g_matrix, g_vector,
                        principal_companion, principal_pattern)
from gencluster.invariants import d_recurrence_step
from gencluster.seeds import mutate_seed
from test_seeds import random_pattern


# ---- denominator matrices ----


def test_d_recurrence_base_and_step(a2):
    assert d_matrix_by_recurrence(a2, ()) == ((-1, 0), (0, -1))
    assert d_matrix_by_recurrence(a2, (0,)) == ((1, 0), (0, -1))
    assert d_matrix_by_recurrence(a2, (0, 1)) == ((1, 0), (1, 1))


def test_d_recurrence_step_continues_a_path(gen2):
    start = d_matrix_by_recurrence(gen2, (0,))
    b = gen2.seed_at((0,)).B
    assert (d_recurrence_step(start, b, gen2.pair.degrees, 1)
            == d_matrix_by_recurrence(gen2, (0, 1)))


def check_random_path(seed):
    # small entries: deep seeds of wild patterns grow out of test scale.
    # With g = min over pairs of b_ij b_ji r_i r_j, terms grow fastest when
    # g <= -4 (affine or wild rank-2 parts), where depth 4 can take minutes
    # (seed 913: B=[[0,-2],[2,0]], degrees (2,2)); paths stop at depth 3
    # there and at depth 4 otherwise.
    rng = random.Random(seed)
    pattern = random_pattern(rng, rng.randint(2, 3), max_degree=2,
                             max_entry=1, max_scale=2)
    b, r = pattern.b0, pattern.pair.degrees
    g = min(b.rows[i][j] * b.rows[j][i] * r[i] * r[j]
            for i in range(pattern.n) for j in range(pattern.n))
    cap = 4 if g > -4 else 3
    path = tuple(rng.randrange(pattern.n) for _ in range(rng.randint(0, cap)))
    got = d_matrix_by_recurrence(pattern, path)
    assert got == d_matrix_from_laurent(pattern.seed_at(path))


@given(st.integers(0, 10 ** 6))
def test_d_recurrence_matches_laurent_on_random_paths(seed):
    check_random_path(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [12041, 3070, 11002])
def test_d_recurrence_matches_laurent_on_slow_draws(seed):
    # the slowest draws among seeds 0..29999: depth-3 paths on rank-3
    # patterns with g = -16, where one square u*u has thousands of terms
    check_random_path(seed)


# ---- principal patterns ----


def test_principal_generators():
    p = principal_pattern([[0, 1], [-1, 0]], degrees=(2, 1))
    assert p.semifield.generators == ("y1", "y2", "z1_1")
    assert p.y0 == (p.semifield.generator("y1"), p.semifield.generator("y2"))
    # reciprocal slots share one generator
    p3 = principal_pattern([[0, 1], [-1, 0]], degrees=(3, 1))
    assert p3.semifield.generators == ("y1", "y2", "z1_1")
    assert p3.pair.frozen[0][0] == p3.pair.frozen[0][1]
    p4 = principal_pattern([[0, 1], [-1, 0]], degrees=(4, 1))
    assert p4.semifield.generators == ("y1", "y2", "z1_1", "z1_2")


def test_principal_companion(gen2):
    p = principal_companion(gen2)
    assert isinstance(p, PrincipalPattern)
    assert p.b0.rows == gen2.b0.rows
    assert p.pair.degrees == gen2.pair.degrees


def test_c_matrix_values(prin_a2, prin_gen2):
    assert c_matrix(prin_a2, ()) == ((1, 0), (0, 1))
    assert c_matrix(prin_a2, (0,)) == ((-1, 0), (1, 1))
    assert c_matrix(prin_gen2, (0,)) == ((-1, 0), (2, 1))


def test_g_matrix_values(prin_a2, prin_gen2):
    s0 = prin_a2.initial_seed()
    assert g_matrix(prin_a2, s0) == ((1, 0), (0, 1))
    s1 = prin_a2.seed_at((0,))
    assert g_matrix(prin_a2, s1) == ((-1, 1), (0, 1))
    t1 = prin_gen2.seed_at((0,))
    assert g_matrix(prin_gen2, t1) == ((-1, 2), (0, 1))


def test_g_vector_rejects_inhomogeneous(prin_a2):
    P = prin_a2.semifield
    bad = (LaurentPolynomial.variable(2, P, 0)
           + LaurentPolynomial.variable(2, P, 1))
    with pytest.raises(NotHomogeneousError):
        g_vector(prin_a2, bad)


def test_f_polynomials(prin_a2, prin_gen2):
    s1 = prin_a2.seed_at((0,))
    assert [str(f) for f in f_polynomials(prin_a2, s1)] == ["1 + y1", "1"]
    t1 = prin_gen2.seed_at((0,))
    assert str(f_polynomial(prin_gen2, t1.x[0])) == "1 + y1*z1_1 + y1^2"
    s0 = prin_a2.initial_seed()
    assert all(f.is_one() for f in f_polynomials(prin_a2, s0))


def test_f_polynomial_constant_term_is_one(prin_gen2):
    # observed across the whole finite pattern; every F has terms and
    # the all-zero y-exponent appears with coefficient 1
    from gencluster import explore
    g = explore(prin_gen2, depth_limit=12)
    zero = (0,) * prin_gen2.semifield.ngens
    for rec in g.vertices:
        for f in f_polynomials(prin_gen2, rec.reached):
            terms = dict(f.terms())
            assert terms.get(zero) == 1


def test_cg_duality(prin_a2, prin_gen2):
    for pattern in (prin_a2, prin_gen2):
        for path in ((), (0,), (1,), (0, 1), (0, 1, 0, 1), (1, 0, 1, 0, 1)):
            assert check_cg_duality(pattern, path)


def test_cg_duality_reads_the_given_seed(prin_a2, prin_gen2):
    # C comes from the seed's own coefficients: inverting one of them
    # breaks the duality even though the path is unchanged
    for pattern in (prin_a2, prin_gen2):
        path = (0, 1)
        seed = pattern.seed_at(path)
        assert check_cg_duality(pattern, path, seed)
        altered = Seed(seed.B, seed.x, (seed.y[0].inverse(),) + seed.y[1:])
        assert not check_cg_duality(pattern, path, altered)


def _cg_duality_by_fractions(principal, seed):
    """S R C R^{-1} S^{-1} G^T = I entry by entry in Fractions: the
    reference for ``check_cg_duality``."""
    n = principal.n
    R, S = principal.pair.degrees, principal.rb_symmetrizer()
    C = [principal.split_exponents(c.exponents)[0] for c in seed.y]
    G = g_matrix(principal, seed)
    return all(sum(Fraction(S[i] * R[i] * C[k][i] * G[k][j], R[k] * S[k])
                   for k in range(n)) == (i == j)
               for i in range(n) for j in range(n))


@given(st.integers(0, 10 ** 6))
def test_cg_duality_random_principal(seed):
    rng = random.Random(seed)
    base = random_pattern(rng, 2, max_degree=2, max_entry=1, max_scale=2)
    p = principal_pattern(base.b0.rows, degrees=base.pair.degrees)
    path = tuple(rng.randrange(2) for _ in range(rng.randint(0, 3)))
    assert check_cg_duality(p, path)
    at = p.seed_at(path)
    k = rng.randrange(2)
    altered = Seed(at.B, at.x, tuple(c.inverse() if i == k else c
                                     for i, c in enumerate(at.y)))
    for s in (at, altered):
        assert check_cg_duality(p, path, s) == _cg_duality_by_fractions(p, s)


# ---- separation of additions ----


def _check_separation(pattern, paths):
    from gencluster import separation_reconstruct
    principal = principal_companion(pattern)
    for path in paths:
        seed = pattern.seed_at(path)
        for i in range(pattern.n):
            y_rec, x_rec = separation_reconstruct(pattern, principal, path, i)
            assert y_rec == seed.y[i]
            assert x_rec == seed.x[i]


def test_separation_classic(a2_coeff):
    _check_separation(a2_coeff, [(), (0,), (1, 0), (0, 1, 0), (0, 1, 0, 1)])


def test_separation_generalized(gen2_coeff):
    _check_separation(gen2_coeff, [(), (0,), (0, 1), (0, 1, 0), (1, 0, 1, 0)])


def test_separation_rejects_mismatched_patterns(gen2_coeff, prin_a2):
    from gencluster import separation_reconstruct
    with pytest.raises(DimensionError):
        separation_reconstruct(gen2_coeff, prin_a2, (0,), 0)


def test_separation_on_the_complete_gen3_graph(gen3, gen3_graph):
    # rank 3 with tropical y and an interior coefficient: all 60 values
    assert gen3_graph.complete and gen3_graph.vertex_count() == 20
    _check_separation(gen3, [rec.path for rec in gen3_graph.vertices])


def test_separation_sweep_mutates_once_per_principal_seed(gen3, gen3_graph,
                                                          monkeypatch):
    # 20 seeds, the initial one free: each BFS path extends one asked before
    import gencluster.seeds as seeds_module
    from gencluster import separation_reconstruct
    calls = []

    def counting(seed, pair, k):
        calls.append(k)
        return mutate_seed(seed, pair, k)

    monkeypatch.setattr(seeds_module, "mutate_seed", counting)
    principal = principal_companion(gen3)
    for rec in gen3_graph.vertices:
        for i in range(gen3.n):
            y_rec, x_rec = separation_reconstruct(gen3, principal, rec.path, i)
            assert y_rec == rec.reached.y[i] and x_rec == rec.reached.x[i]
    assert len(calls) == 19


@given(st.integers(0, 10 ** 6))
def test_separation_records_hold_the_seed_at_their_path(gen2_coeff, gen3, seed):
    # fresh principal patterns; a record's seed is built from the longest
    # prefix kept, and asking again for a path reuses its record
    from gencluster import separation_reconstruct
    rng = random.Random(seed)
    for general in (gen2_coeff, gen3):
        principal = principal_companion(general)
        paths = [tuple(rng.randrange(general.n) for _ in range(rng.randint(0, 4)))
                 for _ in range(3)]
        paths.append(paths[0] + paths[1])
        for path in paths:
            separation_reconstruct(general, principal, path, 0)
            assert principal._separation[path][0] == principal.seed_at(path)
        kept = dict(principal._separation)
        for path in paths:
            separation_reconstruct(general, principal, list(path), general.n - 1)
            assert principal._separation[path] is kept[path]
        assert len(principal._separation) == len(kept)


@pytest.mark.parametrize("name", ["g_vector", "f_polynomial"])
def test_separation_builds_every_variable(gen2_coeff, monkeypatch, name):
    # a defect in variable 1 raises when only variable 0 is asked for
    import gencluster.invariants as inv
    from gencluster import separation_reconstruct
    principal, path = principal_companion(gen2_coeff), (0, 1)
    bad = principal.seed_at(path).x[1]
    real = getattr(inv, name)

    def failing(p, var):
        if var == bad:
            raise NotHomogeneousError("planted defect")
        return real(p, var)

    monkeypatch.setattr(inv, name, failing)
    with pytest.raises(NotHomogeneousError):
        separation_reconstruct(gen2_coeff, principal, path, 0)
    monkeypatch.undo()
    y_rec, x_rec = separation_reconstruct(gen2_coeff, principal, path, 0)
    assert x_rec == gen2_coeff.seed_at(path).x[0]
