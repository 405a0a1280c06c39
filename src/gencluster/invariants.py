r"""Denominator vectors, principal coefficients and separation.

Matrix-valued invariants are returned as tuples of COLUMN vectors: the
i-th entry is the vector attached to the i-th cluster variable or
coefficient of the seed.  (Exchange matrices themselves stay row-major;
only the derived D/C/G matrices use columns.)

Principal patterns are built over Trop(y_1, ..., y_n, z...) where the
z-generators stand for the interior exchange-polynomial coefficients,
one generator per reciprocal orbit {s, r_k - s}.  For such patterns the
cluster variables of any seed are Laurent polynomials whose coefficients
are plain polynomials in (y, z); restricting x -> 1 yields the
F-polynomials, and the multigrading deg(x_i) = e_i, deg(y_j) = -(column
j of B_{t0}), deg(z) = 0 makes them homogeneous with degree the
g-vector.
"""

from __future__ import annotations

from fractions import Fraction

from . import matrices as mat
from .errors import (DimensionError, EvaluationError,
                     NegativeCoefficientExponentError, NonMonomialCoefficientError,
                     NotHomogeneousError)
from .laurent import LaurentPolynomial
from .seeds import (ClusterPattern, ExchangeMatrix, MutationPair, Seed,
                    coefficient_walk, mutate_matrix)
from .semifield import GroupRingElement, TropicalSemifield


def d_recurrence_step(cols, b: ExchangeMatrix, degrees, k):
    """One step of the denominator recurrence: mutate in direction k.

    ``cols`` are the D-matrix columns at a seed with exchange matrix
    ``b``.  Every column but the k-th is kept; the k-th becomes

        d_k' = -d_k + max(sum_{b_{lk} > 0} d_l b_{lk} r_k,
                          sum_{b_{lk} < 0} -d_l b_{lk} r_k)

    with the componentwise maximum.  Returns the new column tuple.
    """
    n = b.n
    rk = degrees[k]
    pos_sum = [0] * n
    neg_sum = [0] * n
    for l in range(n):
        w = b.rows[l][k] * rk
        if w > 0:
            for i in range(n):
                pos_sum[i] += cols[l][i] * w
        elif w < 0:
            for i in range(n):
                neg_sum[i] -= cols[l][i] * w
    new_k = tuple(-cols[k][i] + max(pos_sum[i], neg_sum[i]) for i in range(n))
    return cols[:k] + (new_k,) + cols[k + 1:]


def d_matrix_by_recurrence(pattern: ClusterPattern, path):
    """D-matrix of the seed at ``path`` via the integer recurrence.

    Starts from D = -I at the initial seed and applies
    ``d_recurrence_step`` along the path.  Pure integer arithmetic; no
    cluster expansion involved.  Returns a tuple of n column tuples.
    """
    b, degrees = pattern.b0, pattern.pair.degrees
    cols = mat.identity(b.n, -1)
    for k in path:
        cols = d_recurrence_step(cols, b, degrees, k)
        b = mutate_matrix(b, degrees, k)
    return cols


def d_matrix_from_laurent(seed: Seed):
    """Columns = denominator vectors of the cluster variables."""
    return tuple(v.denominator_vector() for v in seed.x)


# ---- principal coefficients ----


class PrincipalPattern(ClusterPattern):
    """Pattern over Trop(y, z) with formal coefficients.

    ``z_slot[(k, s)]`` maps an interior coefficient position (0-based
    direction k, 1 <= s <= r_k - 1) to the index of its generator in the
    semifield; reciprocal positions share a generator.
    """

    def __init__(self, b0: ExchangeMatrix, degrees):
        degrees = tuple(int(r) for r in degrees)
        n = b0.n
        names = ["y%d" % (i + 1) for i in range(n)]
        z_slot = {}
        for k, r in enumerate(degrees):
            for s in range(1, r):
                rep = min(s, r - s)
                key = (k, rep)
                if key not in z_slot:
                    z_slot[key] = len(names)
                    names.append("z%d_%d" % (k + 1, rep))
                z_slot[(k, s)] = z_slot[key]
        semifield = TropicalSemifield(names)
        frozen = [tuple(semifield.generator(z_slot[(k, s)])
                        for s in range(1, degrees[k]))
                  for k in range(n)]
        pair = MutationPair(semifield, degrees, frozen)
        y0 = tuple(semifield.generator(i) for i in range(n))
        super().__init__(b0, pair, y0)
        self.z_slot = z_slot
        self.n_y = n

    def split_exponents(self, exps):
        """Split a semifield exponent tuple into (y part, z part)."""
        return exps[:self.n_y], exps[self.n_y:]


def principal_pattern(rows, degrees=None) -> PrincipalPattern:
    b0 = rows if isinstance(rows, ExchangeMatrix) else ExchangeMatrix(rows)
    if degrees is None:
        degrees = (1,) * b0.n
    return PrincipalPattern(b0, degrees)


def principal_companion(pattern: ClusterPattern) -> PrincipalPattern:
    """The principal-coefficient pattern sharing B and the degrees."""
    return PrincipalPattern(pattern.b0, pattern.pair.degrees)


def c_matrix(principal: PrincipalPattern, path):
    """Columns c_i = y-exponent vectors of the coefficients at ``path``.

    The coefficients of a principal pattern stay monomials in the y
    generators alone; any z-exponent would mean the pattern is not
    principal and raises NonMonomialCoefficientError.
    """
    _, y = coefficient_walk(principal, path)
    cols = []
    for c in y:
        ypart, zpart = principal.split_exponents(c.exponents)
        if any(e != 0 for e in zpart):
            raise NonMonomialCoefficientError(
                "coefficient %s involves interior exchange generators" % (c,))
        cols.append(tuple(ypart))
    return tuple(cols)


def g_vector(principal: PrincipalPattern, seed_var: LaurentPolynomial):
    """Degree of a homogeneous cluster variable under the principal grading.

    deg(x_i) = e_i, deg(y_j) = -(column j of B_{t0}), deg(z) = 0.
    Raises NotHomogeneousError when the terms disagree.
    """
    n = principal.n
    b0 = principal.b0
    deg = None
    for exps, _ in seed_var.terms():
        ypart, _ = principal.split_exponents(exps[n:])
        d = tuple(exps[i] - sum(b0.entry(i, j) * ypart[j] for j in range(n))
                  for i in range(n))
        if deg is None:
            deg = d
        elif deg != d:
            raise NotHomogeneousError(
                "terms of %s have degrees %s and %s" % (seed_var, deg, d))
    if deg is None:
        raise ValueError("zero polynomial has no degree")
    return deg


def g_matrix(principal: PrincipalPattern, seed: Seed):
    return tuple(g_vector(principal, v) for v in seed.x)


def f_polynomial(principal: PrincipalPattern, seed_var: LaurentPolynomial
                 ) -> GroupRingElement:
    """Restrict a principal cluster variable to x_1 = ... = x_n = 1.

    The result is the coefficient sum, a polynomial in the (y, z)
    generators.  Exponents must already be nonnegative; a negative one
    would contradict the polynomiality of principal coefficients and
    raises NegativeCoefficientExponentError.
    """
    n = principal.n
    total = {}
    for exps, c in seed_var.terms():
        cexps = exps[n:]
        if min(cexps) < 0:
            raise NegativeCoefficientExponentError(
                "negative generator exponent in %s" % (seed_var,))
        total[cexps] = total.get(cexps, 0) + c
    return GroupRingElement(principal.semifield, total)


def f_polynomials(principal: PrincipalPattern, seed: Seed):
    return tuple(f_polynomial(principal, v) for v in seed.x)


def check_cg_duality(principal: PrincipalPattern, path, seed: Seed = None) -> bool:
    """S R C_t R^{-1} S^{-1} G_t^T = I with S the symmetrizer of R*B_{t0}."""
    path = tuple(path)
    if seed is None:
        seed = principal.seed_at(path)
    C = c_matrix(principal, path)
    G = g_matrix(principal, seed)
    n = principal.n
    R = principal.pair.degrees
    S = principal.rb_symmetrizer()
    # rows of the row-major matrices: C_rows[j][i] = (c_i)_j
    c_rows = tuple(tuple(Fraction(C[i][j]) for i in range(n)) for j in range(n))
    g_rows = tuple(tuple(Fraction(G[i][j]) for i in range(n)) for j in range(n))
    m = mat.scale_rows([S[i] * R[i] for i in range(n)], c_rows)
    m = mat.scale_columns(m, [Fraction(1, R[j] * S[j]) for j in range(n)])
    lhs = mat.mat_mul(m, mat.transpose(g_rows))
    return lhs == mat.identity(n, Fraction(1))


# ---- separation of additions ----


def _general_values(general: ClusterPattern, principal: PrincipalPattern):
    """Per-generator values of the principal semifield inside general's P."""
    vals = list(general.y0)
    slots = sorted(set(principal.z_slot.values()))
    by_index = {}
    for (k, s), idx in principal.z_slot.items():
        by_index.setdefault(idx, (k, s))
    for idx in slots:
        k, s = by_index[idx]
        vals.append(general.pair.frozen[k][s - 1])
    return vals


def _tropical_eval(fpoly: GroupRingElement, values):
    """Evaluate an integer-coefficient polynomial in a tropical semifield.

    Positive integer coefficients collapse (a (+) a = a); a negative or
    zero coefficient has no tropical meaning and raises EvaluationError.
    """
    acc = None
    for exps, c in fpoly.terms():
        if c <= 0:
            raise EvaluationError(
                "tropical evaluation needs positive coefficients, got %d" % c)
        term = values[0].semifield.one() if values else None
        if term is None:
            raise ValueError("no generator values supplied")
        for v, e in zip(values, exps):
            if e:
                term = term * v ** e
        acc = term if acc is None else acc.tropical_add(term)
    if acc is None:
        raise ValueError("cannot tropically evaluate the zero polynomial")
    return acc


def separation_reconstruct(general: ClusterPattern, principal: PrincipalPattern,
                           path, i: int):
    """Rebuild (y_{i;t}, x_{i;t}) of ``general`` from principal invariants.

        y_{i;t} = prod_j y_j^{c_{ji}} prod_j (F_j|_P)^{b_{ji}^t}
        x_{i;t} = (prod_j x_j^{g_{ji}}) F_i|_F(yhat, z) / F_i|_P(y, z)

    where C, G, F come from the principal pattern with the same initial
    matrix and degrees, |_P evaluates tropically at general's initial
    coefficients and interior z-values, and |_F substitutes
    yhat_j = y_j prod_i x_i^{b_{ij}} into the F-polynomial.
    Returns the pair (coefficient, cluster variable).
    """
    if general.b0 != principal.b0:
        raise DimensionError("patterns disagree on the initial exchange matrix")
    if general.pair.degrees != principal.pair.degrees:
        raise DimensionError("patterns disagree on the exchange degrees")
    path = tuple(path)
    n = general.n
    P = general.semifield

    seed_pr = principal.seed_at(path)
    C = c_matrix(principal, path)
    G = g_matrix(principal, seed_pr)
    F = f_polynomials(principal, seed_pr)
    b_t = seed_pr.B

    values = _general_values(general, principal)
    f_trop = [_tropical_eval(f, values) for f in F]

    y_rec = P.one()
    for j in range(n):
        y_rec = y_rec * general.y0[j] ** C[i][j]
    for j in range(n):
        y_rec = y_rec * f_trop[j] ** b_t.entry(j, i)

    x_rec = LaurentPolynomial.monomial(n, P, G[i])
    khat = LaurentPolynomial.zero(n, P)
    b0 = general.b0
    for exps, c in F[i].terms():
        ypart, _ = principal.split_exponents(exps)
        xexp = tuple(sum(b0.entry(l, j) * ypart[j] for j in range(n))
                     for l in range(n))
        scalar = P.one()
        for v, e in zip(values, exps):
            if e:
                scalar = scalar * v ** e
        khat = khat + LaurentPolynomial.monomial(n, P, xexp, scalar.as_group_ring(c))
    x_rec = (x_rec * khat).scalar_mul(f_trop[i].inverse())
    return y_rec, x_rec
