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

import math
from itertools import repeat
from operator import add, mul, sub

from . import matrices as mat
from .errors import (DimensionError, EvaluationError,
                     NegativeCoefficientExponentError, NonMonomialCoefficientError,
                     NotHomogeneousError)
from .laurent import GroupRingElement, LaurentPolynomial
from .seeds import (ClusterPattern, ExchangeMatrix, MutationPair, Seed,
                    apply_path, coefficient_walk, mutate_matrix)
from .semifield import TropicalSemifield


def d_step_weights(b: ExchangeMatrix, degrees, k):
    """The weights of the recurrence step in direction k at ``b``: the
    pairs (l, b_lk r_k) with b_lk > 0 and the pairs (l, -b_lk r_k) with
    b_lk < 0.  They depend on the exchange matrix only."""
    rk = degrees[k]
    pos, neg = [], []
    for l, row in enumerate(b.rows):
        if row[k] > 0:
            pos.append((l, row[k] * rk))
        elif row[k] < 0:
            neg.append((l, -row[k] * rk))
    return pos, neg


def d_step_apply(cols, k, pos, neg):
    """The columns after the recurrence step in direction k with weights
    ``(pos, neg)`` from ``d_step_weights``: every column but the k-th is
    kept, and the k-th becomes

        d_k' = -d_k + max(sum_{(l, w) in pos} d_l w, sum_{(l, w) in neg} d_l w)

    with the componentwise maximum.  Both sums are lazy ``map`` chains
    that start as an endless run of zeros; d_k cuts them to its length."""
    p = q = repeat(0)
    for l, w in pos:
        p = map(add, p, cols[l] if w == 1 else map(mul, cols[l], repeat(w)))
    for l, w in neg:
        q = map(add, q, cols[l] if w == 1 else map(mul, cols[l], repeat(w)))
    return cols[:k] + (tuple(map(sub, map(max, p, q), cols[k])),) + cols[k + 1:]


def d_recurrence_step(cols, b: ExchangeMatrix, degrees, k):
    """One step of the denominator recurrence: mutate in direction k.

    ``cols`` are the D-matrix columns at a seed with exchange matrix
    ``b``.  Returns ``d_step_apply`` with the weights
    ``d_step_weights(b, degrees, k)``: the new column tuple.
    """
    return d_step_apply(cols, k, *d_step_weights(b, degrees, k))


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
        self._separation = {}   # path -> seed, C, G, F terms (separation)

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
    return _c_columns(principal, coefficient_walk(principal, path)[1])


def _c_columns(principal: PrincipalPattern, y):
    """The y-exponent vectors of the coefficients ``y``; see ``c_matrix``."""
    for c in y:
        if any(principal.split_exponents(c.exponents)[1]):
            raise NonMonomialCoefficientError(
                "coefficient %s involves interior exchange generators" % (c,))
    return tuple(principal.split_exponents(c.exponents)[0] for c in y)


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
        d = tuple(exps[i] - sum(b0.rows[i][j] * ypart[j] for j in range(n))
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
    """S R C_t R^{-1} S^{-1} G_t^T = I with S the symmetrizer of R*B_{t0}.

    C and G are read from ``seed`` (the seed at ``path`` if none is
    given).  With w_k = S_k R_k and L = lcm(w), each entry is checked on
    ints: L delta_ij = w_i sum_k (c_k)_i (g_k)_j L / w_k.
    """
    if seed is None:
        seed = principal.seed_at(tuple(path))
    C = _c_columns(principal, seed.y)
    G = g_matrix(principal, seed)
    n = principal.n
    w = [s * r for s, r in zip(principal.rb_symmetrizer(), principal.pair.degrees)]
    L = math.lcm(*w)
    scaled = [[x * (L // wk) for x in c] for c, wk in zip(C, w)]
    return all(w[i] * sum(c[i] * g[j] for c, g in zip(scaled, G))
               == (L if i == j else 0) for i in range(n) for j in range(n))


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


def separation_reconstruct(general: ClusterPattern, principal: PrincipalPattern,
                           path, i: int):
    """Rebuild (y_{i;t}, x_{i;t}) of ``general`` from principal invariants.

        y_{i;t} = prod_j y_j^{c_{ji}} prod_j (F_j|_P)^{b_{ji}^t}
        x_{i;t} = (prod_j x_j^{g_{ji}}) F_i|_F(yhat, z) / F_i|_P(y, z)

    where C, G, F come from the principal pattern with the same initial
    matrix and degrees, |_P evaluates tropically at general's initial
    coefficients and interior z-values, and |_F substitutes
    yhat_j = y_j prod_i x_i^{b_{ij}} into the F-polynomial.  C is read
    from the principal seed's coefficients; G and F are computed for
    every variable, so a defect in any of them raises.  The principal
    seed, C, G and the F terms at ``path`` depend on ``principal``
    alone: they are built once per path and kept on ``principal`` for
    as long as it lives, and the seed is reached from the longest prefix
    of ``path`` kept there.  The values in P are computed on every call.
    Values in P are exponent vectors: a term u^e of an F-polynomial is
    worth sum_g e_g v_g, for v_g the vector of generator g's value, and
    tropical addition is the componentwise minimum (the coefficients
    must be positive).  x_{i;t} is built from one term dict.
    Returns the pair (coefficient, cluster variable).
    """
    if general.b0 != principal.b0:
        raise DimensionError("patterns disagree on the initial exchange matrix")
    if general.pair.degrees != principal.pair.degrees:
        raise DimensionError("patterns disagree on the exchange degrees")
    n = general.n
    P = general.semifield

    path, records = tuple(path), principal._separation
    if path not in records:
        cut = len(path)
        while cut and path[:cut] not in records:
            cut -= 1
        start = records[path[:cut]][0] if cut else principal.initial_seed()
        seed_pr = apply_path(start, principal.pair, path[cut:])
        C, G = _c_columns(principal, seed_pr.y), g_matrix(principal, seed_pr)
        terms_of = [f.terms() for f in f_polynomials(principal, seed_pr)]
        for terms in terms_of:
            for _, c in terms:
                if c <= 0:
                    raise EvaluationError(
                        "tropical evaluation needs positive coefficients, got %d" % c)
            if not terms:
                raise ValueError("cannot tropically evaluate the zero polynomial")
        records[path] = (seed_pr, C, G, terms_of)
    seed_pr, C, G, terms_of = records[path]
    value_cols = list(zip(*(v.exponents for v in _general_values(general, principal))))
    f_terms, f_trop = [], []   # per F: (terms, their vectors in P), its value
    for terms in terms_of:
        vecs = [tuple(sum(map(mul, e, col)) for col in value_cols) for e, _ in terms]
        f_terms.append((terms, vecs))
        f_trop.append(tuple(map(min, zip(*vecs))))

    y_vecs = [y.exponents for y in general.y0] + f_trop
    powers = C[i] + seed_pr.B.column(i)
    y_rec = P.monomial(sum(map(mul, col, powers)) for col in zip(*y_vecs))

    groups = {}   # x-exponent -> {P-exponent: coefficient}
    for (e, c), vec in zip(*f_terms[i]):
        ypart = principal.split_exponents(e)[0]
        xexp = tuple(g + sum(map(mul, row, ypart))
                     for g, row in zip(G[i], general.b0.rows))
        group = groups.setdefault(xexp, {})
        uexp = tuple(map(sub, vec, f_trop[i]))
        group[uexp] = group.get(uexp, 0) + c
    x_rec = LaurentPolynomial(n, P, {x: GroupRingElement(P, group)
                                     for x, group in groups.items()})
    return y_rec, x_rec
