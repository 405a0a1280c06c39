r"""Seeds, exchange matrices and polynomial seed mutation.

A pattern of geometric type is determined by

* an ``ExchangeMatrix`` B (integer, skew-symmetrizable),
* a ``MutationPair``: positive integer exchange degrees (r_1, ..., r_n)
  together with, for every direction k, the interior coefficients
  (z_{k,1}, ..., z_{k,r_k-1}) of a reciprocal exchange polynomial

      Z_k(u) = 1 + z_{k,1} u + ... + z_{k,r_k-1} u^{r_k-1} + u^{r_k},

  with z_{k,s} = z_{k,r_k-s}, all z monomials in the coefficient
  semifield (so Z_k tropicalizes to an invertible monomial),
* initial coefficients y_1, ..., y_n in the tropical semifield.

Matrix convention (documented once, used everywhere): mutation in
direction k reads column k of B, i.e. the exchange relation for x_k
uses the exponents b_{ik} = B[i][k].  Row k of B drives the coefficient
mutation.  The classic theory is the special case r_k = 1 for all k,
where every Z_k(u) = 1 + u.

Mutation in direction k replaces x_k by

    x_k' = x_k^{-1} (prod_j x_j^{[-b_{jk}]_+})^{r_k} Z_k(yhat_k) / Z_k|_P(y_k)

with yhat_k = y_k prod_i x_i^{b_{ik}}.  The implementation clears
denominators first: with U = y_k prod x_i^{[b_{ik}]_+} and
V = prod x_i^{[-b_{ik}]_+} the numerator is the genuine Laurent
polynomial sum_s z_{k,s} U^s V^{r_k - s}, divided exactly by x_k and by
the tropical monomial Z_k|_P(y_k).  Indices are 0-based in this API.

The coefficients mutate as plain integer vectors (Fomin-Zelevinsky,
Cluster algebras IV; Nakanishi 2015 for the generalized case).  Writing
each semifield element by its exponent vector, Z_k|_P(y_k) is the
componentwise minimum over 0 <= s <= r_k of z_{k,s} + s*y_k (with
z_{k,0} = z_{k,r_k} = 0), y_k' = -y_k, and for i != k

    y_i' = y_i + r_k [b_{ki}]_+ y_k - b_{ki} Z_k|_P(y_k).
"""

from __future__ import annotations

import functools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

from . import matrices as mat
from .errors import DimensionError, NotSkewSymmetrizableError
from .laurent import LaurentPolynomial
from .semifield import SemifieldElement, TropicalSemifield


def find_skew_symmetrizer(rows):
    """Smallest positive integer diagonal S with S*M skew-symmetric.

    Entries are normalized to have gcd 1 within each connected component
    of the nonzero pattern of M; indices touching no nonzero entry get 1.
    Raises NotSkewSymmetrizableError on sign violations or inconsistent
    ratio cycles.
    """
    m = mat.freeze(rows)
    n = len(m)
    for row in m:
        if len(row) != n:
            raise DimensionError("matrix is not square")
    for i in range(n):
        if m[i][i] != 0:
            raise NotSkewSymmetrizableError("nonzero diagonal entry at %d" % i)
        for j in range(n):
            if (m[i][j] == 0) != (m[j][i] == 0):
                raise NotSkewSymmetrizableError(
                    "zero pattern not symmetric at (%d, %d)" % (i, j))
            if m[i][j] * m[j][i] > 0:
                raise NotSkewSymmetrizableError(
                    "entries (%d, %d) and (%d, %d) have the same sign" % (i, j, j, i))

    s = [None] * n
    for root in range(n):
        if s[root] is not None:
            continue
        s[root] = Fraction(1)
        component = [root]
        stack = [root]
        while stack:
            i = stack.pop()
            for j in range(n):
                if m[i][j] == 0:
                    continue
                ratio = Fraction(-m[i][j], m[j][i])  # s_j / s_i
                want = s[i] * ratio
                if s[j] is None:
                    s[j] = want
                    component.append(j)
                    stack.append(j)
                elif s[j] != want:
                    raise NotSkewSymmetrizableError(
                        "inconsistent symmetrizer ratios on a cycle through %d" % j)
        lcm_den = math.lcm(*(s[i].denominator for i in component))
        g = math.gcd(*(int(s[i] * lcm_den) for i in component))
        for i in component:
            s[i] = s[i] * lcm_den / g
    out = tuple(int(v) for v in s)
    check = mat.scale_rows(out, m)
    if any(check[i][j] != -check[j][i] for i in range(n) for j in range(n)):
        raise NotSkewSymmetrizableError("symmetrizer candidate failed verification")
    return out


class ExchangeMatrix:
    """Skew-symmetrizable integer matrix; validated at construction."""

    __slots__ = ("rows", "n", "symmetrizer")

    def __init__(self, rows):
        self.rows = mat.freeze(rows)
        self.n = len(self.rows)
        if not all(isinstance(v, int) for row in self.rows for v in row):
            raise TypeError("exchange matrix entries must be ints")
        self.symmetrizer = find_skew_symmetrizer(self.rows)

    @classmethod
    def _derived(cls, rows, symmetrizer):
        """Wrap mutation results, which inherit the symmetrizer."""
        out = object.__new__(cls)
        out.rows, out.n, out.symmetrizer = rows, len(rows), symmetrizer
        return out

    def column(self, k):
        return tuple(self.rows[i][k] for i in range(self.n))

    def to_lists(self):
        return [list(r) for r in self.rows]

    def __eq__(self, other):
        return isinstance(other, ExchangeMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __str__(self):
        return "[" + ", ".join("[" + ", ".join(map(str, r)) + "]" for r in self.rows) + "]"

    def __repr__(self):
        return "ExchangeMatrix(%s)" % (str(self),)


class MutationPair:
    """Exchange degrees and reciprocal exchange-polynomial coefficients.

    ``degrees[k]`` is r_k >= 1; ``frozen[k]`` is the tuple
    (z_{k,1}, ..., z_{k,r_k-1}) of SemifieldElements, validated to be
    reciprocal (z_{k,s} = z_{k,r_k-s}).  Directions with r_k = 1 have an
    empty tuple and the classic binomial exchange.
    """

    __slots__ = ("semifield", "degrees", "frozen")

    def __init__(self, semifield: TropicalSemifield, degrees, frozen=None):
        self.semifield = semifield
        self.degrees = tuple(int(r) for r in degrees)
        n = len(self.degrees)
        for r in self.degrees:
            if r < 1:
                raise ValueError("exchange degrees must be positive")
        if frozen is None:
            # all interior coefficients 1: reciprocal for every degree
            one = semifield.one()
            frozen = [(one,) * (r - 1) for r in self.degrees]
        zs = []
        for k, z_k in enumerate(frozen):
            z_k = tuple(z_k)
            r = self.degrees[k]
            if len(z_k) != r - 1:
                raise DimensionError(
                    "direction %d: expected %d interior coefficients, got %d"
                    % (k, r - 1, len(z_k)))
            for z in z_k:
                if not isinstance(z, SemifieldElement):
                    raise TypeError("interior coefficients must be SemifieldElements")
                if z.semifield != semifield:
                    raise DimensionError("interior coefficient over the wrong semifield")
            for s in range(1, r):
                if z_k[s - 1] != z_k[r - s - 1]:
                    raise ValueError(
                        "direction %d: coefficients are not reciprocal" % k)
            zs.append(z_k)
        self.frozen = tuple(zs)

    @property
    def n(self):
        return len(self.degrees)

    def poly_coeffs(self, k):
        """Full coefficient tuple (1, z_{k,1}, ..., z_{k,r_k-1}, 1)."""
        one = self.semifield.one()
        return (one,) + self.frozen[k] + (one,)

    def __eq__(self, other):
        return (isinstance(other, MutationPair)
                and self.semifield == other.semifield
                and self.degrees == other.degrees
                and self.frozen == other.frozen)

    def __hash__(self):
        return hash((self.semifield.generators, self.degrees, self.frozen))

    def __repr__(self):
        return "MutationPair(degrees=%r)" % (list(self.degrees),)


@dataclass(frozen=True)
class Seed:
    """An exchange matrix, a cluster and a coefficient tuple."""

    B: ExchangeMatrix
    x: tuple
    y: tuple

    def __post_init__(self):
        n = self.B.n
        if len(self.x) != n or len(self.y) != n:
            raise DimensionError("cluster or coefficient tuple of wrong length")

    @property
    def n(self):
        return self.B.n

    def render(self):
        return {"B": self.B.to_lists(),
                "x": [str(v) for v in self.x],
                "y": [str(c) for c in self.y]}


def mutate_matrix(B: ExchangeMatrix, pair, k: int) -> ExchangeMatrix:
    """Matrix mutation in direction k with exchange degrees r.

    b'_{ij} = -b_{ij} when i = k or j = k, otherwise
    b'_{ij} = b_{ij} + r_k (b_{ik} [-b_{kj}]_+ + [b_{ik}]_+ b_{kj}),
    that is b_{ij} + b_{ik} r_k [b_{kj}]_+ when b_{ik} > 0 and
    b_{ij} + b_{ik} r_k [-b_{kj}]_+ when b_{ik} < 0; a row with
    b_{ik} = 0 is kept.

    Mutation keeps B's skew-symmetrizer S, so the result carries S after
    a check that s_i b'_{ij} = -s_j b'_{ji} for row k and every row with
    b_{ik} != 0, against every column; the other rows are B's own, which
    satisfied it already.
    """
    degrees = pair.degrees if isinstance(pair, MutationPair) else tuple(pair)
    if not 0 <= k < B.n:
        raise IndexError("mutation direction out of range")
    rk = degrees[k]
    row_k = B.rows[k]
    up = [rk * v if v > 0 else 0 for v in row_k]       # r_k [b_kj]_+
    down = [-rk * v if v < 0 else 0 for v in row_k]    # r_k [-b_kj]_+
    new = []
    for i, row in enumerate(B.rows):
        bik = row[k]
        if i == k:
            row = tuple(-v for v in row)
        elif bik:
            out = [v + bik * a for v, a in zip(row, up if bik > 0 else down)]
            out[k] = -bik
            row = tuple(out)
        new.append(row)
    new = tuple(new)
    s = B.symmetrizer
    for i in range(B.n):
        if i != k and not B.rows[i][k]:
            continue
        si = s[i]
        if any(si * v != -sj * other[i] for v, sj, other in zip(new[i], s, new)):
            raise NotSkewSymmetrizableError("mutation lost the skew-symmetrizer")
    return ExchangeMatrix._derived(new, s)


def check_classic_compat(B: ExchangeMatrix, pair: MutationPair, k: int) -> bool:
    """mu_k(B) * R must equal the classic mutation of B * R in direction k."""
    R = pair.degrees
    left = mat.scale_columns(mutate_matrix(B, pair, k).rows, R)
    companion = ExchangeMatrix(mat.scale_columns(B.rows, R))
    right = mutate_matrix(companion, (1,) * B.n, k).rows
    return left == right


def _exchange_monomials(seed: Seed, k: int):
    """U = y_k prod_i x_i^{[b_{ik}]_+} and V = prod_i x_i^{[-b_{ik}]_+}."""
    col = seed.B.column(k)
    u = _product([seed.x[i] ** b for i, b in enumerate(col) if b > 0], seed)
    v = _product([seed.x[i] ** -b for i, b in enumerate(col) if b < 0], seed)
    return u._unit_mul(seed.y[k].exponents), v


def _product(factors, seed: Seed):
    """The product of a list of factors; the unit is built only for an
    empty list and never multiplied in."""
    if not factors:
        return LaurentPolynomial.one(seed.n, seed.y[0].semifield)
    return functools.reduce(operator.mul, factors)


def _mutate_coefficients(y, row, pair: MutationPair, k: int):
    """y mutated in direction k (``row`` is row k of B) and the exponent
    vector of the unit Z_k|_P(y_k) of ZP, on exponent vectors (see the
    module docstring).  Coefficients with b_{ki} = 0 are kept as they
    are; each changed one is wrapped once."""
    rk = pair.degrees[k]
    yk = y[k].exponents
    trop = tuple(min(0, rk * e) for e in yk)
    for s, z in enumerate(pair.frozen[k], 1):
        trop = tuple(min(t, ze + s * e) for t, ze, e in zip(trop, z.exponents, yk))
    new = list(y)
    for i, b in enumerate(row):
        if i == k:
            new[i] = y[k].inverse()
        elif b:
            up = rk * b if b > 0 else 0
            new[i] = y[i]._result(tuple(
                yi + up * e - b * t for yi, e, t in zip(y[i].exponents, yk, trop)))
    return tuple(new), trop


def hat_y(seed: Seed, k: int) -> LaurentPolynomial:
    """yhat_k = y_k prod_i x_i^{b_{ik}} expanded over the ambient ring.

    At seeds whose cluster variables carry genuine denominators this can
    leave the Laurent ring, in which case NotLaurentError propagates.
    """
    u, v = _exchange_monomials(seed, k)
    return u.exact_div(v)


def _mutate_exchange_data(seed: Seed, pair: MutationPair, k: int):
    """B and y mutated in direction k, and the exponent vector of the
    unit Z_k|_P(y_k): the part of a seed mutation that needs no cluster
    arithmetic.  ``mutate_seed`` builds x_k' on top of it; exploration
    uses it alone on a back edge, where x_k' is the variable the edge
    came from (mutation is an involution)."""
    y_new, trop = _mutate_coefficients(seed.y, seed.B.rows[k], pair, k)
    return mutate_matrix(seed.B, pair, k), y_new, trop


def mutate_seed(seed: Seed, pair: MutationPair, k: int) -> Seed:
    """One seed mutation in direction k; exact, involutive."""
    n = seed.n
    if not 0 <= k < n:
        raise IndexError("mutation direction out of range")
    rk = pair.degrees[k]
    coeffs = pair.poly_coeffs(k)

    u, v = _exchange_monomials(seed, k)
    # U^s = U^(s//2) * U^(s - s//2), so every even power is a square
    u_pows, v_pows = [None, u], [None, v]
    for s in range(2, rk + 1):
        u_pows.append(u_pows[s // 2] * u_pows[s - s // 2])
        v_pows.append(v_pows[s // 2] * v_pows[s - s // 2])
    numerator = u_pows[rk] + v_pows[rk]          # c_0 = c_r = 1
    for s in range(1, rk):
        numerator = numerator + (u_pows[s] * v_pows[rk - s])._unit_mul(coeffs[s].exponents)

    b_new, y_new, trop = _mutate_exchange_data(seed, pair, k)
    x_new = numerator.exact_div(seed.x[k])._unit_mul(tuple(-t for t in trop))

    xs = list(seed.x)
    xs[k] = x_new
    return Seed(b_new, tuple(xs), y_new)


def _mutate_residue(seed: Seed, pair: MutationPair, k: int, xs, us, p):
    """The x_k' of ``mutate_seed`` mod the prime p where seed.x is xs and
    the generators are the nonzero us: term s of the exchange relation is
    c_s U^s V^(r_k - s) u^-trop.  None when xs[k] is 0 (x_k' is open)."""
    if not xs[k]:
        return None
    col, yk, rk = seed.B.column(k), seed.y[k].exponents, pair.degrees[k]
    _, trop = _mutate_coefficients(seed.y, seed.B.rows[k], pair, k)
    up = math.prod(pow(x, b, p) for x, b in zip(xs, col) if b > 0)
    down = math.prod(pow(x, -b, p) for x, b in zip(xs, col) if b < 0)
    numerator = sum(math.prod(pow(u, ce + s * e - t, p) for u, ce, e, t
                              in zip(us, c.exponents, yk, trop))
                    * pow(up, s, p) * pow(down, rk - s, p)
                    for s, c in enumerate(pair.poly_coeffs(k)))
    return numerator * pow(xs[k], -1, p) % p


def apply_path(seed: Seed, pair: MutationPair, path) -> Seed:
    """Fold mutate_seed along a tuple of directions (0-based)."""
    current = seed
    for k in path:
        current = mutate_seed(current, pair, k)
    return current


class ClusterPattern:
    """A coefficient semifield, a mutation pair and an initial seed.

    The initial cluster consists of the free generators x1 ... xn, so
    every seed reached by ``seed_at`` carries its cluster expanded over
    the initial one.
    """

    def __init__(self, b0: ExchangeMatrix, pair: MutationPair, y0):
        if pair.n != b0.n:
            raise DimensionError("mutation pair and matrix rank differ")
        y0 = tuple(y0)
        if len(y0) != b0.n:
            raise DimensionError("initial coefficient tuple of wrong length")
        for c in y0:
            if not isinstance(c, SemifieldElement) or c.semifield != pair.semifield:
                raise DimensionError("initial coefficients must live in the pattern semifield")
        self.b0 = b0
        self.pair = pair
        self.y0 = y0
        self.semifield = pair.semifield
        self.n = b0.n
        self._rb_symmetrizer = None

    @classmethod
    def build(cls, rows, degrees=None, semifield=None, y0=None, frozen=None):
        """Convenience constructor from raw data."""
        b0 = ExchangeMatrix(rows)
        if semifield is None:
            semifield = TropicalSemifield()
        if degrees is None:
            degrees = (1,) * b0.n
        pair = MutationPair(semifield, degrees, frozen)
        if y0 is None:
            y0 = tuple(semifield.one() for _ in range(b0.n))
        return cls(b0, pair, y0)

    def initial_seed(self) -> Seed:
        n = self.n
        xs = tuple(LaurentPolynomial.variable(n, self.semifield, i) for i in range(n))
        return Seed(self.b0, xs, self.y0)

    def seed_at(self, path) -> Seed:
        return apply_path(self.initial_seed(), self.pair, path)

    def rebase(self, path) -> "ClusterPattern":
        """The same pattern rooted at the seed reached by ``path``.

        Coefficients are walked along the path; the cluster there
        becomes the new free generating set.
        """
        b, y = coefficient_walk(self, path)
        return ClusterPattern(b, self.pair, y)

    def rb_symmetrizer(self):
        """Skew-symmetrizer S of R*B_{t0}, computed on first use;
        S*R*B_t stays skew along mutation."""
        if self._rb_symmetrizer is None:
            rb = mat.scale_rows(self.pair.degrees, self.b0.rows)
            self._rb_symmetrizer = find_skew_symmetrizer(rb)
        return self._rb_symmetrizer

    def __eq__(self, other):
        return (isinstance(other, ClusterPattern)
                and self.b0 == other.b0
                and self.pair == other.pair
                and self.y0 == other.y0)

    def __repr__(self):
        return "ClusterPattern(n=%d, degrees=%r)" % (self.n, list(self.pair.degrees))


def coefficient_walk(pattern: ClusterPattern, path):
    """Walk only (B, y) along a path; cheap, no cluster arithmetic."""
    b = pattern.b0
    y = pattern.y0
    pair = pattern.pair
    for k in path:
        y, _ = _mutate_coefficients(y, b.rows[k], pair, k)
        b = mutate_matrix(b, pair, k)
    return b, y


@dataclass
class ClusterFormulaReport:
    """Outcome of the random-point cluster-formula verification."""

    t_path: tuple
    t0_path: tuple
    trials: int
    checked: int
    ok: bool
    failures: list
    determinants: tuple


DEFAULT_RNG_SEED = 8191


def _random_fraction(rng, positive=False):
    num = rng.randint(1, 9)
    if not positive and rng.random() < 0.5:
        num = -num
    return Fraction(num, rng.randint(1, 9))


def _jacobian_column(var: LaurentPolynomial, x_point, p_point):
    """Column j of H for var = x_{j;t}, from one pass over its terms:
    ``(N, s)`` with H[i][j] = x_i (d var / d x_i) / var = N[i] / s at
    the point, where s = sum_t m_t and N[i] = sum_t e_i(t) m_t over the
    terms m_t = c_t x^e(t) u^... of var there, all on the integer scale
    of ``_term_values`` (which cancels).  s is 0 exactly when var
    vanishes at the point."""
    terms, values, _, _ = var._term_values(x_point, p_point)
    exps = zip(*(e[:var.rank] for e, _ in terms))
    return [sum(map(operator.mul, es, values)) for es in exps], sum(values)


def check_cluster_formula(pattern: ClusterPattern, t_path, t0_path=(),
                          trials: int = 20, rng_seed: int = DEFAULT_RNG_SEED
                          ) -> ClusterFormulaReport:
    """Verify H (B_t R^{-1} S^{-1}) H^T = B_{t0} R^{-1} S^{-1} and det H = +-1.

    H is built from the Jacobian of the cluster at t with respect to the
    cluster at t0: H[i][j] = x_{i;t0} * d x_{j;t} / d x_{i;t0} / x_{j;t},
    evaluated exactly at random rational points (resampled whenever some
    cluster variable vanishes at the point), one column per pass over
    the terms of x_{j;t} (``_jacobian_column``).  S is the
    skew-symmetrizer of R*B_{t0}.  Both are checked on ints: with
    L = lcm(R_j S_j) and H = Hn / den for an int matrix Hn, the first
    reads Hn (L B_t R^{-1} S^{-1}) Hn^T = den^2 (L B_{t0} R^{-1} S^{-1}),
    and det H = det(Hn) / den^n.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1, got %d" % trials)
    t_path = tuple(t_path)
    t0_path = tuple(t0_path)
    based = pattern.rebase(t0_path) if t0_path else pattern
    walk = tuple(reversed(t0_path)) + t_path
    seed_t = based.seed_at(walk)
    n = based.n
    w = [r * s for r, s in zip(based.pair.degrees, based.rb_symmetrizer())]
    scale = [math.lcm(*w) // wj for wj in w]   # L R^{-1} S^{-1}

    target = mat.scale_columns(based.b0.rows, scale)
    moving = mat.scale_columns(seed_t.B.rows, scale)

    rng = random.Random(rng_seed)
    m = based.semifield.ngens
    failures = []
    dets = set()
    checked = 0
    for _ in range(trials):
        for _attempt in range(64):
            x_point = [_random_fraction(rng) for _ in range(n)]
            p_point = [_random_fraction(rng, positive=True) for _ in range(m)]
            cols = [_jacobian_column(v, x_point, p_point) for v in seed_t.x]
            if all(s for _, s in cols):
                break
        else:
            failures.append({"reason": "could not find a nonvanishing point"})
            continue
        den = math.lcm(*(s for _, s in cols))
        Hn = mat.transpose([[h * (den // s) for h in N] for N, s in cols])
        lhs = mat.mat_mul(mat.mat_mul(Hn, moving), mat.transpose(Hn))
        d = mat.det(Hn) / den ** n
        dets.add(d)
        checked += 1
        if lhs != mat.scale_rows([den * den] * n, target) or d not in (1, -1):
            failures.append({"x_point": [str(v) for v in x_point],
                             "p_point": [str(v) for v in p_point],
                             "det": str(d)})
    return ClusterFormulaReport(t_path, t0_path, trials, checked,
                                not failures, failures, tuple(sorted(dets)))
