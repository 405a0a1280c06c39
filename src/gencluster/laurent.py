r"""Sparse Laurent polynomials in the cluster variables.

``LaurentPolynomial`` models elements of ``ZP[x_1^{\pm1}, ..., x_n^{\pm1}]``
where ZP is the group ring of a tropical semifield P on generators
u_1, ..., u_m (see ``semifield``).  Since ZP = Z[u^{\pm1}], that ring is
simply the Laurent ring over Z in the n + m variables
(x_1, ..., x_n, u_1, ..., u_m), and that is how elements are stored: one
term dict keyed by packed ints in the layout of n + m variables, the
x-exponents in the most significant fields (see ``semifield``: a
product of monomials is one int addition, a unit of ZP multiplies by
adding one key to every key, and fields widen when a result could
overflow them).  ``terms()`` and ``nterms()`` therefore see flat terms
``c * x^a * u^b``; a coefficient in ZP is a rendering notion only.
Exponent tuples appear only at the edges: the constructor, ``terms()``,
rendering, ``denominator_vector``, ``evaluate`` and
``partial_derivative``.  The per-variable minimal exponents are kept
once known; division and ``denominator_vector`` both read them.

Conventions used throughout the package:

* variables are named ``x1 ... xn`` in rendered output;
* the canonical text rendering groups the terms by x-exponent, lists the
  groups in descending graded-lex order of the x-exponent and renders a
  group with several terms as a parenthesized ZP coefficient; it is
  stable, so equal polynomials always render identically
  (exchange-graph deduplication relies on this);
* a denominator vector is a plain tuple ``d`` with
  ``d[j] = -min_j(x-exponents)``, so the initial variable ``xj`` itself
  has ``d = -e_j`` and every variable with no ``xj`` dependence has
  ``d[j] = 0``.

The Laurent phenomenon is what makes exact division the workhorse of
seed mutation, and ``NotLaurentError`` is the honest failure mode.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import DimensionError, EvaluationError
from .semifield import (GroupRingElement, PackedElement, SemifieldElement,
                        TropicalSemifield, _check_same_semifield,
                        evaluate_terms, format_monomial, format_sum,
                        format_term, format_terms, pack_terms, power)


@lru_cache(maxsize=None)
def _xnames(rank):
    return tuple("x%d" % (j + 1) for j in range(rank))


class LaurentPolynomial(PackedElement):
    """Element of the Laurent ring over ZP in ``rank`` cluster variables.

    ``terms()`` lists the flat (exponents, int) pairs, the x-exponents
    followed by the semifield-generator exponents; ``nterms()`` counts
    them.
    """

    __slots__ = ("rank", "semifield", "_hash", "_str")

    def __init__(self, rank: int, semifield: TropicalSemifield, terms: dict):
        """Build from a dict {x-exponent tuple: coefficient}.

        A coefficient is an int, a SemifieldElement or a GroupRingElement
        over ``semifield``; each is checked and flattened into terms here,
        once.  Ring operations build their results through ``_result``.
        """
        rank = int(rank)
        m = semifield.ngens
        flat = {}
        for exps, c in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != rank:
                raise DimensionError("x-exponent tuple of wrong length")
            if isinstance(c, int):
                items = [((0,) * m, c)]
            elif not isinstance(c, (SemifieldElement, GroupRingElement)):
                raise TypeError("cannot use %r as a coefficient" % (c,))
            elif c.semifield != semifield:
                raise DimensionError("coefficient over the wrong semifield")
            elif isinstance(c, SemifieldElement):
                items = [(c.exponents, 1)]
            else:
                items = c.terms()
            for uexps, k in items:
                if k:
                    flat[exps + uexps] = int(k)
        self.rank = rank
        self.semifield = semifield
        self._terms, self._layout, self._bound = pack_terms(flat, rank + m)
        self._mins = self._hash = self._str = None

    # ---- constructors ----

    @classmethod
    def zero(cls, rank, semifield):
        return cls(rank, semifield, {})

    @classmethod
    def constant(cls, rank, semifield, c):
        return cls(rank, semifield, {(0,) * rank: c})

    @classmethod
    def one(cls, rank, semifield):
        return cls.constant(rank, semifield, 1)

    @classmethod
    def variable(cls, rank, semifield, i):
        exps = [0] * rank
        exps[i] = 1
        return cls(rank, semifield, {tuple(exps): 1})

    @classmethod
    def monomial(cls, rank, semifield, exps, coeff=1):
        return cls(rank, semifield, {tuple(exps): coeff})

    # ---- inspection ----

    def is_monomial(self):
        """True for a single flat term c * x^a * u^b."""
        return len(self._terms) == 1

    # ---- ring operations ----

    def _operand(self, other):
        """A ring or coefficient operand as a LaurentPolynomial, else None."""
        if isinstance(other, LaurentPolynomial):
            if other.rank != self.rank:
                raise DimensionError("mixed ranks: %d vs %d" % (self.rank, other.rank))
            _check_same_semifield(self, other)
            return other
        if isinstance(other, (int, GroupRingElement, SemifieldElement)):
            return LaurentPolynomial.constant(self.rank, self.semifield, other)
        return None

    def _wrap(self, terms, lay, bound):
        """Wrap a packed term dict that is already clean (ring-op results)."""
        out = object.__new__(LaurentPolynomial)
        out.rank, out.semifield, out._terms, out._layout, out._bound = (
            self.rank, self.semifield, terms, lay, bound)
        out._mins = out._hash = out._str = None
        return out

    def __mul__(self, other):
        b = self._operand(other)
        if b is None:
            return NotImplemented
        return self._times(b)

    __rmul__ = __mul__

    def scalar_mul(self, c):
        """Multiply by an int, SemifieldElement or GroupRingElement; by
        the unit it returns self."""
        if isinstance(c, SemifieldElement):
            _check_same_semifield(self, c)
            return self._unit_mul(c.exponents)
        c = LaurentPolynomial.constant(self.rank, self.semifield, c)
        if c.is_one():
            return self
        return self._times(c)

    def _unit_mul(self, uexps):
        """Multiply by the unit u^uexps of ZP: one key addition per flat
        term; returns self for the unit."""
        if not any(uexps):
            return self
        return self._shift((0,) * self.rank + tuple(uexps))

    def __pow__(self, n: int):
        n = int(n)
        if n < 0:
            if len(self._terms) != 1:
                raise ValueError("negative power of a non-monomial Laurent polynomial")
            (exps, c), = self.terms()
            if c != 1:
                raise ValueError("negative power needs an invertible coefficient")
            return LaurentPolynomial.one(self.rank, self.semifield)._shift(
                tuple(e * n for e in exps))
        if n == 0:
            return LaurentPolynomial.one(self.rank, self.semifield)
        return power(self, n)

    # ---- division ----

    def exact_div(self, den: "LaurentPolynomial") -> "LaurentPolynomial":
        """Exact quotient self/den in the Laurent ring.

        Raises NotLaurentError when the quotient is not a Laurent
        polynomial over ZP, i.e. on any remainder.
        """
        if not isinstance(den, LaurentPolynomial):
            raise TypeError("expected a LaurentPolynomial")
        return self._over(self._operand(den))

    def __truediv__(self, other):
        if isinstance(other, LaurentPolynomial):
            return self.exact_div(other)
        if isinstance(other, SemifieldElement):
            return self.scalar_mul(other.inverse())
        return NotImplemented

    # ---- cluster-specific helpers ----

    def denominator_vector(self):
        """d[j] = -min_j over the x-exponents of the nonzero terms."""
        if self.is_zero():
            raise ValueError("zero polynomial has no denominator vector")
        return tuple(-m for m in self._minima()[:self.rank])

    def partial_derivative(self, i: int) -> "LaurentPolynomial":
        """Formal partial derivative with respect to x_{i} (0-based)."""
        if not 0 <= i < self.rank:
            raise IndexError("variable index out of range")
        out = {}
        for e, c in self.terms():
            if e[i]:
                out[e[:i] + (e[i] - 1,) + e[i + 1:]] = c * e[i]
        return self._wrap(*pack_terms(out, self._layout.nvars))

    def evaluate(self, x_point, semifield_point=()) -> Fraction:
        """Exact evaluation at rational points; x coordinates must be nonzero."""
        xs = [Fraction(v) for v in x_point]
        if len(xs) != self.rank:
            raise DimensionError("x point has wrong length")
        if any(v == 0 for v in xs):
            raise EvaluationError("zero x-coordinate")
        ps = [Fraction(v) for v in semifield_point]
        if len(ps) != self.semifield.ngens:
            raise DimensionError("point has wrong length")
        return evaluate_terms(self.terms(), xs + ps)

    # ---- equality, rendering ----

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPolynomial.constant(self.rank, self.semifield, other)
        return (isinstance(other, LaurentPolynomial)
                and self.rank == other.rank
                and self.semifield == other.semifield
                and self._layout is other._layout
                and self._terms == other._terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.rank, self.semifield.generators,
                               frozenset(self._terms.items())))
        return self._hash

    def __str__(self):
        """The canonical rendering, built on first use and kept."""
        if self._str is None:
            self._str = self._render()
        return self._str

    def _render(self):
        n = self.rank
        xnames, unames = _xnames(n), self.semifield.generators
        groups = {}
        for exps, c in self.terms():
            groups.setdefault(exps[:n], []).append((exps[n:], c))
        pieces = []
        # descending graded-lex order of the x-exponents
        for xexps in sorted(groups, key=lambda e: (sum(e), e), reverse=True):
            xs = format_monomial(xnames, xexps)
            group = groups[xexps]
            if len(group) > 1:
                body = "(%s)" % (format_terms(unames, sorted(group)),)
                pieces.append((False, body + "*" + xs if xs else body))
                continue
            (uexps, c), = group
            mono = format_monomial(unames, uexps)
            pieces.append(format_term(mono + "*" + xs if mono and xs
                                      else mono or xs, c))
        return format_sum(pieces)

    def __repr__(self):
        return "LaurentPolynomial(%s)" % (str(self),)


def exact_div(num: LaurentPolynomial, den: LaurentPolynomial) -> LaurentPolynomial:
    return num.exact_div(den)


def denominator_vector(p: LaurentPolynomial):
    return p.denominator_vector()
