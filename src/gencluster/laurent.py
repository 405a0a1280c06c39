r"""Sparse Laurent polynomials in the cluster variables, and ZP itself.

``LaurentPolynomial`` models elements of ``ZP[x_1^{\pm1}, ..., x_n^{\pm1}]``
where ZP is the group ring of a tropical semifield P on generators
u_1, ..., u_m (see ``semifield``).  Since ZP = Z[u^{\pm1}], that ring is
the Laurent ring over Z in the n + m variables (x_1, ..., x_n, u_1, ...,
u_m), and ZP is its case n = 0: ``GroupRingElement`` is the rank-0
``LaurentPolynomial``, with its own constructor, ``is_monomial`` (a unit
coming from P), ``evaluate`` and plain rendering ``1 + u``.  A rank-0
element mixes with a higher rank as a constant.

Storage.  ``_terms`` maps packed monomial keys of ``_layout`` (the n + m
variables, x-exponents in the most significant fields; see
``semifield.Layout``) to nonzero ints, at the narrowest width that holds
the exponents, so equal elements have equal term dicts and ``==`` and
``hash`` are dict comparisons.  ``terms()`` and ``nterms()`` see flat
terms ``c * x^a * u^b``; a coefficient in ZP is a rendering notion only.
``_bound`` bounds every absolute exponent (not canonical).  An operation
compares one such bound on its result with the default limit: below it
both operands and the result sit in the default layout; otherwise it
runs in the narrowest layout that holds the bound and moves its result
to its own.  ``_mins`` keeps the per-variable minimal exponents once
known.  These are integral domains, so the minima of a product, a
monomial shift or an exact quotient follow from its operands', and a
cluster variable made by mutation never needs decoding for division or
``denominator_vector``.  Exponent tuples appear only at the edges: the
constructors, ``terms()``, rendering, ``denominator_vector``,
``evaluate`` and ``partial_derivative``.

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
from math import prod
from operator import add, sub

from .errors import DimensionError, EvaluationError
from .semifield import (DEFAULT_LIMIT, FIELD_WIDTH, SemifieldElement,
                        TropicalSemifield, _check_same_semifield, add_terms,
                        exact_div_terms, format_monomial, format_sum,
                        format_term, format_terms, layout, layout_for,
                        mul_terms, pack_terms)


@lru_cache(maxsize=None)
def _xnames(rank):
    return tuple("x%d" % (j + 1) for j in range(rank))


class LaurentPolynomial:
    """Element of the Laurent ring over ZP in ``rank`` cluster variables.

    ``terms()`` lists the flat (exponents, int) pairs, the x-exponents
    followed by the semifield-generator exponents.  Treated as immutable;
    all arithmetic returns fresh objects of the class of ``self``.
    """

    __slots__ = ("rank", "semifield", "_terms", "_layout", "_bound", "_mins",
                 "_hash", "_str")

    def __init__(self, rank: int, semifield: TropicalSemifield, terms: dict):
        """Build from a dict {x-exponent tuple: coefficient}.

        A coefficient is an int, a SemifieldElement or a rank-0 element
        (such as a GroupRingElement) over ``semifield``; each is checked
        and flattened into terms here, once.  Ring operations build their
        results through ``_wrap``.
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
            elif not (isinstance(c, SemifieldElement)
                      or isinstance(c, LaurentPolynomial) and c.rank == 0):
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
        self._fill(rank, semifield, *pack_terms(flat, rank + m))

    def _fill(self, rank, semifield, terms, lay, bound):
        self.rank, self.semifield = rank, semifield
        self._terms, self._layout, self._bound = terms, lay, bound
        self._mins = self._hash = self._str = None
        return self

    def _wrap(self, terms, lay, bound):
        """Wrap a packed term dict that is already clean (ring-op results)
        in the class of ``self``."""
        return object.__new__(type(self))._fill(self.rank, self.semifield,
                                                 terms, lay, bound)

    def _one(self):
        return self._wrap({0: 1}, layout(self._layout.nvars), 0)

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

    def terms(self):
        """List the (exponent tuple, integer coefficient) pairs."""
        return list(zip(self._layout.unpack_all(self._terms), self._terms.values()))

    def nterms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == {0: 1}

    def is_monomial(self):
        """True for a single flat term c * x^a * u^b."""
        return len(self._terms) == 1

    def _minima(self):
        """Per-variable minimal exponents of a nonzero element, kept."""
        if self._mins is None:
            self._mins = self._layout.minima(self._terms)
        return self._mins

    # ---- ring operations ----

    def _operand(self, other):
        """``other`` as an element of this ring: itself at this rank, a
        constant for an int, SemifieldElement or rank-0 element.  None
        (NotImplemented) for a foreign type, and for a higher rank when
        ``self`` has rank 0: that ring takes the operation."""
        if isinstance(other, LaurentPolynomial):
            if other.rank == self.rank:
                _check_same_semifield(self, other)
                return other
            if not self.rank:
                return None
            if other.rank:
                raise DimensionError("mixed ranks: %d vs %d" % (self.rank, other.rank))
        elif not isinstance(other, (int, SemifieldElement)):
            return None
        return LaurentPolynomial.constant(self.rank, self.semifield, other)

    def _operands(self, other, bound):
        """The layout of an operation on self and other whose exponents
        stay within ``bound``, and both term dicts in it."""
        if bound < DEFAULT_LIMIT:
            return self._layout, self._terms, other._terms
        lay = layout_for(self._layout.nvars, bound)
        a = lay.adopt(self)
        return lay, a, a if other is self else lay.adopt(other)

    def _result(self, terms, lay, bound):
        """Wrap an operation's result computed in ``lay``, moved to its
        narrowest layout when ``lay`` is wider than the default."""
        if lay.width > FIELD_WIDTH:
            terms, lay, bound = pack_terms(
                dict(zip(lay.unpack_all(terms), terms.values())), lay.nvars)
        return self._wrap(terms, lay, bound)

    def __add__(self, other):
        b = self._operand(other)
        if b is None:
            return NotImplemented
        bound = max(self._bound, b._bound)
        lay, ta, tb = self._operands(b, bound)
        return self._result(add_terms(ta, tb), lay, bound)

    __radd__ = __add__

    def __neg__(self):
        out = self._wrap({e: -c for e, c in self._terms.items()},
                         self._layout, self._bound)
        out._mins = self._mins
        return out

    def __sub__(self, other):
        b = self._operand(other)
        if b is None:
            return NotImplemented
        return self + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        b = self._operand(other)
        if b is None:
            return NotImplemented
        return self._times(b)

    __rmul__ = __mul__

    def _times(self, other):
        bound = self._bound + other._bound
        lay, a, b = self._operands(other, bound)
        out = self._result(mul_terms(a, b), lay, bound)
        if self._mins is not None and other._mins is not None:
            out._mins = tuple(map(add, self._mins, other._mins))
        return out

    def _shift(self, exps):
        """Multiply by the monomial with exponent vector ``exps``."""
        bound = self._bound + max(map(abs, exps), default=0)
        lay, a, _ = self._operands(self, bound)
        shift = lay.pack(exps)
        out = self._result({e + shift: c for e, c in a.items()}, lay, bound)
        if self._mins is not None:
            out._mins = tuple(map(add, self._mins, exps))
        return out

    def _unit_mul(self, uexps):
        """Multiply by the unit u^uexps of ZP: one key addition per flat
        term; returns self for the unit."""
        if not any(uexps):
            return self
        return self._shift((0,) * self.rank + tuple(uexps))

    def __pow__(self, n: int):
        n = int(n)
        if n < 0:
            if len(self._terms) != 1 or next(iter(self._terms.values())) != 1:
                raise ValueError("negative power of a non-unit")
            (exps, _), = self.terms()
            return self._one()._shift(tuple(e * n for e in exps))
        if n == 0:
            return self._one()
        # repeated squaring
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # ---- division ----

    def exact_div(self, den) -> "LaurentPolynomial":
        """Exact quotient self/den in the Laurent ring; ``den`` is an
        element of this ring, a coefficient or a SemifieldElement.

        Raises NotLaurentError when the quotient is not a Laurent
        polynomial over ZP, i.e. on any remainder (see
        ``exact_div_terms``).
        """
        if isinstance(den, SemifieldElement):
            _check_same_semifield(self, den)
            return self._unit_mul(den.inverse().exponents)
        den = self._operand(den) if isinstance(den, LaurentPolynomial) else None
        if den is None:
            raise TypeError("expected a LaurentPolynomial or SemifieldElement")
        if len(den._terms) < 2 or not self._terms:
            bound = self._bound + den._bound
            lay, a, b = self._operands(den, bound)
            return self._result(exact_div_terms(a, b), lay, bound)
        num_min, den_min = self._minima(), den._minima()
        top = max(self._layout.degree(max(self._terms)) - sum(num_min),
                  den._layout.degree(max(den._terms)) - sum(den_min))
        # |exponent| <= |minimum| + top, so this covers the operands too
        need = 2 * max(map(abs, num_min + den_min), default=0) + top
        lay, a, b = self._operands(den, need)
        quot = exact_div_terms(a, b, lay, num_min, den_min)
        q_min = tuple(map(sub, num_min, den_min))
        out = self._result(quot, lay, max((max(-q, q + top) for q in q_min),
                                          default=0))
        out._mins = q_min
        return out

    def __truediv__(self, other):
        if isinstance(other, (LaurentPolynomial, SemifieldElement)):
            return self.exact_div(other)
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
        """Exact evaluation at rational points; x coordinates must be nonzero.

        The terms are summed on ints by ``_term_values``, then scaled."""
        _, values, num, den = self._term_values(x_point, semifield_point)
        return Fraction(sum(values) * num, den)

    def _term_values(self, x_point, semifield_point):
        """The terms and, on one integer scale, their values at the point:
        term t is worth values[t] * num / den.  Each value a/b whose
        exponents span [lo, hi] gives one table e -> a^(e-lo) * b^(hi-e)
        and contributes a^lo * b^-hi to the scale."""
        xs = [v if type(v) is Fraction else Fraction(v) for v in x_point]
        if len(xs) != self.rank:
            raise DimensionError("x point has wrong length")
        if not all(xs):
            raise EvaluationError("zero x-coordinate")
        ps = [v if type(v) is Fraction else Fraction(v)
              for v in semifield_point]
        if len(ps) != self.semifield.ngens:
            raise DimensionError("point has wrong length")
        terms = self.terms()
        num = den = 1
        tables = []   # per variable: exponent -> a^(e-lo) * b^(hi-e)
        for v, es in zip(xs + ps, zip(*(exps for exps, _ in terms))):
            lo, hi = min(es), max(es)
            if not v and (lo or hi):
                raise EvaluationError(
                    "zero value for a generator with nonzero exponent")
            a, b = v.numerator, v.denominator
            tables.append({e: a ** (e - lo) * b ** (hi - e) for e in set(es)})
            num *= a ** max(lo, 0) * b ** max(-hi, 0)
            den *= a ** max(-lo, 0) * b ** max(hi, 0)
        values = [c * prod(map(dict.__getitem__, tables, exps))
                  for exps, c in terms]
        return terms, values, num, den

    # ---- equality, rendering ----

    def __eq__(self, other):
        if self is other:
            return True
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
        return "%s(%s)" % (type(self).__name__, self)


class GroupRingElement(LaurentPolynomial):
    """An element of ZP: a finite sum ``sum_a c_a * u^a`` with integer c_a,
    the rank-0 LaurentPolynomial.

    Example::

        P = TropicalSemifield(["y1", "y2"])
        one = P.group_ring_one()
        y1 = P.generator("y1").as_group_ring()
        print(one + y1)        # 1 + y1
    """

    __slots__ = ()

    def __init__(self, semifield: TropicalSemifield, terms: dict):
        """Build from a dict {generator-exponent tuple: int}."""
        m = semifield.ngens
        if any(len(exps) != m for exps in terms):
            raise DimensionError("exponent tuple of wrong length")
        self._fill(0, semifield, *pack_terms(
            {tuple(map(int, exps)): int(c) for exps, c in terms.items()
             if int(c)}, m))

    # bench/tracing.py times ZP products and divisions apart from Laurent
    # ones and looks each traced name up in this class's own __dict__
    __mul__ = __rmul__ = LaurentPolynomial.__mul__
    exact_div = LaurentPolynomial.exact_div

    def is_monomial(self) -> bool:
        """True when a single term with coefficient +1 (a unit coming from P)."""
        return len(self._terms) == 1 and next(iter(self._terms.values())) == 1

    def evaluate(self, point) -> Fraction:
        """Exact value at a point of rational generator values."""
        return LaurentPolynomial.evaluate(self, (), point)

    def _render(self):
        return format_terms(self.semifield.generators, sorted(self.terms()))
