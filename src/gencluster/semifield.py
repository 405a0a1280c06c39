r"""Tropical semifields and their integer group rings.

A tropical semifield ``Trop(u_1, ..., u_m)`` is the free multiplicative
abelian group on the generators ``u_j`` together with the auxiliary
addition

    u^a (+) u^b = u^{min(a, b)}   (componentwise minimum of exponents).

Coefficients of cluster variables live in the group ring ZP of that
group: finite integer combinations of monomials ``u^a`` with ``a`` an
integer vector.  ZP is an integral domain, and every element of P is an
invertible monomial of ZP, which is what keeps exchange-relation
denominators harmless.

ZP is the Laurent ring Z[u_1^{\pm1}, ..., u_m^{\pm1}], and the ring
ZP[x^{\pm1}] of cluster variables is the Laurent ring over Z in the x and
u variables together.  So this module also holds the one implementation
of sparse Laurent arithmetic over Z (``add_terms``, ``mul_terms``,
``exact_div_terms`` on dicts from exponent tuples to nonzero ints) and
of the monomial rendering; ``GroupRingElement`` and ``laurent``'s
``LaurentPolynomial`` are thin typed wrappers around them.

Exact division by a polynomial packs exponent vectors into single ints
for its inner loop (Monagan & Pearce, CASC 2007): one field per
variable, offset by that variable's minimal exponent, under a top field
holding the total degree, so int order is graded-lex order and a product
of monomials is one int addition.  Each field is one bit wider than the
larger shifted total degree of dividend and divisor; that spare top bit
is a guard bit, which turns "does the divisor's leading monomial divide
this one" into one subtraction and one mask.  The width has to cover the
divisor as well as the dividend, or a divisor of higher degree would
spill into its neighbouring fields instead of failing the test.  A lazy
``heapq`` max-heap of these keys yields the leading terms (Johnson 1974).
Term dicts outside this loop keep exponent tuples.

Everything here is exact: exponents and coefficients are Python ints,
numeric evaluation returns ``fractions.Fraction``.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from operator import add, sub

from .errors import DimensionError, EvaluationError, NotLaurentError


class TropicalSemifield:
    """The tropical semifield on an ordered tuple of named generators.

    The generator order is part of the identity of the semifield: two
    semifields compare equal iff their generator name tuples are equal.
    An empty generator tuple gives the trivial semifield {1}, whose
    group ring is plain Z.
    """

    __slots__ = ("generators", "_index")

    def __init__(self, generators=()):
        gens = tuple(generators)
        for g in gens:
            if not isinstance(g, str) or not g:
                raise ValueError("generator names must be nonempty strings")
        if len(set(gens)) != len(gens):
            raise ValueError("duplicate generator name")
        self.generators = gens
        self._index = {g: i for i, g in enumerate(gens)}

    @property
    def ngens(self):
        return len(self.generators)

    def one(self) -> "SemifieldElement":
        return SemifieldElement(self, (0,) * self.ngens)

    def monomial(self, exponents) -> "SemifieldElement":
        exps = tuple(int(e) for e in exponents)
        if len(exps) != self.ngens:
            raise DimensionError(
                "expected %d exponents, got %d" % (self.ngens, len(exps)))
        return SemifieldElement(self, exps)

    def generator(self, which) -> "SemifieldElement":
        if isinstance(which, str):
            if which not in self._index:
                raise KeyError("no generator named %r" % (which,))
            i = self._index[which]
        else:
            i = range(self.ngens)[which]
        exps = [0] * self.ngens
        exps[i] = 1
        return SemifieldElement(self, tuple(exps))

    def parse(self, text: str) -> "SemifieldElement":
        """Parse a monomial string like ``y1^2*z1^-1`` or ``1``."""
        s = text.strip()
        if s == "1":
            return self.one()
        exps = [0] * self.ngens
        for factor in s.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError("empty factor in %r" % (text,))
            if "^" in factor:
                name, _, power = factor.partition("^")
                try:
                    e = int(power)
                except ValueError:
                    raise ValueError("bad exponent %r in %r" % (power, text)) from None
            else:
                name, e = factor, 1
            name = name.strip()
            if name not in self._index:
                raise KeyError("no generator named %r in %r" % (name, text))
            exps[self._index[name]] += e
        return SemifieldElement(self, tuple(exps))

    def group_ring_one(self) -> "GroupRingElement":
        return GroupRingElement(self, {(0,) * self.ngens: 1})

    def __eq__(self, other):
        return isinstance(other, TropicalSemifield) and self.generators == other.generators

    def __hash__(self):
        return hash(("TropicalSemifield", self.generators))

    def __repr__(self):
        return "TropicalSemifield(%r)" % (list(self.generators),)


def _check_same_semifield(a, b):
    if a.semifield != b.semifield:
        raise DimensionError("operands live over different semifields: %r vs %r"
                             % (a.semifield, b.semifield))


class SemifieldElement:
    """A monomial ``u^a`` in a tropical semifield, stored by exponent vector."""

    __slots__ = ("semifield", "exponents")

    def __init__(self, semifield: TropicalSemifield, exponents):
        self.semifield = semifield
        self.exponents = tuple(int(e) for e in exponents)
        if len(self.exponents) != semifield.ngens:
            raise DimensionError("exponent vector has wrong length")

    def _result(self, exponents):
        """Wrap an exponent tuple of ints of the right length over the
        same semifield (operation results)."""
        out = object.__new__(SemifieldElement)
        out.semifield, out.exponents = self.semifield, exponents
        return out

    def is_one(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def __mul__(self, other):
        if not isinstance(other, SemifieldElement):
            return NotImplemented
        _check_same_semifield(self, other)
        return self._result(tuple(map(add, self.exponents, other.exponents)))

    def inverse(self) -> "SemifieldElement":
        return self._result(tuple(-e for e in self.exponents))

    def __pow__(self, n: int):
        n = int(n)
        return self._result(tuple(e * n for e in self.exponents))

    def tropical_add(self, other: "SemifieldElement") -> "SemifieldElement":
        if not isinstance(other, SemifieldElement):
            raise TypeError("tropical_add expects a SemifieldElement")
        _check_same_semifield(self, other)
        return self._result(tuple(map(min, self.exponents, other.exponents)))

    def as_group_ring(self, coeff: int = 1) -> "GroupRingElement":
        if coeff == 0:
            return GroupRingElement(self.semifield, {})
        return GroupRingElement(self.semifield, {self.exponents: int(coeff)})

    def evaluate(self, point) -> Fraction:
        """Evaluate at positive/nonzero rational generator values."""
        vals = [Fraction(v) for v in point]
        if len(vals) != self.semifield.ngens:
            raise DimensionError("point has wrong length")
        out = Fraction(1)
        for v, e in zip(vals, self.exponents):
            if e and v == 0:
                raise EvaluationError("zero value for a generator with nonzero exponent")
            out *= v ** e
        return out

    def __eq__(self, other):
        return (isinstance(other, SemifieldElement)
                and self.semifield == other.semifield
                and self.exponents == other.exponents)

    def __hash__(self):
        return hash((self.semifield.generators, self.exponents))

    def __str__(self):
        return format_monomial(self.semifield.generators, self.exponents) or "1"

    def __repr__(self):
        return "SemifieldElement(%s)" % (str(self),)


# ---- sparse arithmetic over Z on term dicts ----
#
# A term dict maps exponent tuples (all of one length, entries any
# integers) to nonzero ints: an element of the Laurent ring
# Z[t_1^{+-1}, ..., t_k^{+-1}].  GroupRingElement (t = u) and
# LaurentPolynomial (t = x, u) both keep their elements this way and do
# all their arithmetic through the three functions below.


def add_terms(a: dict, b: dict) -> dict:
    """a + b."""
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def mul_terms(a: dict, b: dict) -> dict:
    """a * b; a square (``a is b``) forms each cross product once."""
    out = {}
    get = out.get
    if a is b:
        items = list(a.items())
        for i, (ei, ci) in enumerate(items):
            key = tuple(map(add, ei, ei))
            s = get(key, 0) + ci * ci
            if s:
                out[key] = s
            else:
                del out[key]
            ci2 = 2 * ci
            for ej, cj in items[i + 1:]:
                key = tuple(map(add, ei, ej))
                s = get(key, 0) + ci2 * cj
                if s:
                    out[key] = s
                else:
                    del out[key]
        return out
    if len(a) < len(b):
        a, b = b, a
    for eb, cb in b.items():
        for ea, ca in a.items():
            key = tuple(map(add, ea, eb))
            s = get(key, 0) + ca * cb
            if s:
                out[key] = s
            else:
                del out[key]
    return out


def _grlex_key(exps):
    # graded lexicographic: total degree first, ties broken lexicographically
    return (sum(exps), exps)


def _pack(terms: dict, low, width: int) -> dict:
    """Packed keys of ``terms`` shifted down by ``low`` (see exact_div_terms)."""
    out = {}
    for e, c in terms.items():
        shifted = tuple(map(sub, e, low))
        key = sum(shifted)
        for x in shifted:
            key = (key << width) | x
        out[key] = c
    return out


def exact_div_terms(num: dict, den: dict) -> dict:
    """The quotient num / den; raises NotLaurentError on any remainder.

    A one-term divisor divides every coefficient and shifts every
    exponent.  Otherwise the division runs in the polynomial cone: the
    divisor is shifted down by its minimal exponents ``den_min`` and the
    quotient by ``num_min - den_min`` (in each variable the lowest power
    of a product is the sum of the factors' lowest powers), so every
    shifted dividend exponent is a shifted quotient exponent plus a
    shifted divisor exponent, all nonnegative.

    Each shifted exponent vector is packed into one int of ``k + 1``
    fields of ``width`` bits: the total degree in the top field, then the
    variables in order, so int order is graded-lex order and the sum of
    two monomials is one int addition.  The top bit of each field is a
    guard bit that stays zero in every key: ``width`` is one more than
    the bit length of the larger shifted total degree of the two
    operands.  Every working key is a quotient term times a divisor term
    of at most the leading total degree, so no field of the dividend's
    cone overflows; the divisor's own keys must fit too, which is why
    the width covers both operands (a divisor of higher degree than the
    dividend must fail the test below, not spill into the next field).

    The graded-lex leading term of the remainder must be divisible by
    the divisor's leading term ``dlead`` at every step, which the guard
    bits test in one subtraction: ``((lead | G) - dlead) & G == G`` with
    ``G`` the mask of all guard bits (a field that would go negative
    clears its guard bit and borrows nothing from the next).  The
    remainder's keys sit in a lazy max-heap; a key whose coefficient has
    cancelled is skipped when it surfaces, and since the leads strictly
    decrease a processed key never comes back.  The quotient is unpacked
    once at the end.
    """
    if not den:
        raise ZeroDivisionError("division by zero")
    if not num:
        return {}
    if len(den) == 1:
        (dexp, dc), = den.items()
        out = {}
        for e, c in num.items():
            q, r = divmod(c, dc)
            if r:
                raise NotLaurentError("coefficient %d not divisible by %d" % (c, dc))
            out[tuple(map(sub, e, dexp))] = q
        return out

    num_min = [min(col) for col in zip(*num)]
    den_min = [min(col) for col in zip(*den)]
    q_min = tuple(map(sub, num_min, den_min))
    top = max(max(sum(e) for e in num) - sum(num_min),
              max(sum(e) for e in den) - sum(den_min))
    width = top.bit_length() + 1
    nfields = len(q_min) + 1
    guard = 0
    for _ in range(nfields):
        guard = (guard << width) | (1 << (width - 1))

    work = _pack(num, num_min, width)
    dterms = _pack(den, den_min, width)
    dlead = max(dterms)
    dlc = dterms.pop(dlead)
    rest = list(dterms.items())

    heap = [-key for key in work]
    heapq.heapify(heap)
    quot = []
    while heap:
        lead = -heapq.heappop(heap)
        c = work.pop(lead)
        if not c:
            continue
        if ((lead | guard) - dlead) & guard != guard:
            raise NotLaurentError("leading monomial does not divide")
        qc, r = divmod(c, dlc)
        if r:
            raise NotLaurentError("leading coefficient does not divide")
        qkey = lead - dlead
        quot.append((qkey, qc))
        for dkey, dc in rest:
            key = qkey + dkey
            if key in work:
                work[key] -= qc * dc
            else:
                work[key] = -qc * dc
                heapq.heappush(heap, -key)

    mask = (1 << width) - 1
    shifts = [width * i for i in range(nfields - 2, -1, -1)]
    return {tuple((qkey >> s & mask) + m for s, m in zip(shifts, q_min)): qc
            for qkey, qc in quot}


def power(base, n: int):
    """base ** n for an int n >= 1 by repeated squaring."""
    result = None
    while n:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    return result


def evaluate_terms(terms: dict, vals) -> Fraction:
    """Exact value of a term dict at the rational point ``vals``."""
    total = Fraction(0)
    for exps, c in terms.items():
        term = Fraction(c)
        for v, e in zip(vals, exps):
            if e:
                if v == 0:
                    raise EvaluationError(
                        "zero value for a generator with nonzero exponent")
                term *= v ** e
        total += term
    return total


# ---- rendering ----


def format_monomial(names, exps) -> str:
    """``y1^2*z1_1`` for the nonzero exponents; "" for the empty monomial."""
    return "*".join(name if e == 1 else "%s^%d" % (name, e)
                    for name, e in zip(names, exps) if e)


def format_sum(pieces) -> str:
    """Join (negative, body) pieces as ``a + b - c``; "0" when empty."""
    if not pieces:
        return "0"
    neg, body = pieces[0]
    out = ["-" + body if neg else body]
    for neg, body in pieces[1:]:
        out.append(" - " if neg else " + ")
        out.append(body)
    return "".join(out)


def format_term(mono: str, c: int):
    """The (negative, body) piece of ``c * mono`` for ``format_sum``."""
    a = abs(c)
    if not mono:
        body = str(a)
    elif a == 1:
        body = mono
    else:
        body = "%d*%s" % (a, mono)
    return c < 0, body


def format_terms(names, items) -> str:
    """Render (exponents, int) pairs in the order given: ``1 - 2*u*v^-1``."""
    return format_sum([format_term(format_monomial(names, exps), c)
                       for exps, c in items])


class GroupRingElement:
    """An element of ZP: a finite sum ``sum_a c_a * u^a`` with integer c_a.

    Internally a term dict (see ``add_terms``) from exponent tuples to
    nonzero ints.  Treated as immutable; all arithmetic returns fresh
    objects.

    Example::

        P = TropicalSemifield(["y1", "y2"])
        one = P.group_ring_one()
        y1 = P.generator("y1").as_group_ring()
        print(one + y1)        # 1 + y1
    """

    __slots__ = ("semifield", "_terms", "_hash")

    def __init__(self, semifield: TropicalSemifield, terms: dict):
        clean = {}
        m = semifield.ngens
        for exps, c in terms.items():
            c = int(c)
            if c == 0:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != m:
                raise DimensionError("exponent tuple of wrong length")
            clean[exps] = c
        self.semifield = semifield
        self._terms = clean
        self._hash = None

    def _result(self, terms):
        """Wrap a term dict that is already clean (ring-op results)."""
        out = object.__new__(GroupRingElement)
        out.semifield, out._terms, out._hash = self.semifield, terms, None
        return out

    @classmethod
    def from_int(cls, semifield: TropicalSemifield, n: int) -> "GroupRingElement":
        return cls(semifield, {(0,) * semifield.ngens: n})

    def _operand(self, other):
        """Term dict of an int or GroupRingElement operand, else None."""
        if isinstance(other, int):
            return {(0,) * self.semifield.ngens: other} if other else {}
        if isinstance(other, GroupRingElement):
            _check_same_semifield(self, other)
            return other._terms
        return None

    def terms(self):
        """Iterate (exponent tuple, integer coefficient) pairs."""
        return self._terms.items()

    def nterms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == {(0,) * self.semifield.ngens: 1}

    def is_monomial(self) -> bool:
        """True when a single term with coefficient +1 (a unit coming from P)."""
        return len(self._terms) == 1 and next(iter(self._terms.values())) == 1

    def monomial_part(self) -> SemifieldElement:
        if len(self._terms) != 1:
            raise ValueError("not a single-term element")
        (exps,) = self._terms.keys()
        return SemifieldElement(self.semifield, exps)

    def __add__(self, other):
        b = self._operand(other)
        if b is None:
            return NotImplemented
        return self._result(add_terms(self._terms, b))

    __radd__ = __add__

    def __neg__(self):
        return self._result({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if self._operand(other) is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, SemifieldElement):
            other = other.as_group_ring()
        b = self._operand(other)
        if b is None:
            return NotImplemented
        return self._result(mul_terms(self._terms, b))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        n = int(n)
        if n < 0:
            if self.is_monomial():
                return self.monomial_part().__pow__(n).as_group_ring()
            raise ValueError("negative power of a non-unit group ring element")
        if n == 0:
            return GroupRingElement.from_int(self.semifield, 1)
        return power(self, n)

    def exact_div(self, den) -> "GroupRingElement":
        """Exact division in ZP; raises NotLaurentError on any remainder."""
        if isinstance(den, SemifieldElement):
            return self * den.inverse()
        _check_same_semifield(self, den)
        return self._result(exact_div_terms(self._terms, den._terms))

    def evaluate(self, point) -> Fraction:
        vals = [Fraction(v) for v in point]
        if len(vals) != self.semifield.ngens:
            raise DimensionError("point has wrong length")
        return evaluate_terms(self._terms, vals)

    def __eq__(self, other):
        if isinstance(other, int):
            other = GroupRingElement.from_int(self.semifield, other)
        return (isinstance(other, GroupRingElement)
                and self.semifield == other.semifield
                and self._terms == other._terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.semifield.generators,
                               frozenset(self._terms.items())))
        return self._hash

    def __str__(self):
        return format_terms(self.semifield.generators, sorted(self._terms.items()))

    def __repr__(self):
        return "GroupRingElement(%s)" % (str(self),)

