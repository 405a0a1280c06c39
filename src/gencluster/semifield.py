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
``exact_div_terms``) and of the monomial rendering; ``GroupRingElement``
and ``laurent``'s ``LaurentPolynomial`` are thin typed wrappers around
them that share their storage through ``PackedElement``.

Every term dict maps a packed monomial key to a nonzero int.  A
``Layout`` packs an exponent vector e of k variables at field width w as

    key(e) = deg(e) * 2^(w*k) + sum_i e_i * 2^(w*(k-1-i)),  deg(e) = sum(e):

a total-degree top field over one signed field per variable, the first
variable most significant.  The map is linear, so a product of monomials
is one int addition.  While every |e_i| < 2^(w-1) the fields never
overlap: keys decode uniquely, and int order is graded-lex order, a
monomial order on the Laurent group (Monagan & Pearce, CASC 2007).
Every element is stored at the narrowest width of the ladder 32, 64,
128, ... that holds its exponents, so equal elements have equal term
dicts and ``==`` and ``hash`` stay dict comparisons.  An operation
checks one carried bound on its result's exponents, not each term, and
runs at a wider layout when the result could leave a field (see
``PackedElement``).  Exact division runs its heap on the stored keys
(see ``exact_div_terms``).  Exponent tuples appear only at the edges:
the constructors, ``terms()``, rendering, denominator vectors,
evaluation and partial derivatives.

Everything here is exact: exponents and coefficients are Python ints,
numeric evaluation returns ``fractions.Fraction``.
"""

from __future__ import annotations

import heapq
import struct
from fractions import Fraction
from functools import lru_cache
from itertools import chain
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
        return self is other or (isinstance(other, TropicalSemifield)
                                 and self.generators == other.generators)

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


# ---- packed monomial keys ----


FIELD_WIDTH = 32
DEFAULT_LIMIT = 1 << (FIELD_WIDTH - 1)


class Layout:
    """Packed keys of monomials in ``nvars`` variables at field width
    ``width`` (see the module docstring); one shared object per pair."""

    __slots__ = ("nvars", "width", "limit", "shifts", "mask", "bias",
                 "top_shift", "guard", "words")

    def __init__(self, nvars: int, width: int):
        self.nvars, self.width = nvars, width
        self.limit = 1 << (width - 1)
        self.shifts = tuple(width * i for i in range(nvars - 1, -1, -1))
        self.mask = (1 << width) - 1
        # adding ``bias`` turns every signed field into limit + e_i >= 0
        self.bias = sum(self.limit << s for s in self.shifts)
        self.top_shift = width * nvars
        self.guard = self.bias | (self.limit << self.top_shift)
        # where a field is one machine word, one struct call decodes a key
        code = {32: "i", 64: "q"}.get(width)
        self.words = struct.Struct(">" + code * nvars) if code else None

    def pack(self, exps) -> int:
        key = sum(exps)
        w = self.width
        for e in exps:
            key = (key << w) + e
        return key

    def unpack_all(self, keys) -> list:
        """The exponent tuples of ``keys``, in order.

        ``(key + bias) ^ bias`` holds each field in two's complement, so
        below the top field its bytes are the exponents as signed words.
        """
        bias = self.bias
        if self.words is not None:
            unpack, size = self.words.unpack, self.words.size
            low = (1 << self.top_shift) - 1
            return [unpack((((key + bias) ^ bias) & low).to_bytes(size, "big"))
                    for key in keys]
        mask, limit, shifts = self.mask, self.limit, self.shifts
        return [tuple([((key + bias) >> s & mask) - limit for s in shifts])
                for key in keys]

    def degree(self, key: int) -> int:
        return (key + self.bias) >> self.top_shift

    def minima(self, keys) -> tuple:
        """Per-variable minimal exponents over nonempty ``keys``."""
        return tuple(map(min, zip(*self.unpack_all(keys))))

    def adopt(self, elem: "PackedElement") -> dict:
        """The term dict of ``elem`` in this layout."""
        if elem._layout is self:
            return elem._terms
        return dict(zip(map(self.pack, elem._layout.unpack_all(elem._terms)),
                        elem._terms.values()))


@lru_cache(maxsize=None)
def layout(nvars: int, width: int = FIELD_WIDTH) -> Layout:
    return Layout(nvars, width)


def layout_for(nvars: int, bound: int) -> Layout:
    """The narrowest layout whose fields hold every exponent of absolute
    value at most ``bound``."""
    width = FIELD_WIDTH
    while bound >= 1 << (width - 1):
        width *= 2
    return layout(nvars, width)


def pack_terms(terms: dict, nvars: int):
    """(term dict, layout, bound) of a dict from exponent tuples to
    nonzero ints, at the narrowest layout; ``bound`` is exact."""
    lay = layout(nvars)
    bound = max(map(abs, chain.from_iterable(terms)), default=0)
    if bound >= lay.limit:
        lay = layout_for(nvars, bound)
    pack = lay.pack
    return {pack(e): c for e, c in terms.items()}, lay, bound


# ---- sparse arithmetic over Z on packed term dicts ----
#
# A term dict maps the packed keys of one layout to nonzero ints: an
# element of the Laurent ring Z[t_1^{+-1}, ..., t_k^{+-1}].
# GroupRingElement (t = u) and LaurentPolynomial (t = x, u) both keep
# their elements this way and do all their arithmetic through the three
# functions below; the caller has chosen a layout whose fields hold the
# result (see PackedElement).


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
    """a * b; a square (``a is b``) forms each cross product once.  The
    product of two monomials is one int addition; cancelled terms are
    dropped once, at the end."""
    out = {}
    get = out.get
    if a is b:
        items = list(a.items())
        for i, (ei, ci) in enumerate(items):
            key = ei + ei
            out[key] = get(key, 0) + ci * ci
            ci2 = 2 * ci
            for ej, cj in items[i + 1:]:
                key = ei + ej
                out[key] = get(key, 0) + ci2 * cj
    else:
        if len(a) < len(b):
            a, b = b, a
        items = list(a.items())
        for eb, cb in b.items():
            for ea, ca in items:
                key = ea + eb
                out[key] = get(key, 0) + ca * cb
    if 0 in out.values():
        out = {e: c for e, c in out.items() if c}
    return out


def exact_div_terms(num: dict, den: dict, lay: Layout = None,
                    num_min=None, den_min=None) -> dict:
    """The quotient num / den; raises NotLaurentError on any remainder.

    A one-term divisor divides every coefficient and shifts every key.
    A divisor of several terms also needs the layout and the operands'
    per-variable minimal exponents.  The division then runs in the
    polynomial cone: in each variable the lowest power of a product is
    the sum of the factors' lowest powers, so shifted down by its
    minima every dividend exponent is a shifted quotient exponent plus
    a shifted divisor exponent, all nonnegative.

    The caller chose ``lay`` with ``limit > 2 * max|minimum| + top``,
    ``top`` the larger shifted total degree of the two operands, so the
    top bit of every field of a shifted key is a guard bit that stays
    zero: every working key is a quotient term times a divisor term of
    at most the leading total degree, and ``top`` covers the divisor's
    own keys (a divisor of higher degree than the dividend must fail
    the test below, not spill into the next field).  The graded-lex
    leading term of the remainder must be divisible by the divisor's
    leading term ``dlead`` at every step, which the guard bits test in
    one subtraction on shifted keys: ``((lead | G) - dlead) & G == G``
    with ``G`` the mask of all guard bits.  The remainder's keys sit in
    a lazy max-heap; a key whose coefficient has cancelled is skipped
    when it surfaces, and since the leads strictly decrease a processed
    key never comes back.
    """
    if not den:
        raise ZeroDivisionError("division by zero")
    if not num:
        return {}
    if len(den) == 1:
        (dkey, dc), = den.items()
        out = {}
        for e, c in num.items():
            q, r = divmod(c, dc)
            if r:
                raise NotLaurentError("coefficient %d not divisible by %d" % (c, dc))
            out[e - dkey] = q
        return out

    guard = lay.guard
    num_low = lay.pack(num_min)
    dlead = max(den)
    dlead_cone = dlead - lay.pack(den_min)
    dlc = den[dlead]
    # heapq is a min-heap, so the remainder is kept under negated keys
    rest = [(-key, -c) for key, c in den.items() if key != dlead]
    work = {-key: c for key, c in num.items()}
    get = work.get
    heap = list(work)
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    quot = {}
    while heap:
        neg = pop(heap)
        c = work.pop(neg)
        if not c:
            continue
        lead = -neg
        if (((lead - num_low) | guard) - dlead_cone) & guard != guard:
            raise NotLaurentError("leading monomial does not divide")
        qc, r = divmod(c, dlc)
        if r:
            raise NotLaurentError("leading coefficient does not divide")
        qkey = lead - dlead
        quot[qkey] = qc
        neg = -qkey
        for dneg, dc in rest:
            key = neg + dneg
            c = get(key)
            if c is None:
                work[key] = qc * dc
                push(heap, key)
            else:
                work[key] = c + qc * dc
    return quot


class PackedElement:
    """Storage and ring arithmetic shared by GroupRingElement and
    LaurentPolynomial.

    ``_terms`` maps packed keys of ``_layout`` to nonzero ints, at the
    narrowest layout that holds the exponents; ``_bound`` is an upper
    bound on every absolute exponent (not canonical: equal elements may
    carry different bounds); ``_mins`` holds the per-variable minimal
    exponents once something asked for them.  A subclass wraps results
    with ``_wrap``.

    ZP and its Laurent rings are integral domains, so in each variable
    the lowest power of a product is the sum of the factors' lowest
    powers.  Products, monomial shifts and exact quotients therefore
    get their minima from their operands' when those are known, and a
    cluster variable made by mutation never needs decoding for them.

    Every operation bounds the absolute exponents of its result (and of
    its operands) by one int and compares it once with the default
    limit.  Below it both operands sit in the default layout, and so
    does the result; otherwise the operation runs in the narrowest
    layout that holds the bound and its result moves to its own.
    """

    __slots__ = ("_terms", "_layout", "_bound", "_mins")

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

    def _minima(self):
        """Per-variable minimal exponents of a nonzero element, kept."""
        if self._mins is None:
            self._mins = self._layout.minima(self._terms)
        return self._mins

    def terms(self):
        """List the (exponent tuple, integer coefficient) pairs."""
        return list(zip(self._layout.unpack_all(self._terms), self._terms.values()))

    def nterms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == {0: 1}

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

    def _over(self, den):
        """The exact quotient self / den (see ``exact_div_terms``)."""
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


def evaluate_terms(pairs, vals) -> Fraction:
    """Exact value of (exponent tuple, int) pairs at the rational point
    ``vals``."""
    total = Fraction(0)
    for exps, c in pairs:
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


class GroupRingElement(PackedElement):
    """An element of ZP: a finite sum ``sum_a c_a * u^a`` with integer c_a.

    Internally a packed term dict (see ``PackedElement``).  Treated as
    immutable; all arithmetic returns fresh objects.

    Example::

        P = TropicalSemifield(["y1", "y2"])
        one = P.group_ring_one()
        y1 = P.generator("y1").as_group_ring()
        print(one + y1)        # 1 + y1
    """

    __slots__ = ("semifield", "_hash")

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
        self._terms, self._layout, self._bound = pack_terms(clean, m)
        self._mins = self._hash = None

    def _wrap(self, terms, lay, bound):
        """Wrap a packed term dict that is already clean (ring-op results)."""
        out = object.__new__(GroupRingElement)
        out.semifield, out._terms, out._layout, out._bound = (
            self.semifield, terms, lay, bound)
        out._mins = out._hash = None
        return out

    @classmethod
    def from_int(cls, semifield: TropicalSemifield, n: int) -> "GroupRingElement":
        return cls(semifield, {(0,) * semifield.ngens: n})

    def _operand(self, other):
        """An int or GroupRingElement operand as a GroupRingElement, else None."""
        if isinstance(other, int):
            return GroupRingElement.from_int(self.semifield, other)
        if isinstance(other, GroupRingElement):
            _check_same_semifield(self, other)
            return other
        return None

    def is_monomial(self) -> bool:
        """True when a single term with coefficient +1 (a unit coming from P)."""
        return len(self._terms) == 1 and next(iter(self._terms.values())) == 1

    def monomial_part(self) -> SemifieldElement:
        if len(self._terms) != 1:
            raise ValueError("not a single-term element")
        (exps, _), = self.terms()
        return SemifieldElement(self.semifield, exps)

    def __mul__(self, other):
        if isinstance(other, SemifieldElement):
            other = other.as_group_ring()
        b = self._operand(other)
        if b is None:
            return NotImplemented
        return self._times(b)

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
        return self._over(den)

    def evaluate(self, point) -> Fraction:
        vals = [Fraction(v) for v in point]
        if len(vals) != self.semifield.ngens:
            raise DimensionError("point has wrong length")
        return evaluate_terms(self.terms(), vals)

    def __eq__(self, other):
        if isinstance(other, int):
            other = GroupRingElement.from_int(self.semifield, other)
        return (isinstance(other, GroupRingElement)
                and self.semifield == other.semifield
                and self._layout is other._layout
                and self._terms == other._terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.semifield.generators,
                               frozenset(self._terms.items())))
        return self._hash

    def __str__(self):
        return format_terms(self.semifield.generators, sorted(self.terms()))

    def __repr__(self):
        return "GroupRingElement(%s)" % (str(self),)
