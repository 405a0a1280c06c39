"""Packed ring arithmetic against a tuple-keyed oracle.

``GroupRingElement`` and ``LaurentPolynomial`` keep their terms under
packed int keys (see ``semifield.Layout``).  The oracle here is the
same sparse arithmetic written on dicts keyed by exponent tuples: a
plain dict-accumulating sum and product, and the graded-lex heap
division that packs exponents per call.  Results are compared through
``terms()``, with exponents near and past the default 32-bit field
limit so that widening and narrowing back are exercised.
"""

import heapq
from operator import add, sub

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gencluster import (GroupRingElement, LaurentPolynomial, NotLaurentError,
                        TropicalSemifield)

# ---- the oracle: sparse arithmetic on exponent-tuple dicts ----


def oracle_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def oracle_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(map(add, ea, eb))
            s = out.get(key, 0) + ca * cb
            if s:
                out[key] = s
            else:
                del out[key]
    return out


def _pack(terms, low, width):
    out = {}
    for e, c in terms.items():
        shifted = tuple(map(sub, e, low))
        key = sum(shifted)
        for x in shifted:
            key = (key << width) | x
        out[key] = c
    return out


def oracle_div(num, den):
    """num / den by graded-lex heap division in the polynomial cone,
    with fields sized per call; raises NotLaurentError on a remainder."""
    if not num:
        return {}
    if len(den) == 1:
        (dexp, dc), = den.items()
        out = {}
        for e, c in num.items():
            q, r = divmod(c, dc)
            if r:
                raise NotLaurentError("coefficient does not divide")
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
        for dkey, dc in dterms.items():
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


# ---- operands ----

LIMIT = 1 << 31
LARGE = [LIMIT - 2, LIMIT - 1, LIMIT, LIMIT + 1, 1 << 40, (1 << 63) - 1,
         1 << 63, 1 << 70]
exponent = st.one_of(st.integers(-3, 3), st.sampled_from(LARGE),
                     st.sampled_from(LARGE).map(lambda e: -e))

P1 = TropicalSemifield(("u",))
SEMIFIELDS = [TropicalSemifield(), P1, TropicalSemifield(("u", "v"))]


def flat_dicts(nvars):
    return st.dictionaries(st.tuples(*[exponent] * nvars),
                           st.integers(-5, 5).filter(bool), max_size=4)


def laurent(rank, P, flat):
    """The Laurent polynomial with flat terms ``flat`` (x then u exponents)."""
    coeffs = {}
    for exps, c in flat.items():
        coeffs.setdefault(exps[:rank], {})[exps[rank:]] = c
    return LaurentPolynomial(rank, P, {x: GroupRingElement(P, u)
                                       for x, u in coeffs.items()})


laurent_operands = st.tuples(st.sampled_from((1, 2)),
                             st.sampled_from(SEMIFIELDS)).flatmap(
    lambda shape: st.tuples(st.just(shape),
                            *[flat_dicts(shape[0] + shape[1].ngens)] * 2))


group_operands = st.sampled_from(SEMIFIELDS).flatmap(
    lambda P: st.tuples(st.just(P), *[flat_dicts(P.ngens)] * 2))


def flat(elem):
    return dict(elem.terms())


# ---- the packed rings against the oracle ----


@given(laurent_operands)
def test_laurent_ops_match_the_oracle(operands):
    (rank, P), a, b = operands
    pa, pb = laurent(rank, P, a), laurent(rank, P, b)
    assert flat(pa) == a
    assert flat(pa + pb) == oracle_add(a, b)
    assert flat(pa - pb) == oracle_add(a, {e: -c for e, c in b.items()})
    assert flat(pa * pb) == oracle_mul(a, b)
    assert flat(pa * pa) == oracle_mul(a, a)
    if b:
        product = oracle_mul(a, b)
        assert flat((pa * pb).exact_div(pb)) == oracle_div(product, b) == a


@given(group_operands)
def test_group_ring_ops_match_the_oracle(operands):
    P, a, b = operands
    pa, pb = GroupRingElement(P, a), GroupRingElement(P, b)
    assert flat(pa) == a
    assert flat(pa + pb) == oracle_add(a, b)
    assert flat(pa * pb) == oracle_mul(a, b)
    assert flat(pa * pa) == oracle_mul(a, a)
    if b:
        product = oracle_mul(a, b)
        assert flat((pa * pb).exact_div(pb)) == oracle_div(product, b) == a


@given(laurent_operands, st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                                     st.integers(-3, 3), st.integers(-3, 3)))
def test_laurent_division_fails_like_the_oracle(operands, spoil):
    (rank, P), a, b = operands
    if len(b) < 2:
        return  # a monomial divisor may divide anything
    spoil = {spoil[:rank + P.ngens]: 1}
    num = oracle_add(oracle_mul(a, b), spoil)
    try:
        expected = oracle_div(num, b)
    except NotLaurentError:
        with pytest.raises(NotLaurentError):
            laurent(rank, P, num).exact_div(laurent(rank, P, b))
    else:
        assert flat(laurent(rank, P, num).exact_div(laurent(rank, P, b))) == expected


# ---- canonical keys ----


def test_a_wide_product_narrows_back():
    x1 = LaurentPolynomial.variable(1, P1, 0)
    y = x1 ** (2 ** 40) * x1 ** (-(2 ** 40) + 1)
    assert y == x1 and hash(y) == hash(x1)
    assert str(y) == "x1"
    big = x1 ** (2 ** 40)
    assert flat(big) == {(2 ** 40, 0): 1}
    assert big.exact_div(x1 ** (2 ** 40 - 1)) == x1
    assert (big + x1) - big == x1


@given(laurent_operands)
def test_equal_polynomials_hash_equal(operands):
    (rank, P), a, b = operands
    pa, pb = laurent(rank, P, a), laurent(rank, P, b)
    routes = [pa * pb, pb * pa, laurent(rank, P, oracle_mul(a, b)),
              (pa + pb) * pb - pb * pb]
    for other in routes[1:]:
        assert other == routes[0]
        assert hash(other) == hash(routes[0])
    if b:
        back = (pa * pb).exact_div(pb)
        assert back == pa and hash(back) == hash(pa)


def oracle_minima(flat):
    return tuple(map(min, zip(*flat)))


@given(laurent_operands, st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
def test_carried_minima_match_the_terms(operands, shift):
    # products, shifts and quotients take their minima from operands
    # whose minima are known; those must be the minima of their terms
    (rank, P), a, b = operands
    if not a or not b:
        return
    pa, pb = laurent(rank, P, a), laurent(rank, P, b)
    assert pa._minima() == oracle_minima(a)
    assert pb._minima() == oracle_minima(b)
    product = pa * pb
    assert product._minima() == oracle_minima(oracle_mul(a, b))
    assert (pa * pa)._minima() == oracle_minima(oracle_mul(a, a))
    assert (-pa)._minima() == oracle_minima(a)
    assert product.exact_div(pb)._minima() == oracle_minima(a)
    assert product.denominator_vector() == tuple(
        -m for m in oracle_minima(oracle_mul(a, b))[:rank])
    if P.ngens:
        u = P.monomial(shift[:P.ngens])
        shifted = pa.scalar_mul(u)
        assert shifted._minima() == oracle_minima(flat(shifted))
