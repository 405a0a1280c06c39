"""Tiny exact matrix helpers on tuples of row tuples.

Everything in this package works with matrices small enough (rank <= 8)
that plain tuples of ints beat pulling in a numeric dependency, and
exactness is non-negotiable; ``det`` also takes Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod


def freeze(rows):
    return tuple(tuple(r) for r in rows)


def identity(n, one=1):
    return tuple(tuple(one if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a):
    return tuple(zip(*a)) if a else ()


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
                 for row in a)


def scale_columns(a, d):
    """a * diag(d)"""
    return tuple(tuple(x * dj for x, dj in zip(row, d)) for row in a)


def scale_rows(d, a):
    """diag(d) * a"""
    return tuple(tuple(di * x for x in row) for di, row in zip(d, a))


def det(a):
    """Exact determinant of ints or Fractions, as a Fraction: each row is
    cleared of denominators, then Bareiss elimination runs on ints."""
    dens = [lcm(*(x.denominator for x in row)) for row in a]
    rows = [[x.numerator * (d // x.denominator) for x in row]
            for row, d in zip(a, dens)]
    n, sign, prev = len(rows), 1, 1
    for k in range(n - 1):
        p = next((i for i in range(k, n) if rows[i][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            rows[k], rows[p], sign = rows[p], rows[k], -sign
        pivot, top = rows[k][k], rows[k]
        for i in range(k + 1, n):
            f = rows[i][k]
            rows[i] = [(pivot * x - f * y) // prev for x, y in zip(rows[i], top)]
        prev = pivot
    return Fraction(sign * rows[-1][-1] if rows else 1, prod(dens))
