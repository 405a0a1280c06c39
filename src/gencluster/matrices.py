"""Tiny exact matrix helpers on tuples of row tuples.

Everything in this package works with matrices small enough (rank <= 8)
that plain tuples plus Fraction arithmetic beat pulling in a numeric
dependency, and exactness is non-negotiable.
"""

from __future__ import annotations

from fractions import Fraction


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


def is_skew_symmetric(a):
    n = len(a)
    return all(a[i][j] == -a[j][i] for i in range(n) for j in range(n))


def det(a):
    """Exact determinant by Fraction Gaussian elimination, O(n^3)."""
    m = [[Fraction(x) for x in row] for row in a]
    n = len(m)
    out = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            m[k], m[p] = m[p], m[k]
            out = -out
        pivot = m[k][k]
        out *= pivot
        for i in range(k + 1, n):
            f = m[i][k] / pivot
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return out
