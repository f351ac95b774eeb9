"""Exact rational matrix arithmetic for certifying determinant comparisons.

Matrices are plain lists of lists of fractions.Fraction. A determinant is
taken by Bareiss on integers after clearing denominators: m = A/s with A an
integer matrix and s the least common denominator of m's entries, and
det(m) = det(A)/s^n, with det(A) from Bareiss's fraction-free elimination
(every division is an exact integer division, bit growth stays polynomial),
so no step normalizes a fraction. The inverse is Gauss-Jordan over the
rationals. These back the zero-tolerance certification of strict inequality
violations.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DimensionMismatch, SingularMatrix

RationalMatrix = list[list[Fraction]]
IntMatrix = list[list[int]]


def rational_matrix(rows) -> RationalMatrix:
    """Build a rational matrix from ints, Fractions, strings, or (num, den) pairs."""
    out: RationalMatrix = []
    for row in rows:
        r = []
        for entry in row:
            if isinstance(entry, Fraction):
                r.append(entry)
            elif isinstance(entry, (tuple, list)) and len(entry) == 2:
                r.append(Fraction(int(entry[0]), int(entry[1])))
            else:
                r.append(Fraction(entry))
        out.append(r)
    n = len(out)
    if any(len(r) != n for r in out):
        raise DimensionMismatch("rational matrix must be square")
    return out


def mat_mul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """a b; on integer matrices it stays in integers."""
    n = len(a)
    if len(b) != n:
        raise DimensionMismatch(f"{n} vs {len(b)}")
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def submatrix(m: RationalMatrix, lo: int, hi: int) -> RationalMatrix:
    return [row[lo:hi] for row in m[lo:hi]]


def direct_sum(blocks) -> RationalMatrix:
    """Block-diagonal assembly of square rational matrices."""
    n = sum(len(b) for b in blocks)
    out: RationalMatrix = []
    for b in blocks:
        lo = len(out)
        out += [[Fraction(0)] * lo + list(row) + [Fraction(0)] * (n - lo - len(b)) for row in b]
    return out


def clear_denominators(m) -> tuple[IntMatrix, int]:
    """(A, s) with A an integer matrix and s the least common denominator of
    the entries of m (ints, Fractions, or anything Fraction() takes), so that
    m = A/s exactly."""
    rows = [[x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row] for row in m]
    s = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (s // x.denominator) for x in row] for row in rows], s


def det_int(a: IntMatrix) -> int:
    """Determinant of a square integer matrix by Bareiss's fraction-free
    elimination: each step's entries are minors of a, so the division by the
    previous pivot is exact. A zero pivot swaps in a lower row; a zero
    column returns 0."""
    sign, prev = 1, 1
    while len(a) > 1:
        r = next((i for i, row in enumerate(a) if row[0]), None)
        if r is None:
            return 0
        if r:
            a = list(a)
            a[0], a[r] = a[r], a[0]
            sign = -sign
        top = a[0]
        pivot = top[0]
        a = [[(x * pivot - row[0] * y) // prev for x, y in zip(row[1:], top[1:])]
             for row in a[1:]]
        prev = pivot
    return sign * a[0][0] if a else 1


def det_exact(m: RationalMatrix) -> Fraction:
    """Exact determinant: Bareiss on integers after clearing denominators.

    Singular input returns exactly 0; no rounding anywhere.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise DimensionMismatch("determinant needs a square matrix")
    a, s = clear_denominators(m)
    return Fraction(det_int(a), s ** n)


def inverse_exact(m: RationalMatrix) -> RationalMatrix:
    """Exact inverse by Gauss-Jordan elimination with partial (nonzero) pivoting."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise DimensionMismatch("inverse needs a square matrix")
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for i in range(n):
        if a[i][i] == 0:
            for r in range(i + 1, n):
                if a[r][i] != 0:
                    a[i], a[r] = a[r], a[i]
                    break
            else:
                raise SingularMatrix(f"zero pivot column {i}")
        piv = a[i][i]
        a[i] = [v / piv for v in a[i]]
        for r in range(n):
            if r != i and a[r][i] != 0:
                f = a[r][i]
                a[r] = [x - f * y for x, y in zip(a[r], a[i])]
    return [row[n:] for row in a]
