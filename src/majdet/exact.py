"""Exact rational matrix arithmetic for certifying determinant comparisons.

Matrices are plain lists of lists of fractions.Fraction. The determinant
uses Bareiss fraction-free elimination (every division is exact, bit growth
stays polynomial); the inverse is Gauss-Jordan over the rationals. These
back the zero-tolerance certification of strict inequality violations.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatch, SingularMatrix

RationalMatrix = list[list[Fraction]]


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


def mat_add(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    if len(a) != len(b):
        raise DimensionMismatch(f"{len(a)} vs {len(b)}")
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_mul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
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


def det_exact(m: RationalMatrix) -> Fraction:
    """Exact determinant via Bareiss fraction-free elimination.

    Singular input returns exactly 0; no rounding anywhere.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise DimensionMismatch("determinant needs a square matrix")
    if n == 0:
        return Fraction(1)
    a = [[Fraction(x) for x in row] for row in m]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) / prev
            a[i][k] = Fraction(0)
        prev = pivot
    return sign * a[n - 1][n - 1]


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
