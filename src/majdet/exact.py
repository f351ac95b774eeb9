"""Exact rational matrix arithmetic for certifying determinant comparisons.

Matrices are lists of lists of fractions.Fraction, or Scaled pairs (A, s)
for m = A/s, with A an integer matrix and s > 0 the least common
denominator of m's entries: gcd(s, every entry of A) = 1, so the pair is
unique. A matrix file's exact part is read straight into a Scaled
(matio.read_matrix); clear_denominators gives one for a matrix of
Fractions, ints or anything Fraction() takes, and passes a Scaled through.
A determinant is det(m) = det(A)/s^n, with det(A) from
Bareiss's fraction-free elimination (every division is an exact integer
division, bit growth stays polynomial), so no step normalizes a fraction;
a Fraction is built only for the result. The inverse is Gauss-Jordan over
the rationals. These back the zero-tolerance certification of strict
inequality violations.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import NamedTuple

from .errors import DimensionMismatch, SingularMatrix

RationalMatrix = list[list[Fraction]]
IntMatrix = list[list[int]]


class Scaled(NamedTuple):
    """The rational matrix ints/scale, with scale > 0 and gcd(scale, every
    entry of ints) = 1."""

    ints: IntMatrix
    scale: int


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
    return [[sum(map(operator.mul, row, col)) for col in bt] for row in a]


def submatrix(m: RationalMatrix, lo: int, hi: int) -> RationalMatrix:
    return [row[lo:hi] for row in m[lo:hi]]


def direct_sum(parts) -> Scaled:
    """Block-diagonal assembly of Scaled square blocks, each rescaled to the
    least common multiple of their scales (which keeps the form canonical)."""
    n = sum(len(ints) for ints, _ in parts)
    scale = math.lcm(*(s for _, s in parts))
    out: IntMatrix = []
    for ints, s in parts:
        lo, k = len(out), scale // s
        out += [[0] * lo + [x * k for x in row] + [0] * (n - lo - len(row)) for row in ints]
    return Scaled(out, scale)


def from_pairs(pairs) -> Scaled:
    """The Scaled form of a matrix of (numerator, denominator) int pairs,
    each denominator nonzero, of either sign, and not necessarily in lowest
    terms with its numerator."""
    scale = math.lcm(*(den for row in pairs for _, den in row))
    ints = [[num * (scale // den) for num, den in row] for row in pairs]
    g = math.gcd(scale, *(x for row in ints for x in row))
    if g > 1:
        ints, scale = [[x // g for x in row] for row in ints], scale // g
    return Scaled(ints, scale)


def clear_denominators(m) -> Scaled:
    """m as a Scaled (A, s): A an integer matrix and s the least common
    denominator of the entries of m (ints, Fractions, or anything Fraction()
    takes), so that m = A/s exactly. A Scaled m comes back unchanged."""
    if isinstance(m, Scaled):
        return m
    rows = [[x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row] for row in m]
    s = math.lcm(*(x.denominator for row in rows for x in row))
    return Scaled([[x.numerator * (s // x.denominator) for x in row] for row in rows], s)


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
