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
a Fraction is built only for the result. A certificate takes determinants
of symmetric matrices only: leading_minors eliminates those on the upper
triangle, without row swaps, and its pivots are the leading principal minors
(Bareiss 1968); square forms the upper triangle of a symmetric matrix's
square and mirrors it; inv-square-sum takes a block-diagonal D's
determinant and square from its blocks (catalog). These back the
zero-tolerance certification of strict inequality violations.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import NamedTuple

from .errors import DimensionMismatch

RationalMatrix = list[list[Fraction]]
IntMatrix = list[list[int]]


class Scaled(NamedTuple):
    """The rational matrix ints/scale, with scale > 0 and gcd(scale, every
    entry of ints) = 1."""

    ints: IntMatrix
    scale: int


def mat_mul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """a b; on integer matrices it stays in integers."""
    n = len(a)
    if len(b) != n:
        raise DimensionMismatch(f"{n} vs {len(b)}")
    bt = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in bt] for row in a]


def square(a: RationalMatrix) -> RationalMatrix:
    """a a. A symmetric a has a symmetric square, so only its upper triangle
    is formed, row i of a times row j for j >= i, and mirrored; any other a
    goes through mat_mul."""
    if a != [list(col) for col in zip(*a)]:
        return mat_mul(a, a)
    upper = [[sum(map(operator.mul, row, other)) for other in a[i:]] for i, row in enumerate(a)]
    return [[upper[j][i - j] for j in range(i)] + upper[i] for i in range(len(a))]


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


def block_diagonal(a: IntMatrix, offsets) -> bool:
    """Whether a is zero off its diagonal blocks, rows and columns lo:hi."""
    return not any(x for lo, hi in offsets for row in a[lo:hi] for x in row[:lo] + row[hi:])


def from_pairs(nums: list[int], dens: list[int], n: int) -> Scaled:
    """The Scaled form of the n x n matrix of nums[k]/dens[k], in row order:
    each denominator nonzero, of either sign, and not necessarily in lowest
    terms with its numerator. The lcm and the rescaling take each distinct
    denominator once."""
    factor = dict.fromkeys(dens)
    scale = math.lcm(*factor)
    for den in factor:
        factor[den] = scale // den
    flat = list(map(operator.mul, nums, map(factor.__getitem__, dens)))
    g = math.gcd(scale, *flat)
    if g > 1:
        flat, scale = [x // g for x in flat], scale // g
    return Scaled([flat[lo:lo + n] for lo in range(0, n * n, n)], scale)


def clear_denominators(m) -> Scaled:
    """m as a Scaled (A, s): A an integer matrix and s the least common
    denominator of the entries of m (ints, Fractions, or anything Fraction()
    takes), so that m = A/s exactly. A Scaled m comes back unchanged."""
    if isinstance(m, Scaled):
        return m
    rows = [[x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row] for row in m]
    s = math.lcm(*(x.denominator for row in rows for x in row))
    return Scaled([[x.numerator * (s // x.denominator) for x in row] for row in rows], s)


def leading_minors(a: IntMatrix) -> list[int]:
    """The leading principal minors M_1, M_2, ... of a symmetric integer
    matrix, up to the first zero one: Bareiss's pivots without row swaps,
    each reduced matrix symmetric and kept as its upper triangle."""
    rows, minors = [row[i:] for i, row in enumerate(a)], [1]
    while rows and minors[-1]:
        top, prev = rows.pop(0), minors[-1]
        minors.append(pivot := top[0])
        rows = [[(x * pivot - top[i] * y) // prev for x, y in zip(row, top[i:])]
                for i, row in enumerate(rows, start=1)]
    return minors[1:]


def det_int(a: IntMatrix) -> int:
    """Determinant of a square integer matrix by Bareiss's fraction-free
    elimination: each step's entries are minors of a, so the division by the
    previous pivot is exact. A symmetric a with no zero leading minor before
    the last takes leading_minors; otherwise a zero pivot swaps in a lower
    row, and a zero column returns 0."""
    if a == [list(col) for col in zip(*a)] and len(minors := leading_minors(a)) == len(a):
        return minors[-1] if a else 1
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
