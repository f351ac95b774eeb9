import math
from fractions import Fraction

import pytest

from majdet import refdata
from majdet.errors import SingularMatrix
from majdet.exact import (
    det_exact,
    inverse_exact,
    mat_add,
    mat_mul,
    rational_matrix,
    submatrix,
)
from majdet.linalg import logdet_pd

from oracles import rand_pd


def test_rational_matrix_inputs():
    m = rational_matrix([[1, "1/2"], [(3, 4), Fraction(5, 6)]])
    assert m[0][1] == Fraction(1, 2)
    assert m[1][0] == Fraction(3, 4)
    assert m[1][1] == Fraction(5, 6)


def test_det_identity():
    identity = rational_matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert det_exact(identity) == 1


def test_det_2x2_hand_expansion():
    assert det_exact(rational_matrix([[1, 2], [3, 4]])) == -2


def test_det_singular_is_zero():
    assert det_exact(rational_matrix([[1, 2], [2, 4]])) == 0


def test_det_needs_pivot_swap():
    m = rational_matrix([[0, 1], [1, 0]])
    assert det_exact(m) == -1


def test_det_integral_stays_exact():
    m = rational_matrix([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    # cofactor expansion: 2*(12-1) - 1*(4-0) + 0 = 18
    assert det_exact(m) == 18


def test_inverse_roundtrip():
    m = rational_matrix([[2, 1], [1, 3]])
    inv = inverse_exact(m)
    identity = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert mat_mul(m, inv) == identity
    assert mat_mul(inv, m) == identity


def test_inverse_singular_raises():
    with pytest.raises(SingularMatrix):
        inverse_exact(rational_matrix([[1, 2], [2, 4]]))


def test_det_agrees_with_float_path(rng):
    for n in (2, 3, 4, 5):
        a = rand_pd(rng, n, kappa=50.0)
        # snap to rationals so both layers see the same matrix
        rat = [[Fraction(x).limit_denominator(10**6) for x in row] for row in a]
        rat = [[(rat[i][j] + rat[j][i]) / 2 for j in range(n)] for i in range(n)]
        exact = det_exact(rat)
        approx = math.exp(logdet_pd([[float(x) for x in row] for row in rat]))
        assert abs(float(exact) - approx) <= 1e-10 * abs(approx)


def test_reference_inverse_square_sum_value():
    # det(D^-2 + C^-2) of the embedded counterexample rounds to 51.0669
    c = refdata.INV_SQ_C_EXACT
    d = refdata.INV_SQ_D_EXACT

    def inv_sq(m):
        inv = inverse_exact(m)
        return mat_mul(inv, inv)

    full = det_exact(mat_add(inv_sq(d), inv_sq(c)))
    assert abs(float(full) - 51.0669) <= 1e-3
    b1 = det_exact(mat_add(inv_sq(submatrix(d, 0, 2)), inv_sq(submatrix(c, 0, 2))))
    b2 = det_exact(mat_add(inv_sq(submatrix(d, 2, 4)), inv_sq(submatrix(c, 2, 4))))
    assert abs(float(b1 * b2) - 54.6523) <= 1e-3
    assert b1 * b2 > full  # strict, zero tolerance
