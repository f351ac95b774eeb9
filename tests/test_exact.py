import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import majdet.exact as exact_mod
from majdet import refdata, scenarios
from majdet.blocks import Partition
from majdet.catalog import inv_square_sum_exact, matic_exact
from majdet.errors import DimensionMismatch, SingularMatrix
from majdet.exact import (
    Scaled,
    clear_denominators,
    det_exact,
    det_int,
    direct_sum,
    from_pairs,
    leading_minors,
    mat_mul,
    square,
    submatrix,
)

from oracles import (
    det_fraction_bareiss,
    drawn_rational_pd,
    fraction_direct_sum,
    inv_square_sum_det_by_inverse,
    inverse_exact,
    mat_add,
    rand_pd,
)


def test_det_identity():
    identity = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    assert det_exact(identity) == 1


def test_det_2x2_hand_expansion():
    assert det_exact([[1, 2], [3, 4]]) == -2


def test_det_singular_is_zero():
    assert det_exact([[1, 2], [2, 4]]) == 0


def test_det_needs_pivot_swap():
    m = [[0, 1], [1, 0]]
    assert det_exact(m) == -1


def test_det_integral_stays_exact():
    m = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    # cofactor expansion: 2*(12-1) - 1*(4-0) + 0 = 18
    assert det_exact(m) == 18


def test_inverse_roundtrip():
    m = [[2, 1], [1, 3]]
    inv = inverse_exact(m)
    identity = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert mat_mul(m, inv) == identity
    assert mat_mul(inv, m) == identity


def test_inverse_singular_raises():
    with pytest.raises(SingularMatrix):
        inverse_exact([[1, 2], [2, 4]])


def test_det_agrees_with_float_path(rng):
    for n in (2, 3, 4, 5):
        a = rand_pd(rng, n, kappa=50.0)
        # snap to rationals so both layers see the same matrix
        rat = [[Fraction(x).limit_denominator(10**6) for x in row] for row in a]
        rat = [[(rat[i][j] + rat[j][i]) / 2 for j in range(n)] for i in range(n)]
        exact = det_exact(rat)
        sign, logdet = np.linalg.slogdet(np.array(rat, dtype=float))
        assert sign == 1.0
        approx = math.exp(logdet)
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


def random_rational(rng, n: int) -> list[list[Fraction]]:
    """n x n rationals with mixed denominators and signs."""
    return [[Fraction(int(rng.integers(-60, 61)), int(rng.integers(1, 40))) for _ in range(n)]
            for _ in range(n)]


def rational_pd(rng, n: int) -> list[list[Fraction]]:
    """A positive definite matrix snapped to symmetric rationals."""
    a = rand_pd(rng, n, kappa=30.0, scale=float(rng.uniform(0.2, 5.0)))
    rat = [[Fraction(x).limit_denominator(10**4) for x in row] for row in a]
    return [[rat[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]


def test_clear_denominators_is_exact(rng):
    m = random_rational(rng, 5)
    a, s = clear_denominators(m)
    assert all(type(x) is int for row in a for x in row)
    assert [[Fraction(x, s) for x in row] for row in a] == m
    assert s == math.lcm(*(x.denominator for row in m for x in row))


class TestScaled:
    """Scaled is the one canonical integer form of a rational matrix."""

    def test_clear_denominators_passes_a_scaled_through(self, rng):
        scaled = clear_denominators(random_rational(rng, 3))
        assert isinstance(scaled, Scaled)
        assert clear_denominators(scaled) is scaled

    def test_from_pairs_equals_clear_denominators(self, rng):
        m = random_rational(rng, 4)
        pairs = [(x.numerator * k, x.denominator * k) for k, row in zip((1, -1, 6, -35), m)
                 for x in row]
        assert from_pairs(*map(list, zip(*pairs)), 4) == clear_denominators(m)
        assert from_pairs([2, -6, 0, 3], [4, -3, -5, 9], 2) == Scaled([[3, 12], [0, 2]], 6)

    def test_direct_sum_rescales_to_the_lcm(self, rng):
        blocks = [random_rational(rng, k) for k in (1, 3, 2)]
        assert (direct_sum([clear_denominators(b) for b in blocks])
                == clear_denominators(fraction_direct_sum(blocks)))

    @pytest.mark.parametrize("certify", [matic_exact, inv_square_sum_exact])
    def test_certifiers_take_scaled_or_fractions(self, rng, certify):
        part = Partition((2, 3))
        c, d = rational_pd(rng, part.n), rational_pd(rng, part.n)
        assert (certify(clear_denominators(c), clear_denominators(d), part)
                == certify(c, d, part))


class TestDetAgainstFractionBareiss:
    """det_exact (Bareiss on integers) equals Bareiss on Fractions exactly."""

    def test_random_mixed_denominators(self, rng):
        for n in range(1, 9):
            for _ in range(3):
                m = random_rational(rng, n)
                assert det_exact(m) == det_fraction_bareiss(m)

    def test_zero_leading_pivot_needs_swap(self):
        m = [["0", "1/2", 3], [Fraction(2, 3), 5, "-1/7"], [1, Fraction(-4, 9), 2]]
        assert det_exact(m) == det_fraction_bareiss(m) != 0
        # a pivot that turns zero mid-elimination
        m = [[1, 2, 3], [2, 4, 5], [3, 7, 1]]
        assert det_exact(m) == det_fraction_bareiss(m) == 1  # -31 + 26 + 6

    def test_singular_is_exactly_zero(self, rng):
        m = random_rational(rng, 5)
        m[3] = [2 * x - y for x, y in zip(m[0], m[1])]
        assert det_exact(m) == det_fraction_bareiss(m) == 0
        zero_column = [[Fraction(0), *row[1:]] for row in random_rational(rng, 4)]
        assert det_exact(zero_column) == 0

    def test_small_orders(self):
        assert det_exact([]) == det_fraction_bareiss([]) == 1
        assert det_exact([[Fraction(-3, 7)]]) == det_fraction_bareiss([[Fraction(-3, 7)]])
        assert det_exact([[0]]) == 0

    def test_int_string_and_float_entries(self):
        m = [[2, "1/3", 0.25], ["-5/6", 0.1, 7], [1e-3, "4", -3]]
        assert det_exact(m) == det_fraction_bareiss(m)
        assert det_exact([[1, 2], [3, 4]]) == Fraction(-2)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            det_exact([[1, 2]])


# Entries up to 2^100, mixed with small ones, which make zero minors likely.
ENTRIES = st.integers(-2**100, 2**100) | st.integers(-2, 2)


@st.composite
def symmetric_ints(draw, max_n: int = 7) -> list[list[int]]:
    """A symmetric integer matrix of order 0..max_n: as drawn (mostly
    indefinite), diagonally dominant (positive definite), with two equal
    rows and columns (singular), or with a zero leading minor M_k, k < n
    where n > 1, from two equal rows and columns of the leading k x k block
    (k > 1) or a zero corner (k = 1)."""
    n = draw(st.integers(0, max_n))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(ENTRIES)
    kind = draw(st.sampled_from(["drawn", "definite", "singular", "zero-minor"]))
    if kind == "definite":
        for i, row in enumerate(m):
            off_diagonal = sum(abs(x) for j, x in enumerate(row) if j != i)
            row[i] = off_diagonal + draw(st.integers(1, 2**100))
    elif n > 1 and kind in ("singular", "zero-minor"):
        k = n if kind == "singular" else draw(st.integers(1, n - 1))
        if k == 1:
            m[0][0] = 0
        else:
            pair = st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True)
            i, j = sorted(draw(pair))
            for x in range(k):
                m[j][x] = m[i][x]
            for x in range(k):
                m[x][j] = m[x][i]
    return m


class TestSymmetricElimination:
    """det_int on the upper triangle (leading_minors) where that is exact,
    on the whole square otherwise; both equal Bareiss with row swaps on
    Fractions."""

    @settings(max_examples=300, deadline=None)
    @given(m=symmetric_ints())
    def test_det_int_on_symmetric_matrices(self, m):
        assert m == [list(col) for col in zip(*m)]
        assert det_int(m) == det_fraction_bareiss(m)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 6), data=st.data())
    def test_det_int_on_asymmetric_matrices(self, n, data):
        m = [[data.draw(ENTRIES) for _ in range(n)] for _ in range(n)]
        assert det_int(m) == det_fraction_bareiss(m)

    @settings(max_examples=300, deadline=None)
    @given(m=symmetric_ints())
    def test_pivots_are_the_leading_minors(self, m):
        expected = []
        for k in range(1, len(m) + 1):
            expected.append(det_fraction_bareiss(submatrix(m, 0, k)))
            if not expected[-1]:
                break
        assert leading_minors(m) == expected

    def test_zero_leading_minor_falls_back(self):
        m = [[1, 1, 2], [1, 1, 3], [2, 3, 5]]  # M_2 = 0, det = -1
        assert leading_minors(m) == [1, 0]
        assert det_int(m) == det_fraction_bareiss(m) == -1
        assert leading_minors([[0, 1], [1, 0]]) == [0]
        assert det_int([[0, 1], [1, 0]]) == -1


class TestSquare:
    """square forms a symmetric matrix's square on its upper triangle and
    mirrors it; every other matrix goes through the full product. Either
    way it equals mat_mul(a, a) entry for entry."""

    @settings(max_examples=200, deadline=None)
    @given(m=symmetric_ints())
    def test_symmetric_ints(self, m):
        got = square(m)
        assert got == mat_mul(m, m)
        assert got == [list(col) for col in zip(*got)]

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 6), data=st.data())
    def test_asymmetric_ints(self, n, data):
        m = [[data.draw(ENTRIES) for _ in range(n)] for _ in range(n)]
        assert square(m) == mat_mul(m, m)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 5), data=st.data())
    def test_symmetric_fractions(self, n, data):
        m = drawn_rational_pd(data.draw, n)
        assert square(m) == mat_mul(m, m)


class TestInvSquareSumAgainstInverse:
    """The inverse-free certificate equals det(D^-2 + C^-2) through inverses."""

    def test_reference_instance(self):
        c, d = refdata.INV_SQ_C_EXACT, refdata.INV_SQ_D_EXACT
        lhs, rhs = inv_square_sum_exact(c, d, refdata.INV_SQ_PART)
        assert rhs == inv_square_sum_det_by_inverse(c, d)
        blocks = [inv_square_sum_det_by_inverse(submatrix(c, lo, hi), submatrix(d, lo, hi))
                  for lo, hi in refdata.INV_SQ_PART.offsets()]
        assert lhs == blocks[0] * blocks[1]
        assert lhs > rhs

    @pytest.mark.parametrize("sizes", [(1,), (1, 1), (2, 1), (2, 3), (3, 5), (4, 4, 4)])
    def test_random_pd_pairs(self, rng, sizes):
        part = Partition(sizes)
        c, d = rational_pd(rng, part.n), rational_pd(rng, part.n)
        lhs, rhs = inv_square_sum_exact(c, d, part)
        assert rhs == inv_square_sum_det_by_inverse(c, d)
        assert lhs == math.prod(
            inv_square_sum_det_by_inverse(submatrix(c, lo, hi), submatrix(d, lo, hi))
            for lo, hi in part.offsets())

    @pytest.mark.parametrize("sizes", [(1,), (2, 1), (3, 5), (4, 4, 4)])
    @settings(max_examples=4, deadline=None)
    @given(data=st.data())
    def test_block_diagonal_d(self, sizes, data):
        """A block-diagonal D takes the whole's det D and D^2 from its
        blocks; the certificate is still the one through inverses."""
        part = Partition(sizes)
        c = drawn_rational_pd(data.draw, part.n)
        d_blocks = [drawn_rational_pd(data.draw, size) for size in sizes]
        d = fraction_direct_sum(d_blocks)
        lhs, rhs = inv_square_sum_exact(c, d, part)
        assert rhs == inv_square_sum_det_by_inverse(c, d)
        assert lhs == math.prod(
            inv_square_sum_det_by_inverse(submatrix(c, lo, hi), block)
            for (lo, hi), block in zip(part.offsets(), d_blocks))


def singular_names(c, d, part: Partition, certify) -> list[str]:
    """The operands a certifier takes determinants of, in the order it takes
    them (Ci and, for inv-square-sum, Di block by block, then C and D),
    that are singular: det_fraction_bareiss is 0."""
    spans = [(str(i), lo, hi) for i, (lo, hi) in enumerate(part.offsets(), start=1)]
    mats = ("C", "D") if certify is inv_square_sum_exact else ("C",)
    return [name + label for label, lo, hi in [*spans, ("", 0, part.n)]
            for name, m in zip(mats, (c, d))
            if det_fraction_bareiss(submatrix(m, lo, hi)) == 0]


class TestSingularExactOperand:
    def test_matic_singular_c(self):
        c = [[1, 1], [1, 1]]
        with pytest.raises(SingularMatrix, match="exact C is singular"):
            matic_exact(c, [[1, 0], [0, 1]], Partition((1, 1)))

    def test_matic_singular_block(self):
        c = [[0, 1], [1, 1]]
        with pytest.raises(SingularMatrix, match="exact C1 is singular"):
            matic_exact(c, [[1, 0], [0, 1]], Partition((1, 1)))

    def test_inv_square_sum_singular_d(self):
        c = [[2, 1], [1, 2]]
        d = [[1, 0], [0, 0]]
        with pytest.raises(SingularMatrix, match="exact D2 is singular"):
            inv_square_sum_exact(c, d, Partition((1, 1)))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), certify=st.sampled_from([matic_exact, inv_square_sum_exact]),
           sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3), block_d=st.booleans())
    def test_first_singular_operand_raises(self, data, certify, sizes, block_d):
        """Of several singular operands, the first in block order (Ci before
        Di), then the whole, raises; with none, no error."""
        part = Partition(tuple(sizes))
        c, d = ([[0] * part.n for _ in range(part.n)] for _ in range(2))
        for m in (c, d):
            for i in range(part.n):
                for j in range(i, part.n):
                    m[i][j] = m[j][i] = data.draw(st.integers(-1, 1))
        if block_d:
            d = fraction_direct_sum([submatrix(d, lo, hi) for lo, hi in part.offsets()])
        names = singular_names(c, d, part, certify)
        if not names:
            certify(c, d, part)
            return
        with pytest.raises(SingularMatrix) as err:
            certify(c, d, part)
        assert str(err.value) == f"exact {names[0]} is singular"


def test_certifier_path_never_inverts():
    """The inv-square-sum certificate and ex-2.8 run without a Fraction
    inverse: majdet.exact has none, only the test oracle does."""
    assert not hasattr(exact_mod, "inverse_exact")
    lhs, rhs = inv_square_sum_exact(refdata.INV_SQ_C_EXACT, refdata.INV_SQ_D_EXACT,
                                    refdata.INV_SQ_PART)
    assert lhs > rhs
    assert scenarios.run_ex28().passed
