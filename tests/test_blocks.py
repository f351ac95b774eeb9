import numpy as np
import pytest

from majdet import refdata
from majdet.blocks import (
    Partition,
    diag_blocks,
    direct_sum,
    principal_submatrix,
    validate_partition,
)
from majdet.errors import BadPartition, DimensionMismatch, IndexOutOfRange
from majdet.linalg import eigvals_sym
from majdet.orders import OrderKind, check_order, sort_desc

from oracles import rand_pd


class TestPartition:
    def test_valid(self):
        part = validate_partition((2, 2), 4)
        assert part.sizes == (2, 2)
        assert part.n == 4
        assert part.k == 2
        assert part.offsets() == [(0, 2), (2, 4)]

    def test_sum_mismatch(self):
        with pytest.raises(BadPartition):
            validate_partition((3, 2), 4)

    def test_ones_and_pair(self):
        assert validate_partition((1, 1, 2), 4).sizes == (1, 1, 2)

    def test_nonpositive_size(self):
        with pytest.raises(BadPartition):
            Partition((2, 0))
        with pytest.raises(BadPartition):
            Partition(())

    @pytest.mark.parametrize("sizes", [(1, "1"), (True, True), (1.5, 0.5), 2, "22"])
    def test_sizes_that_are_not_integers(self, sizes):
        # int() would read each of these (or its characters) as sizes
        with pytest.raises(BadPartition, match="block sizes must be positive integers"):
            Partition(sizes)

    def test_numpy_integer_sizes(self):
        assert Partition(np.array([2, 3])).sizes == (2, 3)


class TestDiagBlocks:
    def test_reference_blocks(self):
        blocks = diag_blocks(refdata.WLOG_C, Partition((2, 2)))
        np.testing.assert_array_equal(blocks[0], [[14.0, 8.0], [8.0, 12.0]])
        np.testing.assert_array_equal(blocks[1], [[10.0, 8.0], [8.0, 8.0]])

    def test_single_block(self, rng):
        c = rand_pd(rng, 3)
        (block,) = diag_blocks(c, Partition((3,)))
        np.testing.assert_array_equal(block, c)

    def test_diagonal_matrix(self):
        blocks = diag_blocks(np.diag([1.0, 2.0, 3.0]), Partition((1, 2)))
        np.testing.assert_array_equal(blocks[0], [[1.0]])
        np.testing.assert_array_equal(blocks[1], np.diag([2.0, 3.0]))

    def test_blocks_of_pd_are_pd(self, rng):
        c = rand_pd(rng, 6, kappa=1e4)
        for block in diag_blocks(c, Partition((1, 2, 3))):
            np.linalg.cholesky(block)  # raises unless positive definite

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            diag_blocks(np.eye(3), Partition((2, 2)))

    def test_copies_not_views(self):
        c = np.eye(4)
        (b1, _) = diag_blocks(c, Partition((2, 2)))
        b1[0, 0] = 99.0
        assert c[0, 0] == 1.0


class TestDirectSum:
    def test_identities(self):
        np.testing.assert_array_equal(direct_sum([np.eye(2), np.eye(3)]), np.eye(5))

    def test_reference_assembly(self):
        part = Partition((2, 2))
        d1, d2 = diag_blocks(refdata.WLOG_D, part)
        full = direct_sum([d1, d2])
        assert full.shape == (4, 4)
        np.testing.assert_array_equal(full[:2, 2:], np.zeros((2, 2)))
        np.testing.assert_array_equal(full[2:, :2], np.zeros((2, 2)))
        np.testing.assert_array_equal(full[:2, :2], d1)
        np.testing.assert_array_equal(full[2:, 2:], d2)

    def test_single_block(self, rng):
        a = rand_pd(rng, 3)
        np.testing.assert_array_equal(direct_sum([a]), a)

    def test_det_and_spectrum(self, rng):
        blocks = [rand_pd(rng, 2), rand_pd(rng, 3)]
        full = direct_sum(blocks)
        det_blocks = np.prod([np.prod(eigvals_sym(b)) for b in blocks])
        assert np.prod(eigvals_sym(full)) == pytest.approx(det_blocks, rel=1e-10)
        concat = sort_desc(np.concatenate([eigvals_sym(b) for b in blocks]))
        np.testing.assert_allclose(eigvals_sym(full), concat, rtol=1e-10, atol=1e-12)

    def test_roundtrip_with_diag_blocks(self, rng):
        part = Partition((1, 3, 2))
        blocks = [rand_pd(rng, s) for s in part.sizes]
        full = direct_sum(blocks)
        back = diag_blocks(full, part)
        for orig, got in zip(blocks, back):
            np.testing.assert_array_equal(orig, got)
        np.testing.assert_array_equal(direct_sum(back), full)


class TestPrincipalSubmatrix:
    def test_full_index_set(self, rng):
        a = rand_pd(rng, 4)
        np.testing.assert_array_equal(principal_submatrix(a, range(4)), a)

    def test_identity_selection(self):
        np.testing.assert_array_equal(principal_submatrix(np.eye(4), [0, 2]), np.eye(2))

    def test_reference_corner(self):
        sub = principal_submatrix(refdata.WLOG_C, [2, 3])
        np.testing.assert_array_equal(sub, [[10.0, 8.0], [8.0, 8.0]])

    def test_pd_preserved(self, rng):
        a = rand_pd(rng, 5, kappa=1e3)
        np.linalg.cholesky(principal_submatrix(a, [0, 2, 4]))  # raises unless PD

    def test_bad_indices(self):
        with pytest.raises(IndexOutOfRange):
            principal_submatrix(np.eye(3), [0, 3])
        with pytest.raises(IndexOutOfRange):
            principal_submatrix(np.eye(3), [1, 1])
        with pytest.raises(IndexOutOfRange):
            principal_submatrix(np.eye(3), [])

    @pytest.mark.parametrize("idx", ["01", [0, "1"], [True, False], [0.0, 1.5], 0])
    def test_indices_that_are_not_integers(self, idx):
        with pytest.raises(IndexOutOfRange, match="indices must be integers"):
            principal_submatrix(np.eye(3), idx)


def test_ky_fan_majorization_random(rng):
    # lambda(Diag C) majorized by lambda(C) on random PD with random partitions
    for _ in range(25):
        n = int(rng.integers(2, 8))
        sizes = []
        left = n
        while left:
            s = int(rng.integers(1, left + 1))
            sizes.append(s)
            left -= s
        part = Partition(tuple(sizes))
        c = rand_pd(rng, n, kappa=1e4)
        x = sort_desc(np.concatenate([eigvals_sym(b) for b in diag_blocks(c, part)]))
        y = eigvals_sym(c)
        assert check_order(OrderKind.MAJORIZE, x, y).holds
