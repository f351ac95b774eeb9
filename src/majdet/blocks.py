"""Partitions, diagonal-block extraction, direct sums, principal submatrices.

Blocks are contiguous along the diagonal; non-contiguous selections go
through principal_submatrix. Every matrix argument may also be a stack of
equally sized matrices along leading axes; the operation then applies to
each matrix of the stack. The public functions coerce and size-check their
arguments (linalg.as_square); the catalog, whose matrices are validated
once, slices them itself by a partition's cached layouts (_size_groups,
_off_block_indices) and assembles derived blocks with _direct_sum.
"""

from __future__ import annotations

import functools
import itertools
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import BadPartition, DimensionMismatch, IndexOutOfRange
from .linalg import as_square


@dataclass(frozen=True)
class Partition:
    """Ordered block sizes (n_1, ..., n_k), each an int >= 1 (not a bool).

    n and the block ranges are computed once, on construction; sizes is the
    only field, so equality, hashing and repr read it alone."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = _integers(self.sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise BadPartition(f"block sizes must be positive integers, got {self.sizes!r}")
        object.__setattr__(self, "sizes", sizes)
        stops = tuple(itertools.accumulate(sizes))
        object.__setattr__(self, "_n", stops[-1])
        object.__setattr__(self, "_offsets", tuple(zip((0,) + stops, stops)))

    @property
    def n(self) -> int:
        return self._n

    @property
    def k(self) -> int:
        return len(self.sizes)

    def offsets(self) -> list[tuple[int, int]]:
        """Half-open (start, stop) ranges of each block, as a new list."""
        return list(self._offsets)


def _integers(values) -> tuple[int, ...] | None:
    """values as ints; None unless it is a sequence of integers that are not
    bools, so a float, a string or a bool is never read as an int."""
    try:
        values = tuple(values)
    except TypeError:
        return None
    if all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in values):
        return tuple(map(int, values))
    return None


def validate_partition(sizes, n: int) -> Partition:
    """Partition whose sizes sum to the ambient dimension n."""
    part = Partition(tuple(sizes))
    if part.n != n:
        raise BadPartition(f"sizes {part.sizes} sum to {part.n}, expected {n}")
    return part


def diag_blocks(c, part: Partition) -> list[np.ndarray]:
    """The contiguous diagonal blocks of c under the partition (copies)."""
    m = as_square(c, max(np.ndim(c) - 2, 0))
    if m.shape[-1] != part.n:
        raise DimensionMismatch(f"matrix is {m.shape[-1]}x{m.shape[-1]}, partition needs {part.n}")
    return [m[..., lo:hi, lo:hi].copy() for lo, hi in part.offsets()]


@functools.lru_cache(maxsize=64)
def _size_groups(part: Partition) -> tuple[tuple[tuple[int, ...], tuple], ...]:
    """The blocks of the partition gathered by size, one group per distinct
    size in order of first appearance: the 0-based positions of its blocks,
    in block order, and their (start, stop) ranges."""
    offsets = part.offsets()
    groups: dict[int, list[int]] = {}
    for j, size in enumerate(part.sizes):
        groups.setdefault(size, []).append(j)
    return tuple((tuple(js), tuple(offsets[j] for j in js)) for js in groups.values())


@functools.lru_cache(maxsize=64)
def _off_block_indices(part: Partition) -> np.ndarray:
    """The flat indices (row * n + column, read-only) of the entries of an
    n x n matrix that lie off the partition's diagonal blocks."""
    mask = np.ones((part.n, part.n), dtype=bool)
    for lo, hi in part.offsets():
        mask[lo:hi, lo:hi] = False
    indices = np.flatnonzero(mask)
    indices.flags.writeable = False
    return indices


def direct_sum(blocks) -> np.ndarray:
    """Block-diagonal assembly of square matrices."""
    return _direct_sum([as_square(b, max(np.ndim(b) - 2, 0)) for b in blocks])


def _direct_sum(mats: list[np.ndarray]) -> np.ndarray:
    """direct_sum of float square matrices, or of stacks of them with one
    leading shape, which it does not check."""
    n = sum(b.shape[-1] for b in mats)
    out = np.zeros((mats[0].shape[:-2] if mats else ()) + (n, n))
    start = 0
    for b in mats:
        stop = start + b.shape[-1]
        out[..., start:stop, start:stop] = b
        start = stop
    return out


def principal_indices(idx, n: int) -> tuple[int, ...]:
    """idx as 0-based ints, checked to be a nonempty, strictly increasing
    subset of range(n) of integers that are not bools."""
    indices = _integers(idx)
    if indices is None:
        raise IndexOutOfRange(f"indices must be integers, got {idx!r}")
    if not indices:
        raise IndexOutOfRange("index set must be nonempty")
    if any(i < 0 or i >= n for i in indices):
        raise IndexOutOfRange(f"indices {list(indices)} out of range for n={n}")
    if any(b <= a_ for a_, b in zip(indices, indices[1:])):
        raise IndexOutOfRange(f"indices must be strictly increasing, got {list(indices)}")
    return indices


def principal_submatrix(a, idx) -> np.ndarray:
    """Rows and columns of a restricted to the 0-based index set idx (a copy)."""
    m = as_square(a, max(np.ndim(a) - 2, 0))
    sel = np.array(principal_indices(idx, m.shape[-1]))
    return m[..., sel[:, None], sel]
