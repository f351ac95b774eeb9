"""Partitions, diagonal-block extraction, direct sums, principal submatrices.

Blocks are contiguous along the diagonal; non-contiguous selections go
through principal_submatrix. Every matrix argument may also be a stack of
equally sized matrices along leading axes; the operation then applies to
each matrix of the stack.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import BadPartition, DimensionMismatch, IndexOutOfRange


@dataclass(frozen=True)
class Partition:
    """Ordered block sizes (n_1, ..., n_k), each an int >= 1 (not a bool)."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = _integers(self.sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise BadPartition(f"block sizes must be positive integers, got {self.sizes!r}")
        object.__setattr__(self, "sizes", sizes)

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def k(self) -> int:
        return len(self.sizes)

    def offsets(self) -> list[tuple[int, int]]:
        """Half-open (start, stop) ranges of each block."""
        out = []
        start = 0
        for s in self.sizes:
            out.append((start, start + s))
            start += s
        return out


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


def _square(a) -> np.ndarray:
    """A float64 square matrix, or a stack of them."""
    m = np.asarray(a, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def validate_partition(sizes, n: int) -> Partition:
    """Partition whose sizes sum to the ambient dimension n."""
    part = Partition(tuple(sizes))
    if part.n != n:
        raise BadPartition(f"sizes {part.sizes} sum to {part.n}, expected {n}")
    return part


def diag_blocks(c, part: Partition) -> list[np.ndarray]:
    """The contiguous diagonal blocks of c under the partition (copies)."""
    m = _square(c)
    if m.shape[-1] != part.n:
        raise DimensionMismatch(f"matrix is {m.shape[-1]}x{m.shape[-1]}, partition needs {part.n}")
    return [m[..., lo:hi, lo:hi].copy() for lo, hi in part.offsets()]


def blocks_by_size(a, part: Partition) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """The diagonal blocks of a (a matrix, or a stack of them along leading
    axes) gathered by size, one group per distinct block size in order of
    first appearance: the 0-based positions of its J blocks, in block order,
    and a (J, ..., s, s) stack of them (a copy), block by block, so that one
    kernel call covers every block of one size."""
    m = _square(a)
    if m.shape[-1] != part.n:
        raise DimensionMismatch(f"matrix is {m.shape[-1]}x{m.shape[-1]}, partition needs {part.n}")
    return [(js, np.array([m[..., lo:hi, lo:hi] for lo, hi in spans]))
            for js, spans in _size_groups(part)]


@functools.lru_cache(maxsize=64)
def _size_groups(part: Partition) -> tuple[tuple[tuple[int, ...], tuple], ...]:
    """blocks_by_size's groups: per distinct size, the positions and
    (start, stop) ranges of its blocks."""
    offsets = part.offsets()
    groups: dict[int, list[int]] = {}
    for j, size in enumerate(part.sizes):
        groups.setdefault(size, []).append(j)
    return tuple((tuple(js), tuple(offsets[j] for j in js)) for js in groups.values())


def direct_sum(blocks) -> np.ndarray:
    """Block-diagonal assembly of square matrices."""
    mats = [_square(b) for b in blocks]
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
    m = _square(a)
    sel = np.array(principal_indices(idx, m.shape[-1]))
    return m[..., sel[:, None], sel]
