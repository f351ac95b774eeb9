"""Built-in reference instances with known outcomes.

These are the worked counterexamples the verify-paper command reproduces and
the fuzzer injects as trial 0 for the false-inequality ids. Entries with a
fractional decimal form are kept as exact rationals so the strict violations
can be certified with zero tolerance. The float matrices are read-only,
since every caller in a process shares them.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .blocks import Partition

F = Fraction


def _const(rows) -> np.ndarray:
    """rows as a read-only float array."""
    a = np.array(rows, dtype=float)
    a.flags.writeable = False
    return a


# 4x4 instance where the eigenvalue weak log majorization fails for a
# positive definite D that is not block diagonal (first failure at k=2).
WLOG_C = _const(
    [[14.0, 8.0, 9.0, 8.0],
     [8.0, 12.0, 7.0, 7.0],
     [9.0, 7.0, 10.0, 8.0],
     [8.0, 7.0, 8.0, 8.0]]
)
WLOG_D = _const(
    [[11.0, 12.0, 6.0, 11.0],
     [12.0, 16.0, 7.0, 12.0],
     [6.0, 7.0, 5.0, 6.0],
     [11.0, 12.0, 6.0, 14.0]]
)
WLOG_PART = Partition((2, 2))
# Reported eigenvalues (4-decimal print precision).
WLOG_EIG_FULL = (4.8921, 1.0664, 0.3433, 0.1772)
WLOG_EIG_B1 = (1.3488, 0.2281)
WLOG_EIG_B2 = (4.8080, 0.4420)
# With D replaced by its diagonal blocks, weak log majorization holds but the
# total products differ, so full log majorization fails.
WLOG_BLOCK_DET = 0.6538
WLOG_FULL_DET = 2.1717

# 2x2 instance violating the blockwise determinant bound when D is a general
# positive definite matrix rather than block diagonal.
MATIC_GEN_C = _const([[12.0, 7.0], [7.0, 10.0]])
MATIC_GEN_D = _const([[16.0, 7.0], [7.0, 5.0]])
MATIC_GEN_PART = Partition((1, 1))
MATIC_GEN_RHS = 3.1549  # det(I + C^-1 D)
MATIC_GEN_LHS = 3.5     # blockwise product

# 2x2 instance showing the det(I + (C^-1 D)^p) bound fails for p < 0:
# with D = I and q = -p, the full side is f(q) = 2 + 2*5^q while the
# blockwise side is g(q) = (1 + 3^q)^2 > f(q) for every q > 0.
NEG_POWER_C = _const([[3.0, 2.0], [2.0, 3.0]])
NEG_POWER_D = _const(np.eye(2))
NEG_POWER_PART = Partition((1, 1))


def neg_power_f(q: float) -> float:
    return 2.0 + 2.0 * 5.0**q


def neg_power_g(q: float) -> float:
    return (1.0 + 3.0**q) ** 2


# 4x4 instance violating det(D1^-2+C1^-2)...det(Dk^-2+Ck^-2) <= det(D^-2+C^-2)
# (and thereby the |.|^p and commuted-power variants at p=2, and the
# singular-value weak log majorization).
INV_SQ_C_EXACT = [
    [F(65, 4), F(21), F(10), F(25, 2)],
    [F(21), F(159, 4), F(83, 4), F(57, 2)],
    [F(10), F(83, 4), F(45, 2), F(111, 4)],
    [F(25, 2), F(57, 2), F(111, 4), F(157, 4)],
]
INV_SQ_D_EXACT = [
    [F(147, 10), F(15), F(0), F(0)],
    [F(15), F(79, 5), F(0), F(0)],
    [F(0), F(0), F(1, 4), F(2, 5)],
    [F(0), F(0), F(2, 5), F(4, 5)],
]
INV_SQ_C = _const(INV_SQ_C_EXACT)
INV_SQ_D = _const(INV_SQ_D_EXACT)
INV_SQ_PART = Partition((2, 2))
INV_SQ_FULL = 51.0669   # det(D^-2 + C^-2)
INV_SQ_BLOCKS = 54.6523  # blockwise product
