"""Dense real symmetric linear algebra on LAPACK through numpy's gufuncs.

Cholesky factorization (which doubles as the positive-definiteness test,
with a relative pivot floor on top of LAPACK's), the symmetric eigensolver,
spectral matrix functions, singular values, and the spectrum of the pencil
C^-1 D for positive definite C and D, taken as the squared singular values
of L^-1 R with C = L L^T and D = R R^T, and the log-determinant of a Gram
matrix A^T A from a QR of A. LAPACK failures surface as the package's own
errors: NotPositiveDefinite from Cholesky, NoConvergence from the
eigensolver and the SVD.

Each computation is one private kernel over a matrix or a `(..., n, n)`
stack of them, with numpy's stacked LAPACK calls, so a stack costs one call
per kernel and its results equal the per-matrix calls bit for bit. Spectra
come out C-contiguous and nonincreasing: numpy rounds a power or a log by
its operand's layout, so one call over a stack of spectra gives each the
bits it gets alone. The
kernels call the LAPACK gufuncs of numpy.linalg._umath_linalg, bound once at
import, with the signatures numpy.linalg passes them, so each result has
numpy.linalg's bits without its wrappers' dtype handling and errstate. A
gufunc reports a failed LAPACK call by filling that matrix's output with NaN
(and raising the invalid flag, which the np.errstate(all="ignore") that
every caller runs under silences); each kernel turns the NaN into the
package error. Kernels do no input validation; they keep only the checks
that follow from the computation (a non-finite operand, which a derived
matrix can overflow to, the pivot floor, a non-positive spectrum). The
public functions (cholesky, eigh_sym, eigvals_sym, eig_pencil and
hyperbolic_power) take one matrix or pair, validate it with as_square and
require_symmetric, and then run the kernels. require_symmetric also takes a
stack, with each matrix judged on its own slack, so the catalog validates
each input matrix, or a whole stack of them, once and calls the kernels
directly.

The guards cost one pass over a whole stack in the common case: the
symmetry test when no entry exceeds half the largest double and no
asymmetry exceeds the smallest slack, the pivot floor when the stack's
least pivot clears its largest floor. Only otherwise is each matrix judged
on its own. The pencil kernel takes C and D as one stacked pair and
factors both in one Cholesky call; _each runs a kernel over a stack of
different matrices, whose members for errors.first_error are the matrices
in stack order.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NonFinite,
    NotPositiveDefinite,
    NotSymmetric,
    first_error,
)

# Symmetry slack relative to the largest entry magnitude.
SYMMETRY_RTOL = 1e-12
# Cholesky pivots below this fraction of the largest diagonal entry are
# rejected rather than regularized: silent jitter would corrupt verdicts.
PIVOT_REL_FLOOR = 1e-13
# Entries at most this large have differences that cannot overflow.
_HALF_MAX = float(np.finfo(float).max) / 2

# The LAPACK gufuncs behind numpy.linalg's cholesky, solve, svd (values
# only), eigvalsh, eigh, inv and qr, each on the lower triangle where it reads
# one; called with signature "d->d", "dd->d" or "d->dd" as numpy.linalg does.
_cholesky_lo = _umath_linalg.cholesky_lo
_solve = _umath_linalg.solve
_svd = _umath_linalg.svd
_eigvalsh_lo = _umath_linalg.eigvalsh_lo
_eigh_lo = _umath_linalg.eigh_lo
_inv = _umath_linalg.inv
_qr_r_raw = _umath_linalg.qr_r_raw
_qr_reduced = _umath_linalg.qr_reduced
_SVD_FAILED = "svd: SVD did not converge"


def as_square(a, lead: int = 0) -> np.ndarray:
    """Coerce to a float64 square matrix, or to a stack of square matrices
    along `lead` leading axes."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 + lead or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def require_symmetric(a) -> np.ndarray:
    """Validate |a_ij - a_ji| <= 1e-12 * max(1, max|a_kl|) and return the array.

    a is a square matrix or a `(..., n, n)` stack of them; each matrix is
    judged on its own slack, never on the largest entry of the stack. Raises
    NonFinite on a NaN or infinite entry. On a stack, the error names the
    first non-finite matrix, or else the first asymmetric one.
    """
    m = as_square(a, max(np.ndim(a) - 2, 0))
    if not _within_least_slack(m):
        _judge_each(m)
    return m


def _within_least_slack(m: np.ndarray) -> bool:
    """One pass over a whole stack for the common case: every entry at most
    half the largest double and no asymmetry above 1e-12, the smallest slack
    there is. Then each matrix, and each diagonal block of each, passes
    require_symmetric's test. The magnitude is settled first, so a NaN or
    inf is never subtracted and a difference never overflows."""
    if not m.size:
        return True
    amax = float(np.maximum.reduce(np.abs(m), axis=None))
    return amax <= _HALF_MAX and float(
        np.maximum.reduce(np.abs(m - m.swapaxes(-1, -2)), axis=None)) <= SYMMETRY_RTOL


def _judge_each(m: np.ndarray) -> None:
    """require_symmetric's test on each matrix of m, with its own slack."""
    amax = np.maximum.reduce(np.abs(m), axis=(-2, -1))
    finite = amax < math.inf
    if not np.logical_and.reduce(finite, axis=None):
        at = np.flatnonzero(~finite)[0]
        raise NonFinite(f"non-finite entry (max |a_ij| = {float(amax.flat[at])})")
    slack = SYMMETRY_RTOL * np.maximum(amax, 1.0)
    with np.errstate(over="ignore"):  # entries above _HALF_MAX: an inf skew fails
        skew = np.maximum.reduce(np.abs(m - m.swapaxes(-1, -2)), axis=(-2, -1))
    over = skew > slack
    if np.logical_or.reduce(over, axis=None):
        at = np.flatnonzero(over)[0]
        raise NotSymmetric(f"asymmetry {float(skew.flat[at]):.3e} "
                           f"exceeds tolerance {float(slack.flat[at]):.3e}")


def symmetrize(a: np.ndarray) -> np.ndarray:
    """(a + a^T)/2, used to scrub roundoff after congruences and products."""
    return (a + a.swapaxes(-1, -2)) / 2.0


def _diagonal(m: np.ndarray) -> np.ndarray:
    return m.diagonal(axis1=-2, axis2=-1)


def _finite(m: np.ndarray) -> np.ndarray:
    """m, or NonFinite as require_symmetric raises it. Inputs are finite once
    validated, but a matrix derived from them (a sum, an inverse, a power)
    can overflow, and LAPACK does not always fail on it."""
    if not np.logical_and.reduce(np.isfinite(m), axis=None):
        raise NonFinite(f"non-finite entry (max |a_ij| = {float(np.abs(m).max())})")
    return m


def _failed(out: np.ndarray) -> bool:
    """Whether a gufunc filled some matrix's output with NaN, its report of a
    failed LAPACK call. A sum of squares is NaN exactly when a term is."""
    return math.isnan(np.vdot(out, out))


def _cholesky(m: np.ndarray) -> np.ndarray:
    # A symmetric m with a NaN or infinite entry either makes LAPACK fail,
    # which fills that matrix's factor with NaN, or yields a NaN or infinite
    # pivot, or an infinite diagonal and so an infinite floor; each fails
    # below, and NonFinite is raised before the Cholesky error, so a finite
    # m pays for no separate scan.
    low = _cholesky_lo(m, signature="d->d")
    if not m.size:
        return low
    # One pass over the whole stack settles the common case: its least pivot
    # clears its largest floor, which is finite. Otherwise (a NaN pivot
    # included) each matrix is held to its own floor.
    least = float(np.minimum.reduce(_diagonal(low), axis=None))
    top = PIVOT_REL_FLOOR * float(np.maximum.reduce(_diagonal(m), axis=None))
    if not (least * least >= top and top < math.inf):
        pivots = _diagonal(low) ** 2
        floor = PIVOT_REL_FLOOR * np.maximum.reduce(_diagonal(m), axis=-1)
        ok = (np.minimum.reduce(pivots, axis=-1) >= floor) & (floor < math.inf)
        if not np.logical_and.reduce(ok, axis=None):
            _finite(m)
            if _failed(pivots):
                raise NotPositiveDefinite("Cholesky failed: Matrix is not positive definite")
            at = tuple(np.argwhere(~(pivots >= floor[..., None]))[0])
            raise NotPositiveDefinite(f"pivot {pivots[at]:.3e} at index {at[-1]} "
                                      f"(floor {floor[at[:-1]]:.3e})")
    return low


def cholesky(a) -> np.ndarray:
    """Lower-triangular L with L L^T = a for symmetric positive definite a.

    Raises NotPositiveDefinite when a pivot L_ii^2 is non-positive or falls
    below 1e-13 times the largest diagonal entry (near-singular inputs are
    rejected, never regularized).
    """
    with np.errstate(all="ignore"):  # a failed factorization raises its own error
        return _cholesky(require_symmetric(as_square(a)))


def _pd_inverse(m: np.ndarray) -> np.ndarray:
    # a factor whose pivots clear the floor is nonsingular
    low_inv = _inv(_cholesky(m), signature="d->d")
    return symmetrize(low_inv.swapaxes(-1, -2) @ low_inv)


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, v = _eigh_lo(symmetrize(_finite(m)), signature="d->dd")
    if _failed(w):
        raise NoConvergence("eigh: Eigenvalues did not converge")
    return w[..., ::-1].copy(), v[..., ::-1]


def eigh_sym(a) -> tuple[np.ndarray, np.ndarray]:
    """(w, V) with a = V diag(w) V^T for symmetric a, w sorted nonincreasing.

    Column i of V pairs with eigenvalue i. LAPACK's symmetric eigensolver,
    as numpy.linalg.eigh runs it, on the symmetric part of a.
    """
    with np.errstate(all="ignore"):  # a failed solver raises its own error
        return _eigh(require_symmetric(as_square(a)))


def _eigvalsh(m: np.ndarray) -> np.ndarray:
    w = _eigvalsh_lo(symmetrize(_finite(m)), signature="d->d")
    if _failed(w):
        raise NoConvergence("eigvalsh: Eigenvalues did not converge")
    return w[..., ::-1].copy()


def eigvals_sym(a) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, sorted nonincreasing."""
    with np.errstate(all="ignore"):  # a failed solver raises its own error
        return _eigvalsh(require_symmetric(as_square(a)))


def _sv(x: np.ndarray) -> np.ndarray:
    """The singular values of x, NaN for a matrix whose SVD failed."""
    if not np.logical_and.reduce(np.isfinite(x), axis=None):
        raise NonFinite("non-finite entry")
    return _svd(x, signature="d->d")


def _singular_values(x: np.ndarray) -> np.ndarray:
    s = _sv(x)
    if _failed(s):
        raise NoConvergence(_SVD_FAILED)
    return s


def _each(kernel, stack: np.ndarray):
    """kernel(stack), one call over the matrices along the stack's first
    axis, which are first_error's members, in order."""
    return first_error(lambda: kernel(stack), kernel, lambda: stack)


def _pencil(cd: np.ndarray) -> np.ndarray:
    """lambda(C^-1 D) of a stacked pair cd = (C, D), each a matrix or a
    stack: one Cholesky call factors both, C's error first."""
    low = _each(_cholesky, cd)
    w = _sv(_solve(low[0], low[1], signature="dd->d")) ** 2
    # one test for the common case: a NaN (a failed SVD) is not positive
    if w.size and not np.minimum.reduce(w[..., -1], axis=None) > 0.0:
        if _failed(w):
            raise NoConvergence(_SVD_FAILED)
        raise NotPositiveDefinite("pencil spectrum not strictly positive")
    return w


def eig_pencil(c, d) -> np.ndarray:
    """Eigenvalues of C^-1 D for positive definite C and D, sorted nonincreasing.

    With C = L L^T and D = R R^T, lambda(C^-1 D) = lambda(L^-1 D L^-T) =
    sigma(L^-1 R)^2. The reduction stays in factored form, so the condition
    number is never squared; C is never inverted, the nonsymmetric product
    C^-1 D is never formed, and the output is real and positive (an
    overflow raises NonFinite).
    """
    mc = as_square(c)
    md = as_square(d)
    if mc.shape != md.shape:
        raise DimensionMismatch(f"{mc.shape} vs {md.shape}")
    with np.errstate(all="ignore"):  # an overflowed eigenvalue raises NonFinite
        return _finite(_pencil(np.array((require_symmetric(mc), require_symmetric(md)))))


def _positive_spectrum(w: np.ndarray) -> np.ndarray:
    """w, spectra sorted nonincreasing along the last axis, or
    NotPositiveDefinite naming the first least eigenvalue that is <= 0."""
    if w.size:
        low = w[..., -1]
        if np.logical_or.reduce(low <= 0.0, axis=None):
            raise NotPositiveDefinite(f"eigenvalue {low[low <= 0.0].flat[0]:.3e} <= 0")
    return w


def _pd_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, v = _eigh(m)
    return _positive_spectrum(w), v


def _powers(w: np.ndarray, ps) -> np.ndarray:
    """w**p for each p of ps, as a (P, ...) stack; an overflow is left inf.
    One power per p: numpy's fast paths for p = 0.5, 2 and -1 round
    differently from a broadcast power."""
    return np.stack([w**p for p in ps])


def eigh_powers(w: np.ndarray, v: np.ndarray, ps) -> np.ndarray:
    """a^p for each exponent of ps, from the decomposition (w, V) =
    _pd_eigh(a) or a stack of them: a (P, ..., n, n) stack, one power per
    exponent (_powers) and one product for all the exponents."""
    return symmetrize((v * _powers(w, ps)[..., None, :]) @ v.swapaxes(-1, -2))


def hyperbolic_power(a, b, p: float) -> np.ndarray:
    """(a@b)^p for positive definite a and b.

    a@b is diagonalizable with positive spectrum, so real powers are well
    defined. Realized as b^{-1/2} (b^{1/2} a b^{1/2})^p b^{1/2}: conjugate
    into the symmetric world, take the spectral power there, conjugate back.
    A power that overflows raises NonFinite.
    """
    ma = as_square(a)
    mb = as_square(b)
    if ma.shape != mb.shape:
        raise DimensionMismatch(f"{ma.shape} vs {mb.shape}")
    cholesky(ma)
    with np.errstate(all="ignore"):  # the result's check judges an overflow
        wb, vb = _pd_eigh(require_symmetric(mb))
        sq = np.sqrt(wb)
        b_half = (vb * sq) @ vb.T
        b_half_inv = (vb / sq) @ vb.T
        w, v = _pd_eigh(symmetrize(b_half @ ma @ b_half))
        return _finite(b_half_inv @ ((v * w**p) @ v.T) @ b_half)


def _logdet(m: np.ndarray):
    # np.add.reduce is what np.sum runs, without its dispatch
    return 2.0 * np.add.reduce(np.log(_diagonal(_cholesky(m))), axis=-1)


def _gram_logdet(a: np.ndarray):
    """log det(A^T A) of a tall (..., m, n) matrix A, m >= n, or a stack:
    2 sum log|r_ii| over R of a QR of A, so A's condition number is not
    squared, as forming A^T A would square it. The gufunc overwrites its
    operand with R and the reflectors, so it runs on a copy."""
    r = a.copy()
    _qr_r_raw(r, signature="d->d")
    return 2.0 * np.add.reduce(np.log(np.abs(_diagonal(r))), axis=-1)
