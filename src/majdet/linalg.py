"""Dense real symmetric linear algebra on LAPACK through numpy.linalg.

Cholesky factorization (which doubles as the positive-definiteness test,
with a relative pivot floor on top of LAPACK's), the symmetric eigensolver,
spectral matrix functions, singular values, and the spectrum of the pencil
C^-1 D for positive definite C and D, taken as the squared singular values
of L^-1 R with C = L L^T and D = R R^T. LAPACK failures surface as the
package's own errors: NotPositiveDefinite from Cholesky, NoConvergence from
the eigensolver and the SVD.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NonFinite,
    NotPositiveDefinite,
    NotSymmetric,
)

# Symmetry slack relative to the largest entry magnitude.
SYMMETRY_RTOL = 1e-12
# Cholesky pivots below this fraction of the largest diagonal entry are
# rejected rather than regularized: silent jitter would corrupt verdicts.
PIVOT_REL_FLOOR = 1e-13


def as_square(a) -> np.ndarray:
    """Coerce to a float64 square ndarray."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def require_symmetric(a) -> np.ndarray:
    """Validate |a_ij - a_ji| <= 1e-12 * max(1, max|a_kl|) and return the array.

    Raises NonFinite on a NaN or infinite entry.
    """
    m = as_square(a)
    if m.size:
        amax = float(np.max(np.abs(m)))
        if not math.isfinite(amax):
            raise NonFinite(f"non-finite entry (max |a_ij| = {amax})")
        slack = SYMMETRY_RTOL * max(1.0, amax)
        skew = float(np.max(np.abs(m - m.T)))
        if skew > slack:
            raise NotSymmetric(f"asymmetry {skew:.3e} exceeds tolerance {slack:.3e}")
    return m


def symmetrize(a: np.ndarray) -> np.ndarray:
    """(a + a^T)/2, used to scrub roundoff after congruences and products."""
    return (a + a.T) / 2.0


def frobenius(a) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=float)))


def cholesky(a) -> np.ndarray:
    """Lower-triangular L with L L^T = a for symmetric positive definite a.

    Raises NotPositiveDefinite when a pivot L_ii^2 is non-positive or falls
    below 1e-13 times the largest diagonal entry (near-singular inputs are
    rejected, never regularized).
    """
    m = require_symmetric(a)
    try:
        low = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"Cholesky failed: {exc}") from exc
    pivots = low.diagonal() ** 2
    if pivots.size:
        floor = PIVOT_REL_FLOOR * m.diagonal().max()
        if pivots.min() < floor:
            i = int(np.argmax(pivots < floor))
            raise NotPositiveDefinite(f"pivot {pivots[i]:.3e} at index {i} (floor {floor:.3e})")
    return low


def is_pd(a) -> bool:
    """Operational membership test: does Cholesky succeed?"""
    try:
        cholesky(a)
    except (NotPositiveDefinite, NotSymmetric, NonFinite, DimensionMismatch):
        return False
    return True


def pd_inverse(a) -> np.ndarray:
    """Inverse of a positive definite matrix, L^-T L^-1 from its Cholesky factor."""
    low_inv = np.linalg.inv(cholesky(a))
    return symmetrize(low_inv.T @ low_inv)


def eigh_sym(a) -> tuple[np.ndarray, np.ndarray]:
    """(w, V) with a = V diag(w) V^T for symmetric a, w sorted nonincreasing.

    Column i of V pairs with eigenvalue i. LAPACK's symmetric eigensolver
    (numpy.linalg.eigh) on the symmetric part of a.
    """
    m = symmetrize(require_symmetric(a))
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigh: {exc}") from exc
    return w[::-1], v[:, ::-1]


def eigvals_sym(a) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, sorted nonincreasing."""
    m = symmetrize(require_symmetric(a))
    try:
        w = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigvalsh: {exc}") from exc
    return w[::-1]


def eig_pencil(c, d) -> np.ndarray:
    """Eigenvalues of C^-1 D for positive definite C and D, sorted nonincreasing.

    With C = L L^T and D = R R^T, lambda(C^-1 D) = lambda(L^-1 D L^-T) =
    sigma(L^-1 R)^2. The reduction stays in factored form, so the condition
    number is never squared; C is never inverted, the nonsymmetric product
    C^-1 D is never formed, and the output is real and positive.
    """
    mc = as_square(c)
    md = as_square(d)
    if mc.shape != md.shape:
        raise DimensionMismatch(f"{mc.shape} vs {md.shape}")
    w = singular_values(np.linalg.solve(cholesky(mc), cholesky(md))) ** 2
    if w.size and w[-1] <= 0.0:
        raise NotPositiveDefinite("pencil spectrum not strictly positive")
    return w


def pd_eigh(a) -> tuple[np.ndarray, np.ndarray]:
    """(w, V) with a = V diag(w) V^T for symmetric positive definite a."""
    w, v = eigh_sym(a)
    if w.size and w[-1] <= 0.0:
        raise NotPositiveDefinite(f"eigenvalue {w[-1]:.3e} <= 0")
    return w, v


def eigh_power(w: np.ndarray, v: np.ndarray, p: float) -> np.ndarray:
    """a^p from the decomposition (w, V) = pd_eigh(a); one product per exponent."""
    return symmetrize((v * w**p) @ v.T)


def sym_power(a, p: float) -> np.ndarray:
    """a^p for symmetric positive definite a, via its spectral decomposition."""
    return eigh_power(*pd_eigh(a), p)


def pd_sqrt(a) -> np.ndarray:
    """Symmetric positive definite square root."""
    cholesky(a)  # fail fast on non-PD input
    return sym_power(a, 0.5)


def hyperbolic_power(a, b, p: float) -> np.ndarray:
    """(a@b)^p for positive definite a and b.

    a@b is diagonalizable with positive spectrum, so real powers are well
    defined. Realized as b^{-1/2} (b^{1/2} a b^{1/2})^p b^{1/2}: conjugate
    into the symmetric world, take the spectral power there, conjugate back.
    """
    ma = as_square(a)
    mb = as_square(b)
    if ma.shape != mb.shape:
        raise DimensionMismatch(f"{ma.shape} vs {mb.shape}")
    cholesky(ma)
    wb, vb = pd_eigh(mb)
    sq = np.sqrt(wb)
    b_half = (vb * sq) @ vb.T
    b_half_inv = (vb / sq) @ vb.T
    w, v = eigh_sym(symmetrize(b_half @ ma @ b_half))
    if w.size and w[-1] <= 0.0:
        raise NotPositiveDefinite("product spectrum not strictly positive")
    return b_half_inv @ ((v * w**p) @ v.T) @ b_half


def singular_values(x) -> np.ndarray:
    """Singular values of a square matrix, sorted nonincreasing (LAPACK SVD).

    Raises NonFinite on a NaN or infinite entry.
    """
    m = as_square(x)
    if not np.isfinite(m).all():
        raise NonFinite("non-finite entry")
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"svd: {exc}") from exc


def det_pd(a) -> float:
    """Determinant of a positive definite matrix: product of squared Cholesky pivots."""
    d = np.diag(cholesky(a))
    return float(np.prod(d) ** 2)


def logdet_pd(a) -> float:
    """log det of a positive definite matrix, overflow-safe."""
    return 2.0 * float(np.sum(np.log(np.diag(cholesky(a)))))


def loewner_le(a, b, tol: float = 1e-9) -> bool:
    """Loewner order test: is b - a positive semidefinite up to tolerance?

    True iff lambda_min(b - a) >= -tol * max(1, ||b - a||_F).
    """
    ma = require_symmetric(a)
    mb = require_symmetric(b)
    if ma.shape != mb.shape:
        raise DimensionMismatch(f"{ma.shape} vs {mb.shape}")
    diff = symmetrize(mb - ma)
    w = eigvals_sym(diff)
    lam_min = float(w[-1]) if w.size else 0.0
    return lam_min >= -tol * max(1.0, frobenius(diff))
