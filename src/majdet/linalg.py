"""Self-contained dense real symmetric linear algebra.

Everything here is built from scratch on top of plain float arithmetic:
Cholesky factorization (which doubles as the positive-definiteness test),
a cyclic Jacobi eigensolver, spectral matrix functions, and the
symmetric-definite reduction used to get eigenvalues of products of two
positive definite matrices. numpy arrays are the interchange format; the
O(n^3) kernels run over plain Python lists, which is faster than ndarray
scalar indexing at the small dimensions this package targets.
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
JACOBI_MAX_SWEEPS = 30
JACOBI_REL_THRESHOLD = 1e-14


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

    Raises NotPositiveDefinite when a pivot is non-positive or falls below
    1e-13 times the largest diagonal entry (near-singular inputs are
    rejected, never regularized).
    """
    m = require_symmetric(a)
    n = m.shape[0]
    rows = m.tolist()
    floor = PIVOT_REL_FLOOR * max(rows[i][i] for i in range(n)) if n else 0.0
    low = [[0.0] * n for _ in range(n)]
    for i in range(n):
        li = low[i]
        ri = rows[i]
        for j in range(i + 1):
            lj = low[j]
            s = ri[j]
            for k in range(j):
                s -= li[k] * lj[k]
            if i == j:
                if s <= 0.0 or s < floor:
                    raise NotPositiveDefinite(
                        f"pivot {s:.3e} at index {i} (floor {floor:.3e})"
                    )
                li[j] = math.sqrt(s)
            else:
                li[j] = s / lj[j]
    return np.array(low)


def is_pd(a) -> bool:
    """Operational membership test: does Cholesky succeed?"""
    try:
        cholesky(a)
    except (NotPositiveDefinite, NotSymmetric, NonFinite, DimensionMismatch):
        return False
    return True


def _solve_lower(low: list[list[float]], rhs: list[float]) -> list[float]:
    n = len(low)
    y = [0.0] * n
    for i in range(n):
        s = rhs[i]
        li = low[i]
        for k in range(i):
            s -= li[k] * y[k]
        y[i] = s / li[i]
    return y


def _solve_lower_t(low: list[list[float]], rhs: list[float]) -> list[float]:
    n = len(low)
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        s = rhs[i]
        for k in range(i + 1, n):
            s -= low[k][i] * x[k]
        x[i] = s / low[i][i]
    return x


def pd_inverse(a) -> np.ndarray:
    """Inverse of a positive definite matrix via Cholesky solves; symmetric PD."""
    low = cholesky(a).tolist()
    n = len(low)
    cols = []
    for j in range(n):
        e = [0.0] * n
        e[j] = 1.0
        cols.append(_solve_lower_t(low, _solve_lower(low, e)))
    inv = np.array(cols).T
    return symmetrize(inv)


def jacobi_eigen(a, vectors: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenvalues (and optionally an orthogonal eigenbasis) of a symmetric matrix.

    Cyclic Jacobi rotations, run until the off-diagonal Frobenius norm drops
    below 1e-14 * ||a||_F, at most 30 sweeps. Returns eigenvalues sorted
    nonincreasing; when requested, column i of V pairs with eigenvalue i so
    that a = V diag(w) V^T.
    """
    m = require_symmetric(a)
    n = m.shape[0]
    if n == 0:
        return np.empty(0), (np.empty((0, 0)) if vectors else None)
    rows = symmetrize(m).tolist()
    thresh = JACOBI_REL_THRESHOLD * math.sqrt(
        sum(x * x for row in rows for x in row)
    )
    vee = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)] if vectors else None

    def off_norm() -> float:
        return math.sqrt(
            2.0 * sum(rows[i][j] ** 2 for i in range(n) for j in range(i + 1, n))
        )

    converged = off_norm() <= thresh
    for _ in range(JACOBI_MAX_SWEEPS):
        if converged:
            break
        for p in range(n - 1):
            rp = rows[p]
            for q in range(p + 1, n):
                apq = rp[q]
                if apq == 0.0:
                    continue
                rq = rows[q]
                app = rp[p]
                aqq = rq[q]
                tau = (aqq - app) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                for i in range(n):
                    if i == p or i == q:
                        continue
                    ri = rows[i]
                    aip = ri[p]
                    aiq = ri[q]
                    ri[p] = aip * c - aiq * s
                    ri[q] = aiq * c + aip * s
                    rp[i] = ri[p]
                    rq[i] = ri[q]
                rp[p] = app - t * apq
                rq[q] = aqq + t * apq
                rp[q] = 0.0
                rq[p] = 0.0
                if vee is not None:
                    for i in range(n):
                        vi = vee[i]
                        vip = vi[p]
                        viq = vi[q]
                        vi[p] = vip * c - viq * s
                        vi[q] = viq * c + vip * s
        converged = off_norm() <= thresh
    if not converged:
        raise NoConvergence(
            f"off-diagonal norm {off_norm():.3e} above {thresh:.3e} "
            f"after {JACOBI_MAX_SWEEPS} sweeps"
        )
    w = np.array([rows[i][i] for i in range(n)])
    order = np.argsort(-w, kind="stable")
    w = w[order]
    if vee is None:
        return w, None
    return w, np.array(vee)[:, order]


def eigvals_sym(a) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, sorted nonincreasing."""
    return jacobi_eigen(a)[0]


def eig_pd_product(a, b) -> np.ndarray:
    """Eigenvalues of the product a@b for positive definite a and b.

    Computed through the symmetric-definite reduction lambda(ab) =
    lambda(R^T a R) with b = R R^T, so the output is guaranteed real and
    positive; never forms the nonsymmetric product.
    """
    ma = as_square(a)
    mb = as_square(b)
    if ma.shape != mb.shape:
        raise DimensionMismatch(f"{ma.shape} vs {mb.shape}")
    cholesky(ma)  # validate a is PD; the reduction only factors b
    r = cholesky(mb)
    w = eigvals_sym(symmetrize(r.T @ ma @ r))
    if w.size and w[-1] <= 0.0:
        raise NotPositiveDefinite("product spectrum not strictly positive")
    return w


def pd_eigh(a) -> tuple[np.ndarray, np.ndarray]:
    """(w, V) with a = V diag(w) V^T for symmetric positive definite a."""
    w, v = jacobi_eigen(a, vectors=True)
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
    wb, vb = jacobi_eigen(mb, vectors=True)
    if wb.size and wb[-1] <= 0.0:
        raise NotPositiveDefinite(f"eigenvalue {wb[-1]:.3e} <= 0")
    sq = np.sqrt(wb)
    b_half = (vb * sq) @ vb.T
    b_half_inv = (vb / sq) @ vb.T
    w, v = jacobi_eigen(symmetrize(b_half @ ma @ b_half), vectors=True)
    if w.size and w[-1] <= 0.0:
        raise NotPositiveDefinite("product spectrum not strictly positive")
    return b_half_inv @ ((v * w**p) @ v.T) @ b_half


def singular_values(x) -> np.ndarray:
    """Singular values of a square matrix: sqrt of eigenvalues of x^T x."""
    m = as_square(x)
    w = eigvals_sym(symmetrize(m.T @ m))
    return np.sqrt(np.maximum(w, 0.0))


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
