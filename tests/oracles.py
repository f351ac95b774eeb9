"""Independent oracles used by the tests.

Eigenvalue oracles go through the characteristic polynomial: closed-form
coefficients plus sign-change bisection for 2x2/3x3, Faddeev-LeVerrier
coefficients plus companion-matrix roots for general n. Neither route shares
code with the LAPACK eigensolver under test. Eigenvalues of C^-1 D are
bracketed exactly by counting them above a rational mu through the inertia
of D - mu C in rational arithmetic. The Loewner order oracle for lemma31
is the smallest eigenvalue of the difference. The exact determinant
oracles run Bareiss's elimination on Fractions, normalizing every step, and
take det(D^-2 + C^-2) through exact inverses (inverse_exact, Gauss-Jordan
on Fractions); majdet.exact works on
integers and majdet.catalog never inverts, so equal Fractions check both.
The draw oracles form each random matrix on its own, one qr and one product
per matrix, and draw one trial at a time; majdet.fuzzing forms them per
stack, so equal bytes check the stacked draws.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from dataclasses import replace

from majdet.catalog import Instance, Shape, spec_of
from majdet.errors import DimensionMismatch, ResampleExhausted, SingularMatrix
from majdet.exact import RationalMatrix, mat_mul
from majdet.fuzzing import GenStyle, trial_rng
from majdet.linalg import eigvals_sym


def mat_add(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    if len(a) != len(b):
        raise DimensionMismatch(f"{len(a)} vs {len(b)}")
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def fraction_direct_sum(blocks) -> RationalMatrix:
    """Block-diagonal assembly of square Fraction matrices."""
    n = sum(map(len, blocks))
    out = [[Fraction(0)] * n for _ in range(n)]
    lo = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[lo + i][lo:lo + len(b)] = row
        lo += len(b)
    return out


def stack_instances(insts) -> Instance:
    """One Instance whose matrices are those of insts stacked along a new
    leading axis, in order, as the fuzzer draws a stack; insts share matrix
    shapes, partition, idx, m and p, and the stack takes those of the
    first."""
    def stacked(values: list):
        if values[0] is None:
            return None
        if isinstance(values[0], tuple):
            return tuple(np.stack(column) for column in zip(*values))
        return np.stack(values)

    return replace(insts[0], **{f: stacked([getattr(inst, f) for inst in insts])
                                for f in ("c", "d", "mats")})


def _bisect(f, lo: float, hi: float, iters: int = 200) -> float:
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
        if abs(hi - lo) <= 1e-15 * max(1.0, abs(lo), abs(hi)):
            break
    return 0.5 * (lo + hi)


def _gershgorin(a: np.ndarray) -> tuple[float, float]:
    radii = np.sum(np.abs(a), axis=1) - np.abs(np.diag(a))
    lo = float(np.min(np.diag(a) - radii))
    hi = float(np.max(np.diag(a) + radii))
    pad = 1e-6 * max(1.0, abs(lo), abs(hi))
    return lo - pad, hi + pad


def eig2_bisect(a: np.ndarray) -> np.ndarray:
    """Both eigenvalues of a symmetric 2x2 matrix by charpoly bisection."""
    tr = float(a[0, 0] + a[1, 1])
    det = float(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    p = lambda x: x * x - tr * x + det
    lo, hi = _gershgorin(a)
    vertex = tr / 2.0
    if p(vertex) > 0.0:  # numerically a double root at the vertex
        return np.array([vertex, vertex])
    small = _bisect(p, lo, vertex)
    large = _bisect(p, hi, vertex)
    return np.array(sorted([small, large], reverse=True))


def eig3_bisect(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric 3x3 matrix by charpoly bisection."""
    c2 = float(np.trace(a))
    c1 = float(
        a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        + a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
        + a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]
    )
    c0 = float(
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )
    p = lambda x: ((x - c2) * x + c1) * x - c0
    lo, hi = _gershgorin(a)
    # critical points of the cubic bracket its middle root
    disc = 4.0 * c2 * c2 - 12.0 * c1
    if disc <= 0.0:
        root = _bisect(p, lo, hi)
        return np.array([root, root, root])
    t1 = (2.0 * c2 - math.sqrt(disc)) / 6.0
    t2 = (2.0 * c2 + math.sqrt(disc)) / 6.0
    roots = []
    for a_, b_ in ((lo, t1), (t1, t2), (t2, hi)):
        if p(a_) == 0.0:
            roots.append(a_)
        elif p(b_) == 0.0:
            roots.append(b_)
        elif (p(a_) < 0.0) != (p(b_) < 0.0):
            roots.append(_bisect(p, a_, b_))
        else:  # nearly multiple root pinched at a critical point
            roots.append(a_ if abs(p(a_)) < abs(p(b_)) else b_)
    return np.array(sorted(roots, reverse=True))


def eig_bisect(a: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    if n == 1:
        return np.array([float(a[0, 0])])
    if n == 2:
        return eig2_bisect(a)
    if n == 3:
        return eig3_bisect(a)
    raise ValueError("bisection oracle implemented for n <= 3")


def charpoly_coeffs(a: np.ndarray) -> np.ndarray:
    """Monic characteristic polynomial coefficients via Faddeev-LeVerrier."""
    n = a.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-float(np.trace(a @ m)) / k)
    return np.array(coeffs)


def eig_companion(a: np.ndarray) -> np.ndarray:
    """Eigenvalues via companion-matrix roots of the characteristic polynomial."""
    roots = np.roots(charpoly_coeffs(a))
    return np.sort(roots.real)[::-1]


def positive_inertia(a: list[list[Fraction]]) -> int:
    """Number of positive eigenvalues of a symmetric rational matrix, exactly.

    By Sylvester's law of inertia it is the number of positive pivots of an
    LDL^T factorization, run here without pivoting in Fraction arithmetic.
    """
    m = [row[:] for row in a]
    n = len(m)
    positive = 0
    for k in range(n):
        piv = m[k][k]
        if piv == 0:
            raise ValueError(f"zero pivot at index {k}; bracket at another point")
        positive += piv > 0
        for i in range(k + 1, n):
            f = m[i][k] / piv
            for j in range(k + 1, n):
                m[i][j] -= f * m[k][j]
    return positive


def count_product_eigs_above(c: np.ndarray, d: np.ndarray, mu: Fraction) -> int:
    """Number of eigenvalues of C^-1 D above mu, for float PD matrices C and D.

    C^-1 D is similar to the symmetric L^-1 D L^-T (C = L L^T), and
    L^-1 (D - mu C) L^-T = L^-1 D L^-T - mu I is congruent to D - mu C, so
    the count is the positive inertia of D - mu C, taken exactly on the
    floats' rational values.
    """
    n = c.shape[0]
    return positive_inertia([[Fraction(float(d[i, j])) - mu * Fraction(float(c[i, j]))
                              for j in range(n)] for i in range(n)])


def det_fraction_bareiss(m) -> Fraction:
    """Determinant by Bareiss elimination on Fractions: each step's entries
    are divided by the previous pivot as Fractions, zero pivots swap rows."""
    n = len(m)
    if n == 0:
        return Fraction(1)
    a = [[Fraction(x) for x in row] for row in m]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) / prev
            a[i][k] = Fraction(0)
        prev = pivot
    return sign * a[n - 1][n - 1]


def inverse_exact(m) -> RationalMatrix:
    """Exact inverse by Gauss-Jordan elimination over Fractions with partial
    (nonzero) pivoting."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise DimensionMismatch("inverse needs a square matrix")
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for i in range(n):
        if a[i][i] == 0:
            for r in range(i + 1, n):
                if a[r][i] != 0:
                    a[i], a[r] = a[r], a[i]
                    break
            else:
                raise SingularMatrix(f"zero pivot column {i}")
        piv = a[i][i]
        a[i] = [v / piv for v in a[i]]
        for r in range(n):
            if r != i and a[r][i] != 0:
                f = a[r][i]
                a[r] = [x - f * y for x, y in zip(a[r], a[i])]
    return [row[n:] for row in a]


def inv_square_sum_det_by_inverse(c, d) -> Fraction:
    """det(D^-2 + C^-2) of rational C and D through their exact inverses."""
    ic, id_ = inverse_exact(c), inverse_exact(d)
    return det_fraction_bareiss(mat_add(mat_mul(id_, id_), mat_mul(ic, ic)))


def loewner_le(a, b, tol: float = 1e-9) -> bool:
    """Loewner order test: is b - a positive semidefinite up to tolerance?

    True iff lambda_min(b - a) >= -tol * max(1, ||b - a||_F), with the
    symmetric part of b - a and numpy's eigvalsh.
    """
    diff = np.asarray(b, dtype=float) - np.asarray(a, dtype=float)
    diff = (diff + diff.T) / 2.0
    lam_min = float(np.linalg.eigvalsh(diff)[0]) if diff.size else 0.0
    return lam_min >= -tol * max(1.0, float(np.linalg.norm(diff)))


def rand_sym(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((n, n)) * scale
    return (g + g.T) / 2.0


def rand_pd(rng: np.random.Generator, n: int, kappa: float = 100.0,
            scale: float = 1.0) -> np.ndarray:
    """Random PD matrix built independently of the package generator."""
    lam = np.exp(rng.uniform(0.0, np.log(kappa), size=n)) if kappa > 1 else np.ones(n)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    a = (q * lam) @ q.T * scale
    return (a + a.T) / 2.0


def rand_psd(rng: np.random.Generator, n: int, rank: int | None = None) -> np.ndarray:
    k = rank if rank is not None else n
    g = rng.standard_normal((n, k))
    return g @ g.T


def majorization_pair(rng: np.random.Generator, n: int,
                      positive: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) with x majorized by y: y random, x from Robin Hood transfers."""
    if positive:
        y = rng.uniform(0.5, 3.0, size=n)
    else:
        y = rng.standard_normal(n)
    x = np.sort(y)[::-1].copy()
    for _ in range(3 * n):
        i, j = sorted(rng.choice(n, size=2, replace=False))
        if x[i] <= x[j]:
            continue
        delta = rng.uniform(0.0, 0.5) * (x[i] - x[j])
        x[i] -= delta
        x[j] += delta
        x = np.sort(x)[::-1]
    return x, y


def draw_pd_per_matrix(rng: np.random.Generator, n: int, style: GenStyle = GenStyle.SPECTRAL,
                       kappa_max: float = 1e6, entry_scale: float = 1.0) -> np.ndarray:
    """One matrix of fuzzing.draw_trials (a role without a bias), drawn and
    formed on its own: SPECTRAL is rand_pd, GRAM the resample loop."""
    if style is GenStyle.SPECTRAL:
        return rand_pd(rng, n, kappa_max, entry_scale)
    for _ in range(100):
        g = rng.standard_normal((n, n)) * entry_scale
        a = g @ g.T + 1e-3 * n * np.eye(n)
        a = (a + a.T) / 2.0
        w = eigvals_sym(a)
        if w[0] <= kappa_max * w[-1]:
            return a
    raise ResampleExhausted(f"no draw met kappa_max={kappa_max:g} in 100 attempts")


def build_instance_per_trial(inequality: str, cfg, trial: int, p: float | None = None) -> Instance:
    """fuzzing.build_instance, drawing and forming each matrix of one trial
    in turn."""
    spec = spec_of(inequality)
    if trial == 0 and spec.reference is not None:
        ref_part, ref_c, ref_d = spec.reference
        if spec.shape is Shape.GENERAL_D:
            return Instance(partition=ref_part, c=ref_c.copy(), d=ref_d.copy(), p=p)
        blocks = tuple(ref_d[lo:hi, lo:hi].copy() for lo, hi in ref_part.offsets())
        return Instance(partition=ref_part, c=ref_c.copy(), d_blocks=blocks, p=p)
    rng = trial_rng(cfg, trial)
    n = cfg.n
    part = cfg.part()

    def draw(size: int, cap: float | None = None) -> np.ndarray:
        kappa = cfg.kappa_max if cap is None else min(cfg.kappa_max, cap)
        return draw_pd_per_matrix(rng, size, cfg.style, kappa, cfg.entry_scale)

    if spec.shape is Shape.MATS:
        mats = tuple(draw(n) for _ in range(cfg.m))
        return Instance(partition=part, mats=mats, p=p)
    if spec.shape is Shape.C_IDX:
        a = draw(n)
        size = int(rng.integers(1, n + 1))
        idx = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        return Instance(c=a, idx=idx)
    if spec.shape in (Shape.C, Shape.C_M):
        return Instance(partition=part, c=draw(n))
    if spec.shape is Shape.GENERAL_D:
        return Instance(partition=part, c=draw(n), d=draw(n), p=p)
    c_cap, d_cap, bias = spec.caps
    c = draw(n, c_cap)
    blocks = []
    for size in part.sizes:
        blk = draw(size, d_cap)
        if bias:
            blk = blk * 10.0 ** rng.uniform(-bias, bias)
        blocks.append(blk)
    return Instance(partition=part, c=c, d_blocks=tuple(blocks), p=p)
