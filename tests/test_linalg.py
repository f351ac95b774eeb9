import math
from fractions import Fraction

import numpy as np
import pytest
import majdet.linalg as linalg_mod
from majdet.catalog import SPECS
from majdet.errors import (
    DimensionMismatch,
    NoConvergence,
    NonFinite,
    NotPositiveDefinite,
    NotSymmetric,
)
from majdet.linalg import (
    _logdet,
    _pd_eigh,
    _pd_inverse,
    _singular_values,
    cholesky,
    eig_pencil,
    eigh_powers,
    eigh_sym,
    eigvals_sym,
    hyperbolic_power,
    require_symmetric,
    symmetrize,
)
from majdet.orders import sort_desc

from oracles import (
    count_product_eigs_above,
    eig_bisect,
    eig_companion,
    loewner_le,
    rand_pd,
    rand_psd,
    rand_sym,
)


def geometric_pd(rng: np.random.Generator, n: int, kappa: float) -> np.ndarray:
    """Haar eigenvectors and eigenvalues geometric from 1 to kappa, so the
    condition number is exactly kappa; exactly symmetric."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    a = (q * kappa ** (np.arange(n) / (n - 1))) @ q.T
    return (a + a.T) / 2.0


class TestCholesky:
    def test_identity(self):
        np.testing.assert_allclose(cholesky(np.eye(2)), np.eye(2))

    def test_known_factor(self):
        a = np.array([[4.0, 2.0], [2.0, 3.0]])
        low = cholesky(a)
        np.testing.assert_allclose(low, [[2.0, 0.0], [1.0, math.sqrt(2.0)]])
        np.testing.assert_allclose(low @ low.T, a, atol=1e-14)

    def test_indefinite_rejected(self):
        # eigenvalues 3 and -1 from the characteristic polynomial
        a = np.array([[1.0, 2.0], [2.0, 1.0]])
        np.testing.assert_allclose(eig_bisect(a), [3.0, -1.0], atol=1e-12)
        with pytest.raises(NotPositiveDefinite):
            cholesky(a)

    def test_asymmetric_rejected(self):
        with pytest.raises(NotSymmetric):
            cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_skew_that_overflows_raises_without_a_warning(self):
        # a - a^T overflows to inf; under the suite's warning filter a
        # RuntimeWarning would replace the error
        with pytest.raises(NotSymmetric, match=r"^asymmetry inf exceeds tolerance 1\.000e\+296$"):
            require_symmetric(np.array([[1.0, 1e308], [-1e308, 1.0]]))

    def test_near_singular_pivot_floor(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.diag([1.0, 1e-14]))

    def test_roundtrip_random(self, rng):
        for n in (1, 2, 3, 5, 8, 12):
            a = rand_pd(rng, n, kappa=1e4)
            low = cholesky(a)
            err = np.linalg.norm(low @ low.T - a) / np.linalg.norm(a)
            assert err <= 1e-12
            assert np.all(np.diag(low) > 0)
            assert np.all(np.triu(low, 1) == 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        a = np.array([[2.0, bad], [bad, 2.0]])
        with pytest.raises(NonFinite):
            require_symmetric(a)
        with pytest.raises(NonFinite):
            cholesky(a)
        with pytest.raises(NonFinite):
            cholesky(np.diag([bad, 1.0]))


class TestInverse:
    """The positive definite inverse kernel, L^-T L^-1 from the Cholesky
    factor."""

    def test_identity(self):
        np.testing.assert_allclose(_pd_inverse(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(_pd_inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_adjugate_2x2(self):
        # inverse of [[3,2],[2,3]] is adj/det = [[3,-2],[-2,3]]/5
        a = np.array([[3.0, 2.0], [2.0, 3.0]])
        np.testing.assert_allclose(_pd_inverse(a), np.array([[3.0, -2.0], [-2.0, 3.0]]) / 5.0,
                                   atol=1e-14)

    def test_residual_random(self, rng):
        for n in (2, 4, 7):
            a = rand_pd(rng, n, kappa=1e5)
            inv = _pd_inverse(a)
            assert np.linalg.norm(a @ inv - np.eye(n)) <= 1e-10 * n
            np.testing.assert_allclose(inv, inv.T)
            np.linalg.cholesky(inv)  # raises unless positive definite


class TestJacobi:
    """The symmetric eigensolver, eigh_sym/eigvals_sym. The class keeps the
    name of the Jacobi solver it used to test so that test ids stay stable."""

    def test_diagonal(self):
        np.testing.assert_allclose(eigvals_sym(np.diag([3.0, 1.0])), [3.0, 1.0])

    def test_2x2_known(self):
        w, _ = eigh_sym(np.array([[3.0, 2.0], [2.0, 3.0]]))
        np.testing.assert_allclose(w, [5.0, 1.0], atol=1e-14)

    def test_random_5x5_vs_companion_oracle(self, rng):
        a = rand_sym(rng, 5)
        np.testing.assert_allclose(eigvals_sym(a), eig_companion(a), atol=1e-9)

    def test_small_vs_bisection_oracle(self, rng):
        for n in (2, 3):
            for _ in range(50):
                a = rand_sym(rng, n, scale=float(rng.uniform(0.1, 10.0)))
                np.testing.assert_allclose(eigvals_sym(a), eig_bisect(a),
                                           atol=1e-9 * max(1.0, np.linalg.norm(a)))

    def test_reconstruction_and_orthogonality(self, rng):
        for n in (2, 5, 9, 12):
            a = rand_sym(rng, n)
            w, v = eigh_sym(a)
            assert np.linalg.norm(a - (v * w) @ v.T) <= 1e-10 * np.linalg.norm(a)
            assert np.linalg.norm(v.T @ v - np.eye(n)) <= 1e-11 * n
            assert np.all(np.diff(w) <= 0)

    def test_trace_and_det_consistency(self, rng):
        for _ in range(20):
            a = rand_pd(rng, 6, kappa=1e3)
            w = eigvals_sym(a)
            assert abs(w.sum() - np.trace(a)) <= 1e-10 * abs(np.trace(a))
            det = math.exp(np.linalg.slogdet(a)[1])
            assert abs(np.prod(w) - det) <= 1e-9 * det


class TestEigPdProduct:
    """The pencil spectrum lambda(C^-1 D) through eig_pencil; the class keeps
    its name so the test ids stay stable."""

    def test_identity_left(self, rng):
        d = rand_pd(rng, 4)
        np.testing.assert_allclose(eig_pencil(np.eye(4), d), eigvals_sym(d), rtol=1e-12)

    def test_commuted_spectrum(self, rng):
        # lambda(a^-1 b) = 1 / lambda(b^-1 a), in reverse order
        for _ in range(10):
            a = rand_pd(rng, 5, kappa=1e3)
            b = rand_pd(rng, 5, kappa=1e3)
            wab = eig_pencil(a, b)
            wba = eig_pencil(b, a)
            np.testing.assert_allclose(wab, 1.0 / wba[::-1], rtol=1e-10)
            assert np.all(wab > 0)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            eig_pencil(np.eye(2), np.eye(3))

    def test_overflowed_eigenvalue_raises_non_finite(self):
        # lambda = 1e400 overflows; it came back inf, and under the suite's
        # warning filter a RuntimeWarning would replace the error
        with pytest.raises(NonFinite, match=r"^non-finite entry \(max \|a_ij\| = inf\)$"):
            eig_pencil(1e-200 * np.eye(2), 1e200 * np.eye(2))

    def test_relative_accuracy_vs_exact_inertia(self):
        # C^-1 D spans up to 24 decades at these condition numbers; every
        # eigenvalue must still be right to 1e-3 relative, bracketed exactly.
        rng = np.random.default_rng(20161)
        bad = []
        for kappa in (1e10, 1e12):
            for trial in range(12):
                c, d = geometric_pd(rng, 8, kappa), geometric_pd(rng, 8, kappa)
                w = eig_pencil(c, d)
                for i, lam in enumerate(w):
                    lo, hi = Fraction(lam * (1 - 1e-3)), Fraction(lam * (1 + 1e-3))
                    if not (count_product_eigs_above(c, d, lo) > i
                            and count_product_eigs_above(c, d, hi) <= i):
                        bad.append((kappa, trial, i, float(lam)))
                        break
        assert bad == []

    def test_not_pd(self):
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        for c, d in ((indefinite, np.eye(2)), (np.eye(2), indefinite)):
            with pytest.raises(NotPositiveDefinite):
                eig_pencil(c, d)

    def test_c_error_comes_first(self):
        # C fails the pivot floor and D fails in LAPACK; the stacked
        # Cholesky of (C, D) reports D's failure first
        with pytest.raises(NotPositiveDefinite) as info:
            eig_pencil(np.diag([1.0, 1e-14]), np.diag([-1.0, 1.0]))
        assert str(info.value) == "pivot 1.000e-14 at index 1 (floor 1.000e-13)"


class TestMatrixFunctions:
    """Spectral powers a^p = eigh_powers(*_pd_eigh(a), (p,))[0]."""

    @staticmethod
    def power(a, p):
        return eigh_powers(*_pd_eigh(a), (p,))[0]

    def test_sqrt_identity(self):
        np.testing.assert_allclose(self.power(np.eye(3), 0.5), np.eye(3))

    def test_sqrt_diagonal(self):
        np.testing.assert_allclose(self.power(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]))

    def test_sqrt_reconstruction(self, rng):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        s = self.power(a, 0.5)
        assert np.linalg.norm(s @ s - a) <= 1e-10 * np.linalg.norm(a)
        for _ in range(5):
            a = rand_pd(rng, 5, kappa=1e4)
            s = self.power(a, 0.5)
            assert np.linalg.norm(s @ s - a) <= 1e-10 * np.linalg.norm(a)
            np.linalg.cholesky(s)  # raises unless positive definite

    def test_sym_power_inverse(self, rng):
        a = rand_pd(rng, 4, kappa=100.0)
        np.testing.assert_allclose(self.power(a, -1.0), np.linalg.inv(a), rtol=1e-9, atol=1e-12)

    def test_powers_from_one_decomposition(self, rng):
        # one decomposition serves every exponent: a^0 = I, a^1 = a, a^2 = a a
        a = rand_pd(rng, 5, kappa=1e3)
        w, v = _pd_eigh(a)
        zero, one, two = eigh_powers(w, v, (0.0, 1.0, 2.0))
        np.testing.assert_allclose(zero, np.eye(5), atol=1e-12)
        np.testing.assert_allclose(one, a, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(two, a @ a, rtol=1e-9, atol=1e-9)

    def test_pd_eigh_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            _pd_eigh(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestHyperbolicPower:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match=r"^\(2, 2\) vs \(3, 3\)$"):
            hyperbolic_power(np.eye(2), np.eye(3), 2.0)

    def test_overflowed_power_raises_non_finite(self):
        # 10^400 overflows, and the conjugation back turns it into NaN
        with pytest.raises(NonFinite, match=r"^non-finite entry \(max \|a_ij\| = nan\)$"):
            hyperbolic_power(np.eye(2), 10 * np.eye(2), 400.0)

    def test_identity(self):
        np.testing.assert_allclose(hyperbolic_power(np.eye(3), np.eye(3), 7.3), np.eye(3),
                                   atol=1e-12)

    def test_p1_is_product(self, rng):
        a, b = rand_pd(rng, 4), rand_pd(rng, 4)
        np.testing.assert_allclose(hyperbolic_power(a, b, 1.0), a @ b,
                                   atol=1e-12 * np.linalg.norm(a @ b))

    def test_square_matches_multiplication(self, rng):
        a, b = rand_pd(rng, 4, kappa=50.0), rand_pd(rng, 4, kappa=50.0)
        ab = a @ b
        np.testing.assert_allclose(hyperbolic_power(a, b, 2.0), ab @ ab,
                                   rtol=1e-9, atol=1e-9 * np.linalg.norm(ab @ ab))

    def test_inverse_power(self, rng):
        a, b = rand_pd(rng, 3, kappa=50.0), rand_pd(rng, 3, kappa=50.0)
        inv = hyperbolic_power(a, b, -1.0)
        np.testing.assert_allclose(inv @ (a @ b), np.eye(3), atol=1e-9)

    def test_semigroup(self, rng):
        a, b = rand_pd(rng, 4, kappa=30.0), rand_pd(rng, 4, kappa=30.0)
        for p in (-1.0, 0.5, 1.0, 2.0):
            for q in (-1.0, 0.5, 1.0, 2.0):
                lhs = hyperbolic_power(a, b, p) @ hyperbolic_power(a, b, q)
                rhs = hyperbolic_power(a, b, p + q)
                assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(1.0, np.linalg.norm(rhs))

    def test_det_matches_spectrum_power(self, rng):
        a, b = rand_pd(rng, 4, kappa=30.0), rand_pd(rng, 4, kappa=30.0)
        w = eig_pencil(np.linalg.inv(a), b)  # lambda(ab)
        for p in (0.5, 2.0, -1.0):
            det = np.linalg.det(hyperbolic_power(a, b, p))
            expected = float(np.prod(w**p))
            assert abs(det - expected) <= 1e-9 * abs(expected)

    def test_spectrum_is_powered(self, rng):
        a, b = rand_pd(rng, 3, kappa=20.0), rand_pd(rng, 3, kappa=20.0)
        w = eig_pencil(np.linalg.inv(a), b)  # lambda(ab)
        got = np.sort(np.linalg.eigvals(hyperbolic_power(a, b, 0.5)).real)[::-1]
        np.testing.assert_allclose(got, w**0.5, rtol=1e-9)


class TestSingularValues:
    """The SVD kernel, singular values sorted nonincreasing."""

    def test_identity(self):
        np.testing.assert_allclose(_singular_values(np.eye(4)), np.ones(4))

    def test_nilpotent(self):
        np.testing.assert_allclose(_singular_values(np.array([[0.0, 2.0], [0.0, 0.0]])),
                                   [2.0, 0.0], atol=1e-15)

    def test_cross_check_squares(self, rng):
        c = rand_pd(rng, 4, kappa=100.0)
        d = rand_pd(rng, 4, kappa=100.0)
        x = np.linalg.inv(c) @ d
        s = _singular_values(x)
        gram = x.T @ x
        w = eigvals_sym((gram + gram.T) / 2.0)
        np.testing.assert_allclose(s**2, np.maximum(w, 0.0), rtol=1e-8, atol=1e-10)


class TestDetPd:
    """Log-determinants of positive definite matrices through the Cholesky
    kernel _logdet."""

    def test_identity(self):
        assert math.exp(_logdet(np.eye(5))) == pytest.approx(1.0)

    def test_diagonal(self):
        assert math.exp(_logdet(np.diag([2.0, 3.0, 4.0]))) == pytest.approx(24.0)

    def test_known_2x2(self):
        # eigenvalues 5 and 1, so the determinant is 5
        a = np.array([[3.0, 2.0], [2.0, 3.0]])
        assert math.exp(_logdet(a)) == pytest.approx(5.0, rel=1e-12)

    def test_logdet(self, rng):
        a = rand_pd(rng, 5, kappa=1e4)
        sign, want = np.linalg.slogdet(a)
        assert sign == 1.0
        assert _logdet(a) == pytest.approx(want, rel=1e-12)


class TestLoewner:
    """The Loewner order oracle of tests/oracles.py."""

    def test_trivial(self):
        assert loewner_le(np.eye(3), 2.0 * np.eye(3))
        assert not loewner_le(2.0 * np.eye(3), np.eye(3))

    def test_submatrix_inverse_instance(self, rng):
        # 2x2 corner of a random PD 4x4: inv([A]) <= [inv(A)]
        a = rand_pd(rng, 4, kappa=100.0)
        sub = a[:2, :2]
        lhs = np.linalg.inv(sub)
        rhs = np.linalg.inv(a)[:2, :2]
        assert loewner_le(lhs, rhs)
        diff_eigs = eig_bisect(rhs - lhs)
        assert diff_eigs[-1] >= -1e-9

    def test_weyl_monotonicity(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 7))
            a = rand_sym(rng, n)
            b = a + rand_psd(rng, n)
            assert loewner_le(a, b)
            wa, wb = eigvals_sym(a), eigvals_sym(b)
            assert np.all(wa <= wb + 1e-9)


STACK_NS = (1, 2, 4, 8, 16, 32)
STACK_SIZES = (1, 2, 10)


def pd_stack(rng, size, n, kappa=1e4):
    return np.stack([rand_pd(rng, n, kappa=kappa) for _ in range(size)])


def kernel_cases():
    """(name, kernel over one stack argument) for every private kernel."""
    return {
        "cholesky": linalg_mod._cholesky,
        "logdet": linalg_mod._logdet,
        "pd_inverse": linalg_mod._pd_inverse,
        "eigh": linalg_mod._eigh,
        "pd_eigh": linalg_mod._pd_eigh,
        "eigvalsh": linalg_mod._eigvalsh,
        "singular_values": linalg_mod._singular_values,
        "pencil": lambda a: linalg_mod._pencil(np.stack((a, a[..., ::-1, ::-1]))),
        # a grid of exponents, moved behind the stack axis
        "eigh_power": lambda a: np.moveaxis(
            eigh_powers(*linalg_mod._pd_eigh(a), (1.7, 0.5, 2.0, -1.0)), 0, -3),
        # one elementwise call over a stack of spectra, at exponents numpy
        # rounds by the operand's layout, and a log
        "eigvalsh_pow3": lambda a: linalg_mod._eigvalsh(a) ** 3.0,
        "eigvalsh_pow1.7": lambda a: linalg_mod._eigvalsh(a) ** 1.7,
        "eigvalsh_log": lambda a: np.log(linalg_mod._eigvalsh(a)),
        "symmetrize": symmetrize,
    }


# The kernels that return spectra, sorted nonincreasing along the last axis
SPECTRA = {
    "eigvalsh": linalg_mod._eigvalsh,
    "eigh": lambda a: linalg_mod._eigh(a)[0],
    "pencil": lambda a: linalg_mod._pencil(np.stack((a, a[..., ::-1, ::-1]))),
    "singular_values": _singular_values,
    "sort_desc": lambda a: sort_desc(a.diagonal(axis1=-2, axis2=-1)),
}


class TestStackedKernels:
    """Each kernel over a (T, n, n) stack gives, bit for bit, what it gives
    one matrix at a time. A numpy whose stacked LAPACK, matmul or reduction
    paths round differently fails here rather than as drifting reports."""

    @pytest.mark.parametrize("name", sorted(kernel_cases()))
    @pytest.mark.parametrize("n", STACK_NS)
    def test_stack_equals_loop(self, rng, name, n):
        kernel = kernel_cases()[name]
        for size in STACK_SIZES:
            stack = pd_stack(rng, size, n)
            got = kernel(stack)
            got = got if isinstance(got, tuple) else (got,)
            for t in range(size):
                want = kernel(stack[t])
                want = want if isinstance(want, tuple) else (want,)
                for g, w in zip(got, want):
                    assert np.asarray(g[t]).tobytes() == np.asarray(w).tobytes(), (name, n, size, t)

    @pytest.mark.parametrize("name", sorted(SPECTRA))
    def test_spectra_are_contiguous_and_nonincreasing(self, rng, name):
        # so that one elementwise call gives a stack the bits it gives each member
        for a in (rand_pd(rng, 5), pd_stack(rng, 4, 5)):
            w = SPECTRA[name](a)
            assert w.shape == a.shape[:-1] and w.flags.c_contiguous, name
            assert np.all(np.diff(w, axis=-1) <= 0.0), name

    def test_pivot_floor_rejects_any_matrix_of_a_stack(self):
        stack = np.stack([np.eye(2), np.diag([1.0, 1e-14])])
        with pytest.raises(NotPositiveDefinite, match=r"pivot 1\.000e-14 at index 1"):
            linalg_mod._cholesky(stack)

    def test_pivot_floor_is_each_matrix_own(self):
        # the stack's least pivot, 1e-8, is below its largest floor, 1e-7,
        # but each matrix clears its own floor and factors alone
        small, large = np.diag([1e-8, 1e-8]), np.diag([1e6, 1e6])
        for stack in (np.stack([small, large]), np.stack([large, small])):
            np.testing.assert_array_equal(linalg_mod._cholesky(stack), np.sqrt(stack))

    @pytest.mark.parametrize("bad", [
        np.diag([math.inf, math.inf]), np.diag([math.inf, 1.0]), np.array([[math.inf]]),
        np.array([[2.0, math.nan], [math.nan, 2.0]]), np.array([[2.0, -math.inf], [-math.inf, 2.0]]),
        np.diag([1.0, math.nan]), np.full((3, 3), math.inf),
    ])
    def test_non_finite_matrix_raises_non_finite(self, bad):
        # a derived matrix that overflowed is rejected, alone or in a stack
        with np.errstate(all="ignore"):
            for m in (bad, np.stack([np.eye(len(bad)), bad])):
                with pytest.raises(NonFinite, match="non-finite entry"):
                    linalg_mod._cholesky(m)
                with pytest.raises(NonFinite, match="non-finite entry"):
                    linalg_mod._eigvalsh(m)

    def test_nan_pivot_fails_the_floor(self, monkeypatch):
        # a factorization that returned a NaN pivot must not pass: a gufunc
        # fills a failed matrix's factor with NaN
        monkeypatch.setattr(linalg_mod, "_cholesky_lo", lambda m, **kw: np.full_like(m, np.nan))
        with pytest.raises(NotPositiveDefinite,
                           match="^Cholesky failed: Matrix is not positive definite$"):
            linalg_mod._cholesky(np.eye(2))


def lead_shapes_stacks(rng, n):
    """PD stacks of n x n matrices with 0, 1 and 2 leading axes, and a
    strided view of one of them."""
    stacks = [pd_stack(rng, size, n).reshape(shape + (n, n))
              for size, shape in ((1, ()), (3, (3,)), (4, (2, 2)))]
    return stacks + [stacks[1][::-1, ::-1, ::-1]]


class TestGufuncSeam:
    """linalg calls numpy's LAPACK gufuncs directly (_cholesky_lo, _solve,
    _svd, _eigvalsh_lo, _eigh_lo, _inv). Each kernel gives the bits of its
    numpy.linalg counterpart, and a NaN-filled output, the gufunc's report
    of a failed LAPACK call, raises the error numpy's LinAlgError mapped to."""

    @pytest.mark.parametrize("n", (1, 2, 3, 5, 8))
    def test_kernels_equal_numpy_linalg(self, rng, n):
        for a in lead_shapes_stacks(rng, n):
            sym = symmetrize(a)
            low = np.linalg.cholesky(a)
            assert np.array_equal(linalg_mod._cholesky(a), low)
            low_inv = np.linalg.inv(low)
            assert np.array_equal(linalg_mod._pd_inverse(a),
                                  symmetrize(low_inv.swapaxes(-1, -2) @ low_inv))
            assert np.array_equal(linalg_mod._eigvalsh(a), np.linalg.eigvalsh(sym)[..., ::-1])
            w, v = np.linalg.eigh(sym)
            got_w, got_v = linalg_mod._eigh(a)
            assert np.array_equal(got_w, w[..., ::-1]) and np.array_equal(got_v, v[..., ::-1])
            x = a[..., : max(n - 1, 1), :]  # not square unless n = 1
            assert np.array_equal(_singular_values(x), np.linalg.svd(x, compute_uv=False))
            b = a[..., ::-1, ::-1]
            want = np.linalg.svd(np.linalg.solve(low, np.linalg.cholesky(b)),
                                 compute_uv=False) ** 2
            assert np.array_equal(linalg_mod._pencil(np.stack((a, b))), want)

    def nan_at(self, monkeypatch, name, at):
        """Patch the gufunc `name` to fill the outputs of matrix `at` of its
        stack with NaN, as it does when LAPACK fails on that matrix."""
        gufunc = getattr(linalg_mod, name)

        def failing(*args, **kwargs):
            out = gufunc(*args, **kwargs)
            for o in out if isinstance(out, tuple) else (out,):
                o[at] = math.nan
            return out

        monkeypatch.setattr(linalg_mod, name, failing)

    @pytest.mark.parametrize("name, kernel, err, message", [
        ("_cholesky_lo", linalg_mod._cholesky, NotPositiveDefinite,
         "Cholesky failed: Matrix is not positive definite"),
        ("_cholesky_lo", linalg_mod._logdet, NotPositiveDefinite,
         "Cholesky failed: Matrix is not positive definite"),
        ("_eigvalsh_lo", linalg_mod._eigvalsh, NoConvergence,
         "eigvalsh: Eigenvalues did not converge"),
        ("_eigh_lo", linalg_mod._eigh, NoConvergence, "eigh: Eigenvalues did not converge"),
        ("_eigh_lo", linalg_mod._pd_eigh, NoConvergence, "eigh: Eigenvalues did not converge"),
        ("_svd", _singular_values, NoConvergence, "svd: SVD did not converge"),
        ("_svd", lambda a: linalg_mod._pencil(np.stack((a, a))), NoConvergence,
         "svd: SVD did not converge"),
    ])
    @pytest.mark.parametrize("at", (0, 2))
    def test_nan_output_raises_the_package_error(self, rng, monkeypatch, name, kernel, err,
                                                 message, at):
        stack = pd_stack(rng, 3, 4)
        kernel(stack)  # passes before the patch
        self.nan_at(monkeypatch, name, at)
        with pytest.raises(err) as info:
            kernel(stack)
        assert str(info.value) == message

    @pytest.mark.parametrize("name, public, message", [
        ("_cholesky_lo", cholesky, "Cholesky failed: Matrix is not positive definite"),
        ("_eigvalsh_lo", eigvals_sym, "eigvalsh: Eigenvalues did not converge"),
        ("_eigh_lo", eigh_sym, "eigh: Eigenvalues did not converge"),
        ("_svd", lambda a: eig_pencil(a, a), "svd: SVD did not converge"),
    ])
    def test_public_entries_raise_it(self, monkeypatch, name, public, message):
        self.nan_at(monkeypatch, name, ...)
        with pytest.raises((NotPositiveDefinite, NoConvergence), match=f"^{message}$"):
            public(np.eye(3))


class TestPowers:
    """eigh_powers takes one power per exponent over a whole stack of
    contiguous spectra; each matrix gets the bits it gets alone."""

    @pytest.mark.parametrize("ps", [
        SPECS["commuted-power"].split.grid, SPECS["thm32"].split.grid, (3.0,), (1.5,), (-0.5,),
    ])
    @pytest.mark.parametrize("n", (1, 2, 3, 4, 8, 16))
    def test_eigh_powers_of_a_stack_equal_per_matrix(self, rng, ps, n):
        stack = pd_stack(rng, 10, n)
        got = eigh_powers(*_pd_eigh(stack), ps)
        assert got.shape == (len(ps), 10, n, n)
        for t in range(10):
            want = eigh_powers(*_pd_eigh(stack[t]), ps)
            assert got[:, t].tobytes() == want.tobytes(), (ps, n, t)
