import dataclasses
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import majdet.catalog as catalog_mod
import majdet.linalg as linalg_mod
from majdet import refdata
from majdet.blocks import Partition, diag_blocks, direct_sum
from majdet.catalog import (
    EVALUATOR_IDS,
    INEQUALITY_IDS,
    Instance,
    SPECS,
    THEOREM_IDS,
    Role,
    Shape,
    _fingerprint,
    _hashed,
    assemble,
    validate_instance,
    check_p_grid,
    evaluate_general,
    identity_abs_square,
    inv_square_sum_exact,
    matic_exact,
    run_check,
)
from majdet.errors import (
    BadConfig,
    BadEntry,
    BadExponent,
    BadPartition,
    DimensionMismatch,
    IndexOutOfRange,
    MissingField,
    NegativePower,
    NonFinite,
    NotBlockDiagonal,
    NotPositiveDefinite,
    NotSymmetric,
    UnknownInequality,
)
from majdet.exact import det_exact, submatrix
from majdet.fuzzing import GenConfig, fuzz, replay
from majdet.linalg import eigvals_sym, require_symmetric

from oracles import loewner_le, rand_pd, stack_instances

PART22 = Partition((2, 2))


def ref_wlog_blocks():
    return tuple(diag_blocks(refdata.WLOG_D, PART22))


def ref_invsq_blocks():
    return tuple(diag_blocks(refdata.INV_SQ_D, PART22))


def random_block_instance(rng, n, sizes, kappa=1e3):
    part = Partition(sizes)
    c = rand_pd(rng, n, kappa=kappa)
    blocks = tuple(rand_pd(rng, s, kappa=kappa) for s in part.sizes)
    return c, blocks, part


class TestMainTheorem:
    def test_identity_d_reduces_to_inverse_case(self):
        # with D = I the statement becomes the blockwise-inverse relation
        blocks = (np.eye(2), np.eye(2))
        verdict = run_check("main-thm",
                            Instance(partition=PART22, c=refdata.WLOG_C, d_blocks=blocks))
        assert verdict.holds

    def test_block_diagonal_c_gives_equality(self, rng):
        part = Partition((2, 3))
        c = direct_sum([rand_pd(rng, 2), rand_pd(rng, 3)])
        blocks = tuple(rand_pd(rng, s) for s in part.sizes)
        verdict = run_check("main-thm", Instance(partition=part, c=c, d_blocks=blocks))
        assert verdict.holds
        assert max(abs(m) for m in verdict.order.margins) <= 1e-9

    def test_reference_holds_weak_log_but_not_log(self):
        verdict = run_check("main-thm", Instance(partition=PART22, c=refdata.WLOG_C,
                                                 d_blocks=ref_wlog_blocks()))
        assert verdict.holds
        # the total products differ: 0.6538 vs 2.1717
        total_margin = verdict.order.margins[-1]
        assert total_margin == pytest.approx(
            math.log(refdata.WLOG_FULL_DET / refdata.WLOG_BLOCK_DET), abs=1e-3
        )
        assert total_margin > 1e-2  # far from log-majorization equality

    def test_scaling_invariance(self, rng):
        c, blocks, part = random_block_instance(rng, 5, (2, 3))
        base = run_check("main-thm", Instance(partition=part, c=c, d_blocks=blocks))
        alpha = 37.5
        scaled = run_check("main-thm", Instance(partition=part, c=alpha * c,
                                                d_blocks=tuple(alpha * b for b in blocks)))
        np.testing.assert_allclose(scaled.order.margins, base.order.margins,
                                   rtol=0, atol=1e-10)

    def test_random_instances_hold(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            sizes = []
            left = n
            while left:
                s = int(rng.integers(1, left + 1))
                sizes.append(s)
                left -= s
            c, blocks, part = random_block_instance(rng, n, tuple(sizes))
            assert run_check("main-thm", Instance(partition=part, c=c, d_blocks=blocks)).holds


class TestMatic:
    def test_block_diagonal_equality(self, rng):
        part = Partition((2, 2))
        c = direct_sum([rand_pd(rng, 2), rand_pd(rng, 2)])
        blocks = tuple(rand_pd(rng, 2) for _ in range(2))
        verdict = run_check("matic", Instance(partition=part, c=c, d_blocks=blocks))
        assert verdict.holds
        assert abs(verdict.margin) <= 1e-12

    def test_reference_against_exact_oracle(self):
        blocks = ref_wlog_blocks()
        verdict = run_check("matic", Instance(partition=PART22, c=refdata.WLOG_C, d_blocks=blocks))
        assert verdict.holds
        c_exact = [[int(x) for x in row] for row in refdata.WLOG_C]
        d_exact = [[int(x) for x in row] for row in direct_sum(blocks)]
        lhs_exact, rhs_exact = matic_exact(c_exact, d_exact, PART22)
        assert verdict.lhs == pytest.approx(float(lhs_exact), rel=1e-10)
        assert verdict.rhs == pytest.approx(float(rhs_exact), rel=1e-10)
        assert lhs_exact <= rhs_exact

    def test_matches_det_power_p1(self, rng):
        for _ in range(10):
            c, blocks, part = random_block_instance(rng, 4, (2, 2))
            m = run_check("matic", Instance(partition=part, c=c, d_blocks=blocks))
            d = run_check("det-power", Instance(partition=part, c=c, d_blocks=blocks, p=1.0))
            assert m.margin == pytest.approx(d.margin, abs=1e-12)


class TestDetPower:
    def test_p0_trivial_equality(self, rng):
        c, blocks, part = random_block_instance(rng, 4, (2, 2))
        verdict = run_check("det-power", Instance(partition=part, c=c, d_blocks=blocks, p=0.0))
        assert verdict.holds
        assert verdict.margin == 0.0
        assert verdict.lhs == pytest.approx(2.0**4)

    def test_p2_reference_with_bruteforce_oracle(self):
        blocks = ref_wlog_blocks()
        verdict = run_check("det-power", Instance(partition=PART22, c=refdata.WLOG_C,
                                                  d_blocks=blocks, p=2.0))
        assert verdict.holds
        # independent route: nonsymmetric eigenvalues of the explicit products
        d_full = direct_sum(blocks)
        lam_full = np.linalg.eigvals(np.linalg.inv(refdata.WLOG_C) @ d_full).real
        rhs = float(np.prod(1.0 + lam_full**2))
        assert verdict.rhs == pytest.approx(rhs, rel=1e-9)
        lhs = 1.0
        for cb, db in zip(diag_blocks(refdata.WLOG_C, PART22), blocks):
            lam = np.linalg.eigvals(np.linalg.inv(cb) @ db).real
            lhs *= float(np.prod(1.0 + lam**2))
        assert verdict.lhs == pytest.approx(lhs, rel=1e-9)

    def test_negative_power_rejected(self, rng):
        c, blocks, part = random_block_instance(rng, 2, (1, 1))
        with pytest.raises(NegativePower):
            run_check("det-power", Instance(partition=part, c=c, d_blocks=blocks, p=-1.0))

    def test_chain_consistency_with_main_theorem(self, rng):
        for _ in range(10):
            c, blocks, part = random_block_instance(rng, 5, (2, 1, 2))
            assert run_check("main-thm", Instance(partition=part, c=c, d_blocks=blocks)).holds
            for p in (0.0, 0.5, 1.0, 2.0, 3.0):
                inst = Instance(partition=part, c=c, d_blocks=blocks, p=p)
                assert run_check("det-power", inst).holds


class TestEvaluators:
    def test_inv_square_sum_reference(self):
        inst = Instance(partition=PART22, c=refdata.INV_SQ_C, d_blocks=ref_invsq_blocks())
        verdict = evaluate_general("inv-square-sum", inst)
        assert not verdict.holds
        assert verdict.lhs == pytest.approx(refdata.INV_SQ_BLOCKS, abs=1e-3)
        assert verdict.rhs == pytest.approx(refdata.INV_SQ_FULL, abs=1e-3)

    def test_inv_square_sum_names_the_rejected_block(self):
        # C and its block 2 pass the pivot floor; block 2's D^-2 + C^-2 does not
        c = np.eye(3)
        c[1:, 1:] = [[1.0, 1.0], [1.0, 1.0 + 5e-13]]
        inst = Instance(partition=Partition((1, 2)), c=c, d_blocks=(np.eye(1), np.eye(2)))
        run_check("matic", inst)
        with pytest.raises(NotPositiveDefinite, match=r"^D\^-2 \+ C\^-2 \(block 2\): pivot "):
            run_check("inv-square-sum", inst)

    def test_inv_square_sum_exact_certification(self):
        lhs, rhs = inv_square_sum_exact(refdata.INV_SQ_C_EXACT, refdata.INV_SQ_D_EXACT, PART22)
        assert isinstance(lhs, Fraction) and isinstance(rhs, Fraction)
        assert lhs > rhs

    def test_matic_general_d_reference(self):
        inst = Instance(partition=refdata.MATIC_GEN_PART,
                        c=refdata.MATIC_GEN_C, d=refdata.MATIC_GEN_D)
        verdict = evaluate_general("matic-general-d", inst)
        assert not verdict.holds
        assert verdict.rhs == pytest.approx(3.1549, abs=1e-3)
        assert verdict.lhs == pytest.approx(3.5, abs=1e-12)

    def test_neg_power_closed_form(self):
        # q = 1: full side f = 2 + 2*5 = 12, blockwise g = (1+3)^2 = 16
        part = refdata.NEG_POWER_PART
        blocks = tuple(diag_blocks(refdata.NEG_POWER_D, part))
        inst = Instance(partition=part, c=refdata.NEG_POWER_C, d_blocks=blocks, p=-1.0)
        verdict = evaluate_general("neg-power", inst)
        assert not verdict.holds
        assert verdict.rhs == pytest.approx(12.0, rel=1e-12)
        assert verdict.lhs == pytest.approx(16.0, rel=1e-12)

    def test_neg_power_needs_negative_exponent(self):
        part = refdata.NEG_POWER_PART
        blocks = tuple(diag_blocks(refdata.NEG_POWER_D, part))
        inst = Instance(partition=part, c=refdata.NEG_POWER_C, d_blocks=blocks, p=1.0)
        with pytest.raises(BadExponent):
            evaluate_general("neg-power", inst)

    def test_weak_log_general_d_reference(self):
        inst = Instance(partition=PART22, c=refdata.WLOG_C, d=refdata.WLOG_D)
        verdict = evaluate_general("weak-log-general-d", inst)
        assert not verdict.holds
        assert verdict.order.fail_index == 2

    def test_sv_weak_log_reference_violated(self):
        inst = Instance(partition=PART22, c=refdata.INV_SQ_C, d_blocks=ref_invsq_blocks())
        verdict = evaluate_general("sv-weak-log", inst)
        assert not verdict.holds

    def test_abs_power_matches_inv_square_sum_at_p2(self, rng):
        # the two statements are the same inequality in disguise at p = 2
        for _ in range(10):
            c, blocks, part = random_block_instance(rng, 4, (2, 2), kappa=100.0)
            inst = Instance(partition=part, c=c, d_blocks=blocks, p=2.0)
            a = evaluate_general("abs-power", inst)
            b = evaluate_general("inv-square-sum", replace(inst, p=None))
            assert a.margin == pytest.approx(b.margin, abs=1e-8)
            assert a.holds == b.holds

    def test_commuted_power_matches_inv_square_sum_at_p2(self, rng):
        for _ in range(10):
            c, blocks, part = random_block_instance(rng, 4, (2, 2), kappa=100.0)
            inst = Instance(partition=part, c=c, d_blocks=blocks, p=2.0)
            a = evaluate_general("commuted-power", inst)
            b = evaluate_general("inv-square-sum", replace(inst, p=None))
            assert a.margin == pytest.approx(b.margin, abs=1e-8)
            assert a.holds == b.holds

    def test_unknown_evaluator(self):
        with pytest.raises(UnknownInequality):
            evaluate_general("matic", Instance())


class TestIdentityAbsSquare:
    def test_identity_d_trivial(self, rng):
        c = rand_pd(rng, 4, kappa=100.0)
        blocks = (np.eye(2), np.eye(2))
        verdict = identity_abs_square(c, blocks, PART22)
        assert verdict.holds

    def test_reference_instance(self):
        verdict = identity_abs_square(refdata.INV_SQ_C, ref_invsq_blocks(), PART22)
        assert verdict.holds
        assert verdict.detail["residual_global"] <= 1e-9
        assert verdict.detail["residual_blockwise"] <= 1e-9

    def test_random_instances(self, rng):
        for _ in range(20):
            c, blocks, part = random_block_instance(rng, 4, (2, 2), kappa=100.0)
            assert identity_abs_square(c, blocks, part).holds


class TestChoi:
    def test_single_identity(self):
        verdict = run_check("choi", Instance(partition=Partition((1, 2)), mats=(np.eye(3),)))
        assert verdict.holds
        assert verdict.lhs == pytest.approx(1.0)
        assert verdict.rhs == pytest.approx(1.0)

    def test_m1_reference_with_exact_oracle(self):
        # m = 1 reduces to a Fischer-type inequality for the inverse
        verdict = run_check("choi", Instance(partition=PART22, mats=(refdata.WLOG_C,)))
        assert verdict.holds
        c_exact = [[int(x) for x in row] for row in refdata.WLOG_C]
        det_c = det_exact(c_exact)
        rhs_exact = 1 / det_c
        lhs_exact = Fraction(1)
        for lo, hi in PART22.offsets():
            lhs_exact /= det_exact(submatrix(c_exact, lo, hi))
        assert verdict.rhs == pytest.approx(float(rhs_exact), rel=1e-10)
        assert verdict.lhs == pytest.approx(float(lhs_exact), rel=1e-10)

    def test_random_pairs(self, rng):
        for _ in range(10):
            mats = [rand_pd(rng, 4, kappa=1e3) for _ in range(2)]
            assert run_check("choi", Instance(partition=PART22, mats=tuple(mats))).holds


class TestThm32AndOpenQ:
    def test_single_identity_equality(self):
        verdict = run_check("thm32", Instance(partition=PART22, mats=(np.eye(4),), p=1.0))
        assert verdict.holds
        assert max(abs(m) for m in verdict.order.margins) <= 1e-12

    def test_p_grid_random(self, rng):
        for p in (1.0, 2.0, 3.0):
            mats = [rand_pd(rng, 4, kappa=1e3) for _ in range(2)]
            assert run_check("thm32", Instance(partition=PART22, mats=tuple(mats), p=p)).holds

    def test_bad_exponent(self, rng):
        mats = [rand_pd(rng, 4)]
        with pytest.raises(BadExponent):
            run_check("thm32", Instance(partition=PART22, mats=tuple(mats), p=0.5))

    def test_open_q_proved_case(self, rng):
        part = Partition((1, 1))
        for _ in range(25):
            mats = [rand_pd(rng, 2, kappa=1e3) for _ in range(2)]
            assert run_check("open-q", Instance(partition=part, mats=tuple(mats))).holds

    def test_open_q_m1_specialization(self, rng):
        # m = 1 reduces to the blockwise-inverse weak log majorization
        for _ in range(10):
            mats = [rand_pd(rng, 4, kappa=1e3)]
            assert run_check("open-q", Instance(partition=PART22, mats=tuple(mats))).holds


class TestLemma31:
    def test_full_index_equality(self, rng):
        a = rand_pd(rng, 4)
        verdict = run_check("lemma31", Instance(c=a, idx=range(4)))
        assert verdict.holds
        assert abs(verdict.margin) <= 1e-9

    def test_diagonal_equality(self):
        verdict = run_check("lemma31", Instance(c=np.diag([1.0, 2.0, 3.0]), idx=[0, 2]))
        assert verdict.holds
        assert abs(verdict.margin) <= 1e-12

    def test_random_with_eigen_oracle(self, rng):
        from majdet.blocks import principal_submatrix
        for _ in range(10):
            a = rand_pd(rng, 5, kappa=1e3)
            idx = (0, 2, 3)
            verdict = run_check("lemma31", Instance(c=a, idx=idx))
            assert verdict.holds
            sub_inv = np.linalg.inv(principal_submatrix(a, idx))
            inv_sub = principal_submatrix(np.linalg.inv(a), idx)
            assert verdict.holds == loewner_le(sub_inv, inv_sub)
            diff = inv_sub - sub_inv
            lam_min = float(np.min(np.linalg.eigvalsh((diff + diff.T) / 2)))
            assert lam_min >= -1e-9 * max(1.0, float(np.linalg.norm(diff)))

    def test_bad_index(self, rng):
        with pytest.raises(IndexOutOfRange):
            run_check("lemma31", Instance(c=rand_pd(rng, 3), idx=[0, 5]))


class TestFischerTail:
    def test_m1_is_fischer_with_exact_oracle(self):
        verdict = run_check("fischer-tail", Instance(partition=PART22, c=refdata.WLOG_C, m=1))
        assert verdict.holds
        c_exact = [[int(x) for x in row] for row in refdata.WLOG_C]
        det_c = det_exact(c_exact)
        prod_blocks = math.prod(
            det_exact(submatrix(c_exact, lo, hi)) for lo, hi in PART22.offsets()
        )
        assert det_c <= prod_blocks
        assert verdict.lhs == pytest.approx(float(det_c), rel=1e-9)
        assert verdict.rhs == pytest.approx(float(prod_blocks), rel=1e-9)

    def test_block_diagonal_equality_every_m(self, rng):
        part = Partition((2, 3))
        c = direct_sum([rand_pd(rng, 2), rand_pd(rng, 3)])
        verdict = run_check("fischer-tail", Instance(partition=part, c=c))
        assert verdict.holds
        for margin in verdict.detail["margins_by_m"].values():
            assert abs(margin) <= 1e-9

    def test_m_equals_n_lambda_min(self, rng):
        for _ in range(10):
            c = rand_pd(rng, 5, kappa=1e3)
            part = Partition((2, 3))
            verdict = run_check("fischer-tail", Instance(partition=part, c=c, m=5))
            assert verdict.holds
            lam_full = eigvals_sym(c)
            lam_diag = np.concatenate([eigvals_sym(b) for b in diag_blocks(c, part)])
            assert lam_full[-1] <= np.min(lam_diag) + 1e-9

    def test_bad_m(self, rng):
        with pytest.raises(IndexOutOfRange):
            run_check("fischer-tail", Instance(partition=PART22, c=rand_pd(rng, 4), m=5))


class TestKyFan:
    def test_diagonal_equality(self):
        verdict = run_check("ky-fan",
                            Instance(partition=Partition((1, 2)), c=np.diag([3.0, 1.0, 2.0])))
        assert verdict.holds
        assert max(abs(m) for m in verdict.order.margins) <= 1e-12

    def test_reference(self):
        assert run_check("ky-fan", Instance(partition=PART22, c=refdata.WLOG_C)).holds

    def test_random(self, rng):
        for _ in range(10):
            c = rand_pd(rng, 6, kappa=1e4)
            assert run_check("ky-fan", Instance(partition=Partition((1, 2, 3)), c=c)).holds


class TestRegistry:
    def test_id_tables_derive_from_specs(self):
        assert INEQUALITY_IDS == tuple(SPECS)
        assert THEOREM_IDS == {i for i, s in SPECS.items() if s.role is Role.THEOREM}
        assert EVALUATOR_IDS == {i for i, s in SPECS.items() if s.role is Role.EVALUATOR}
        assert {i for i, s in SPECS.items() if s.role is Role.OPEN} == {"open-q"}

    def test_every_evaluator_injects_a_reference(self):
        for inequality, spec in SPECS.items():
            assert (spec.reference is not None) == (spec.role is Role.EVALUATOR), inequality

    def test_certifiers_on_rational_ids_only(self):
        assert {i for i, s in SPECS.items() if s.certify} == {
            "matic", "inv-square-sum", "matic-general-d"}

    def test_p_on_id_without_exponent(self, rng):
        c, blocks, part = random_block_instance(rng, 4, (2, 2))
        inst = Instance(partition=part, c=c, d_blocks=blocks, p=2.0)
        for inequality in ("main-thm", "matic", "inv-square-sum"):
            with pytest.raises(BadExponent, match="takes no exponent"):
                run_check(inequality, inst)


class TestBlockDiagonalGeneralD:
    """A block-diagonal D given whole to the general-D ids is the block-D case."""

    def test_general_d_ids_match_block_d_ids(self, rng):
        for sizes in ((2, 2), (1, 3), (2, 1, 2), (5,)):
            c, blocks, part = random_block_instance(rng, sum(sizes), sizes, kappa=1e6)
            block_d = Instance(partition=part, c=c, d_blocks=blocks)
            general_d = Instance(partition=part, c=c, d=direct_sum(blocks))
            wl = run_check("weak-log-general-d", general_d)
            mt = run_check("main-thm", block_d)
            assert wl.order.margins == mt.order.margins
            assert (wl.margin, wl.holds) == (mt.margin, mt.holds)
            mg = run_check("matic-general-d", general_d)
            m = run_check("matic", block_d)
            assert (mg.lhs, mg.rhs, mg.margin, mg.holds) == (m.lhs, m.rhs, m.margin, m.holds)

    def test_exact_certificates_agree(self):
        c = [[int(x) for x in row] for row in refdata.WLOG_C]
        d = [[int(x) for x in row] for row in direct_sum(ref_wlog_blocks())]
        got = {i: SPECS[i].certify(c, d, PART22) for i in ("matic", "matic-general-d")}
        assert got["matic"] == got["matic-general-d"]
        lhs, rhs = got["matic"]
        assert lhs <= rhs


BLOCK_D_IDS = sorted(i for i, spec in SPECS.items() if spec.shape is Shape.BLOCK_D)


def block_d_instance(inequality, part, c, d):
    spec = SPECS[inequality]
    return Instance(partition=part, c=c, d=d, p=spec.split.default if spec.split else None)


class TestOneD:
    """An Instance holds one D; a block-D id checks that it is block
    diagonal for the partition, and hashes and writes it as its blocks."""

    def test_one_d_field(self):
        names = [f.name for f in dataclasses.fields(Instance)]
        assert "d" in names and "d_blocks" not in names

    @pytest.mark.parametrize("inequality", BLOCK_D_IDS)
    def test_dense_d_is_rejected(self, rng, inequality):
        # ex. 2.3's D, for which the paper shows main-thm's conclusion fails
        inst = block_d_instance(inequality, refdata.WLOG_PART, refdata.WLOG_C, refdata.WLOG_D)
        message = r"^D is not block diagonal for partition \(2, 2\): entry \(0, 2\) = 6\.0 "
        with pytest.raises(NotBlockDiagonal, match=message):
            run_check(inequality, inst)
        with pytest.raises(NotBlockDiagonal, match=message):
            replay(inequality, {"instance": inst.to_json()})
        part = Partition((1, 2, 2))
        dense = block_d_instance(inequality, part, rand_pd(rng, 5), rand_pd(rng, 5))
        with pytest.raises(NotBlockDiagonal, match=r"entry \(0, 1\)"):
            run_check(inequality, dense)

    @pytest.mark.parametrize("inequality", BLOCK_D_IDS)
    def test_one_nonzero_off_block_entry_is_rejected(self, inequality):
        d = direct_sum(ref_wlog_blocks())
        d[1, 3] = d[3, 1] = 1e-300
        inst = block_d_instance(inequality, PART22, refdata.WLOG_C, d)
        with pytest.raises(NotBlockDiagonal, match=r"entry \(1, 3\) = 1e-300 "):
            run_check(inequality, inst)

    @pytest.mark.parametrize("inequality", BLOCK_D_IDS)
    def test_non_finite_off_block_entry_is_non_finite(self, inequality):
        for bad in (math.nan, math.inf):
            d = direct_sum(ref_wlog_blocks())
            d[0, 3] = d[3, 0] = bad
            d[1, 2] = d[2, 1] = 5.0  # a finite off-block entry comes first
            with pytest.raises(NonFinite):
                run_check(inequality, block_d_instance(inequality, PART22, refdata.WLOG_C, d))

    def test_dense_member_of_a_stack_is_rejected(self, rng):
        c, blocks, part = random_block_instance(rng, 4, (2, 2))
        good = Instance(partition=part, c=c, d_blocks=blocks)
        bad = Instance(partition=part, c=c, d=rand_pd(rng, 4))
        for members in ([bad, good, good], [good, good, bad]):
            with pytest.raises(NotBlockDiagonal):
                validate_instance(Shape.BLOCK_D, stack_instances(members), lead=1)
        validate_instance(Shape.BLOCK_D, stack_instances([good, good]), lead=1)

    def test_each_d_block_on_its_own_slack(self):
        skewed = np.eye(2)
        skewed[0, 1] = 1e-11
        d = direct_sum([1e6 * np.array([[2.0, 1.0], [1.0, 2.0]]), skewed])
        # a slack taken from the whole D's largest entry (2e-6) would pass
        inst = Instance(partition=PART22, c=np.eye(4), d=d)
        with pytest.raises(NotSymmetric, match=r"^asymmetry 1\.000e-11 exceeds tolerance 1\.000e-12$"):
            run_check("main-thm", inst)

    @pytest.mark.parametrize("inequality", ["main-thm", "matic", "det-power", "neg-power"])
    def test_one_instance_one_verdict(self, inequality):
        blocks = ref_wlog_blocks()
        whole = block_d_instance(inequality, PART22, refdata.WLOG_C, direct_sum(blocks))
        split = replace(whole, d_blocks=blocks)
        assert run_check(inequality, whole).to_json() == run_check(inequality, split).to_json()

    def test_block_d_fingerprint_hashes_the_blocks(self):
        blocks = ref_wlog_blocks()
        verdict = run_check("main-thm",
                            Instance(partition=PART22, c=refdata.WLOG_C, d_blocks=blocks))
        assert verdict.fingerprint == _fingerprint(4, PART22, refdata.WLOG_C, *blocks)
        assert verdict.fingerprint.digest == "0862b4f67bbacf26"
        general = run_check("weak-log-general-d", Instance(partition=PART22, c=refdata.WLOG_C,
                                                           d=direct_sum(blocks)))
        assert general.fingerprint == _fingerprint(4, PART22, refdata.WLOG_C, direct_sum(blocks))

    @pytest.mark.parametrize("inequality", BLOCK_D_IDS)
    def test_reference_d_is_block_diagonal(self, inequality):
        reference = SPECS[inequality].reference
        if reference is None:
            return
        part, c, d = reference
        assert direct_sum(diag_blocks(d, part)).tobytes() == d.tobytes()
        validate_instance(Shape.BLOCK_D, Instance(partition=part, c=c, d=d))

    def test_from_json_reads_blocks_and_whole_d_alike(self, rng):
        for sizes in ((2, 2), (1, 3), (2, 1, 2), (5,)):
            c, blocks, part = random_block_instance(rng, sum(sizes), sizes, kappa=1e6)
            split = Instance(partition=part, c=c, d_blocks=blocks).to_json(Shape.BLOCK_D)
            whole = Instance(partition=part, c=c, d_blocks=blocks).to_json()
            assert "d_blocks" in split and "d" not in split
            assert "d" in whole and "d_blocks" not in whole
            a, b = Instance.from_json(split), Instance.from_json(whole)
            assert a.d.tobytes() == b.d.tobytes() == direct_sum(blocks).tobytes()

    def test_from_json_blocks_win_over_whole_d(self):
        payload = {"partition": [1, 2], "c": np.eye(3).tolist(), "d": np.zeros((3, 3)).tolist(),
                   "d_blocks": [[[2.0]], np.eye(2).tolist()]}
        assert Instance.from_json(payload).d.tobytes() == np.diag([2.0, 1.0, 1.0]).tobytes()
        payload["d_blocks"] = [[[2.0]]]
        with pytest.raises(DimensionMismatch, match=r"^1 D blocks for a 2-block partition$"):
            Instance.from_json(payload)


class TestOverflowingPower:
    @pytest.mark.parametrize("inequality,scale,p", [
        ("det-power", 1000.0, 120.0), ("abs-power", 1000.0, 120.0),
        ("neg-power", 1e-3, -120.0),
    ])
    def test_equality_case_holds(self, inequality, scale, p):
        # C = I, D = scale I: both sides are 2 log1p(scale^p) and scale^p
        # overflows a double
        part = Partition((1, 1))
        inst = Instance(partition=part, c=np.eye(2), d_blocks=(np.array([[scale]]),) * 2, p=p)
        verdict = run_check(inequality, inst)
        assert verdict.holds
        assert verdict.margin == pytest.approx(0.0, abs=1e-12)
        assert verdict.lhs is None and verdict.rhs is None
        assert verdict.detail["log_lhs"] == pytest.approx(2 * p * math.log(scale))

    def test_partial_overflow_keeps_small_terms(self):
        # one spectrum entry overflows at p = 120, the other does not
        part = Partition((1, 1))
        d_blocks = (np.array([[1000.0]]), np.array([[2.0]]))
        inst = Instance(partition=part, c=np.eye(2), d_blocks=d_blocks, p=120.0)
        verdict = run_check("det-power", inst)
        want = 120.0 * math.log(1000.0) + math.log1p(2.0**120)
        assert verdict.detail["log_lhs"] == pytest.approx(want, rel=1e-15)
        assert verdict.holds

    def test_overflowing_matrix_power_raises(self):
        # C^2 and D^2 overflow a double; the factorization of C^2 + D^2 must
        # raise, not yield a NaN margin that the grid's minimum skips
        part = Partition((1, 1))
        inst = Instance(partition=part, c=1e200 * np.eye(2),
                        d_blocks=(np.array([[1e200]]),) * 2, p=2.0)
        with pytest.raises(NonFinite, match="non-finite entry"):
            run_check("commuted-power", inst)

    def test_overflowing_sum_raises_without_a_warning(self):
        # C + D overflows in the matic kernel; under the suite's warning
        # filter numpy's RuntimeWarning would replace the error
        inst = Instance(partition=Partition((1, 1)), c=np.array([[2, 1e308], [1e308, 2]]),
                        d=np.eye(2))
        with pytest.raises(NonFinite):
            run_check("matic", inst)

    def test_identity_overflow_raises_without_a_warning(self):
        # C^-1 D and C^-2 overflow: singular values and inverse squares
        with pytest.raises(NonFinite):
            identity_abs_square(1e-200 * np.eye(2), (np.eye(1),) * 2, Partition((1, 1)))

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_non_finite_exponent_rejected(self, p):
        with pytest.raises(NonFinite):
            run_check("det-power", Instance(p=p))


class TestDispatch:
    def test_run_check_all_ids(self, rng):
        part = Partition((1, 1))
        c = rand_pd(rng, 2, kappa=10.0)
        blocks = tuple(rand_pd(rng, 1) for _ in range(2))
        d = rand_pd(rng, 2, kappa=10.0)
        mats = tuple(rand_pd(rng, 2, kappa=10.0) for _ in range(2))
        instances = {
            "main-thm": Instance(partition=part, c=c, d_blocks=blocks),
            "matic": Instance(partition=part, c=c, d_blocks=blocks),
            "det-power": Instance(partition=part, c=c, d_blocks=blocks, p=2.0),
            "abs-power": Instance(partition=part, c=c, d_blocks=blocks, p=2.0),
            "commuted-power": Instance(partition=part, c=c, d_blocks=blocks, p=2.0),
            "inv-square-sum": Instance(partition=part, c=c, d_blocks=blocks),
            "neg-power": Instance(partition=part, c=c, d_blocks=blocks, p=-1.0),
            "matic-general-d": Instance(partition=part, c=c, d=d),
            "weak-log-general-d": Instance(partition=part, c=c, d=d),
            "sv-weak-log": Instance(partition=part, c=c, d_blocks=blocks),
            "choi": Instance(partition=part, mats=mats),
            "thm32": Instance(partition=part, mats=mats, p=2.0),
            "open-q": Instance(partition=part, mats=mats),
            "lemma31": Instance(c=c, idx=(0,)),
            "fischer-tail": Instance(partition=part, c=c),
            "ky-fan": Instance(partition=part, c=c),
        }
        assert set(instances) == set(INEQUALITY_IDS)
        for ineq, inst in instances.items():
            verdict = run_check(ineq, inst)
            assert verdict.inequality == ineq
            assert isinstance(verdict.holds, bool)
            payload = verdict.to_json()
            assert payload["inequality"] == ineq
            assert payload["fingerprint"]["digest"]

    def test_unknown_id(self):
        with pytest.raises(UnknownInequality):
            run_check("nope", Instance())

    def test_fingerprint_deterministic(self, rng):
        c, blocks, part = random_block_instance(rng, 4, (2, 2))
        v1 = run_check("matic", Instance(partition=part, c=c, d_blocks=blocks))
        v2 = run_check("matic", Instance(partition=part, c=c, d_blocks=blocks))
        assert v1.fingerprint == v2.fingerprint

    def test_evaluator_ids_subset(self):
        assert EVALUATOR_IDS < set(INEQUALITY_IDS)

    def test_instance_json_roundtrip(self, rng):
        c, blocks, part = random_block_instance(rng, 4, (2, 2))
        inst = Instance(partition=part, c=c, d_blocks=blocks, p=2.0)
        back = Instance.from_json(inst.to_json())
        np.testing.assert_array_equal(back.c, inst.c)
        assert back.partition.sizes == part.sizes
        assert back.p == 2.0
        v1 = run_check("abs-power", inst)
        v2 = run_check("abs-power", back)
        assert v1.margin == v2.margin

    @pytest.mark.parametrize("field", ["c", "p"])
    def test_instance_json_rejects_non_finite(self, rng, field):
        c, blocks, part = random_block_instance(rng, 4, (2, 2))
        payload = Instance(partition=part, c=c, d_blocks=blocks, p=2.0).to_json()
        if field == "c":
            payload["c"][1][2] = payload["c"][2][1] = math.nan
        else:
            payload["p"] = math.inf
        with pytest.raises(NonFinite):
            Instance.from_json(payload)


class TestMissingField:
    """An Instance without a field its Shape reads is an input error that
    names the field."""

    @pytest.mark.parametrize("inequality,inst,field", [
        ("main-thm", Instance(c=np.eye(2), d_blocks=(np.eye(2),)), "partition"),
        ("matic", Instance(partition=Partition((1, 1)), c=np.eye(2)), "d or d_blocks"),
        ("matic-general-d", Instance(partition=Partition((1, 1)), d=np.eye(2)), "c"),
        ("choi", Instance(mats=(np.eye(2),)), "partition"),
        ("ky-fan", Instance(c=np.eye(2)), "partition"),
        ("lemma31", Instance(c=np.eye(2)), "idx"),
    ])
    def test_names_the_field(self, inequality, inst, field):
        with pytest.raises(MissingField, match=f"needs {field},"):
            run_check(inequality, inst)


class TestMaticGeneralDExact:
    def test_reference_rhs_uses_full_d(self):
        c = [[int(x) for x in row] for row in refdata.MATIC_GEN_C]
        d = [[int(x) for x in row] for row in refdata.MATIC_GEN_D]
        lhs, rhs = matic_exact(c, d, refdata.MATIC_GEN_PART)
        assert lhs == Fraction(7, 2)
        assert rhs == Fraction(224, 71) == det_exact(
            [[c[i][j] + d[i][j] for j in range(2)] for i in range(2)]) / det_exact(c)
        assert lhs > rhs


P_INSTANCE_P = {"det-power": 2.0, "abs-power": 2.0, "commuted-power": 2.0,
                "neg-power": -1.0, "thm32": 2.0}
P_TEST_GRIDS = {"det-power": (0.0, 0.5, 2.0, 3.0), "abs-power": (0.0, 1.0, 3.0),
                "commuted-power": (0.0, 0.5, 2.0), "neg-power": (-0.5, -3.0),
                "thm32": (1.0, 2.5)}


def p_instance(rng, inequality):
    part = Partition((2, 3))
    if inequality == "thm32":
        mats = tuple(rand_pd(rng, 5, kappa=1e3) for _ in range(3))
        return Instance(partition=part, mats=mats)
    c, blocks, part = random_block_instance(rng, 5, (2, 3))
    return Instance(partition=part, c=c, d_blocks=blocks)


class TestPGrid:
    def test_parametrized_ids(self):
        assert {i for i, spec in SPECS.items() if spec.split} == set(P_INSTANCE_P)

    @pytest.mark.parametrize("inequality", sorted(P_INSTANCE_P))
    def test_grid_equals_one_check_per_p(self, rng, inequality):
        inst = p_instance(rng, inequality)
        ps = P_TEST_GRIDS[inequality]
        grid = check_p_grid(inequality, inst, ps)
        assert len(grid) == len(ps)
        for p, verdict in zip(ps, grid):
            single = run_check(inequality, replace(inst, p=p))
            assert verdict.to_json() == single.to_json()
            assert verdict.detail["p"] == p

    @pytest.mark.parametrize("inequality, ps", [
        # verify-paper's ex-2.6 grid, then one exponent whose powers overflow
        ("neg-power", tuple(-round(0.1 * i, 1) for i in range(1, 101)) + (-300.0,)),
        ("det-power", (0.0, 0.5, 300.0, 1.0, 2.0, 3.0)),
        ("abs-power", (300.0, 0.0, 0.5, 2.0)),
    ])
    def test_long_and_overflowing_grids_equal_one_check_per_p(self, rng, inequality, ps):
        c, blocks, part = random_block_instance(rng, 4, (2, 2))
        if inequality == "neg-power":  # spectra below 1, whose -300th powers overflow
            blocks = tuple(1e-3 * b for b in blocks)
        inst = Instance(partition=part, c=c, d_blocks=blocks)
        x, y = catalog_mod.product_spectra(inst.c, inst.d, part)
        if inequality == "abs-power":
            x = np.concatenate([np.linalg.svd(np.linalg.inv(cb) @ db, compute_uv=False)
                                for cb, db in zip(diag_blocks(inst.c, part), blocks)])
        with np.errstate(over="ignore"):
            assert np.isinf(x ** max(ps, key=abs)).any()
        ref = Instance(partition=refdata.NEG_POWER_PART, c=refdata.NEG_POWER_C,
                       d=refdata.NEG_POWER_D)
        for case in (inst, ref):
            grid = check_p_grid(inequality, case, ps)
            assert [v.to_json() for v in grid] == \
                [run_check(inequality, replace(case, p=p)).to_json() for p in ps]

    @pytest.mark.parametrize("inequality, ps", [("det-power", (0.5, 2.0, 1.0, 3.0)),
                                                ("neg-power", (-1.0, -0.5, -2.0))])
    def test_grid_takes_one_scalar_power_per_p(self, rng, inequality, ps):
        # numpy's x**p has fast paths for p = 0.5, 2 and -1 that a broadcast
        # power over the grid does not take; the sides must keep their bits
        for _ in range(20):
            c, blocks, part = random_block_instance(rng, 5, (2, 3))
            inst = Instance(partition=part, c=c, d_blocks=blocks)
            x, y = catalog_mod.product_spectra(inst.c, inst.d, part)
            for p, verdict in zip(ps, check_p_grid(inequality, inst, ps)):
                assert verdict.detail["log_lhs"] == float(np.sum(np.log1p(x**p)))
                assert verdict.detail["log_rhs"] == float(np.sum(np.log1p(y**p)))

    def test_empty_grid(self, rng):
        assert check_p_grid("det-power", p_instance(rng, "det-power"), ()) == ()

    def test_fingerprint_matches_unsplit_digest(self, rng):
        c, blocks, part = random_block_instance(rng, 4, (2, 2))
        verdict = run_check("det-power", Instance(partition=part, c=c, d_blocks=blocks, p=2.0))
        want = _fingerprint(part.n, part, c, *blocks, 2.0)
        assert verdict.fingerprint == want

    def test_domain_checked_before_any_work(self):
        # an instance with no matrices: the exponent error must come first
        for inequality, bad, err in (("det-power", -1.0, NegativePower),
                                     ("thm32", 0.5, BadExponent),
                                     ("neg-power", 1.0, BadExponent),
                                     ("abs-power", -1.0, BadExponent),
                                     ("commuted-power", None, BadExponent)):
            with pytest.raises(err):
                check_p_grid(inequality, Instance(), (P_INSTANCE_P[inequality], bad))
            with pytest.raises(err):
                run_check(inequality, Instance(p=bad))

    def test_unknown_id(self):
        with pytest.raises(UnknownInequality):
            check_p_grid("matic", Instance(), (1.0,))


BAD_TOLS = [-0.5, -1e-300, math.nan, math.inf, -math.inf, True, "1e-9", None]


class TestTolerance:
    """The library rejects the tolerances the CLI rejects at parse time."""

    def test_negative_tol_no_longer_flips_an_exact_equality(self):
        inst = Instance(partition=Partition((2,)), c=[[2, 1], [1, 2]])
        assert run_check("ky-fan", inst).holds
        with pytest.raises(BadConfig, match="^tolerance must be a finite number >= 0"):
            run_check("ky-fan", inst, tol=-0.5)

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_entry_points_reject(self, rng, tol):
        with pytest.raises(BadConfig):
            run_check("ky-fan", Instance(partition=Partition((2,)), c=np.eye(2)), tol=tol)
        with pytest.raises(BadConfig):
            check_p_grid("det-power", p_instance(rng, "det-power"), (1.0,), tol=tol)
        c, blocks, part = random_block_instance(rng, 2, (1, 1))
        with pytest.raises(BadConfig):
            identity_abs_square(c, blocks, part, tol=tol)

    @pytest.mark.parametrize("tol", [0, 0.0, 1e-9, 1])
    def test_accepts_finite_nonnegative(self, tol):
        inst = Instance(partition=Partition((2,)), c=np.eye(2))
        assert run_check("ky-fan", inst, tol=tol).tol == tol


def small_pd(rng, n):
    """A PD matrix whose entries are all below 1 in magnitude, so the
    symmetry tolerance is 1e-12 on the matrix and on each of its blocks."""
    g = rng.standard_normal((n, n))
    a = g @ g.T + n * np.eye(n)
    a = (a + a.T) / 2.0
    return a / (2.0 * np.abs(a).max())


def shape_instances(rng):
    """Shape -> (an instance of that shape, its matrix fields)."""
    part = Partition((2, 2))
    c, d = small_pd(rng, 4), small_pd(rng, 4)
    return {
        Shape.BLOCK_D: (Instance(partition=part, c=c, d_blocks=(small_pd(rng, 2),
                                                                small_pd(rng, 2))),
                        ("c", "d")),
        Shape.GENERAL_D: (Instance(partition=part, c=c, d=d), ("c", "d")),
        Shape.MATS: (Instance(partition=part, mats=(small_pd(rng, 4), small_pd(rng, 4),
                                                    small_pd(rng, 4))), ("mats",)),
        Shape.C: (Instance(partition=part, c=c), ("c",)),
        Shape.C_M: (Instance(partition=part, c=c, m=2), ("c",)),
        Shape.C_IDX: (Instance(c=c, idx=(0, 1, 3)), ("c",)),
    }


LAYOUT_PART = Partition((1, 2, 1))


def layout_inputs(rng, shape):
    """An instance of the Shape as its input matrices, in input order, and
    the fields its fingerprint hashes after them."""
    def c():
        return small_pd(rng, 4)

    return {
        Shape.BLOCK_D: ([c(), *(small_pd(rng, s) for s in LAYOUT_PART.sizes)], {}),
        Shape.GENERAL_D: ([c(), c()], {}),
        Shape.MATS: ([c(), c(), c()], {}),
        Shape.C: ([c()], {}),
        Shape.C_M: ([c()], {"m": 3}),
        Shape.C_IDX: ([c()], {"idx": (0, 2)}),
    }[shape]


class TestLayout:
    """One rule owns both directions: assemble builds an instance from its
    input matrices in input order, and _hashed lists them back. A Shape
    without a rule fails here."""

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("shape", list(Shape))
    def test_hashed_lists_the_assembled_inputs(self, rng, shape, stacked):
        inputs, fields = layout_inputs(rng, shape)
        if stacked:
            inputs = [np.stack([a, 2.0 * a]) for a in inputs]
        part = None if shape is Shape.C_IDX else LAYOUT_PART
        n, partition, *payload = _hashed(shape, assemble(shape, part, inputs, **fields))
        assert (n, partition) == (4, part)
        assert [a.tobytes() for a in payload[:len(inputs)]] == [a.tobytes() for a in inputs]
        assert payload[len(inputs):] == list(fields.values())

    def test_a_whole_d_is_taken_as_it_is(self, rng):
        c, d = small_pd(rng, 4), direct_sum([small_pd(rng, s) for s in LAYOUT_PART.sizes])
        for shape in (Shape.BLOCK_D, Shape.GENERAL_D):
            assert assemble(shape, LAYOUT_PART, (c, d)).d is d

    @pytest.mark.parametrize("shape, sizes, message", [
        (Shape.BLOCK_D, (4, 1, 3), "2 D blocks for a 3-block partition"),
        (Shape.BLOCK_D, (4, 2, 1, 1), "D block is 2x2, expected 1"),
        (Shape.BLOCK_D, (4,), "a block-d instance takes C and D, got 1 matrices"),
        (Shape.GENERAL_D, (4, 4, 4), "a general-d instance takes C and D, got 3 matrices"),
        (Shape.C_M, (4, 4), "a c+m instance takes C, got 2 matrices"),
    ])
    def test_wrong_inputs(self, shape, sizes, message):
        with pytest.raises(DimensionMismatch) as info:
            assemble(shape, LAYOUT_PART, [np.eye(s) for s in sizes])
        assert str(info.value) == message


def corrupt(inst, field, how):
    """inst with entry (0, 1) of the field's first matrix made NaN on both
    sides, or made asymmetric by 1e-3."""
    value = getattr(inst, field)
    first = (value[0] if isinstance(value, tuple) else value).copy()
    if how == "nan":
        first[0, 1] = first[1, 0] = math.nan
    else:
        first[0, 1] += 1e-3
    return replace(inst, **{field: (first, *value[1:]) if isinstance(value, tuple) else first})


class TestValidateOnce:
    """run_check validates each input matrix exactly once, then runs the
    kernels on what validation returned."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []

        def counting(original):
            def count(a):
                calls.append(np.shape(a))
                return original(a)
            return count

        require = counting(linalg_mod.require_symmetric)
        for module in (linalg_mod, catalog_mod):
            monkeypatch.setattr(module, "require_symmetric", require)
        # the one pass that clears a valid block-D D, all its blocks at once
        monkeypatch.setattr(catalog_mod, "_within_least_slack",
                            counting(linalg_mod._within_least_slack))
        return calls

    @pytest.mark.parametrize("inequality", INEQUALITY_IDS)
    def test_one_validation_per_input_matrix(self, rng, counted, inequality):
        spec = SPECS[inequality]
        inst, fields = shape_instances(rng)[spec.shape]
        if spec.split:
            inst = replace(inst, p=spec.split.default)
        # a valid block-D D is validated whole, in one pass
        inputs = sum(len(v) if isinstance(v, (tuple, list)) else 1
                     for v in (getattr(inst, f) for f in fields))
        run_check(inequality, inst)
        assert len(counted) == inputs

    def test_block_d_judges_each_block_on_its_own_slack(self):
        # the large block's slack (2e-6) would pass the skew of the other one
        big = 1e6 * np.array([[2.0, 1.0], [1.0, 2.0]])
        skewed = np.eye(2)
        skewed[0, 1] = 1e-11
        inst = Instance(partition=Partition((2, 2)), c=np.eye(4), d_blocks=(big, skewed))
        message = r"^asymmetry 1\.000e-11 exceeds tolerance 1\.000e-12$"
        with pytest.raises(NotSymmetric, match=message):
            run_check("main-thm", inst)
        stack = replace(inst, c=np.stack([inst.c, inst.c]), d=np.stack([inst.d, inst.d]))
        with pytest.raises(NotSymmetric, match=message):
            validate_instance(Shape.BLOCK_D, stack, lead=1)

    @pytest.mark.parametrize("inequality", [
        "main-thm", "weak-log-general-d", "choi", "ky-fan", "lemma31"])
    @pytest.mark.parametrize("how, err, message", [
        ("nan", NonFinite, "non-finite entry (max |a_ij| = nan)"),
        ("skew", NotSymmetric, "asymmetry 1.000e-03 exceeds tolerance 1.000e-12"),
    ])
    def test_bad_input_keeps_its_error(self, rng, inequality, how, err, message):
        # one id per Shape; a NaN or an asymmetric C, D, D block or A_1
        inst, fields = shape_instances(rng)[SPECS[inequality].shape]
        for field in fields:
            with pytest.raises(err) as info:
                run_check(inequality, corrupt(inst, field, how))
            assert str(info.value) == message, (inequality, field)


class TestKernelCalls:
    """The diagonal blocks of one size go through each LAPACK routine in one
    call, and a pencil factors C and D in one call: the counts are pinned.
    choi factors each A_i's blocks in its own calls, and inv-square-sum
    takes one block at a time."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = dict.fromkeys(("cholesky", "solve", "svd"), 0)

        def counting(name, original):
            def count(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return count

        for name in counts:
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        return counts

    @pytest.mark.parametrize("inequality, sizes, want", [
        ("main-thm", (2, 3, 3), (3, 3, 3)),
        ("main-thm", (4, 4), (2, 2, 2)),
        ("matic", (2, 3, 3), (3, 0, 0)),
        # A_1's and A_2's blocks, then their sums', per size; then the whole
        ("choi", (2, 3, 3), (8, 0, 0)),
        # D and C in one call, then their sum: per block, then the whole
        ("inv-square-sum", (2, 3, 3), (8, 0, 0)),
    ])
    def test_one_call_per_block_size(self, rng, counts, inequality, sizes, want):
        c = rand_pd(rng, 8, kappa=1e4)
        if SPECS[inequality].shape is Shape.MATS:
            inst = Instance(partition=Partition(sizes), mats=(c, rand_pd(rng, 8, kappa=1e4)))
        else:
            inst = Instance(partition=Partition(sizes), c=c,
                            d_blocks=tuple(rand_pd(rng, s, kappa=1e4) for s in sizes))
        run_check(inequality, inst)
        assert tuple(counts.values()) == want

    def test_commuted_power_eighs_each_matrix_per_block_size(self, rng, monkeypatch):
        shapes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: shapes.append(m.shape) or eigh(m))
        sizes = (2, 3, 3)
        inst = Instance(partition=Partition(sizes), c=rand_pd(rng, 8, kappa=1e4),
                        d_blocks=tuple(rand_pd(rng, s, kappa=1e4) for s in sizes), p=2.0)
        run_check("commuted-power", inst)
        # C's blocks by size, D's blocks by size, then C whole
        assert shapes == [(1, 2, 2), (2, 3, 3), (1, 2, 2), (2, 3, 3), (8, 8)]

    @pytest.mark.parametrize("trials", [1, 10, 64])
    def test_a_fuzz_chunk_calls_as_one_check(self, counts, trials):
        cfg = GenConfig(n=8, partition=Partition((2, 3, 3)), seed=5)
        fuzz("main-thm", cfg, trials)
        assert tuple(counts.values()) == (3, 3, 3)


class TestBlockErrorOrder:
    """Blocks stacked by size raise the error the blocks raise when checked
    one at a time: block by block, each block's C before its D, and for the
    per-matrix kernels of commuted-power and choi, every block of one matrix
    before the next matrix."""

    P = Partition((2, 2))
    P232 = Partition((2, 3, 2))

    @pytest.mark.parametrize("inequality, inst, message", [
        # C's block 2 and D's block 1 are below the pivot floor: block 1 first
        ("main-thm", Instance(partition=P, c=np.diag([1.0, 1.0, 1.0, 1e-14]),
                              d=np.diag([1.0, 2e-14, 1.0, 1.0])),
         "pivot 2.000e-14 at index 1 (floor 1.000e-13)"),
        ("sv-weak-log", Instance(partition=P, c=np.diag([1.0, 1.0, 1.0, 1e-14]),
                                 d=np.diag([1.0, 2e-14, 1.0, 1.0])),
         "pivot 1.000e-14 at index 1 (floor 1.000e-13)"),
        # C1 fails the floor; C2 + D2 fails in LAPACK, which a stacked call
        # would report first
        ("matic", Instance(partition=P, c=np.diag([1.0, 1e-14, -1.0, 1.0]), d=np.eye(4)),
         "pivot 1.000e-14 at index 1 (floor 1.000e-13)"),
        # C2 and D1 are indefinite: every block of C comes before D
        ("commuted-power", Instance(partition=P, c=np.diag([1.0, 1.0, -2.0, 1.0]),
                                    d=np.diag([-3.0, 1.0, 1.0, 1.0]), p=2.0),
         "eigenvalue -2.000e+00 <= 0"),
        # A1's block 2 and A2's block 1: every block of A1 comes first
        ("choi", Instance(partition=P, mats=(np.diag([1.0, 1.0, 1.0, 1e-14]),
                                             np.diag([1.0, 2e-14, 1.0, 1.0]))),
         "pivot 1.000e-14 at index 1 (floor 1.000e-13)"),
        ("inv-square-sum", Instance(partition=P, c=np.diag([1.0, 1.0, 1e7, 1.0]),
                                    d=np.diag([1.0, 1.0, 1e7, 1.0])),
         "D^-2 + C^-2 (block 2): pivot 2.000e-14 at index 0 (floor 2.000e-13)"),
        # on (2, 3, 2) the size-2 group holds blocks 1 and 3, and block 3
        # fails before block 2 within it: block order crosses the groups
        ("main-thm", Instance(partition=P232, c=np.diag([1.0, 1.0, 1.0, 1.0, 3e-14, 1.0, 1e-14]),
                              d=np.eye(7)),
         "pivot 3.000e-14 at index 2 (floor 1.000e-13)"),
        ("matic", Instance(partition=P232, c=np.diag([1.0, 1.0, 1.0, 1.0, 3e-14, 1.0, 1e-14]),
                           d=np.eye(7)),
         "pivot 3.000e-14 at index 2 (floor 1.000e-13)"),
        # A1 fails in block 3 and A2 in block 2: every block of A1 comes first
        ("choi", Instance(partition=P232, mats=(np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1e-14]),
                                                np.diag([1.0, 1.0, 1.0, 1.0, 3e-14, 1.0, 1.0]))),
         "pivot 1.000e-14 at index 1 (floor 1.000e-13)"),
    ], ids=["main-thm", "sv-weak-log", "matic", "commuted-power", "choi", "inv-square-sum",
            "main-thm-232", "matic-232", "choi-232"])
    def test_first_failing_block_raises(self, inequality, inst, message):
        with pytest.raises(NotPositiveDefinite) as info:
            run_check(inequality, inst)
        assert str(info.value) == message


class TestStackedValidation:
    """validate_instance on a stack (lead = 1) judges each matrix as it
    would judge it alone, and run_check's messages are those of one matrix."""

    def test_each_matrix_on_its_own_slack(self):
        big = 1e6 * np.array([[2.0, 1.0], [1.0, 2.0]])
        skewed = np.eye(2)
        skewed[0, 1] = 1e-11
        # a slack taken from the whole stack's largest entry (2e-6) would pass
        assert 1e-11 < 1e-12 * np.abs(big).max()
        for stack in (np.stack([big, skewed]), np.stack([skewed, big])):
            with pytest.raises(NotSymmetric,
                               match=r"^asymmetry 1\.000e-11 exceeds tolerance 1\.000e-12$"):
                require_symmetric(stack)
            with pytest.raises(NotSymmetric):
                validate_instance(Shape.C, Instance(partition=Partition((2,)), c=stack), lead=1)
        require_symmetric(np.stack([big, np.eye(2)]))

    # C - C^T overflows to inf; under the suite's warning filter a
    # RuntimeWarning would replace the error
    OVERFLOWING_SKEW = np.array([[1.0, 1e308], [-1e308, 1.0]])
    INF_SKEW = r"^asymmetry inf exceeds tolerance 1\.000e\+296$"

    def test_skew_that_overflows_raises_without_a_warning(self):
        with pytest.raises(NotSymmetric, match=self.INF_SKEW):
            run_check("ky-fan", Instance(partition=Partition((1, 1)), c=self.OVERFLOWING_SKEW))

    def test_skew_that_overflows_in_a_stack_raises_without_a_warning(self):
        stack = np.stack([np.eye(2), self.OVERFLOWING_SKEW])
        with pytest.raises(NotSymmetric, match=self.INF_SKEW):
            validate_instance(Shape.C, Instance(partition=Partition((2,)), c=stack), lead=1)

    @pytest.mark.parametrize("shape", list(Shape))
    def test_nan_in_any_member(self, rng, shape):
        inst, fields = shape_instances(rng)[shape]
        for field in fields:
            for member in range(3):
                members = [corrupt(inst, field, "nan") if j == member else inst for j in range(3)]
                with pytest.raises(NonFinite, match=r"^non-finite entry \(max \|a_ij\| = nan\)$"):
                    validate_instance(shape, stack_instances(members), lead=1)

    @pytest.mark.parametrize("shape", list(Shape))
    def test_valid_stack_passes(self, rng, shape):
        inst, fields = shape_instances(rng)[shape]
        stack = stack_instances([inst, inst])
        checked = validate_instance(shape, stack, lead=1)
        for field in fields:
            np.testing.assert_array_equal(getattr(checked, field), getattr(stack, field))

    def test_leading_axes_are_checked(self, rng):
        inst, _ = shape_instances(rng)[Shape.C]
        with pytest.raises(DimensionMismatch, match=r"got shape \(4, 4\)$"):
            validate_instance(Shape.C, inst, lead=1)
        with pytest.raises(DimensionMismatch, match=r"^expected a square matrix, got shape \(2, 4, 4\)$"):
            run_check("ky-fan", replace(inst, c=np.stack([inst.c, inst.c])))

    @pytest.mark.parametrize("inequality, field, value, message", [
        ("main-thm", "c", np.eye(3), "(3, 3) vs (4, 4)"),
        ("main-thm", "c", np.ones((3, 4)), "expected a square matrix, got shape (3, 4)"),
        ("main-thm", "d_blocks", (np.eye(3), np.eye(2)), "D block is 3x3, expected 2"),
        ("main-thm", "d_blocks", (np.eye(2),), "1 D blocks for a 2-block partition"),
        ("weak-log-general-d", "d", np.eye(3), "(4, 4) vs (3, 3)"),
        ("choi", "mats", (np.eye(4), np.eye(3)), "matrix is 3x3, partition needs 4"),
        ("ky-fan", "c", np.eye(3), "matrix is 3x3, partition needs 4"),
        ("lemma31", "c", np.ones(4), "expected a square matrix, got shape (4,)"),
    ])
    def test_wrong_size_keeps_its_message(self, rng, inequality, field, value, message):
        inst, _ = shape_instances(rng)[SPECS[inequality].shape]
        with pytest.raises(DimensionMismatch) as info:
            run_check(inequality, replace(inst, **{field: value}))
        assert str(info.value) == message


class TestBoundary:
    @pytest.mark.parametrize("p", ["x", True, [2.0]])
    def test_instance_json_rejects_a_p_that_is_not_a_number(self, rng, p):
        c, blocks, part = random_block_instance(rng, 4, (2, 2))
        payload = Instance(partition=part, c=c, d_blocks=blocks, p=2.0).to_json()
        payload["p"] = p
        with pytest.raises(BadExponent):
            Instance.from_json(payload)

    @pytest.mark.parametrize("field", ["c", "d_blocks", "mats"])
    @pytest.mark.parametrize("entry", ["1", True, None])
    def test_instance_json_rejects_an_entry_that_is_not_a_number(self, field, entry):
        # the rule of matrix files (matio.number_array): JSON numbers only
        rows = [[2.0, 0.0], [0.0, entry]]
        payload = {"partition": [1, 1], field: [rows] if field != "c" else rows}
        with pytest.raises(BadEntry):
            Instance.from_json(payload)

    @pytest.mark.parametrize("partition", [[1, "1"], [True, True], [1.5, 0.5], 2])
    def test_instance_json_rejects_a_partition_that_is_not_integers(self, partition):
        # [1, "1"] and [True, True] read as (1, 1), [1.5, 0.5] as (1, 0)
        payload = {"partition": partition, "c": np.eye(2).tolist()}
        with pytest.raises(BadPartition):
            run_check("ky-fan", Instance.from_json(payload))

    @pytest.mark.parametrize("idx", ["01", 0, [0, "1"], [True], [0.0, 1.0]])
    def test_instance_json_rejects_an_idx_that_is_not_integers(self, idx):
        # "01" read as (0, 1), 0 raised a TypeError, [0.0, 1.0] as (0, 1)
        payload = {"c": np.eye(2).tolist(), "idx": idx}
        with pytest.raises(IndexOutOfRange):
            run_check("lemma31", Instance.from_json(payload))

    @pytest.mark.parametrize("m", [2.5, math.nan, True, "2"])
    def test_fischer_tail_rejects_a_non_integer_m(self, rng, m):
        with pytest.raises(IndexOutOfRange):
            run_check("fischer-tail", Instance(partition=PART22, c=rand_pd(rng, 4), m=m))

    @pytest.mark.parametrize("m", [2.0, np.int64(2)])
    def test_fischer_tail_m_becomes_an_int_at_the_boundary(self, rng, m):
        # 2, 2.0 and np.int64(2) once hashed to three fingerprints
        c = rand_pd(rng, 4)
        validated = validate_instance(Shape.C_M, Instance(partition=PART22, c=c, m=m))
        assert type(validated.m) is int and validated.m == 2
        got = run_check("fischer-tail", Instance(partition=PART22, c=c, m=m))
        assert got.to_json() == run_check("fischer-tail",
                                          Instance(partition=PART22, c=c, m=2)).to_json()

    @pytest.mark.parametrize("m", [np.int64(0), np.int64(5), 5.0])
    def test_fischer_tail_rejects_an_m_out_of_range(self, rng, m):
        with pytest.raises(IndexOutOfRange, match=r"out of range 1\.\.4"):
            validate_instance(Shape.C_M, Instance(partition=PART22, c=rand_pd(rng, 4), m=m))
