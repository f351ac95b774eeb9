"""Replication scenarios for the built-in reference examples.

Each scenario recomputes the published figures from the embedded matrices
and compares against the expected values at the print precision they were
reported with (4-decimal eigenvalues: tolerance 1.5e-4; 4-decimal
determinants: 1e-3). Hermetic: no file or network inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import refdata
from .blocks import diag_blocks, direct_sum
from .catalog import (
    Instance,
    check_validated,
    exponent_spec,
    inv_square_sum_exact,
    run_check,
    validate_instance,
)
from .linalg import eig_pencil
from .orders import OrderKind, check_order, sort_desc

EIG_TOL = 1.5e-4
DET_TOL = 1e-3


@dataclass(frozen=True)
class ScenarioRow:
    name: str
    computed: float
    expected: float
    tol: float

    @property
    def passed(self) -> bool:
        return abs(self.computed - self.expected) <= self.tol

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "computed": self.computed,
            "expected": self.expected,
            "tol": self.tol,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class ScenarioResult:
    scenario: str
    rows: tuple[ScenarioRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "pass": self.passed,
            "rows": [r.to_json() for r in self.rows],
        }


def _rows_for_spectrum(label: str, computed: np.ndarray, expected, tol) -> list[ScenarioRow]:
    return [
        ScenarioRow(f"{label}[{i + 1}]", float(c), float(e), tol)
        for i, (c, e) in enumerate(zip(computed, expected))
    ]


def _ex23_block_spectra() -> list[np.ndarray]:
    """lambda(Ci^-1 Di) of ex-2.3's diagonal blocks, in block order; D's
    block-diagonal part has the same blocks as D."""
    part = refdata.WLOG_PART
    return [eig_pencil(cb, db) for cb, db in
            zip(diag_blocks(refdata.WLOG_C, part), diag_blocks(refdata.WLOG_D, part))]


def run_ex23() -> ScenarioResult:
    """Eigenvalue weak log majorization failure for a non-block-diagonal D."""
    inst = Instance(partition=refdata.WLOG_PART, c=refdata.WLOG_C, d=refdata.WLOG_D)
    verdict = run_check("weak-log-general-d", inst)
    lam_full = eig_pencil(refdata.WLOG_C, refdata.WLOG_D)
    lam_b1, lam_b2 = _ex23_block_spectra()
    rows = (
        _rows_for_spectrum("lambda(C^-1 D)", lam_full, refdata.WLOG_EIG_FULL, EIG_TOL)
        + _rows_for_spectrum("lambda(C1^-1 D1)", lam_b1, refdata.WLOG_EIG_B1, EIG_TOL)
        + _rows_for_spectrum("lambda(C2^-1 D2)", lam_b2, refdata.WLOG_EIG_B2, EIG_TOL)
        + [
            ScenarioRow("weak-log verdict violated", float(not verdict.holds), 1.0, 0.0),
            ScenarioRow("weak-log first failing prefix",
                        float(verdict.order.fail_index or 0), 2.0, 0.0),
        ]
    )
    return ScenarioResult("ex-2.3", tuple(rows))


def run_ex23_log() -> ScenarioResult:
    """With D block diagonal the weak log majorization holds but full log
    majorization fails: the total products differ."""
    x = sort_desc(np.concatenate(_ex23_block_spectra()))
    y = eig_pencil(refdata.WLOG_C, direct_sum(diag_blocks(refdata.WLOG_D, refdata.WLOG_PART)))
    weak = check_order(OrderKind.WEAK_LOG_MAJORIZE, x, y)
    full_log = check_order(OrderKind.LOG_MAJORIZE, x, y)
    rows = (
        ScenarioRow("prod lambda(Ci^-1 Di)", float(np.prod(x)), refdata.WLOG_BLOCK_DET, DET_TOL),
        ScenarioRow("det(C^-1 D)", float(np.prod(y)), refdata.WLOG_FULL_DET, DET_TOL),
        ScenarioRow("weak-log holds", float(weak.holds), 1.0, 0.0),
        ScenarioRow("log-majorization fails", float(not full_log.holds), 1.0, 0.0),
    )
    return ScenarioResult("ex-2.3-log", rows)


def run_ex23_entrywise() -> ScenarioResult:
    """Zero-padded blockwise spectra sit entrywise below the full spectrum."""
    lam_full = eig_pencil(refdata.WLOG_C, refdata.WLOG_D)
    rows = []
    for i, lam_b in enumerate(_ex23_block_spectra(), start=1):
        rep = check_order(OrderKind.ENTRYWISE_LE, lam_b, lam_full, pad=True)
        rows.append(ScenarioRow(f"(lambda(C{i}^-1 D{i}), 0, 0) <= lambda(C^-1 D)",
                                float(rep.holds), 1.0, 0.0))
    return ScenarioResult("ex-2.3-le", tuple(rows))


def run_ex26() -> ScenarioResult:
    """Blockwise bound fails for negative exponents: g(q) > f(q) for q > 0."""
    grid = [round(0.1 * i, 1) for i in range(1, 101)]
    closed_ok = all(refdata.neg_power_g(q) > refdata.neg_power_f(q) for q in grid)
    part = refdata.NEG_POWER_PART
    inst = Instance(partition=part, c=refdata.NEG_POWER_C, d=refdata.NEG_POWER_D)
    ps = [-q for q in grid]
    spec = exponent_spec("neg-power", ps)
    verdicts = check_validated("neg-power", validate_instance(spec.shape, inst), ps)
    matrix_ok = not verdicts.holds.any()
    for q, llhs, lrhs in zip(grid, *(side[:, 0].tolist() for side in verdicts.log_sides)):
        gap = (abs(math.exp(llhs) - refdata.neg_power_g(q))
               + abs(math.exp(lrhs) - refdata.neg_power_f(q)))
        if gap > 1e-6 * max(1.0, refdata.neg_power_g(q)):
            matrix_ok = False
    rows = (
        ScenarioRow("f(1) = 2 + 2*5^q at q=1", refdata.neg_power_f(1.0), 12.0, 0.0),
        ScenarioRow("g(1) = (1 + 3^q)^2 at q=1", refdata.neg_power_g(1.0), 16.0, 0.0),
        ScenarioRow("g(q) > f(q) on q grid 0.1..10.0", float(closed_ok), 1.0, 0.0),
        ScenarioRow("matrix evaluator violated on grid", float(matrix_ok), 1.0, 0.0),
    )
    return ScenarioResult("ex-2.6", rows)


def run_ex27() -> ScenarioResult:
    """Blockwise determinant bound fails when D is not block diagonal."""
    inst = Instance(partition=refdata.MATIC_GEN_PART,
                    c=refdata.MATIC_GEN_C, d=refdata.MATIC_GEN_D)
    verdict = run_check("matic-general-d", inst)
    rows = (
        ScenarioRow("det(I + C^-1 D)", verdict.rhs, refdata.MATIC_GEN_RHS, DET_TOL),
        ScenarioRow("blockwise product", verdict.lhs, refdata.MATIC_GEN_LHS, DET_TOL),
        ScenarioRow("verdict violated", float(not verdict.holds), 1.0, 0.0),
        ScenarioRow("strict: rhs < lhs", float(verdict.rhs < verdict.lhs), 1.0, 0.0),
    )
    return ScenarioResult("ex-2.7", rows)


def run_ex28() -> ScenarioResult:
    """Violation of the inverse-square-sum determinant bound, certified exactly."""
    part = refdata.INV_SQ_PART
    inst = Instance(partition=part, c=refdata.INV_SQ_C, d=refdata.INV_SQ_D)
    verdict = run_check("inv-square-sum", inst)
    lhs_exact, rhs_exact = inv_square_sum_exact(refdata.INV_SQ_C_EXACT,
                                                refdata.INV_SQ_D_EXACT, part)
    rows = (
        ScenarioRow("det(D^-2 + C^-2)", verdict.rhs, refdata.INV_SQ_FULL, DET_TOL),
        ScenarioRow("blockwise product", verdict.lhs, refdata.INV_SQ_BLOCKS, DET_TOL),
        ScenarioRow("verdict violated", float(not verdict.holds), 1.0, 0.0),
        ScenarioRow("exact rational: blockwise > full (strict)",
                    float(lhs_exact > rhs_exact), 1.0, 0.0),
        ScenarioRow("exact full det (rounded)", float(rhs_exact), refdata.INV_SQ_FULL, DET_TOL),
        ScenarioRow("exact blockwise det (rounded)", float(lhs_exact), refdata.INV_SQ_BLOCKS, DET_TOL),
    )
    return ScenarioResult("ex-2.8", rows)


SCENARIOS = {
    "ex-2.3": run_ex23,
    "ex-2.3-log": run_ex23_log,
    "ex-2.3-le": run_ex23_entrywise,
    "ex-2.6": run_ex26,
    "ex-2.7": run_ex27,
    "ex-2.8": run_ex28,
}


def run_all() -> list[ScenarioResult]:
    return [fn() for fn in SCENARIOS.values()]
