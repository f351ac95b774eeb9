"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on success)."""

import math
import time
import zlib

import numpy as np

from majdet import scenarios
from majdet.blocks import Partition, diag_blocks
from majdet.catalog import Instance, identity_abs_square, run_check
from majdet.fuzzing import GenConfig, build_instance, fuzz
from majdet.linalg import eigh_sym, hyperbolic_power
from majdet.orders import geometric_mean, power_mean

from oracles import eig_bisect, rand_pd, rand_sym


def report(num: int, name: str, passed: bool, extra: str = ""):
    tail = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if passed else 'FAIL'}{tail}")
    assert passed, f"criterion {num} ({name}) failed{tail}"


def scenario_rows(result):
    return {row.name: row for row in result.rows}


def test_criterion_1_eigenvalue_replication():
    t0 = time.perf_counter()
    result = scenarios.run_ex23()
    elapsed = time.perf_counter() - t0
    rows = scenario_rows(result)
    ok = result.passed
    ok &= rows["weak-log first failing prefix"].computed == 2.0
    ok &= elapsed < 0.1
    report(1, "eigenvalue replication + weak-log fails at k=2", ok,
           f"{elapsed * 1e3:.1f} ms")


def test_criterion_2_log_majorization_remark():
    t0 = time.perf_counter()
    result = scenarios.run_ex23_log()
    elapsed = time.perf_counter() - t0
    rows = scenario_rows(result)
    ok = result.passed
    ok &= abs(rows["prod lambda(Ci^-1 Di)"].computed - 0.6538) <= 1e-3
    ok &= abs(rows["det(C^-1 D)"].computed - 2.1717) <= 1e-3
    ok &= elapsed < 0.1
    report(2, "block-diagonal D: weak-log holds, log fails (0.6538 vs 2.1717)", ok,
           f"{elapsed * 1e3:.1f} ms")


def test_criterion_3_general_d_determinant_violation():
    t0 = time.perf_counter()
    result = scenarios.run_ex27()
    elapsed = time.perf_counter() - t0
    rows = scenario_rows(result)
    ok = result.passed
    ok &= abs(rows["det(I + C^-1 D)"].computed - 3.1549) <= 1e-3
    ok &= rows["det(I + C^-1 D)"].computed < 3.5
    ok &= elapsed < 0.1
    report(3, "general-D determinant violation (3.1549 < 3.5)", ok,
           f"{elapsed * 1e3:.1f} ms")


def test_criterion_4_inverse_square_violation_with_exact_certificate():
    t0 = time.perf_counter()
    result = scenarios.run_ex28()
    elapsed = time.perf_counter() - t0
    rows = scenario_rows(result)
    ok = result.passed
    ok &= abs(rows["det(D^-2 + C^-2)"].computed - 51.0669) <= 1e-3
    ok &= abs(rows["blockwise product"].computed - 54.6523) <= 1e-3
    ok &= rows["exact rational: blockwise > full (strict)"].computed == 1.0
    ok &= elapsed < 0.5
    report(4, "inverse-square violation (51.0669 < 54.6523) + exact certificate", ok,
           f"{elapsed * 1e3:.1f} ms")


def test_criterion_5_negative_power_grid():
    result = scenarios.run_ex26()
    rows = scenario_rows(result)
    ok = result.passed
    ok &= rows["f(1) = 2 + 2*5^q at q=1"].computed == 12.0
    ok &= rows["g(1) = (1 + 3^q)^2 at q=1"].computed == 16.0
    report(5, "negative powers: g(q) > f(q) on the whole grid, f(1)=12 g(1)=16", ok)


def test_criterion_6_padded_entrywise_remark():
    result = scenarios.run_ex23_entrywise()
    ok = result.passed and len(result.rows) == 2
    report(6, "padded entrywise domination for both blocks", ok)


def _random_partition(n: int, rng: np.random.Generator) -> Partition:
    sizes = []
    left = n
    while left:
        s = int(rng.integers(1, left + 1))
        sizes.append(s)
        left -= s
    return Partition(tuple(sizes))


def _grid_configs(ineq: str, total: int, m: int):
    """Deterministic (config, trials) grid over n = 2..8 with random partitions."""
    dims = list(range(2, 9))
    base, rem = divmod(total, len(dims))
    for i, n in enumerate(dims):
        trials = base + (1 if i < rem else 0)
        # stable across processes (unlike hash(), which is salted)
        digest = zlib.crc32(f"{ineq}/{n}/{m}".encode())
        part = _random_partition(n, np.random.default_rng(digest))
        yield GenConfig(n=n, partition=part, m=m, kappa_max=1e6,
                        seed=2026_0000 + 100 * n + m), trials


THEOREM_GRID = (
    ("main-thm", (2,)),
    ("matic", (2,)),
    ("det-power", (2,)),       # p grid {0, 0.5, 1, 2, 3} per trial
    ("choi", (1, 2, 3)),
    ("thm32", (2,)),           # p grid {1, 2, 3} per trial
    ("lemma31", (2,)),
    ("fischer-tail", (2,)),    # all tail starts per trial
    ("ky-fan", (2,)),
)


def test_criterion_7_theorem_fuzz_suite():
    t0 = time.perf_counter()
    worst_overall = math.inf
    total_violations = 0
    for ineq, m_values in THEOREM_GRID:
        base, rem = divmod(1000, len(m_values))
        for j, m in enumerate(m_values):
            per_m = base + (1 if j < rem else 0)
            for cfg, trials in _grid_configs(ineq, per_m, m):
                rep = fuzz(ineq, cfg, trials, tol=1e-9)
                total_violations += rep.violations
                worst_overall = min(worst_overall, rep.worst_margin)
                assert rep.violations == 0, (
                    f"{ineq} n={cfg.n} part={cfg.part().sizes} m={m}: "
                    f"{rep.violations} violations, worst {rep.worst_margin:.3e}"
                )
    elapsed = time.perf_counter() - t0
    ok = total_violations == 0 and elapsed < 60.0
    report(7, "theorem fuzz suite, 1000 seeded trials per id, n in 2..8", ok,
           f"{elapsed:.1f} s, worst margin {worst_overall:.3e}")


def test_criterion_8_false_family_violations():
    found = {}
    for ineq, p in (("abs-power", 2.0), ("commuted-power", 2.0), ("inv-square-sum", None)):
        cfg = GenConfig(n=4, partition=Partition((2, 2)), kappa_max=1e6, seed=777)
        rep = fuzz(ineq, cfg, 600, p=p, tol=1e-9)
        found[ineq] = rep.violations
        assert rep.violations >= 1, ineq
        assert rep.records[0].trial == 0  # reference injection is deterministic
    report(8, "false-family fuzz finds violations", True,
           ", ".join(f"{k}: {v}" for k, v in found.items()))


def test_criterion_9_open_question_experiment():
    # proved case: n = 2, two 1x1 blocks
    for m in (2, 3):
        cfg = GenConfig(n=2, partition=Partition((1, 1)), m=m, kappa_max=1e6, seed=4242)
        rep = fuzz("open-q", cfg, 1000, tol=1e-9)
        assert rep.violations == 0, f"proved case violated at m={m}"
    # open cases: record only, assert nothing about the verdicts
    outcomes = []
    for n, sizes in ((4, (2, 2)), (6, (2, 2, 2))):
        for m in (2, 3):
            cfg = GenConfig(n=n, partition=Partition(sizes), m=m, kappa_max=1e6,
                            seed=5150 + n + m)
            rep = fuzz("open-q", cfg, 250, tol=1e-9)
            assert rep.holds + rep.violations == rep.trials
            outcomes.append((n, sizes, m, rep.violations, rep.worst_margin))
    zero_everywhere = all(v == 0 for _, _, _, v, _ in outcomes)
    lines = ", ".join(f"n={n} m={m}: {v} violations" for n, _, m, v, _ in outcomes)
    if zero_everywhere:
        extra = f"{lines}; consistent with previously reported experiments"
    else:
        extra = f"{lines}; candidate counterexamples recorded for inspection"
    report(9, "open-question experiment (proved case clean; open cases recorded)",
           True, extra)


def test_criterion_10_numerical_kernel_properties():
    rng = np.random.default_rng(88)
    worst_rec = 0.0
    worst_oracle = 0.0
    for trial in range(1000):
        n = 2 + trial % 11  # spans 2..12
        scale = 10.0 ** rng.uniform(-2, 2)
        a = rand_sym(rng, n, scale=scale)
        w, v = eigh_sym(a)
        rec = np.linalg.norm(a - (v * w) @ v.T) / max(np.linalg.norm(a), 1e-300)
        worst_rec = max(worst_rec, rec)
        assert rec <= 1e-10
        if n in (2, 3):
            oracle = eig_bisect(a)
            err = float(np.max(np.abs(w - oracle))) / max(1.0, float(np.linalg.norm(a)))
            worst_oracle = max(worst_oracle, err)
            assert err <= 1e-9

    # power semigroup of products of two PD matrices
    for _ in range(5):
        a, b = rand_pd(rng, 4, kappa=50.0), rand_pd(rng, 4, kappa=50.0)
        for p in (-1.0, 0.5, 1.0, 2.0):
            for q in (-1.0, 0.5, 1.0, 2.0):
                lhs = hyperbolic_power(a, b, p) @ hyperbolic_power(a, b, q)
                rhs = hyperbolic_power(a, b, p + q)
                assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(1.0, np.linalg.norm(rhs))

    # power-mean limit towards the geometric mean
    for _ in range(200):
        m = int(rng.integers(1, 10))
        a = 10.0 ** rng.uniform(-3, 3, size=m)
        gm = geometric_mean(a)
        assert abs(power_mean(a, 1e-7) - gm) <= 1e-5 * gm

    report(10, "kernel properties (reconstruction, oracle match, semigroup, means)",
           True, f"worst reconstruction {worst_rec:.2e}, worst oracle gap {worst_oracle:.2e}")


def test_criterion_11_identity_and_verdict_equivalence():
    cfg = GenConfig(n=4, partition=Partition((2, 2)), kappa_max=1e6, seed=31415)
    mismatches = 0
    worst_residual = 0.0
    for trial in range(1, 1001):  # skip the injected trial 0: random instances
        inst = build_instance("abs-power", cfg, trial, p=2.0)
        ident = identity_abs_square(inst.c, diag_blocks(inst.d, inst.partition), inst.partition)
        worst_residual = max(worst_residual, -ident.margin)
        assert ident.holds, f"identity residual {-ident.margin:.3e} at trial {trial}"
        via_abs = run_check("abs-power", inst)
        via_sq = run_check(
            "inv-square-sum",
            Instance(partition=inst.partition, c=inst.c, d=inst.d),
        )
        if via_abs.holds != via_sq.holds:
            mismatches += 1
    ok = mismatches == 0
    report(11, "abs-square identity + verdict equivalence on 1000 instances", ok,
           f"worst identity residual {worst_residual:.2e}")
