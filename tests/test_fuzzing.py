import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import majdet.catalog as catalog_mod
import majdet.fuzzing as fuzzing_mod
import majdet.linalg as linalg_mod
from majdet import refdata
from majdet.blocks import Partition
from majdet.catalog import SPECS, Instance, run_check
from majdet.errors import (
    BadConfig,
    BadExponent,
    MajdetError,
    NonFinite,
    ResampleExhausted,
    UnknownInequality,
)
from majdet.fuzzing import (
    GenConfig,
    GenStyle,
    build_instance,
    derive_seed,
    draw_trials,
    fuzz,
    gen_pd,
    replay,
    trial_rngs,
)
from majdet.orders import DEFAULT_TOL

from oracles import build_instance_per_trial, draw_pd_per_matrix, trial_rng


GRID_IDS = sorted(i for i, spec in SPECS.items() if spec.split)
# (id, p, error, message): the nearest double outside each finite end of
# every parametrized id's interval lo <= p < hi, and a NaN
BAD_EXPONENTS = [
    ("det-power", -5e-324, BadExponent, "det-power needs p >= 0, got p = -5e-324"),
    ("abs-power", -5e-324, BadExponent, "abs-power needs p >= 0, got p = -5e-324"),
    ("commuted-power", -5e-324, BadExponent, "commuted-power needs p >= 0, got p = -5e-324"),
    ("thm32", 0.9999999999999999, BadExponent,
     "thm32 needs p >= 1, got p = 0.9999999999999999"),
    ("neg-power", 0.0, BadExponent, "neg-power needs p < 0, got p = 0.0"),
    ("neg-power", 1.0, BadExponent, "neg-power needs p < 0, got p = 1.0"),
    ("abs-power", math.nan, NonFinite, "non-finite exponent p = nan"),
]


def strip_wall_time(report_json: dict) -> dict:
    out = dict(report_json)
    out.pop("wall_time")
    return out


class TestGeneration:
    def test_scalar_case(self):
        cfg = GenConfig(n=1, seed=5)
        a = gen_pd(cfg, 0)
        assert a.shape == (1, 1)
        assert a[0, 0] > 0

    def test_determinism_bit_identical(self):
        cfg = GenConfig(n=5, seed=123, kappa_max=1e4)
        a = gen_pd(cfg, 7)
        b = gen_pd(cfg, 7)
        assert a.tobytes() == b.tobytes()

    def test_trials_differ(self):
        cfg = GenConfig(n=4, seed=123)
        assert gen_pd(cfg, 0).tobytes() != gen_pd(cfg, 1).tobytes()

    def test_spectral_kappa_one_is_scaled_identity(self):
        cfg = GenConfig(n=4, seed=9, kappa_max=1.0, entry_scale=2.5)
        a = gen_pd(cfg, 3)
        w = np.linalg.eigvalsh(a)
        assert w[-1] / w[0] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(a, 2.5 * np.eye(4), atol=1e-12)

    def test_spectral_condition_cap(self):
        cfg = GenConfig(n=6, seed=11, kappa_max=100.0)
        for trial in range(20):
            w = np.linalg.eigvalsh(gen_pd(cfg, trial))
            assert w[-1] / w[0] <= 100.0 * (1 + 1e-9)
            assert w[0] > 0

    def test_gram_style(self):
        cfg = GenConfig(n=4, seed=2, style=GenStyle.GRAM, kappa_max=1e8)
        np.linalg.cholesky(gen_pd(cfg, 0))  # raises unless positive definite

    def test_gram_resample_exhausted(self):
        with pytest.raises(ResampleExhausted, match="^no draw met kappa_max=1 in 100 attempts$"):
            gen_pd(GenConfig(n=4, style=GenStyle.GRAM, kappa_max=1.0, seed=0), 0)

    @pytest.mark.parametrize("field, value", [
        ("kappa_max", math.inf), ("kappa_max", math.nan), ("kappa_max", 0.5),
        ("entry_scale", math.inf), ("entry_scale", math.nan), ("entry_scale", 0.0),
        ("entry_scale", -1.0),
    ])
    def test_config_rejects_bad_cap_or_scale(self, field, value):
        with pytest.raises(BadConfig):
            GenConfig(n=2, **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("n", 2.5), ("n", True), ("n", "2"), ("m", 1.5), ("m", True),
        ("seed", 1.5), ("seed", False), ("seed", None),
        ("style", "spectral"), ("style", "gram"), ("style", None),
        ("kappa_max", "1e6"), ("kappa_max", True), ("entry_scale", "2"),
        ("entry_scale", False), ("partition", (1, 1)),
    ])
    def test_config_rejects_a_wrong_type(self, field, value):
        with pytest.raises(BadConfig, match=f"^{field} must be"):
            GenConfig(**{"n": 2, field: value})

    def test_string_style_is_not_read_as_gram(self):
        # a str style used to fall through the draw's SPECTRAL test to GRAM
        with pytest.raises(BadConfig):
            gen_pd(GenConfig(n=3, style="spectral", seed=1), 1)
        with pytest.raises(BadConfig):
            fuzz("main-thm", GenConfig(n=2, style="spectral"), 1)

    def test_config_rejects_no_matrices(self):
        with pytest.raises(BadConfig, match="^matrix count must be >= 1, got 0$"):
            GenConfig(n=2, m=0)

    def test_fuzz_rejects_no_trials(self):
        with pytest.raises(BadConfig, match="^trials must be >= 1, got 0$"):
            fuzz("main-thm", GenConfig(n=2), 0)

    @pytest.mark.parametrize("p", [True, np.int64(2), "2"])
    def test_exponent_that_json_cannot_replay_raises_before_any_draw(self, monkeypatch, p):
        # the rule of Instance.from_json: an int or a float, not a bool
        def no_draw(*args, **kwargs):
            raise AssertionError("drew a trial")

        monkeypatch.setattr(fuzzing_mod, "draw_trials", no_draw)
        cfg = GenConfig(n=2, partition=Partition((1, 1)))
        message = f"exponent p must be a number, got {p!r}"
        for call in (lambda: fuzz("det-power", cfg, 2, p=p, keep_instances=True),
                     lambda: build_instance("det-power", cfg, 0, p),
                     lambda: run_check("det-power", Instance(p=p))):
            with pytest.raises(BadExponent) as info:
                call()
            assert str(info.value) == message

    @pytest.mark.parametrize("trials", [2.5, True, "3", None])
    def test_fuzz_rejects_trials_that_are_not_an_int(self, trials):
        with pytest.raises(BadConfig, match="^trials must be an int"):
            fuzz("main-thm", GenConfig(n=2), trials)

    @pytest.mark.parametrize("tol", [math.nan, -0.5, math.inf, True, "0"])
    def test_fuzz_rejects_a_bad_tolerance(self, tol):
        # a NaN tol used to report every trial of a theorem as a violation
        with pytest.raises(BadConfig, match="^tolerance must be a finite number >= 0"):
            fuzz("ky-fan", GenConfig(n=2, seed=1), 3, tol=tol)

    @pytest.mark.parametrize("seed", [-1, 2**64, -2**64])
    def test_config_rejects_a_seed_outside_64_bits(self, seed):
        # derive_seed reads a seed modulo 2^64: -1 would draw as 2^64 - 1
        with pytest.raises(BadConfig, match=rf"^seed must be in \[0, 2\*\*64\), got {seed}$"):
            GenConfig(n=2, seed=seed)

    def test_config_takes_both_ends_of_the_seed_range(self):
        for seed in (0, 2**64 - 1):
            assert GenConfig(n=2, seed=seed).seed == seed

    @pytest.mark.parametrize("draw, bad", [
        (lambda cfg: gen_pd(cfg, 2**64), 2**64),
        (lambda cfg: gen_pd(cfg, -1), -1),
        (lambda cfg: build_instance("main-thm", cfg, 2**64), 2**64),
        (lambda cfg: build_instance("inv-square-sum", cfg, -1), -1),
        # a range from -1 drew trial 0 at random instead of the reference
        (lambda cfg: fuzzing_mod.build_instances("inv-square-sum", cfg, range(-1, 2)), -1),
        (lambda cfg: fuzzing_mod.build_instances("main-thm", cfg, range(2**64 - 2, 2**64 + 1)),
         2**64),
    ])
    def test_trial_outside_64_bits_raises_before_seeding(self, monkeypatch, draw, bad):
        # derive_seed reads a trial modulo 2^64: gen_pd(cfg, 2**64) drew
        # trial 0's matrix, and gen_pd(cfg, -1) trial 2^64 - 1's
        def no_seeding(*args, **kwargs):
            raise AssertionError("seeded a trial")

        monkeypatch.setattr(fuzzing_mod, "derive_seed", no_seeding)
        cfg = GenConfig(n=4, partition=Partition((2, 2)), seed=3)
        with pytest.raises(BadConfig, match=rf"^trial must be in \[0, 2\*\*64\), got {bad}$"):
            draw(cfg)

    def test_last_trial_in_range_draws(self):
        cfg = GenConfig(n=3, seed=2**64 - 1)
        want = draw_pd_per_matrix(trial_rng(cfg, 2**64 - 1), 3)
        assert gen_pd(cfg, 2**64 - 1).tobytes() == want.tobytes()

    def test_derive_seed_pure(self):
        assert derive_seed(42, 7) == derive_seed(42, 7)
        assert derive_seed(42, 7) != derive_seed(42, 8)
        assert derive_seed(42, 7) != derive_seed(43, 7)

    def test_instance_independent_of_trial_count(self):
        cfg = GenConfig(n=4, partition=Partition((2, 2)), seed=77)
        a = build_instance("main-thm", cfg, 5)
        b = build_instance("main-thm", cfg, 5)
        np.testing.assert_array_equal(a.c, b.c)
        np.testing.assert_array_equal(a.d, b.d)


class TestFuzz:
    def test_unknown_id(self):
        with pytest.raises(UnknownInequality):
            fuzz("no-such-id", GenConfig(n=2), 1)

    @pytest.mark.parametrize("inequality", sorted(i for i, s in SPECS.items() if not s.split))
    def test_p_on_id_without_exponent(self, inequality):
        with pytest.raises(BadExponent, match="takes no exponent"):
            fuzz(inequality, GenConfig(n=2, partition=Partition((1, 1))), 3, p=7.0)

    @pytest.mark.parametrize("inequality", sorted(i for i, s in SPECS.items() if not s.split))
    def test_build_rejects_p_on_id_without_exponent(self, inequality):
        # as fuzz does; the p was dropped (ky-fan) or kept (choi)
        cfg = GenConfig(n=2, partition=Partition((1, 1)))
        with pytest.raises(BadExponent, match="takes no exponent"):
            build_instance(inequality, cfg, 1, p=2.0)
        with pytest.raises(BadExponent, match="takes no exponent"):
            fuzzing_mod.build_instances(inequality, cfg, range(3), p=2.0)

    @pytest.mark.parametrize("p, error", [(-1.0, BadExponent), (math.nan, NonFinite)])
    def test_build_rejects_p_outside_the_domain(self, p, error):
        # as fuzz does, with the same error, before any draw
        cfg = GenConfig(n=4, partition=Partition((2, 2)), seed=1)
        with pytest.raises(error) as want:
            fuzz("det-power", cfg, 3, p=p)
        for build in (lambda: build_instance("det-power", cfg, 1, p=p),
                      lambda: fuzzing_mod.build_instances("det-power", cfg, range(3), p=p)):
            with pytest.raises(error) as got:
                build()
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("cfg", [
        GenConfig(n=4, partition=Partition((2, 2)), seed=1),
        # every GRAM draw runs out of resamples here, which used to mask the
        # exponent error
        GenConfig(n=4, partition=Partition((2, 2)), style=GenStyle.GRAM, kappa_max=1.0, seed=1),
    ], ids=["spectral", "gram-kappa-1"])
    @pytest.mark.parametrize("inequality, p, error, message", BAD_EXPONENTS)
    def test_bad_exponent_raises_before_any_draw(self, monkeypatch, cfg, inequality, p,
                                                 error, message):
        # the id's own exponent error, the same from every entry point: no
        # trial prefix, and no trial's substream is seeded
        streams = []
        rngs_of = fuzzing_mod.trial_rngs

        def counting_rngs(cfg, trials):
            streams.append(trials)
            return rngs_of(cfg, trials)

        monkeypatch.setattr(fuzzing_mod, "trial_rngs", counting_rngs)
        for call in (lambda: fuzz(inequality, cfg, 3, p=p),
                     lambda: build_instance(inequality, cfg, 1, p=p),
                     lambda: fuzzing_mod.build_instances(inequality, cfg, range(3), p=p)):
            with pytest.raises(MajdetError) as info:
                call()
            assert (type(info.value), str(info.value)) == (error, message)
        assert streams == []
        inst = build_instance(inequality, GenConfig(n=4, partition=Partition((2, 2)), seed=1), 1)
        assert streams == [range(1, 2)]  # the counter sees a draw
        with pytest.raises(MajdetError) as info:
            run_check(inequality, dataclasses.replace(inst, p=p))
        assert (type(info.value), str(info.value)) == (error, message)

    def test_bad_exponents_cover_both_ends_of_every_interval(self):
        # lo is the least exponent accepted, hi the least rejected above it
        for inequality in GRID_IDS:
            split = SPECS[inequality].split
            ends = {p for i, p, _, _ in BAD_EXPONENTS if i == inequality}
            assert ends >= {math.nextafter(split.lo, -math.inf), split.hi} - {-math.inf, math.inf}
            inst = build_instance(inequality, GenConfig(n=4, partition=Partition((2, 2))), 1)
            for end, p in ((split.lo, split.lo), (split.hi, math.nextafter(split.hi, -math.inf))):
                if math.isfinite(end):
                    run_check(inequality, dataclasses.replace(inst, p=p))

    def test_trial_error_names_trial_and_seed(self):
        # thm32's p = 3 power of the inverse-sum spectrum overflows at this scale
        cfg = GenConfig(n=3, partition=Partition((1, 2)), entry_scale=1e-110, seed=5)
        with pytest.raises(NonFinite, match=rf"^trial 0 \(seed {derive_seed(5, 0)}\): order check"):
            fuzz("thm32", cfg, 3)

    @pytest.mark.parametrize("style", list(GenStyle))
    def test_overflowing_draw_raises_without_a_warning(self, style):
        # the drawn matrices overflow a double; under the suite's warning
        # filter numpy's RuntimeWarning would replace the error
        cfg = GenConfig(n=4, partition=Partition((2, 2)), entry_scale=1e307, style=style)
        with pytest.raises(NonFinite, match=r"^trial 0 .*non-finite entry"):
            fuzz("main-thm", cfg, 3)

    def test_deterministic_report(self):
        cfg = GenConfig(n=4, partition=Partition((2, 2)), seed=31337)
        r1 = fuzz("main-thm", cfg, 50)
        r2 = fuzz("main-thm", cfg, 50)
        assert strip_wall_time(r1.to_json()) == strip_wall_time(r2.to_json())

    def test_counts_consistent(self):
        cfg = GenConfig(n=4, partition=Partition((2, 2)), seed=3)
        rep = fuzz("matic", cfg, 40)
        assert rep.holds + rep.violations == rep.trials == 40
        assert rep.violations == 0

    def test_theorem_ids_hold(self):
        cfg = GenConfig(n=5, partition=Partition((2, 3)), m=2, seed=8)
        for ineq in ("main-thm", "matic", "det-power", "choi", "thm32",
                     "lemma31", "fischer-tail", "ky-fan"):
            rep = fuzz(ineq, cfg, 25)
            assert rep.violations == 0, ineq

    def test_false_ids_inject_reference_violation(self):
        cfg = GenConfig(n=4, partition=Partition((2, 2)), seed=1)
        for ineq in ("inv-square-sum", "sv-weak-log", "neg-power",
                     "matic-general-d", "weak-log-general-d"):
            rep = fuzz(ineq, cfg, 3)
            assert rep.violations >= 1, ineq
            assert any(rec.trial == 0 for rec in rep.records), ineq

    def test_injection_at_fixed_p(self):
        cfg = GenConfig(n=4, partition=Partition((2, 2)), seed=1)
        for ineq in ("abs-power", "commuted-power"):
            rep = fuzz(ineq, cfg, 2, p=2.0)
            assert rep.violations >= 1
            assert rep.records[0].trial == 0

    def test_violating_records_replay(self):
        cfg = GenConfig(n=4, partition=Partition((2, 2)), seed=5)
        rep = fuzz("inv-square-sum", cfg, 10)
        assert rep.records
        for rec in rep.records:
            again = replay("inv-square-sum", rec)
            assert again.holds == rec.verdict.holds
            assert again.margin == pytest.approx(rec.verdict.margin, abs=1e-13)

    def test_keep_instances(self):
        cfg = GenConfig(n=3, partition=Partition((1, 2)), seed=4)
        rep = fuzz("ky-fan", cfg, 5, keep_instances=True)
        assert len(rep.records) == 5
        assert all(rec.instance is not None for rec in rep.records)

    def test_worst_margin_matches_records(self):
        cfg = GenConfig(n=4, partition=Partition((2, 2)), seed=6)
        rep = fuzz("weak-log-general-d", cfg, 30)
        if rep.violations:
            assert rep.worst_margin <= min(
                rec.verdict.margin for rec in rep.records if not rec.verdict.holds
            ) + 1e-15

    def test_false_ids_cover_evaluators(self):
        assert SPECS["inv-square-sum"].reference is not None
        assert SPECS["main-thm"].reference is None

    def test_open_q_proved_case_no_violations(self):
        cfg = GenConfig(n=2, partition=Partition((1, 1)), m=2, seed=99)
        rep = fuzz("open-q", cfg, 100)
        assert rep.violations == 0

    def test_no_shrinking_contract(self):
        # violating instances are stored verbatim; there is no minimization
        # pass and the CLI exposes no shrink flag
        import majdet.fuzzing as fuzzing_mod
        from majdet.cli import build_parser
        assert "shrink" not in {a.lower() for a in dir(fuzzing_mod)}
        cfg = GenConfig(n=4, partition=Partition((2, 2)), seed=5)
        rep = fuzz("inv-square-sum", cfg, 1)
        stored = rep.records[0].instance
        np.testing.assert_array_equal(np.array(stored["c"]),
                                      build_instance("inv-square-sum", cfg, 0).c)
        help_text = build_parser().format_help()
        assert "shrink" not in help_text.lower()


def per_p_loop_trial(inequality, cfg, trial, p=None, tol=DEFAULT_TOL):
    """Oracle for one fuzz trial: a fresh instance and a full check per
    exponent, keeping the first verdict of minimum margin."""
    worst = worst_inst = None
    split = SPECS[inequality].split
    for pv in (p,) if p is not None or split is None else split.grid:
        inst = build_instance_per_trial(inequality, cfg, trial, p=pv)
        verdict = run_check(inequality, inst, tol)
        if worst is None or verdict.margin < worst.margin:
            worst, worst_inst = verdict, inst
    return worst, worst_inst


def kept_records(inequality, cfg, trials, p=None):
    """(verdict JSON, instance JSON) of each trial as fuzz keeps it with
    keep_instances, or the error it raises."""
    try:
        report = fuzz(inequality, cfg, trials, p=p, keep_instances=True)
    except MajdetError as err:
        return type(err).__name__, str(err)
    return [(rec.verdict.to_json(), rec.instance) for rec in report.records]


def oracle_records(inequality, cfg, trials, p=None):
    """kept_records from per_p_loop_trial, trial by trial: the error of the
    first trial that raises is named as fuzz names it."""
    out = []
    for trial in range(trials):
        try:
            verdict, inst = per_p_loop_trial(inequality, cfg, trial, p=p)
        except MajdetError as err:
            seed = derive_seed(cfg.seed, trial)
            return type(err).__name__, f"trial {trial} (seed {seed}): {err}"
        out.append((verdict.to_json(), inst.to_json(SPECS[inequality].shape)))
    return out


GRID_CONFIGS = (
    GenConfig(n=4, partition=Partition((2, 2)), m=2, seed=0),
    GenConfig(n=5, partition=Partition((2, 3)), m=3, seed=8, kappa_max=1e5),
    GenConfig(n=3, partition=Partition((1, 2)), m=2, seed=123, style=GenStyle.GRAM,
              kappa_max=1e4),
    # kappa_max above commuted-power's C cap of 1e6
    GenConfig(n=5, partition=Partition((2, 3)), m=3, seed=7, kappa_max=1e8),
    # thm32's grid reaches p = 3, where the inverse-sum spectra of matrices
    # scaled by 1e-110 overflow a double: both paths must raise the same error
    GenConfig(n=3, partition=Partition((1, 2)), m=2, seed=5, entry_scale=1e-110),
    # no room for a spectrum: no spectrum is drawn, every matrix is scaled I
    GenConfig(n=4, partition=Partition((1, 3)), m=2, seed=21, kappa_max=1.0, entry_scale=3.0),
    # one block: C and the D block share one size stack under different caps
    # (commuted-power's 1e6 and 1e3)
    GenConfig(n=3, partition=Partition((3,)), m=2, seed=13, kappa_max=1e8),
    # GRAM in the shape of the (2, 2) references, so the injected trial 0
    # could stack with the drawn ones
    GenConfig(n=4, partition=Partition((2, 2)), m=2, seed=3, style=GenStyle.GRAM,
              kappa_max=1e3),
)


class TestGridEvaluation:
    def test_grid_ids_are_parametrized(self):
        for inequality in GRID_IDS:
            split = SPECS[inequality].split
            for p in (*split.grid, split.default):
                assert split.lo <= p < split.hi

    def test_oracle_covers_an_error(self):
        got = kept_records("thm32", GRID_CONFIGS[4], 3)
        assert got[0] == "NonFinite"
        assert got == oracle_records("thm32", GRID_CONFIGS[4], 3)

    @pytest.mark.parametrize("inequality", GRID_IDS)
    def test_run_trial_matches_per_p_loop(self, inequality):
        # each fuzz record against the per-exponent loop on its trial; trial
        # 0 is the injected counterexample for false ids
        for cfg in GRID_CONFIGS:
            assert kept_records(inequality, cfg, 5) == oracle_records(inequality, cfg, 5), \
                (inequality, cfg.seed)

    def test_grid_winner_carries_its_p(self):
        for inequality in GRID_IDS:
            for rec in fuzz(inequality, GRID_CONFIGS[0], 3, keep_instances=True).records:
                assert rec.instance["p"] == rec.verdict.detail["p"]

    @pytest.mark.parametrize("inequality", GRID_IDS)
    def test_explicit_p_matches_per_p_loop(self, inequality):
        cfg = GRID_CONFIGS[0]
        p = SPECS[inequality].split.grid[-1]
        assert kept_records(inequality, cfg, 3, p=p) == oracle_records(inequality, cfg, 3, p=p)

    @pytest.mark.parametrize("inequality", GRID_IDS)
    def test_kept_records_replay_exactly(self, inequality):
        cfg = GRID_CONFIGS[1]
        rep = fuzz(inequality, cfg, 6, keep_instances=True)
        assert len(rep.records) == 6
        for rec in rep.records:
            assert replay(inequality, rec).to_json() == rec.verdict.to_json()

    def test_one_draw_and_one_spectrum_per_trial(self, monkeypatch):
        # seven trials of one shape: seven substreams seeded in one call,
        # one stacked qr per matrix size (seven 4x4 Cs, fourteen 2x2 D
        # blocks), and their spectra in one stacked _product_spectra call
        # of seven instances
        streams = []
        qrs = []
        stacks = []
        rngs_of, spectra = fuzzing_mod.trial_rngs, catalog_mod._product_spectra
        qr = fuzzing_mod._qr_r_raw

        def counting_rngs(cfg, trials):
            streams.append(trials)
            return rngs_of(cfg, trials)

        def counting_qr(a, *args, **kwargs):
            qrs.append(a.shape)
            return qr(a, *args, **kwargs)

        def counting_spectra(c, d, part):
            stacks.append(c.shape[:-2])
            return spectra(c, d, part)

        monkeypatch.setattr(fuzzing_mod, "trial_rngs", counting_rngs)
        monkeypatch.setattr(fuzzing_mod, "_qr_r_raw", counting_qr)
        monkeypatch.setattr(catalog_mod, "_product_spectra", counting_spectra)
        fuzz("det-power", GRID_CONFIGS[0], 7)
        assert streams == [range(7)]
        assert qrs == [(7, 4, 4), (14, 2, 2)]
        assert stacks == [(7,)]

    def test_one_formation_per_size_and_one_grid_step_per_group(self, monkeypatch):
        # abs-power, 70 trials: chunk 0 holds the injected trial 0 (a group of
        # its own) and 63 drawn trials, chunk 1 six drawn trials. Each chunk
        # forms its SPECTRAL matrices once per size (C 4x4, D blocks 2x2),
        # and each group is checked in one call that takes the whole grid.
        formations, checked = [], []
        form = fuzzing_mod._form_spectral
        spec = SPECS["abs-power"]

        def counting_form(lam, g, entry_scale):
            formations.append(g.shape)
            return form(lam, g, entry_scale)

        def counting_check(inst, ps, tol):
            checked.append((inst.c.shape, tuple(ps)))
            return spec.check(inst, ps, tol)

        monkeypatch.setattr(fuzzing_mod, "_form_spectral", counting_form)
        monkeypatch.setitem(catalog_mod.SPECS, "abs-power",
                            dataclasses.replace(spec, check=counting_check))
        fuzz("abs-power", GRID_CONFIGS[0], 70)
        assert formations == [(63, 4, 4), (126, 2, 2), (6, 4, 4), (12, 2, 2)]
        assert checked == [((1, 4, 4), spec.split.grid), ((63, 4, 4), spec.split.grid),
                           ((6, 4, 4), spec.split.grid)]

    def test_lemma31_groups_by_idx_length(self, monkeypatch):
        # n = 8, 100 trials in chunks of 64 and 36: one checker call per
        # distinct idx length in each chunk, each stack carrying the idx of
        # its trials in trial order, and the stacks of a chunk adding up to it
        checked = []
        spec = SPECS["lemma31"]

        def counting_check(inst, ps, tol):
            checked.append((inst.idx, inst.c.shape[0]))
            return spec.check(inst, ps, tol)

        monkeypatch.setitem(catalog_mod.SPECS, "lemma31",
                            dataclasses.replace(spec, check=counting_check))
        cfg = GenConfig(n=8, seed=2)
        report = fuzz("lemma31", cfg, 100, keep_instances=True)
        idxs = [build_instance("lemma31", cfg, trial).idx for trial in range(100)]
        assert all(type(idx) is tuple and all(type(i) is int for i in idx) for idx in idxs)
        assert [rec.instance["idx"] for rec in report.records] == [list(idx) for idx in idxs]
        want = []
        for chunk in (idxs[:64], idxs[64:]):
            lengths = sorted({len(idx) for idx in chunk})
            groups = [tuple(idx for idx in chunk if len(idx) == k) for k in lengths]
            assert sum(map(len, groups)) == len(chunk)
            want += [(group, len(group)) for group in groups]
        assert checked == want
        assert len(checked) < len(set(idxs))  # fewer calls than distinct idx
        for rec in report.records:
            assert replay("lemma31", rec).to_json() == rec.verdict.to_json()


def oracle_report(inequality, cfg, trials, p=None, keep_instances=False):
    """fuzz's report (without wall_time) from a loop of one-trial oracles,
    or (error type, message) of the first trial that raises."""
    holds = violations = 0
    worst_margin = math.inf
    violating = []
    for trial in range(trials):
        seed = derive_seed(cfg.seed, trial)
        try:
            verdict, inst = per_p_loop_trial(inequality, cfg, trial, p=p)
        except MajdetError as err:
            return type(err).__name__, f"trial {trial} (seed {seed}): {err}"
        worst_margin = min(worst_margin, verdict.margin)
        holds += verdict.holds
        violations += not verdict.holds
        if not verdict.holds or keep_instances:
            violating.append({"trial": trial, "seed": seed, "verdict": verdict.to_json(),
                              "instance": inst.to_json(SPECS[inequality].shape)})
    return {"inequality": inequality, "trials": trials, "holds": holds,
            "violations": violations, "worst_margin": worst_margin,
            "config": cfg.to_json(), "violating": violating}


def fuzz_outcome(*args, **kwargs):
    try:
        return strip_wall_time(fuzz(*args, **kwargs).to_json())
    except MajdetError as err:
        return type(err).__name__, str(err)


class TestStackedFuzz:
    """fuzz evaluates the trials of a chunk as stacks; its reports equal a
    trial-by-trial loop of build_instance and run_check byte for byte."""

    @pytest.fixture
    def small_chunk(self, monkeypatch):
        monkeypatch.setattr(fuzzing_mod, "_CHUNK", 4)
        return 4

    @pytest.mark.parametrize("inequality", sorted(SPECS))
    def test_reports_equal_per_trial_loop(self, small_chunk, inequality):
        for cfg in GRID_CONFIGS:
            for trials in (small_chunk - 1, small_chunk, small_chunk + 1):
                got = fuzz_outcome(inequality, cfg, trials, keep_instances=True)
                assert got == oracle_report(inequality, cfg, trials, keep_instances=True), \
                    (cfg.seed, trials)

    @pytest.mark.parametrize("inequality", GRID_IDS)
    def test_explicit_p_equals_per_trial_loop(self, small_chunk, inequality):
        split = SPECS[inequality].split
        for p in (split.default, split.grid[-1]):
            got = fuzz_outcome(inequality, GRID_CONFIGS[0], small_chunk + 1, p=p,
                               keep_instances=True)
            assert got == oracle_report(inequality, GRID_CONFIGS[0], small_chunk + 1, p=p,
                                        keep_instances=True)

    @pytest.mark.parametrize("inequality", ["main-thm", "inv-square-sum", "lemma31"])
    def test_chunk_edges_at_the_real_chunk(self, inequality):
        chunk = fuzzing_mod._CHUNK
        cfg = GRID_CONFIGS[0]
        for trials in (chunk - 1, chunk, chunk + 1):
            assert fuzz_outcome(inequality, cfg, trials) == oracle_report(inequality, cfg, trials)

    def test_error_config_keeps_the_first_error(self, small_chunk):
        cfg = GRID_CONFIGS[4]
        got = fuzz_outcome("thm32", cfg, 3)
        assert got == ("NonFinite", f"trial 0 (seed {derive_seed(5, 0)}): order check on a "
                                    "non-finite (NaN or infinite) entry")
        assert got == oracle_report("thm32", cfg, 3)

    def test_error_in_a_later_chunk(self, small_chunk, monkeypatch):
        # seeding any range that holds trial 6 fails: trials 0..5 succeed,
        # and first_error's rerun of trial 6 alone names it
        rngs_of = fuzzing_mod.trial_rngs

        def failing(cfg, trials):
            if 6 in trials:
                raise ResampleExhausted("no draw")
            return rngs_of(cfg, trials)

        monkeypatch.setattr(fuzzing_mod, "trial_rngs", failing)
        cfg = GRID_CONFIGS[0]
        with pytest.raises(ResampleExhausted) as info:
            fuzz("matic", cfg, 9)
        assert str(info.value) == f"trial 6 (seed {derive_seed(cfg.seed, 6)}): no draw"


class TestTrialRngs:
    """trial_rngs seeds a range in one pass; every substream equals numpy's
    own SeedSequence path (oracles.trial_rng) bit for bit."""

    @staticmethod
    def draws(rng: np.random.Generator) -> list[bytes]:
        """A few draws of each kind the fuzzer makes, as bytes."""
        out = [np.empty(3), np.empty((2, 2))]
        rng.random(out=out[0])
        rng.standard_normal(out=out[1])
        return [a.tobytes() for a in (
            *out, rng.standard_normal((3, 3)), np.float64(rng.uniform(-2.0, 2.0)),
            np.int64(rng.integers(1, 9)), rng.choice(8, size=5, replace=False))]

    @pytest.mark.parametrize("seed", [0, 1, -1, 2**63 - 1])
    @pytest.mark.parametrize("count", [1, 9, 10, 64, 65, 200])
    @pytest.mark.parametrize("start", [0, 7, 2**40])
    def test_equal_numpy_seeding(self, seed, count, start):
        # GenConfig takes a seed in [0, 2**64): -1 stands for 2**64 - 1, the
        # seed that derive_seed's mask made of it
        cfg = GenConfig(n=2, seed=seed % 2**64)
        trials = range(start, start + count)
        got = trial_rngs(cfg, trials)
        assert len(got) == count
        for trial, rng in zip(trials, got):
            want = trial_rng(cfg, trial)
            assert rng.bit_generator.state == want.bit_generator.state, trial
            assert self.draws(rng) == self.draws(want), trial

    def test_empty_range(self):
        assert trial_rngs(GenConfig(n=2), range(0)) == []

    @pytest.mark.parametrize("trials", [range(-1, 1), range(2**64 - 1, 2**64 + 1), range(5, -2, -3)])
    def test_trial_outside_64_bits(self, trials):
        with pytest.raises(BadConfig, match=r"^trial must be in \[0, 2\*\*64\)"):
            trial_rngs(GenConfig(n=2), trials)

    @staticmethod
    def assert_states_equal_numpy(seeds: list[int]) -> None:
        got = fuzzing_mod._seed_states(seeds)
        assert got.shape == (len(seeds), 4) and got.flags.c_contiguous
        for seed, row in zip(seeds, got):
            want = np.random.SeedSequence(seed).generate_state(4, np.uint64)
            assert row.tobytes() == want.tobytes(), seed

    def test_lane_hash_at_word_boundaries(self):
        # numpy hashes a seed below 2^32 as one entropy word, the lanes as two
        seeds = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
        self.assert_states_equal_numpy(seeds)
        for seed in seeds:
            self.assert_states_equal_numpy([seed])

    @settings(max_examples=100, deadline=None)
    @given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=12))
    def test_lane_hash_equals_numpy(self, seeds):
        self.assert_states_equal_numpy(seeds)


def matrix_bytes(value) -> list[bytes]:
    """The bytes of each matrix of an Instance field (a matrix or a tuple)."""
    return [a.tobytes() for a in (value if isinstance(value, tuple) else (value,))]


class TestStackedDraws:
    """draw_trials draws per trial and forms per stack; every matrix equals
    the per-matrix oracle's bit for bit, and gen_pd's."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 16, 32])
    @pytest.mark.parametrize("count", [1, 2, 10, 64])
    def test_stacked_formation_equals_per_matrix(self, n, count):
        cfg = GenConfig(n=n, entry_scale=0.5, seed=n)
        (stack,), _ = draw_trials(cfg, range(count), [(n, cfg.kappa_max, 0.0)])
        assert stack.shape == (count, n, n)
        for trial in range(count):
            want = draw_pd_per_matrix(trial_rng(cfg, trial), n, GenStyle.SPECTRAL,
                                      cfg.kappa_max, cfg.entry_scale)
            assert stack[trial].tobytes() == want.tobytes(), (n, count, trial)
            assert gen_pd(cfg, trial).tobytes() == want.tobytes(), (n, count, trial)

    @pytest.mark.parametrize("style", list(GenStyle))
    def test_sample_pd_equals_per_matrix(self, style):
        # gen_pd, the one-matrix draw
        for n in (1, 2, 5):
            for seed in range(5):
                cfg = GenConfig(n=n, style=style, kappa_max=1e4, entry_scale=2.0, seed=seed)
                want = draw_pd_per_matrix(trial_rng(cfg, 0), n, style, 1e4, 2.0)
                assert gen_pd(cfg, 0).tobytes() == want.tobytes()

    @pytest.mark.parametrize("inequality", sorted(SPECS))
    def test_build_instances_equal_per_trial(self, inequality):
        split = SPECS[inequality].split
        p = split.default if split else None
        for cfg in GRID_CONFIGS:
            got = fuzzing_mod.build_instances(inequality, cfg, range(12), p=p)
            for trial, inst in zip(range(12), got):
                want = build_instance_per_trial(inequality, cfg, trial, p=p)
                for field in ("c", "d", "mats"):
                    mine, theirs = getattr(inst, field), getattr(want, field)
                    assert (mine is None) == (theirs is None)
                    if mine is not None:
                        assert matrix_bytes(mine) == matrix_bytes(theirs), (cfg.seed, trial, field)
                assert (inst.partition, inst.idx, inst.p) == (want.partition, want.idx, want.p)


def form_with_sign_pass(lam: np.ndarray, g: np.ndarray, entry_scale: float) -> np.ndarray:
    """The SPECTRAL formation with a column-sign pass: Q from the QR of a
    copy of g, each column times the sign of R's diagonal entry (so that R's
    diagonal is positive), then symmetrize(Q diag(lam) Q^T * entry_scale)."""
    q, r = np.linalg.qr(g.copy())
    q = q * np.sign(r.diagonal(axis1=-2, axis2=-1))[..., None, :]
    a = (q * lam[..., None, :]) @ q.swapaxes(-1, -2) * entry_scale
    return (a + a.swapaxes(-1, -2)) / 2.0


class TestFormSpectral:
    """_form_spectral runs its QR in place and skips the column-sign pass: a
    sign s_k = +-1 enters each term of Q diag(lam) Q^T as s_k^2, and IEEE
    negation is exact and rounding symmetric in sign, so the pass changes
    no bit. The golden digests rest on this too; here it is pinned by
    name."""

    @pytest.mark.parametrize("entry_scale", [1.0, 3.0, 1e-110])
    @pytest.mark.parametrize("spectrum", ["log-uniform", "ones"])
    @pytest.mark.parametrize("count", [1, 20])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_equal_with_sign_pass(self, n, count, spectrum, entry_scale):
        rng = np.random.default_rng(100 * n + count)
        lam = np.ones((count, n)) if spectrum == "ones" else \
            np.exp(rng.random((count, n)) * np.log(1e6))
        g = rng.standard_normal((count, n, n))
        want = form_with_sign_pass(lam, g, entry_scale)
        signs = np.sign(np.linalg.qr(g)[1].diagonal(axis1=-2, axis2=-1))
        got = fuzzing_mod._form_spectral(lam, g.copy(), entry_scale)
        assert got.tobytes() == want.tobytes()
        if count == 20:
            assert (signs < 0).any()  # the pass would flip some column


class TestBiasedScale:
    """draw_trials draws a biased role's scale exponent as
    -bias + 2.0 * bias * rng.random(), which is numpy's rng.uniform(-bias,
    bias) bit for bit (uniform(lo, hi) is lo + (hi - lo) * next_double).
    The golden digests of every biased id rest on this identity, so a numpy
    whose uniform draws otherwise fails here by name."""

    @pytest.mark.parametrize("bias", sorted({spec.caps[2] for spec in SPECS.values()} - {0.0}))
    def test_equal_numpy_uniform(self, bias):
        ours, numpys = np.random.default_rng(31), np.random.default_rng(31)
        got = [(-bias + 2.0 * bias * ours.random()).hex() for _ in range(10_000)]
        want = [numpys.uniform(-bias, bias).hex() for _ in range(10_000)]
        assert got == want


def gram_attempts(rng, size: int, kappa: float, entry_scale: float) -> int | None:
    """How many attempts the per-matrix GRAM loop (draw_pd_per_matrix)
    makes on rng, or None when it runs out of them."""
    for attempt in range(1, 101):
        g = rng.standard_normal((size, size)) * entry_scale
        a = g @ g.T + 1e-3 * size * np.eye(size)
        w = np.linalg.eigvalsh((a + a.T) / 2.0)
        if w[-1] <= kappa * w[0]:
            return attempt
    return None


class TestGramRounds:
    """draw_trials resamples GRAM matrices in rounds: each role's pending
    trials draw one attempt a round from their own generators, and a round
    goes through one eigensolver call. The draws equal the one-trial draws
    and the per-matrix loop bit for bit, and a failing range raises the
    error of its first failing trial."""

    @staticmethod
    def abs_power(kappa: float, n: int = 4, part=(2, 2), seed: int = 7):
        cfg = GenConfig(n=n, partition=Partition(part), style=GenStyle.GRAM,
                        kappa_max=kappa, seed=seed)
        return cfg, fuzzing_mod._roles(SPECS["abs-power"], cfg)

    @pytest.mark.parametrize("kappa", [1e2, 1e3])
    def test_one_eigensolver_call_per_round_per_role(self, monkeypatch, kappa):
        cfg, roles = self.abs_power(kappa)
        trials = range(1, 41)
        rounds = []
        eigvalsh = fuzzing_mod._eigvalsh

        def counting(a):
            rounds.append(len(a))
            return eigvalsh(a)

        monkeypatch.setattr(fuzzing_mod, "_eigvalsh", counting)
        draw_trials(cfg, trials, roles)
        # per trial and role, the attempts of the per-matrix loop
        attempts = []
        for trial in trials:
            rng = trial_rng(cfg, trial)
            per_role = []
            for size, cap, bias in roles:
                per_role.append(gram_attempts(rng, size, cap, cfg.entry_scale))
                if bias:
                    rng.uniform(-bias, bias)
            attempts.append(per_role)
        want = []
        for j in range(len(roles)):
            need = [per_role[j] for per_role in attempts]
            want += [sum(k >= r for k in need) for r in range(1, max(need) + 1)]
        assert rounds == want
        assert max(map(max, attempts)) > 1  # the draws resample

    @pytest.mark.parametrize("kappa", [1e2, 1e3])
    def test_range_equals_one_trial_draws(self, kappa):
        # abs-power's caps: C at min(kappa, 1e3), D blocks at 1e2 with a bias
        cfg, roles = self.abs_power(kappa)
        trials = range(1, 41)
        mats, _ = draw_trials(cfg, trials, roles)
        for t, trial in enumerate(trials):
            one, _ = draw_trials(cfg, range(trial, trial + 1), roles)
            assert [m[t].tobytes() for m in mats] == [m[0].tobytes() for m in one]
            want = build_instance_per_trial("abs-power", cfg, trial)
            blocks = [want.d[lo:hi, lo:hi] for lo, hi in cfg.part().offsets()]
            assert [m[t].tobytes() for m in mats] == \
                [a.tobytes() for a in (want.c, *blocks)], trial

    def test_rounds_do_not_revalidate(self, monkeypatch):
        # symmetrize makes every attempt exactly symmetric, and
        # validate_instance checks the accepted draws: the rounds run no
        # require_symmetric, however it is bound
        cfg, roles = self.abs_power(1e2)
        checks, rounds = [], []
        within, eigvalsh = linalg_mod._within_least_slack, fuzzing_mod._eigvalsh

        def counting_check(m):
            checks.append(m.shape)
            return within(m)

        def counting_eigvalsh(a):
            rounds.append(len(a))
            return eigvalsh(a)

        monkeypatch.setattr(linalg_mod, "_within_least_slack", counting_check)
        monkeypatch.setattr(fuzzing_mod, "_eigvalsh", counting_eigvalsh)
        draw_trials(cfg, range(1, 41), roles)
        assert len(rounds) > len(roles)  # the draws resample
        assert checks == []

    def test_first_failing_trial_raises_its_error(self):
        # n = 40, abs-power: trial 5 meets the C cap (1e3) and then runs out
        # of resamples at a D block (cap 1e2); trial 6 runs out of them at C,
        # an earlier role, which the rounds reach first
        cfg, _ = self.abs_power(1e3, n=40, part=(16, 24), seed=1)
        with pytest.raises(ResampleExhausted, match="^no draw met kappa_max=100 in 100"):
            build_instance("abs-power", cfg, 5)
        with pytest.raises(ResampleExhausted, match="^no draw met kappa_max=1000 in 100"):
            build_instance("abs-power", cfg, 6)
        for trials in (range(5, 7), range(4, 7)):
            with pytest.raises(ResampleExhausted, match="^no draw met kappa_max=100 in 100"):
                fuzzing_mod.build_instances("abs-power", cfg, trials)
        with pytest.raises(ResampleExhausted, match="^no draw met kappa_max=1000 in 100"):
            fuzzing_mod.build_instances("abs-power", cfg, range(6, 8))


class TestBuildOnlyKept:
    """fuzz counts holds and violations on the verdict arrays and builds a
    verdict, so hashes a fingerprint, only for a record its report keeps."""

    CFG = GenConfig(n=4, partition=Partition((2, 2)), seed=1)

    @pytest.fixture
    def hashed(self, monkeypatch):
        calls = []
        fingerprint = catalog_mod._fingerprint

        def counting(*args):
            calls.append(args)
            return fingerprint(*args)

        monkeypatch.setattr(catalog_mod, "_fingerprint", counting)
        return calls

    def test_campaign_that_holds_hashes_nothing(self, hashed):
        report = fuzz("main-thm", self.CFG, 64)
        assert (report.holds, report.records) == (64, ())
        assert len(hashed) == 0

    def test_kept_instances_hash_once_each(self, hashed):
        report = fuzz("main-thm", self.CFG, 64, keep_instances=True)
        assert len(report.records) == 64
        assert len(hashed) == 64

    def test_grid_hashes_the_kept_exponent_only(self, hashed):
        # a det-power trial sweeps five exponents and holds at each; every
        # neg-power trial is a violation, kept at its worst exponent only
        assert fuzz("det-power", self.CFG, 20).violations == 0
        assert len(hashed) == 0
        report = fuzz("neg-power", self.CFG, 20)
        assert report.violations == len(report.records) == 20
        assert len(hashed) == 20


REF_IDS = sorted(i for i, spec in SPECS.items() if spec.reference is not None)


def report_bytes(*args, **kwargs) -> str:
    return json.dumps(strip_wall_time(fuzz(*args, **kwargs).to_json()))


class TestReferenceMemo:
    """fuzz checks an id's injected counterexample once per (Spec, exponent
    grid, tol) in a process and reuses its stack and Verdicts; every report
    keeps its bytes."""

    CFG = GenConfig(n=4, partition=Partition((2, 2)), seed=3)
    OTHER = GenConfig(n=2, partition=Partition((1, 1)), seed=11, kappa_max=1e3)

    @pytest.fixture
    def reference_checks(self, monkeypatch):
        """The references fuzz checks, as (id, exponents, tol), counted
        through fuzzing.check_validated."""
        calls = []
        check = fuzzing_mod.check_validated

        def counting(inequality, inst, ps, tol=DEFAULT_TOL):
            if np.array_equal(inst.c[0], SPECS[inequality].reference[1]):
                calls.append((inequality, tuple(ps), tol))
            return check(inequality, inst, ps, tol)

        monkeypatch.setattr(fuzzing_mod, "check_validated", counting)
        return calls

    def test_seven_ids_inject_a_reference(self):
        assert len(REF_IDS) == 7

    @pytest.mark.parametrize("inequality", REF_IDS)
    def test_warm_report_equals_cold(self, inequality):
        split = SPECS[inequality].split
        runs = [{}, {"keep_instances": True}] + ([{"p": split.default}] if split else [])
        for kwargs in runs:
            fuzzing_mod._reference_memo.cache_clear()
            cold = report_bytes(inequality, self.CFG, 5, **kwargs)
            # another config warms the memo: the reference does not depend on it
            fuzzing_mod._reference_memo.cache_clear()
            fuzz(inequality, self.OTHER, 2, **kwargs)
            hits = fuzzing_mod._reference_memo.cache_info().hits
            assert report_bytes(inequality, self.CFG, 5, **kwargs) == cold, kwargs
            assert fuzzing_mod._reference_memo.cache_info().hits == hits + 1

    @pytest.mark.parametrize("first, second", [({"tol": 0.0}, {"tol": -0.0}),
                                               ({"p": 2.0}, {"p": 2})])
    def test_equal_values_that_report_other_bytes_are_other_keys(self, first, second):
        cold_first = report_bytes("abs-power", self.CFG, 3, **first)
        fuzzing_mod._reference_memo.cache_clear()
        cold_second = report_bytes("abs-power", self.CFG, 3, **second)
        assert cold_first != cold_second
        fuzzing_mod._reference_memo.cache_clear()
        assert report_bytes("abs-power", self.CFG, 3, **first) == cold_first
        assert report_bytes("abs-power", self.CFG, 3, **second) == cold_second

    def test_reference_checked_once_per_key(self, reference_checks):
        for cfg in (self.CFG, self.OTHER, self.CFG):
            fuzz("abs-power", cfg, 3)
        grid = SPECS["abs-power"].split.grid
        assert reference_checks == [("abs-power", grid, DEFAULT_TOL)]
        for _ in range(2):
            fuzz("abs-power", self.CFG, 3, tol=0.0)
            fuzz("abs-power", self.CFG, 3, p=2.0)
            fuzz("inv-square-sum", self.CFG, 3)
        assert reference_checks[1:] == [("abs-power", grid, 0.0),
                                        ("abs-power", (2.0,), DEFAULT_TOL),
                                        ("inv-square-sum", (None,), DEFAULT_TOL)]

    def test_a_campaign_without_trial_0_checks_no_reference(self, reference_checks):
        assert len(fuzzing_mod.build_instances("sv-weak-log", self.CFG, range(1, 4))) == 3
        fuzzing_mod._run_trials("sv-weak-log", SPECS["sv-weak-log"], self.CFG, range(1, 4),
                                (None,), DEFAULT_TOL)
        assert reference_checks == []

    def test_swapped_spec_is_another_key(self, monkeypatch, reference_checks):
        cold = report_bytes("sv-weak-log", self.CFG, 3)
        fuzz("sv-weak-log", self.CFG, 3)
        assert len(reference_checks) == 1
        monkeypatch.setitem(catalog_mod.SPECS, "sv-weak-log",
                            dataclasses.replace(SPECS["sv-weak-log"]))
        assert report_bytes("sv-weak-log", self.CFG, 3) == cold
        assert report_bytes("sv-weak-log", self.CFG, 3) == cold
        assert len(reference_checks) == 2

    def test_the_memo_is_bounded(self):
        for k in range(fuzzing_mod._REFERENCE_SLOTS + 8):
            fuzz("neg-power", self.CFG, 1, tol=k * 1e-12)
        info = fuzzing_mod._reference_memo.cache_info()
        assert info.maxsize == info.currsize == fuzzing_mod._REFERENCE_SLOTS

    def test_an_error_is_not_kept(self, monkeypatch, reference_checks):
        check = fuzzing_mod.check_validated

        def failing(inequality, inst, ps, tol=DEFAULT_TOL):
            raise NonFinite("injected failure")

        monkeypatch.setattr(fuzzing_mod, "check_validated", failing)
        with pytest.raises(NonFinite, match=r"^trial 0 .*injected failure"):
            fuzz("matic-general-d", self.CFG, 2)
        monkeypatch.setattr(fuzzing_mod, "check_validated", check)
        assert fuzz("matic-general-d", self.CFG, 2).records[0].trial == 0
        assert fuzzing_mod._reference_memo.cache_info().currsize == 1

    def test_records_are_not_shared_between_reports(self):
        cold = report_bytes("weak-log-general-d", self.CFG, 2)
        first = fuzz("weak-log-general-d", self.CFG, 2).records[0]
        first.instance["c"][0][0] = -1.0
        first.verdict.detail["log_lhs"] = 0.0
        assert report_bytes("weak-log-general-d", self.CFG, 2) == cold

    @pytest.mark.parametrize("inequality", REF_IDS)
    def test_cached_reference_is_read_only(self, inequality):
        fuzz(inequality, self.CFG, 1)
        split = SPECS[inequality].split
        hits = fuzzing_mod._reference_memo.cache_info().hits
        inst, _ = fuzzing_mod._checked_reference(
            inequality, SPECS[inequality], split.grid if split else (None,), DEFAULT_TOL)
        assert fuzzing_mod._reference_memo.cache_info().hits == hits + 1
        for a in (inst.c, inst.d):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 0.0
        # build_instance's trial 0 is a copy of its own, as before
        drawn = build_instance(inequality, self.CFG, 0, p=split.default if split else None)
        drawn.c[0, 0] = 0.0
        assert drawn.c[0, 0] != SPECS[inequality].reference[1][0, 0]

    @pytest.mark.parametrize("name", ["WLOG_C", "WLOG_D", "MATIC_GEN_C", "MATIC_GEN_D",
                                      "NEG_POWER_C", "NEG_POWER_D", "INV_SQ_C", "INV_SQ_D"])
    def test_refdata_matrices_are_read_only(self, name):
        with pytest.raises(ValueError, match="read-only"):
            getattr(refdata, name)[0, 0] = 0.0
