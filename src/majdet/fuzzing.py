"""Seeded random instance generation and batch fuzzing.

Every trial draws from its own substream: the trial seed is a splitmix-style
mix of (master seed, trial index), so reports are deterministic regardless of
execution order and removing one trial never perturbs another. What a
trial draws follows the id's catalog Spec: its input shape, its generator
caps, and, for the false-inequality ids, the known reference counterexample
injected as trial 0, so the recorded violation never depends on random
search luck; random block scales are additionally biased apart for those
ids, the regime the violations live in. Without an explicit p, a trial of a
parametrized id sweeps the Spec's exponent grid on one draw. No shrinking is
performed: violating instances are stored verbatim and can be replayed in
isolation.

fuzz takes the trials a chunk at a time: it draws per trial, forms per
stack, and validates the stack once. Each trial makes its generator calls
from its own substream; the chunk's SPECTRAL matrices are then formed with
one stacked qr and one stacked product per matrix size. The trials whose
instances stack (catalog.stack_key) are validated as one stack and go
through the id's checker as one stack, one call per kernel. Draws, verdicts
and reports equal drawing and checking the trials one by one, bit for bit.
build_instance and run_trial are the same code on a one-trial range.
"""

from __future__ import annotations

import enum
import math
import numbers
import time
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .blocks import Partition, direct_sum, validate_partition
from .catalog import (
    InequalityVerdict,
    Instance,
    Shape,
    Spec,
    check_validated,
    exponent_spec,
    run_check,
    spec_of,
    stack_instances,
    stack_key,
    validate_instance,
)
from .errors import BadConfig, MajdetError, ResampleExhausted
from .linalg import eigvals_sym, symmetrize
from .orders import DEFAULT_TOL

_MASK64 = (1 << 64) - 1


class GenStyle(enum.Enum):
    SPECTRAL = "spectral"
    GRAM = "gram"


@dataclass(frozen=True)
class GenConfig:
    """Instance-generator configuration; (seed, trial) fully determines a draw."""

    n: int
    partition: Partition | None = None
    m: int = 2
    style: GenStyle = GenStyle.SPECTRAL
    kappa_max: float = 1e6
    entry_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name, kind in (("n", int), ("m", int), ("seed", int),
                           ("kappa_max", numbers.Real), ("entry_scale", numbers.Real)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                what = "an int" if kind is int else "a real number"
                raise BadConfig(f"{name} must be {what}, got {value!r}")
        if not isinstance(self.style, GenStyle):
            raise BadConfig(f"style must be a GenStyle, got {self.style!r}")
        if self.partition is not None and not isinstance(self.partition, Partition):
            raise BadConfig(f"partition must be a Partition or None, got {self.partition!r}")
        if self.n < 1:
            raise BadConfig(f"dimension must be >= 1, got {self.n}")
        if not (math.isfinite(self.kappa_max) and self.kappa_max >= 1.0):
            raise BadConfig(f"condition cap must be finite and >= 1, got {self.kappa_max}")
        if not (math.isfinite(self.entry_scale) and self.entry_scale > 0.0):
            raise BadConfig(f"entry scale must be finite and > 0, got {self.entry_scale}")
        if self.m < 1:
            raise BadConfig(f"matrix count must be >= 1, got {self.m}")
        if self.partition is not None:
            validate_partition(self.partition.sizes, self.n)

    def part(self) -> Partition:
        return self.partition if self.partition is not None else Partition((self.n,))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "partition": list(self.part().sizes),
            "m": self.m,
            "style": self.style.value,
            "kappa_max": self.kappa_max,
            "entry_scale": self.entry_scale,
            "seed": self.seed,
        }


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(master: int, trial: int) -> int:
    """Per-trial substream seed: a pure function of (master seed, trial index)."""
    return _splitmix64((master & _MASK64) ^ _splitmix64(trial & _MASK64))


def trial_rng(cfg: GenConfig, trial: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, trial)))


def _spectral_parts(rng: np.random.Generator, n: int,
                    kappa_max: float) -> tuple[np.ndarray, np.ndarray]:
    """The random parts of one SPECTRAL matrix, in stream order: its
    log-uniform spectrum in [1, kappa_max], then the Gaussian block whose
    orthogonal factor conjugates it."""
    lam = np.exp(rng.uniform(0.0, np.log(kappa_max), size=n)) if kappa_max > 1.0 \
        else np.ones(n)
    return lam, rng.standard_normal((n, n))


def _form_spectral(lam: np.ndarray, g: np.ndarray, entry_scale: float) -> np.ndarray:
    """Q diag(lam) Q^T * entry_scale, with Q the orthogonal factor of g whose
    R has a positive diagonal. Takes the parts of one matrix, or stacks of
    them ((..., n) spectra, (..., n, n) blocks): one qr and one product for
    the whole stack, equal bit for bit to forming each matrix on its own."""
    q, r = np.linalg.qr(g)
    q = q * np.sign(r.diagonal(axis1=-2, axis2=-1))[..., None, :]
    return symmetrize((q * lam[..., None, :]) @ q.swapaxes(-1, -2) * entry_scale)


def sample_pd(rng: np.random.Generator, n: int, style: GenStyle = GenStyle.SPECTRAL,
              kappa_max: float = 1e6, entry_scale: float = 1.0) -> np.ndarray:
    """One random symmetric PD matrix with condition number <= kappa_max.

    SPECTRAL: orthogonal conjugation of log-uniform eigenvalues in
    [1, kappa_max], times entry_scale. GRAM: G G^T + 1e-3*n*I with Gaussian
    G, resampled (up to 100 times) until the condition cap holds.
    """
    if style is GenStyle.SPECTRAL:
        return _form_spectral(*_spectral_parts(rng, n, kappa_max), entry_scale)
    for _ in range(100):
        g = rng.standard_normal((n, n)) * entry_scale
        a = g @ g.T + 1e-3 * n * np.eye(n)
        a = (a + a.T) / 2.0
        w = eigvals_sym(a)
        if w[0] <= kappa_max * w[-1]:
            return a
    raise ResampleExhausted(f"no draw met kappa_max={kappa_max:g} in 100 attempts")


def gen_pd(cfg: GenConfig, trial: int) -> np.ndarray:
    """The PD matrix for (cfg, trial); bit-identical across calls."""
    rng = trial_rng(cfg, trial)
    return sample_pd(rng, cfg.n, cfg.style, cfg.kappa_max, cfg.entry_scale)


# A drawn matrix before forming: the matrix itself (GRAM, or a reference), or
# the place of its parts among the chunk's SPECTRAL parts, (size, index).
_Slot = np.ndarray | tuple[int, int]


def _draw_trial(spec: Spec, cfg: GenConfig, trial: int, p: float | None,
                draw: Callable[..., _Slot]) -> Callable[[Callable[[_Slot], np.ndarray]], Instance]:
    """Make one trial's generator calls, each matrix through draw, and
    return what builds its Instance once the drawn matrices are formed (or
    the injected counterexample)."""
    if trial == 0 and spec.reference is not None:
        ref_part, ref_c, ref_d = spec.reference
        ref = Instance(partition=ref_part, c=ref_c.copy(), d=ref_d.copy(), p=p)
        return lambda formed: ref
    rng = trial_rng(cfg, trial)
    n = cfg.n
    part = cfg.part()

    if spec.shape is Shape.MATS:
        mats = [draw(rng, n) for _ in range(cfg.m)]
        return lambda formed: Instance(partition=part, mats=tuple(map(formed, mats)), p=p)
    if spec.shape is Shape.C_IDX:
        a = draw(rng, n)
        size = int(rng.integers(1, n + 1))
        idx = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        return lambda formed: Instance(c=formed(a), idx=idx)
    if spec.shape is Shape.C:
        c = draw(rng, n)
        return lambda formed: Instance(partition=part, c=formed(c))

    # a general D is drawn as one block; a general-D id has no caps or bias
    c_cap, d_cap, bias = spec.caps
    c = draw(rng, n, c_cap)
    blocks = []
    for size in part.sizes if spec.shape is Shape.BLOCK_D else (n,):
        blk = draw(rng, size, d_cap)
        # hunt in the regime of strongly unequal block scales
        blocks.append((blk, 10.0 ** rng.uniform(-bias, bias) if bias else None))
    return lambda formed: Instance(
        partition=part, c=formed(c),
        d=direct_sum([formed(b) if scale is None else formed(b) * scale for b, scale in blocks]),
        p=p)


def build_instances(inequality: str, cfg: GenConfig, trials: range,
                    p: float | None = None) -> list[Instance]:
    """Draw the instances of a range of trials, in order (trial 0 of a false
    id is its injected counterexample).

    Each trial makes its generator calls from its own substream, in the
    order sample_pd makes them, so every draw is a pure function of (cfg,
    trial). The SPECTRAL matrices are then formed per stack: one
    _form_spectral per matrix size over all the trials, with the block-scale
    bias applied after. GRAM matrices are formed where they are drawn: their
    resample loop reads eigenvalues and so decides the later draws.
    """
    spec = spec_of(inequality)
    parts: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}

    def draw(rng: np.random.Generator, size: int, cap: float | None = None) -> _Slot:
        kappa = cfg.kappa_max if cap is None else min(cfg.kappa_max, cap)
        if cfg.style is not GenStyle.SPECTRAL:
            return sample_pd(rng, size, cfg.style, kappa, cfg.entry_scale)
        drawn = parts.setdefault(size, [])
        drawn.append(_spectral_parts(rng, size, kappa))
        return size, len(drawn) - 1

    builders = [_draw_trial(spec, cfg, trial, p, draw) for trial in trials]
    stacks = {size: _form_spectral(np.stack([lam for lam, _ in drawn]),
                                   np.stack([g for _, g in drawn]), cfg.entry_scale)
              for size, drawn in parts.items()}

    def formed(slot: _Slot) -> np.ndarray:
        return stacks[slot[0]][slot[1]] if isinstance(slot, tuple) else slot

    return [build(formed) for build in builders]


def build_instance(inequality: str, cfg: GenConfig, trial: int,
                   p: float | None = None) -> Instance:
    """Draw the instance for one trial: build_instances on a one-trial range."""
    return build_instances(inequality, cfg, range(trial, trial + 1), p)[0]


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    seed: int
    verdict: InequalityVerdict
    instance: dict | None = None

    def to_json(self) -> dict:
        return {
            "trial": self.trial,
            "seed": self.seed,
            "verdict": self.verdict.to_json(),
            "instance": self.instance,
        }


@dataclass(frozen=True)
class FuzzReport:
    inequality: str
    trials: int
    holds: int
    violations: int
    worst_margin: float
    config: GenConfig
    records: tuple[TrialRecord, ...]
    wall_time: float

    def to_json(self) -> dict:
        return {
            "inequality": self.inequality,
            "trials": self.trials,
            "holds": self.holds,
            "violations": self.violations,
            "worst_margin": self.worst_margin,
            "config": self.config.to_json(),
            "violating": [r.to_json() for r in self.records],
            "wall_time": self.wall_time,
        }


# Trials per chunk: fuzz draws and checks at most this many trials at once,
# so memory does not grow with the trial count.
_CHUNK = 64


def _run_trials(inequality: str, cfg: GenConfig, trials: range, p: float | None,
                tol: float) -> list[tuple[InequalityVerdict, Instance]]:
    """Evaluate a range of trials, in order.

    The trials are drawn by build_instances. Trials whose instances stack
    (catalog.stack_key: shapes, partition, idx, m, p) are validated and
    checked together, one call per kernel. For parametrized ids without an
    explicit p, each draw is checked at every exponent of the Spec's grid
    (the p-independent work once, then one cheap step per p); the first
    verdict of minimum margin is kept and returned with the instance
    carrying that verdict's p.
    """
    spec = exponent_spec(inequality, p)
    ps = (p,) if p is not None or spec.split is None else spec.split.grid
    drawn = build_instances(inequality, cfg, trials, p=ps[0])
    if spec.split is not None:
        spec.split.require(ps)
    groups: dict[tuple, list[int]] = {}
    for k, inst in enumerate(drawn):
        groups.setdefault(stack_key(inst), []).append(k)
    results: list = [None] * len(drawn)
    for members in groups.values():
        stack = validate_instance(spec.shape, stack_instances([drawn[k] for k in members]),
                                  lead=1)
        for k, verdicts in zip(members, check_validated(inequality, stack, ps, tol)):
            worst = min(range(len(ps)), key=lambda i: verdicts[i].margin)
            inst = replace(drawn[k], p=ps[worst]) if worst else drawn[k]
            results[k] = (verdicts[worst], inst)
    return results


def run_trial(inequality: str, cfg: GenConfig, trial: int, p: float | None = None,
              tol: float = DEFAULT_TOL) -> tuple[InequalityVerdict, Instance]:
    """Evaluate one trial: _run_trials on a one-trial range."""
    return _run_trials(inequality, cfg, range(trial, trial + 1), p, tol)[0]


def _named_trial(inequality: str, cfg: GenConfig, trial: int, p: float | None,
                 tol: float) -> tuple[InequalityVerdict, Instance]:
    """run_trial, with the trial index and seed in front of any error."""
    try:
        return run_trial(inequality, cfg, trial, p=p, tol=tol)
    except MajdetError as err:
        raise type(err)(
            f"trial {trial} (seed {derive_seed(cfg.seed, trial)}): {err}") from err


def fuzz(inequality: str, cfg: GenConfig, trials: int, p: float | None = None,
         tol: float = DEFAULT_TOL, keep_instances: bool = False) -> FuzzReport:
    """Run seeded trials of one inequality and fold the records into a report.

    The report content is a pure function of (inequality, cfg, trials, p,
    tol) apart from the wall_time field. Instances are serialized only for
    violations unless keep_instances is set. A p for an id without an
    exponent raises BadExponent. Trials are evaluated a chunk at a time;
    a chunk that raises is evaluated again one trial at a time, so the
    error raised is that of the first failing trial, named with its index
    and seed.
    """
    spec = exponent_spec(inequality, p)
    if isinstance(trials, bool) or not isinstance(trials, int):
        raise BadConfig(f"trials must be an int, got {trials!r}")
    if trials < 1:
        raise BadConfig(f"trials must be >= 1, got {trials}")
    t0 = time.perf_counter()
    holds = 0
    violations = 0
    worst_margin = float("inf")
    kept: list[TrialRecord] = []
    for start in range(0, trials, _CHUNK):
        chunk = range(start, min(start + _CHUNK, trials))
        try:
            results = _run_trials(inequality, cfg, chunk, p, tol)
        except MajdetError:
            results = [_named_trial(inequality, cfg, trial, p, tol) for trial in chunk]
        for trial, (verdict, inst) in zip(chunk, results):
            worst_margin = min(worst_margin, verdict.margin)
            if verdict.holds:
                holds += 1
            else:
                violations += 1
            if not verdict.holds or keep_instances:
                kept.append(TrialRecord(
                    trial=trial,
                    seed=derive_seed(cfg.seed, trial),
                    verdict=verdict,
                    instance=inst.to_json(spec.shape),
                ))
    return FuzzReport(
        inequality=inequality,
        trials=trials,
        holds=holds,
        violations=violations,
        worst_margin=worst_margin,
        config=cfg,
        records=tuple(kept),
        wall_time=time.perf_counter() - t0,
    )


def replay(inequality: str, record: TrialRecord | dict,
           tol: float = DEFAULT_TOL) -> InequalityVerdict:
    """Re-run a stored trial record's instance through the catalog in isolation."""
    payload = record.instance if isinstance(record, TrialRecord) else record["instance"]
    return run_check(inequality, Instance.from_json(payload), tol)
