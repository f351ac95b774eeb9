"""Seeded random instance generation and batch fuzzing.

Every trial draws from its own substream: the trial seed is a splitmix-style
mix of (master seed, trial index), so reports are deterministic regardless of
execution order and removing one trial never perturbs another. A range's
substreams are seeded in one pass (trial_rngs): numpy's SeedSequence hash
runs on all of the range's trial seeds at once, and each substream equals
Generator(PCG64(seed)) bit for bit. What a
trial draws follows the id's catalog Spec: its input shape, its generator
caps, and, for the false-inequality ids, the known reference counterexample
injected as trial 0, so the recorded violation never depends on random
search luck; random block scales are additionally biased apart for those
ids, the regime the violations live in. Without an explicit p, a trial of a
parametrized id sweeps the Spec's exponent grid on one draw. No shrinking is
performed: violating instances are stored verbatim and can be replayed in
isolation.

fuzz checks its arguments (the id, p against the id's interval, the trial
count and tol) before it draws, then takes the trials a chunk at a time,
and a chunk is a stack from the draw through to the verdict. One routine,
draw_trials, turns trials' substreams into matrices, for fuzz as for
gen_pd and `majdet gen`: each trial makes its generator calls from its
own substream, drawing its matrices in the id's input order (the catalog's
layout), and writes its random parts straight into one buffer of uniforms
and one of Gaussian blocks per matrix size; each size's SPECTRAL matrices
are then formed with one multiply by the roles' log caps, one exp, one qr
run in place on the Gaussian buffer, and one product, and catalog.assemble
builds the stacked Instance from them as it builds one Instance, so its C,
D and mats are (trials, n, n) stacks. Each stack (the drawn trials,
lemma31's of one idx length) is validated once and goes through the id's
checker in one call per kernel, a parametrized id's exponent grid in one
step. The injected counterexample's
verdicts depend only on the id's Spec, the exponent grid and tol, so it is
validated and checked once per process for each of them, and later
campaigns reuse its read-only stack and Verdicts (_checked_reference); only
a process that runs several campaigns of one id gains from that, not a
one-shot `majdet fuzz`. Holds, violations and margins are counted on the
verdict arrays; a trial's verdict, fingerprint and Instance are built only
for a record the report keeps, in every campaign. Draws, verdicts and
reports equal drawing and checking the trials one by one, bit for bit.
build_instances and build_instance are fuzz's draw on a range of trials or
on one.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .blocks import Partition, validate_partition
from .catalog import (
    InequalityVerdict,
    Instance,
    Shape,
    Spec,
    Verdicts,
    assemble,
    check_validated,
    exponent_spec,
    require_tol,
    run_check,
    validate_instance,
)
from .errors import BadConfig, MajdetError, ResampleExhausted, first_error
from .linalg import _eigvalsh, _qr_r_raw, _qr_reduced, symmetrize
from .orders import DEFAULT_TOL

_MASK32 = (1 << 32) - 1
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
        if not 0 <= self.seed <= _MASK64:  # derive_seed reads it modulo 2^64
            raise BadConfig(f"seed must be in [0, 2**64), got {self.seed}")
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


def _hash_consts(init: int, mult: int, count: int) -> tuple[tuple[int, int], ...]:
    """The (xor, multiplier) pair of each of SeedSequence's first count hash
    steps: a step xors the running constant in, then multiplies by its
    next value."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return tuple(zip(consts, consts[1:]))


# numpy's SeedSequence (numpy/random/bit_generator.pyx) on a pool of four
# words: 16 hashes of the pool's entropy, 8 of the state's output words
_POOL_HASHES = _hash_consts(0x43B0D7E5, 0x931E8875, 16)
_STATE_HASHES = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)


def _seed_states(seeds: list[int]) -> np.ndarray:
    """SeedSequence(seed).generate_state(4, np.uint64) of every seed, as the
    rows of one C-contiguous (len(seeds), 4) array.

    The hash runs once for all seeds: each seed has its own 64-bit lane of
    one Python int, and every lane holds a uint32 word. A product of two
    words fits its lane and is masked back to 32 bits, and a subtraction
    first adds 2^32 per lane, so no lane carries or borrows into the next.
    A seed is always two entropy words, which hashes as numpy's one word
    for a seed below 2^32: the pool pads missing words with zeros.
    """
    ones = int.from_bytes(b"\x01\0\0\0\0\0\0\0" * len(seeds), "little")
    mask, borrow = _MASK32 * ones, ones << 32
    packed = int.from_bytes(b"".join(s.to_bytes(8, "little") for s in seeds), "little")
    hashes = iter(_POOL_HASHES)

    def hashmix(value: int) -> int:
        xor, mult = next(hashes)
        value = (value ^ xor * ones) * mult & mask
        return (value ^ value >> 16) & mask

    pool = [hashmix(packed & mask), hashmix(packed >> 32 & mask), hashmix(0), hashmix(0)]
    for src in range(4):
        for dst in range(4):
            if src != dst:  # numpy's mix: L * dst - R * hashmix(src), xorshifted
                mixed = (0xCA01F9DD * pool[dst] & mask) + borrow \
                    - (0x4973F715 * hashmix(pool[src]) & mask) & mask
                pool[dst] = (mixed ^ mixed >> 16) & mask
    words = []
    for i, (xor, mult) in enumerate(_STATE_HASHES):
        value = (pool[i % 4] ^ xor * ones) * mult & mask
        words.append((value ^ value >> 16) & mask)
    state = b"".join((lo | hi << 32).to_bytes(8 * len(seeds), "little")
                     for lo, hi in zip(words[::2], words[1::2]))
    # PCG64 reads a state row's buffer raw: the rows must be C-contiguous
    return np.frombuffer(state, dtype="<u8").reshape(4, -1).T.copy()


@functools.cache
def _state_words() -> type:
    """An ISeedSequence whose generate_state returns the words it holds:
    PCG64 takes its four state words from it. Made on first use, so that
    importing majdet imports no numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            return self.words

    return StateWords


def trial_rngs(cfg: GenConfig, trials: range) -> list[np.random.Generator]:
    """Each trial's substream: Generator(PCG64(derive_seed(cfg.seed, trial)))
    bit for bit, with numpy's SeedSequence hash run once for the range
    (_seed_states). A trial outside [0, 2^64) raises BadConfig: derive_seed
    reads it modulo 2^64, so it would draw another trial's stream."""
    for trial in (trials[0], trials[-1]) if trials else ():
        if not 0 <= trial <= _MASK64:
            raise BadConfig(f"trial must be in [0, 2**64), got {trial}")
    words, generator, pcg64 = _state_words(), np.random.Generator, np.random.PCG64
    return [generator(pcg64(words(row)))
            for row in _seed_states([derive_seed(cfg.seed, trial) for trial in trials])]


def _form_spectral(lam: np.ndarray, g: np.ndarray, entry_scale: float) -> np.ndarray:
    """Q diag(lam) Q^T * entry_scale, with Q the orthogonal factor of g. Takes
    the parts of one matrix, or stacks of them ((..., n) spectra, (..., n, n)
    blocks): one qr, in place on g, and one product for the whole stack,
    equal bit for bit to forming each matrix on its own. Q's column signs
    are LAPACK's: a sign s_k = +-1 enters each term of Q diag(lam) Q^T as
    s_k^2, and IEEE negation is exact, so flipping them changes no bit."""
    q = _qr_reduced(g, _qr_r_raw(g, signature="d->d"), signature="dd->d")
    a = (q * lam[..., None, :]) @ q.swapaxes(-1, -2)
    return symmetrize(a if entry_scale == 1.0 else a * entry_scale)


def gen_pd(cfg: GenConfig, trial: int) -> np.ndarray:
    """The PD matrix for (cfg, trial); bit-identical across calls.

    SPECTRAL: orthogonal conjugation of log-uniform eigenvalues in
    [1, kappa_max], times entry_scale. GRAM: G G^T + 1e-3*n*I with G a
    standard Gaussian matrix times entry_scale, so G G^T scales by
    entry_scale^2 and the ridge 1e-3*n*I does not scale; resampled (up to
    100 times) until the condition cap holds. It is draw_trials' one-matrix
    draw; a trial outside [0, 2^64) raises BadConfig.
    """
    mats, _ = draw_trials(cfg, range(trial, trial + 1), [(cfg.n, cfg.kappa_max, 0.0)])
    return mats[0][0]


# A drawn matrix's role: (size, condition cap, block-scale bias in decades).
_Role = tuple[int, float, float]


def _roles(spec: Spec, cfg: GenConfig) -> list[_Role]:
    """The role of each matrix a drawn trial of an id makes, in draw order,
    which is the input order (catalog.assemble): the mats, or C, then for a
    C+D id the blocks of D (a general D is drawn as one block), capped and
    biased by the Spec's caps."""
    n, kappa = cfg.n, cfg.kappa_max
    if spec.shape is Shape.MATS:
        return [(n, kappa, 0.0)] * cfg.m
    c_cap, d_cap, bias = spec.caps
    d_sizes = {Shape.BLOCK_D: cfg.part().sizes, Shape.GENERAL_D: (n,)}.get(spec.shape, ())
    return [(n, kappa if c_cap is None else min(kappa, c_cap), 0.0)] + \
        [(size, kappa if d_cap is None else min(kappa, d_cap), bias) for size in d_sizes]


# A chunk's trials as stacks: per group, the positions of its trials in the
# chunk and their instances stacked along a leading axis.
_Groups = list[tuple[list[int], Instance]]


def _form_by_size(roles: list[_Role], sizes: dict[int, list[int]],
                  uniforms: dict[int, np.ndarray], gaussians: dict[int, np.ndarray],
                  entry_scale: float) -> dict[int, np.ndarray]:
    """Per size, its roles' (roles, trials, size, size) SPECTRAL matrices,
    formed from that size's buffers (draw_trials) with one exp, one qr in
    place on the Gaussians and one product: a spectrum is exp(u * log(cap)),
    all ones for a zero row u."""
    formed = {}
    for size, js in sizes.items():
        log_caps = np.array([np.log(roles[j][1]) for j in js])
        lam = np.exp(uniforms[size] * log_caps[:, None, None])
        g = gaussians[size]
        formed[size] = _form_spectral(lam.reshape(-1, size), g.reshape(-1, size, size),
                                      entry_scale).reshape(g.shape)
    return formed


def _gram_rounds(rngs: list[np.random.Generator], size: int, kappa: float,
                 entry_scale: float, out: np.ndarray) -> None:
    """One role's GRAM matrices into out, each drawn from its trial's
    generator of rngs until its condition number is at most kappa: each
    round, every pending trial draws one attempt, all in one eigensolver
    call; after 100 rounds a pending trial raises ResampleExhausted."""
    pending = np.arange(len(rngs))
    for _ in range(100):
        g = np.stack([rngs[t].standard_normal((size, size)) for t in pending]) * entry_scale
        a = symmetrize(g @ g.swapaxes(-1, -2) + 1e-3 * size * np.eye(size))
        # symmetrize made a exactly symmetric, and validate_instance checks
        # the accepted draws; _eigvalsh still raises NonFinite on an overflow
        w = _eigvalsh(a)
        met = w[:, 0] <= kappa * w[:, -1]
        out[pending[met]] = a[met]
        pending = pending[~met]
        if not pending.size:
            return
    raise ResampleExhausted(f"no draw met kappa_max={kappa:g} in 100 attempts")


def draw_trials(cfg: GenConfig, trials: range, roles: list[_Role],
                idx: bool = False) -> tuple[list[np.ndarray], list[tuple[int, ...]]]:
    """Draw a range of trials into stacks: per role, the (trials, size,
    size) stack of its random PD matrices, and with idx each trial's random
    principal index set (lemma31). This is the one routine that turns a
    trial's substream into matrices; the range's substreams are seeded in
    one pass (trial_rngs, which raises BadConfig for a trial outside
    [0, 2^64)).

    Each trial makes its generator calls in role order: a SPECTRAL matrix's
    log-uniform spectrum in [1, cap] (none when the cap is 1) and the
    Gaussian block whose orthogonal factor conjugates it, written into one
    buffer of each kind per matrix size and formed per size once every
    trial is drawn (_form_by_size); a GRAM matrix G G^T + 1e-3*size*I,
    resampled up to 100 times until the cap holds, in rounds over the range
    (_gram_rounds); then a biased role's scale 10^u, u uniform in [-bias,
    bias]. The index set comes last. A round that raises follows
    errors.first_error, with the trials of the range as its members, in
    order.
    """
    count, n = len(trials), cfg.n
    spectral = cfg.style is GenStyle.SPECTRAL
    # per distinct size, its roles in order
    sizes = {size: [j for j, role in enumerate(roles) if role[0] == size] for size, *_ in roles}
    # per size, its roles' SPECTRAL uniforms (left zero where the cap leaves
    # no room for a spectrum, which is then not drawn) and Gaussian blocks,
    # or GRAM matrices, role by role
    uniforms = {size: np.zeros((len(js), count, size)) for size, js in sizes.items()} \
        if spectral else {}
    blocks = {size: np.empty((len(js), count, size, size)) for size, js in sizes.items()}
    slot = [sizes[size].index(j) for j, (size, *_) in enumerate(roles)]
    scales = np.empty((len(roles), count))
    rngs = trial_rngs(cfg, trials)
    with np.errstate(all="ignore"):  # an overflowed draw fails validation
        for j, (size, kappa, bias) in enumerate(roles):
            block = blocks[size][slot[j]]
            if spectral:
                for rng, u, g in zip(rngs, uniforms[size][slot[j]], block):
                    if kappa > 1.0:
                        rng.random(out=u)
                    rng.standard_normal(out=g)
            else:
                # a one-trial range has no members: it would redraw itself forever
                first_error(lambda: _gram_rounds(rngs, size, kappa, cfg.entry_scale, block),
                            lambda trial: draw_trials(cfg, range(trial, trial + 1), roles, idx),
                            lambda: trials if count > 1 else ())
            if bias:
                # hunt in the regime of strongly unequal block scales; this is
                # rng.uniform(-bias, bias) bit for bit, without its overhead
                for t, rng in enumerate(rngs):
                    scales[j, t] = 10.0 ** (-bias + 2.0 * bias * rng.random())
        idxs = []
        for rng in rngs if idx else ():
            size = int(rng.integers(1, n + 1))
            idxs.append(tuple(sorted(rng.choice(n, size=size, replace=False).tolist())))
        if spectral:
            blocks = _form_by_size(roles, sizes, uniforms, blocks, cfg.entry_scale)
        return [blocks[size][k] * scale[:, None, None] if bias else blocks[size][k]
                for (size, _, bias), k, scale in zip(roles, slot, scales)], idxs


def _injects(spec: Spec, trials: range) -> bool:
    """Whether trials start at trial 0 of an id whose trial 0 is its injected
    counterexample."""
    return spec.reference is not None and trials[:1] == range(1)


def _reference(spec: Spec) -> Instance:
    """The id's injected counterexample as a one-instance stack, with its
    own copies of the refdata matrices."""
    ref_part, ref_c, ref_d = spec.reference
    return assemble(spec.shape, ref_part, (ref_c[None].copy(), ref_d[None].copy()))


def _draw_chunk(spec: Spec, cfg: GenConfig, trials: range) -> _Groups:
    """Draw a range of trials of an id as stacks (draw_trials, with the
    id's roles), the positions of each group counted from the start of the
    range. Callers take an injected trial 0 out of the range first
    (_injects). The trials are one group, built from their matrices in
    input order by catalog.assemble; lemma31's are grouped by the length
    of their idx, each stack carrying its trials' idx.
    """
    if not trials:
        return []
    lemma31 = spec.shape is Shape.C_IDX
    mats, idxs = draw_trials(cfg, trials, _roles(spec, cfg), idx=lemma31)
    if not lemma31:
        return [(list(range(len(trials))), assemble(spec.shape, cfg.part(), mats))]
    lengths = [len(idx) for idx in idxs]
    groups = ([t for t, k in enumerate(lengths) if k == size] for size in sorted(set(lengths)))
    return [(ts, assemble(Shape.C_IDX, None, (mats[0][ts],), idx=tuple(idxs[t] for t in ts)))
            for ts in groups]


def _member(stack: Instance, j: int, p: float | None) -> Instance:
    """Instance j of a stacked Instance, at exponent p."""
    return Instance(partition=stack.partition,
                    c=None if stack.c is None else stack.c[j],
                    d=None if stack.d is None else stack.d[j],
                    mats=None if stack.mats is None else tuple(a[j] for a in stack.mats),
                    idx=None if stack.idx is None else stack.idx[j], p=p, m=stack.m)


def build_instances(inequality: str, cfg: GenConfig, trials: range,
                    p: float | None = None) -> list[Instance]:
    """Draw the instances of a range of trials, in order (trial 0 of a false
    id is its injected counterexample): fuzz's draw routine, unstacked.
    Every draw is a pure function of (cfg, trial), the same bits however the
    trials are chunked. A p is checked before any draw, as fuzz checks it
    (exponent_spec), and so is each trial index: one outside [0, 2^64)
    raises BadConfig (trial_rngs)."""
    spec = exponent_spec(inequality, () if p is None else (p,))
    first = int(_injects(spec, trials))
    out: list = [None] * len(trials)
    if first:
        out[0] = _member(_reference(spec), 0, p)
    for positions, stack in _draw_chunk(spec, cfg, trials[first:]):
        for j, k in enumerate(positions):
            out[first + k] = _member(stack, j, p)
    return out


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


# The injected counterexamples checked so far, at most this many: see
# _checked_reference.
_REFERENCE_SLOTS = 32


@functools.lru_cache(maxsize=_REFERENCE_SLOTS)
def _reference_memo(spec: Spec, inequality: str, key: tuple[str, str],
                    ps: tuple, tol: float) -> tuple[Instance, Verdicts]:
    """_checked_reference's memo; key holds the reprs of ps and tol, which
    keep apart equal values that report different bytes."""
    stack = validate_instance(spec.shape, _reference(spec), lead=1)
    for a in (stack.c, stack.d):
        a.flags.writeable = False
    return stack, check_validated(inequality, stack, ps, tol)


def _checked_reference(inequality: str, spec: Spec, ps: Sequence[float],
                       tol: float) -> tuple[Instance, Verdicts]:
    """The validated one-instance stack of the id's injected counterexample,
    read-only, and its Verdicts at each exponent of ps.

    They depend on nothing but the Spec, ps and tol, so each is checked once
    per process and shared by every later campaign, up to _REFERENCE_SLOTS
    of them (the least recently used goes first); an error is never kept.
    The key is the Spec object (compared by identity, so a Spec swapped into
    SPECS is checked anew), the id, and the reprs of ps and tol: values that
    compare equal but report different bytes, such as p = 2 and 2.0 or
    tol = 0.0 and -0.0, are kept apart.
    """
    ps = tuple(ps)
    return _reference_memo(spec, inequality, (repr(ps), repr(tol)), ps, tol)


def _run_trials(inequality: str, spec: Spec, cfg: GenConfig, trials: range,
                ps: tuple, tol: float) -> tuple[np.ndarray, np.ndarray, Callable]:
    """Evaluate a range of trials of an id at each exponent of ps (already
    checked, with tol, by fuzz): their margins and holds flags as arrays,
    in order, and build(t) -> (verdict, Instance) of the t-th.

    The drawn trials come as stacks from _draw_chunk, and each stack is
    validated once and checked in one call per kernel; an injected trial 0
    takes its stack and Verdicts from _checked_reference. For parametrized
    ids without an explicit p, ps is the Spec's grid: each draw is checked
    at every exponent (one checker call: the p-independent work once, then
    the whole grid), the first exponent of minimum margin is kept, and the
    instance carries that p.
    """
    first = int(_injects(spec, trials))
    groups = _draw_chunk(spec, cfg, trials[first:])
    checked = [([0], *_checked_reference(inequality, spec, ps, tol))] if first else []
    for positions, stack in groups:
        stack = validate_instance(spec.shape, stack, lead=1)
        checked.append(([first + k for k in positions], stack,
                        check_validated(inequality, stack, ps, tol)))
    margin = np.empty(len(trials))
    holds = np.empty(len(trials), dtype=bool)
    origin: list = [None] * len(trials)  # per trial: its Verdicts, stack, exponent, member
    for positions, stack, verdicts in checked:
        worst = np.argmin(verdicts.margin, axis=0)  # the first minimum over the exponents
        members = np.arange(len(positions))
        margin[positions] = verdicts.margin[worst, members]
        holds[positions] = verdicts.holds[worst, members]
        for j, (t, k) in enumerate(zip(positions, worst.tolist())):
            origin[t] = (verdicts, stack, k, j)

    def build(t: int) -> tuple[InequalityVerdict, Instance]:
        verdicts, stack, k, j = origin[t]
        member = _member(stack, j, ps[k])
        return verdicts.verdict(k, j, member), member

    return margin, holds, build


def fuzz(inequality: str, cfg: GenConfig, trials: int, p: float | None = None,
         tol: float = DEFAULT_TOL, keep_instances: bool = False) -> FuzzReport:
    """Run seeded trials of one inequality and fold the records into a report.

    The report content is a pure function of (inequality, cfg, trials, p,
    tol) on one BLAS build, apart from the wall_time field: the SPECTRAL
    draw's qr and product, like the checks' kernels, run on the kernel that
    OpenBLAS picks for the CPU, and another kernel changes their last
    bits. A verdict and an instance are
    built only for a record the report keeps: a violation, or every trial
    with keep_instances. The campaign's arguments are checked before any
    draw: a p as exponent_spec checks it, a trial count that is not an
    int >= 1 or a tol that is negative or not finite BadConfig. Trials are
    evaluated a chunk at a time; a chunk that raises follows
    errors.first_error, with the chunk's trials as its members, in order,
    and a trial's error is named with its index and seed.
    """
    spec = exponent_spec(inequality, () if p is None else (p,))
    ps = (p,) if p is not None or spec.split is None else spec.split.grid
    if isinstance(trials, bool) or not isinstance(trials, int):
        raise BadConfig(f"trials must be an int, got {trials!r}")
    if trials < 1:
        raise BadConfig(f"trials must be >= 1, got {trials}")
    require_tol(tol)
    t0 = time.perf_counter()
    holds = 0
    worst_margin = float("inf")
    kept: list[TrialRecord] = []

    def each(trial: int) -> None:
        try:
            _run_trials(inequality, spec, cfg, range(trial, trial + 1), ps, tol)
        except MajdetError as err:
            raise type(err)(f"trial {trial} (seed {derive_seed(cfg.seed, trial)}): {err}") from err

    for start in range(0, trials, _CHUNK):
        chunk = range(start, min(start + _CHUNK, trials))
        margin, held, build = first_error(
            lambda: _run_trials(inequality, spec, cfg, chunk, ps, tol), each, lambda: chunk)
        worst_margin = min(worst_margin, *margin.tolist())
        holds += int(held.sum())
        for t in range(len(chunk)) if keep_instances else np.flatnonzero(~held).tolist():
            verdict, instance = build(t)
            kept.append(TrialRecord(
                trial=chunk[t],
                seed=derive_seed(cfg.seed, chunk[t]),
                verdict=verdict,
                instance=instance.to_json(spec.shape),
            ))
    return FuzzReport(
        inequality=inequality,
        trials=trials,
        holds=holds,
        violations=trials - holds,
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
