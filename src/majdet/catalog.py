"""One checker per inequality family, each returning its verdicts as arrays.

Theorem-family checks (expected to hold on every valid instance):
  main-thm       lambda(C1^-1 D1 (+) ... (+) Ck^-1 Dk) weak-log-majorized by lambda(C^-1 D)
  matic          prod det(I + Ci^-1 Di) <= det(I + C^-1 D)
  det-power      prod det(I + (Ci^-1 Di)^p) <= det(I + (C^-1 D)^p), p >= 0
  choi           prod_j det(sum_i inv(Ai_block_j)) <= det(sum_i inv(Ai))
  thm32          weak majorization between the p-th powers of those spectra, p >= 1
  lemma31        inv of a principal submatrix <= principal submatrix of the inverse
  fischer-tail   tail eigenvalue products of C dominated by those of Diag C
  ky-fan         lambda(Diag C) majorized by lambda(C)

Evaluator ids (statements that are false in general, or open; violations are
data, never errors):
  abs-power, commuted-power, inv-square-sum, neg-power, matic-general-d,
  weak-log-general-d, sv-weak-log, open-q

Every C+D id compares the diagonal blocks Ci, Di of one C and one D with the
whole; a block-D id's D must be block diagonal, so main-thm and
weak-log-general-d share one check, as do matic and matic-general-d.
Determinant comparisons run in the log domain, and det(I + C^-1 D) is always
computed as det(C + D)/det(C) through Cholesky log-determinants. Spectra of
C^-1 D come from the pencil kernel behind linalg.eig_pencil, which never
inverts C. inv-square-sum's det(D^-2 + C^-2) is det(C^2 + D^2)/(det C
det D)^2, and C^2 + D^2 is the Gram matrix of the stacked [C; D], whose
log-determinant a QR takes (linalg._gram_logdet): no inverse or square is
formed, so the condition number is not squared. Explicit inverses appear
only where a statement sums or compares them (the choi family, lemma31),
and in the singular-value statements, which need the actual product C^-1 D.

Each id reads the inputs of its Shape, and this module owns their layout.
An instance's input matrices go in one order: the mats; or C, then D whole,
or D as its diagonal blocks for a block-D id. The fuzzer draws them and the
CLI reads their files in that order and builds the Instance with assemble;
a fingerprint hashes them in that order too (_hashed), followed by
lemma31's idx or fischer-tail's m, and a fuzz record writes a block-D D as
its blocks.

Inputs are validated once, at the boundary: validate_instance checks each
input matrix of the id's Shape (square, sized for the partition, finite,
symmetric; C and D, or the A_i, in one pass over their stack when no entry
exceeds half the largest double and each is symmetric to the smallest
slack), and the checkers then call only linalg's private kernels, which
validate nothing. Every checker is written with numpy broadcasting, so it
takes one validated instance or a stack of them (instances that share
everything but their matrices, whose matrices are stacked along a leading
axis, as the fuzzer draws them), and check_validated runs it.

The diagonal blocks of one size go through each kernel in one call
(_blockwise, by blocks._size_groups): the blocks of one matrix, or of
C and D stacked where one kernel takes both. Where a checker puts several
matrices through the same kernel (commuted-power's eigendecompositions of C
and D, the choi family's inverses of the A_i), it walks them in turn, each
through _blockwise, so every block of one matrix comes before the next
matrix. Sums over the blocks and over the A_i add in their order, so the
bits are those of a block-by-block loop. A call that raises follows
errors.first_error, with the blocks as its members in block order, as
check_validated does with the exponents of a grid.

A stack of verdicts is arrays: every checker takes (instance, ps, tol)
and returns its margins only, one Verdicts, whose margin and holds are
(exponents, instances) arrays, with the log sides or the order checks.
check_validated makes one call of it for every id, and adds the id and
its Shape from the id's Spec. An InequalityVerdict, with its sha256
fingerprint over the instance it reports on and its OrderReport, is built
only where one is returned or stored: by run_check, and by the fuzzer for
a record its report keeps.

The checker of a parametrized id (det-power, thm32, abs-power,
commuted-power, neg-power) does everything that does not depend on p
(spectra, singular values, eigendecompositions) once per instance or
stack, then computes each side over the whole exponent grid ps in one
numpy pass: the powers as one (P, ...) stack, one log1p and one sum, or
one order check, over all the exponents. An id without an exponent ignores
ps. run_check evaluates one p and the fuzzer a grid through the same
checker; verdict k of a grid has the bits of run_check at ps[k]. The
exact certifiers (matic_exact, inv_square_sum_exact) are plain loops over
the diagonal blocks, then the whole.

SPECS holds one Spec per id: its role, its Shape, its checker (a plain
function, which two ids may share) and, for the fuzzer and the CLI, its
exponents (interval, fuzz grid and default p), its generator caps, its
reference counterexample and its exact certifier. Adding an id means
adding its checker and one Spec.
"""

from __future__ import annotations

import enum
import hashlib
import math
import numbers
from collections.abc import Callable, Sequence
from dataclasses import InitVar, dataclass, field
from fractions import Fraction

import numpy as np

from . import exact, refdata
from .blocks import (
    Partition,
    _direct_sum,
    _off_block_indices,
    _size_groups,
    direct_sum,
    principal_indices,
)
from .errors import (
    BadConfig,
    BadExponent,
    BadPartition,
    DimensionMismatch,
    IndexOutOfRange,
    MissingField,
    NotBlockDiagonal,
    NonFinite,
    SingularMatrix,
    UnknownInequality,
    first_error,
)
from .linalg import (
    _each,
    _eigvalsh,
    _finite,
    _gram_logdet,
    _logdet,
    _pd_eigh,
    _pd_inverse,
    _pencil,
    _positive_spectrum,
    _powers,
    _singular_values,
    _within_least_slack,
    as_square,
    eigh_powers,
    require_symmetric,
    symmetrize,
)
from .matio import number_array
from .orders import DEFAULT_TOL, OrderChecks, OrderKind, OrderReport, check_orders, sort_desc


@dataclass(frozen=True)
class Fingerprint:
    n: int
    partition: tuple[int, ...] | None
    digest: str

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "partition": list(self.partition) if self.partition else None,
            "digest": self.digest,
        }


@dataclass(frozen=True)
class InequalityVerdict:
    """Both sides of an inequality plus the verdict.

    For determinant/product comparisons, lhs and rhs are the linear-domain
    values (None where one overflows a double; detail carries log_lhs and
    log_rhs), margin is log(rhs) - log(lhs), and tol is the absolute log-domain
    tolerance actually applied, so holds == (margin >= -tol). For
    majorization-type checks the embedded OrderReport carries per-prefix
    margins and drives the verdict; margin is then the worst prefix margin.
    """

    inequality: str
    lhs: float | None
    rhs: float | None
    margin: float
    holds: bool
    tol: float
    fingerprint: Fingerprint
    order: OrderReport | None = None
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "inequality": self.inequality,
            "holds": self.holds,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "tol": self.tol,
            "fingerprint": self.fingerprint.to_json(),
            "order": self.order.to_json() if self.order else None,
            "detail": self.detail,
        }


@dataclass(frozen=True, eq=False)
class Instance:
    """Inputs for one inequality check; only the fields the id needs are set.

    d_blocks is a constructor keyword, not a field: blocks D1, ..., Dk, sized
    for the partition (DimensionMismatch), set d to their direct sum. The
    matrices may be stacks along a leading axis, one matrix (and idx, all of
    one length) per instance, for instances that share everything else.
    """

    partition: Partition | None = None
    c: np.ndarray | None = None
    d_blocks: InitVar[tuple[np.ndarray, ...] | None] = None
    d: np.ndarray | None = None
    mats: tuple[np.ndarray, ...] | None = None
    idx: tuple[int, ...] | None = None
    p: float | None = None
    m: int | None = None

    def __post_init__(self, d_blocks):
        if d_blocks is not None:
            object.__setattr__(self, "d", _join_d_blocks(d_blocks, self.partition))

    def to_json(self, shape: Shape | None = None) -> dict:
        """The set fields as JSON; a Shape.BLOCK_D instance writes D as its
        diagonal blocks, under "d_blocks", as it is hashed (_hashed)."""
        out: dict = {}
        if self.partition is not None:
            out["partition"] = list(self.partition.sizes)
        if self.c is not None:
            out["c"] = self.c.tolist()
        if self.d is not None and shape is Shape.BLOCK_D:
            out["d_blocks"] = [b.tolist() for b in _hashed(shape, self)[3:]]
        elif self.d is not None:
            out["d"] = self.d.tolist()
        if self.mats is not None:
            out["mats"] = [m.tolist() for m in self.mats]
        if self.idx is not None:
            out["idx"] = list(self.idx)
        if self.p is not None:
            out["p"] = self.p
        if self.m is not None:
            out["m"] = self.m
        return out

    @classmethod
    def from_json(cls, payload: dict) -> "Instance":
        """Inverse of to_json (D from "d" or "d_blocks"); matrix entries are
        read by matio.number_array, and a NaN or infinite p raises
        NonFinite, a p not a number BadExponent. A partition or an idx must
        be a list of ints (BadPartition, IndexOutOfRange when validated)."""
        p = payload.get("p")
        _require_exponent(p)
        for key, err in (("partition", BadPartition), ("idx", IndexOutOfRange)):
            if key in payload and not isinstance(payload[key], list):
                raise err(f"{key} must be a list of integers, got {payload[key]!r}")
        part = Partition(payload["partition"]) if "partition" in payload else None
        arrays = {key: number_array(payload[key]) for key in ("c", "d") if key in payload}
        arrays.update({key: tuple(map(number_array, payload[key]))
                       for key in ("d_blocks", "mats") if key in payload})
        if "d_blocks" in arrays:  # the blocks win over a whole "d"
            arrays["d"] = _join_d_blocks(arrays.pop("d_blocks"), part)
        return cls(
            partition=part,
            **arrays,
            idx=tuple(payload["idx"]) if "idx" in payload else None,
            p=p,
            m=payload.get("m"),
        )


def _exp_or_none(x: float) -> float | None:
    try:
        return math.exp(x)
    except OverflowError:
        return None


def _fingerprint(n: int, partition: Partition | None, *payload) -> Fingerprint:
    """sha256 over the payload: an array by its float bytes in C order
    (tobytes writes a view's entries in C order too), anything else by its
    repr, each followed by a separator."""
    h = hashlib.sha256()
    for part in payload:
        if isinstance(part, np.ndarray):
            h.update((part if part.dtype == np.float64
                      else np.ascontiguousarray(part, dtype=float)).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    sizes = partition.sizes if partition is not None else None
    return Fingerprint(n=n, partition=sizes, digest=h.hexdigest()[:16])


def _by_exponent(a, ps: Sequence[float] | None) -> np.ndarray:
    """a as a (P, T) array: one row per exponent of ps (one without)."""
    return a.reshape(1 if ps is None else len(ps), -1)


@dataclass(eq=False)
class Verdicts:
    """The verdicts of T instances at P exponents (P = 1 without ps): margin
    and holds are (P, T) arrays. A log comparison keeps its (P, T) log
    sides and, as tol, the (P, T) tolerances it applied; an order
    comparison keeps its OrderChecks (row k*T + i). detail(k, i)
    is what verdict (k, i) reports besides its log sides and p. A checker
    sets no more; check_validated then sets the id and its Shape.
    verdict(k, i, inst) builds the InequalityVerdict of instance i at
    exponent k, inst that validated instance (a stack's member i), its
    fingerprint over _hashed(shape, inst) and then the exponent."""

    margin: np.ndarray
    holds: np.ndarray
    tol: float | np.ndarray
    ps: Sequence[float] | None = None
    log_sides: tuple[np.ndarray, np.ndarray] | None = None
    orders: OrderChecks | None = None
    detail: Callable[[int, int], dict] | None = None
    inequality: str = ""
    shape: Shape | None = None

    def verdict(self, k: int, i: int, inst: Instance) -> InequalityVerdict:
        n, partition, *payload = _hashed(self.shape, inst)
        tol, lhs, rhs, order, detail = self.tol, None, None, None, {}
        if self.log_sides is not None:
            llhs, lrhs = (float(side[k, i]) for side in self.log_sides)
            tol = float(self.tol[k, i])
            lhs, rhs = _exp_or_none(llhs), _exp_or_none(lrhs)
            detail = {"log_lhs": llhs, "log_rhs": lrhs}
        if self.orders is not None:
            order = self.orders.report(k * self.margin.shape[1] + i)
        if self.ps is not None:
            payload.append(self.ps[k])
            detail["p"] = self.ps[k]
        if self.detail is not None:
            detail.update(self.detail(k, i))
        return InequalityVerdict(
            inequality=self.inequality,
            lhs=lhs,
            rhs=rhs,
            margin=float(self.margin[k, i]),
            holds=bool(self.holds[k, i]),
            tol=tol,
            fingerprint=_fingerprint(n, partition, *payload),
            order=order,
            detail=detail,
        )


def _log_verdicts(llhs, lrhs, tol: float, ps: Sequence[float] | None = None,
                  **kw) -> Verdicts:
    """A log-determinant comparison, from the log sides per (exponent,
    instance): margin = log rhs - log lhs, held against tol scaled by
    max(1, |log lhs|, |log rhs|); the two sides go through each step as one
    stacked pair. A margin that is not finite (a side that overflows) or a
    scaled tolerance that is not finite raises NonFinite."""
    sides = np.array((llhs, lrhs)).reshape(2, 1 if ps is None else len(ps), -1)
    llhs, lrhs = sides
    margin = lrhs - llhs
    if not np.logical_and.reduce(np.isfinite(margin), axis=None):
        k = np.argmin(np.isfinite(margin))  # the first, in a stack
        raise NonFinite("log-determinant comparison with a non-finite side: "
                        f"log lhs = {float(llhs.flat[k])}, log rhs = {float(lrhs.flat[k])}")
    size = np.abs(sides)
    scale = np.maximum(1.0, np.maximum(size[0], size[1]))
    scaled = tol * scale
    if not np.logical_and.reduce(np.isfinite(scaled), axis=None):
        k = np.argmax(scale)  # the first largest, in a stack
        raise NonFinite(f"log-determinant comparison with a tolerance that overflows: "
                        f"tol = {tol!r}, log lhs = {float(llhs.flat[k])}, "
                        f"log rhs = {float(lrhs.flat[k])}")
    return Verdicts(margin, margin >= -scaled, scaled, ps, log_sides=(llhs, lrhs), **kw)


def _order_verdicts(kind: OrderKind, x, y, tol: float, ps: Sequence[float] | None = None,
                    **kw) -> Verdicts:
    """An order comparison of each row pair of x and y, one per (exponent,
    instance), each row nonincreasing (check_orders); margin is the worst
    prefix margin."""
    orders = check_orders(kind, x, y, tol)
    return Verdicts(_by_exponent(np.minimum.reduce(orders.margins, axis=-1), ps),
                    _by_exponent(orders.holds, ps), tol, ps, orders=orders, **kw)


# ---------------------------------------------------------------------------
# Validation at the boundary: each input matrix is checked once, and the
# checkers below run on what it returns, through the linalg kernels only.
# Derived matrices (sums, inverses, powers) are symmetrized where they are
# formed and never validated again.

def validate_instance(shape: Shape, inst: Instance, lead: int = 0) -> Instance:
    """inst with every input matrix its Shape reads as a float array,
    checked once: square and sized for the partition (DimensionMismatch),
    finite (NonFinite) and symmetric (NotSymmetric); a partition that is not
    a Partition raises BadPartition. lemma31's idx comes back as checked
    ints, and fischer-tail's m as an int in 1..n or None (IndexOutOfRange,
    _tail_start). A block-D D must be zero off the diagonal blocks
    (NotBlockDiagonal), each block judged symmetric on its own slack. A
    field the Shape reads that is unset raises MissingField. With lead = 1,
    inst is a stack, each matrix checked on its own symmetry slack in one
    call per field, and its idx one per instance, of one length.

    Several input matrices (C and D, or the mats) are cleared in one pass
    over their stack when no entry exceeds half the largest double and no
    asymmetry the smallest slack; only otherwise is each judged on its own,
    C before D and the A_i in order, so the first bad input raises its own
    error."""
    with_d = shape in (Shape.BLOCK_D, Shape.GENERAL_D)
    fields = ("mats",) if shape is Shape.MATS else ("c", "d") if with_d else ("c",)
    for name in ("c", "idx") if shape is Shape.C_IDX else ("partition", *fields):
        if getattr(inst, name) is None:
            needs = "d or d_blocks" if name == "d" else name
            raise MissingField(f"a {shape.value} instance needs {needs}, which is unset")
    part = inst.partition
    if shape is Shape.C_IDX:
        a = as_square(inst.c, lead)
        idx = [principal_indices(i, a.shape[-1]) for i in (inst.idx if lead else [inst.idx])]
        if lead and (len(idx) != len(a) or len(set(map(len, idx))) > 1):
            raise IndexOutOfRange("a stack takes one idx per instance, all of one length")
        return _validated(inst, idx=tuple(idx) if lead else idx[0], c=require_symmetric(a))
    _require_partition(part)
    mats = [as_square(a, lead) for a in
            (inst.mats if shape is Shape.MATS else [getattr(inst, f) for f in fields])]
    if not mats:
        raise DimensionMismatch("need at least one matrix")
    if with_d and mats[0].shape != mats[1].shape:
        raise DimensionMismatch(f"{mats[0].shape} vs {mats[1].shape}")
    for a in mats:
        if a.shape[-1] != part.n:
            raise DimensionMismatch(f"matrix is {a.shape[-1]}x{a.shape[-1]}, "
                                    f"partition needs {part.n}")
    if shape in (Shape.C, Shape.C_M):
        c = require_symmetric(mats[0])
        if shape is Shape.C_M:
            return _validated(inst, c=c, m=_tail_start(inst.m, part.n))
        return _validated(inst, c=c)
    # One pass over the stack of the inputs; each on its own only if it fails
    if len({a.shape for a in mats}) > 1 or not _within_least_slack(np.array(mats)):
        for a in mats[:1] if shape is Shape.BLOCK_D else mats:
            require_symmetric(a)
        if shape is Shape.BLOCK_D and not _within_least_slack(mats[1]):
            for lo, hi in part.offsets():  # each block of D on its own slack
                require_symmetric(mats[1][..., lo:hi, lo:hi])
    if shape is Shape.MATS:
        return _validated(inst, mats=tuple(mats))
    if shape is Shape.BLOCK_D:
        _require_block_diagonal(mats[1], part)
    return _validated(inst, c=mats[0], d=mats[1])


def _require_block_diagonal(d: np.ndarray, part: Partition) -> None:
    """NotBlockDiagonal naming the first nonzero entry of d (or of each
    matrix of a stack) off the partition's diagonal blocks; NonFinite
    instead when an entry off the blocks is NaN or infinite."""
    indices = _off_block_indices(part)
    off = d.reshape(-1, part.n * part.n).take(indices, axis=-1)  # (members, entries)
    if np.count_nonzero(off):  # NaN and inf count
        _finite(off)
        member, j = np.argwhere(off)[0]  # the first in (member, flat index) order
        row, col = divmod(int(indices[j]), part.n)
        raise NotBlockDiagonal(f"D is not block diagonal for partition {part.sizes}: entry "
                               f"({row}, {col}) = {float(off[member, j])!r} is off the blocks")


def _validated(inst: Instance, **fields) -> Instance:
    """inst with the given fields replaced, built by the constructor (the
    instance's attributes are its fields)."""
    return Instance(**{**vars(inst), **fields})


# ---------------------------------------------------------------------------
# The instance layout: assemble builds an Instance from its input matrices in
# input order (see the module docstring), and _hashed lists them back.

def _require_partition(part) -> None:
    """BadPartition unless part is a Partition (a tuple of sizes is not)."""
    if not isinstance(part, Partition):
        raise BadPartition(f"partition must be a Partition, got {part!r}")


def _join_d_blocks(blocks, part: Partition | None) -> np.ndarray:
    """The direct sum of D blocks, as many as the partition has and each
    sized for its block (DimensionMismatch); a partition that is set must
    be a Partition (BadPartition)."""
    if part is not None:
        _require_partition(part)
    d = direct_sum(blocks)  # direct_sum checks squareness
    if part is not None and len(blocks) != part.k:
        raise DimensionMismatch(f"{len(blocks)} D blocks for a {part.k}-block partition")
    for size, got in zip(part.sizes if part else (), (np.shape(b)[-1] for b in blocks)):
        if got != size:
            raise DimensionMismatch(f"D block is {got}x{got}, expected {size}")
    return d


def assemble(shape: Shape, part: Partition | None, inputs: Sequence[np.ndarray],
             **fields) -> Instance:
    """The Instance of a Shape from its input matrices in input order and
    its other fields (p, m, idx). A block-D D comes as its diagonal blocks,
    or whole as one matrix, which is taken as it is. The wrong number of
    inputs raises DimensionMismatch."""
    if shape is Shape.MATS:
        return Instance(partition=part, mats=tuple(inputs), **fields)
    c, *ds = inputs
    if shape is Shape.BLOCK_D and len(ds) > 1:
        ds = [_join_d_blocks(ds, part)]
    with_d = shape in (Shape.BLOCK_D, Shape.GENERAL_D)
    if len(ds) != with_d:
        raise DimensionMismatch(f"a {shape.value} instance takes {'C and D' if with_d else 'C'}"
                                f", got {len(inputs)} matrices")
    return Instance(partition=part, c=c, d=ds[0] if ds else None, **fields)


def _hashed(shape: Shape, inst: Instance) -> tuple:
    """What a fingerprint hashes, as _fingerprint's (n, partition, *payload):
    the input matrices in input order, then lemma31's idx (with no
    partition; on a stack, one per instance) or fischer-tail's m."""
    part = inst.partition
    if shape is Shape.MATS:
        return (part.n, part, *inst.mats)
    if shape is Shape.C_IDX:
        return inst.c.shape[-1], None, inst.c, inst.idx
    if shape is Shape.C:
        return part.n, part, inst.c
    if shape is Shape.C_M:
        return part.n, part, inst.c, inst.m
    if shape is Shape.GENERAL_D:
        return part.n, part, inst.c, inst.d
    return (part.n, part, inst.c, *(inst.d[..., lo:hi, lo:hi] for lo, hi in part.offsets()))


# ---------------------------------------------------------------------------
# Checkers. Each takes a validated instance, or a stack of them (matrices
# with one leading axis), the exponents ps (ignored by an id without one)
# and tol, and returns the Verdicts of its instances: the same code runs
# with and without the leading axis. The diagonal blocks of
# a matrix, or of a stacked pair (C, D) that one kernel takes together, go
# through the kernel by _blockwise; a checker that puts several matrices
# through one kernel walks them in turn (C then D, A_1 then A_2, ...), so
# every block of one matrix is checked before the next matrix. Sums over
# the blocks and over the A_i add in their order.

def _blockwise(kernel, a, part: Partition) -> list:
    """kernel over the diagonal blocks of a (a matrix, or a stack of them
    along leading axes), one call per distinct block size, which gets its
    blocks along a new first axis (a copy, block by block): the per-block
    results in block order, a tuple result split member by member.
    first_error's members are the blocks (copies), in block order."""
    groups = [(js, np.array([a[..., lo:hi, lo:hi] for lo, hi in spans]))
              for js, spans in _size_groups(part)]
    results = first_error(lambda: [(js, kernel(g)) for js, g in groups],
                          lambda block: kernel(block[None]),
                          lambda: [a[..., lo:hi, lo:hi].copy() for lo, hi in part.offsets()])
    out: list = [None] * part.k
    for js, r in results:
        for jj, j in enumerate(js):
            out[j] = tuple(x[jj] for x in r) if isinstance(r, tuple) else r[jj]
    return out


def _product_spectra(c, d, part: Partition) -> tuple[np.ndarray, np.ndarray]:
    """(concatenated spectra of Ci^-1 Di sorted nonincreasing, spectrum of
    C^-1 D), with Ci and Di the diagonal blocks of C and D: positive
    definite float arrays, or stacks of them. Like the kernels, it
    validates nothing and runs under check_validated's np.errstate."""
    cd = np.array((c, d))
    spectra = _blockwise(lambda g: _pencil(g.swapaxes(0, 1)), cd, part)
    return sort_desc(np.concatenate(spectra, axis=-1)), _pencil(cd)


def _product_singular_values(c, d, part: Partition) -> tuple[list[np.ndarray], np.ndarray]:
    """(singular values of Ci^-1 Di for each diagonal block, singular values
    of C^-1 D): sv-weak-log's and abs-power's sides, on positive definite
    float arrays or stacks of them."""
    blocks = _blockwise(lambda g: _singular_values(_pd_inverse(g[:, 0]) @ g[:, 1]),
                        np.array((c, d)), part)
    return blocks, _singular_values(_pd_inverse(c) @ d)


def _weak_log_verdicts(inst: Instance, ps: Sequence[float], tol: float) -> Verdicts:
    """main-thm (block-diagonal D) and weak-log-general-d (any D): the
    blockwise spectrum weak-log-majorized by lambda(C^-1 D)."""
    x, y = _product_spectra(inst.c, inst.d, inst.partition)
    return _order_verdicts(OrderKind.WEAK_LOG_MAJORIZE, x, y, tol)


def _logdet_ratio(cd: np.ndarray):
    """logdet(C + D) - logdet(C) of a stacked pair cd = (C, D): one
    Cholesky call factors C + D and C, C + D's error first."""
    logdets = _each(_logdet, np.array((symmetrize(cd[0] + cd[1]), cd[0])))
    return logdets[0] - logdets[1]


def _matic_verdicts(inst: Instance, ps: Sequence[float], tol: float) -> Verdicts:
    """matic (block-diagonal D) and matic-general-d (any D):
    prod det(I + Ci^-1 Di) <= det(I + C^-1 D)."""
    cd = np.array((inst.c, inst.d))
    blocks = _blockwise(lambda g: _logdet_ratio(g.swapaxes(0, 1)), cd, inst.partition)
    return _log_verdicts(sum(blocks), _logdet_ratio(cd), tol)


def _blocks_then_whole(part: Partition, n: int) -> list[tuple[str, int, int]]:
    """(name, lo, hi) of each diagonal block ("1", ...), then of the whole
    ("", 0, n): the order an exact certificate takes them in."""
    return [(str(i), lo, hi) for i, (lo, hi) in enumerate(part.offsets(), start=1)] + [("", 0, n)]


def _nonzero_det(a: exact.IntMatrix, name: str) -> int:
    det = exact.det_int(a)
    if det == 0:
        raise SingularMatrix(f"exact {name} is singular")
    return det


def _combine(x: int, a: exact.IntMatrix, y: int, b: exact.IntMatrix) -> exact.IntMatrix:
    """x a + y b for integer matrices a and b."""
    return [[x * u + y * v for u, v in zip(ra, rb)] for ra, rb in zip(a, b)]


def matic_exact(c_exact, d_exact, part: Partition):
    """Exact rational sides of matic and matic-general-d:
    (prod_i det(Ci + Di)/det(Ci), det(C + D)/det(C)). A singular exact C or
    Ci raises SingularMatrix. On integers, with C = c/s and D = d/t (a
    Scaled C or D is used as it is), each factor is
    det(t c + s d)/(t^n det c)."""
    (c, s), (d, t) = exact.clear_denominators(c_exact), exact.clear_denominators(d_exact)
    factors = []
    for name, lo, hi in _blocks_then_whole(part, len(c)):
        ci, di = exact.submatrix(c, lo, hi), exact.submatrix(d, lo, hi)
        det_c = _nonzero_det(ci, "C" + name)
        factors.append(Fraction(exact.det_int(_combine(t, ci, s, di)), t ** len(ci) * det_c))
    return math.prod(factors[:-1]), factors[-1]


def identity_abs_square(c, d_blocks, part: Partition,
                        tol: float = DEFAULT_TOL) -> InequalityVerdict:
    """Equality check: det(I + |C^-1 D|^2) = det(D^-2 + C^-2) * det(D)^2,
    globally and blockwise, to relative tolerance.

    The two sides travel independent computation paths: singular values of
    the explicit product, as abs-power takes them at p = 2, vs the
    inv-square-sum checker's own log-determinants (a QR of [C; D] and the
    Cholesky factor of C, with no inverse; log det D cancels). margin is
    minus the worst normalized residual, so holds == (margin >= -tol). A
    partition that is not a Partition raises BadPartition.
    """
    require_tol(tol)
    with np.errstate(all="ignore"):  # an overflow fails in a kernel's own checks
        inst = validate_instance(Shape.BLOCK_D, assemble(Shape.BLOCK_D, part, (c, *d_blocks)))
        block_svs, s_full = _product_singular_values(inst.c, inst.d, part)
        # det(D^-2 + C^-2) det(D)^2 = det(C^2 + D^2) / det(C)^2
        blocks, (gram, logdet_c, _) = _blockwise_square_sum_logdets(inst.c, inst.d, part)
        lg = float(_sum_log1p_power(s_full, (2.0,))[0])
        rg = float(gram - 2.0 * logdet_c)
        lb = float(sum(_sum_log1p_power(s, (2.0,))[0] for s in block_svs))
        rb = float(sum(g - 2.0 * lc for g, lc, _ in blocks))
    res_global = abs(lg - rg) / max(1.0, abs(lg), abs(rg))
    res_block = abs(lb - rb) / max(1.0, abs(lb), abs(rb))
    worst = max(res_global, res_block)
    return InequalityVerdict(
        inequality="identity-abs-square",
        lhs=_exp_or_none(lg),
        rhs=_exp_or_none(rg),
        margin=-worst,
        holds=worst <= tol,
        tol=tol,
        fingerprint=_fingerprint(*_hashed(Shape.BLOCK_D, inst)),
        detail={
            "log_lhs_global": lg, "log_rhs_global": rg,
            "log_lhs_blocks": lb, "log_rhs_blocks": rb,
            "residual_global": res_global, "residual_blockwise": res_block,
        },
    )


def _inverse_sum(a: np.ndarray) -> np.ndarray:
    """sum_i inv(A_i) over the matrices A_i along a's first axis, added in
    their order from 0.0, in one kernel call, A_1's error first."""
    return symmetrize(sum(_each(_pd_inverse, a), 0.0))


def _block_inverse_sum(mats, part: Partition) -> np.ndarray:
    """The block-diagonal matrix whose block j is sum_i inv(block_j(A_i)),
    the A_i added in their order from 0.0: every block of A_1 is inverted
    before A_2's."""
    return symmetrize(sum((_direct_sum(_blockwise(_pd_inverse, a, part)) for a in mats), 0.0))


def _choi_verdicts(inst: Instance, ps: Sequence[float], tol: float) -> Verdicts:
    mats, part = inst.mats, inst.partition
    llhs = sum(_blockwise(_logdet, _block_inverse_sum(mats, part), part))
    lrhs = _logdet(_inverse_sum(np.array(mats)))
    return _log_verdicts(llhs, lrhs, tol, detail=lambda k, i: {"m": len(mats)})


def _choi_spectra(mats, part: Partition) -> tuple[np.ndarray, np.ndarray]:
    block_spec = np.concatenate(_blockwise(_eigvalsh, _block_inverse_sum(mats, part), part),
                                axis=-1)
    return sort_desc(block_spec), _eigvalsh(_inverse_sum(np.array(mats)))


def _open_q_verdicts(inst: Instance, ps: Sequence[float], tol: float) -> Verdicts:
    """Open in general (proved only for 2x2 with two 1x1 blocks): the
    verdict is recorded, nothing is asserted."""
    mats, part = inst.mats, inst.partition
    x, y = _choi_spectra(mats, part)
    return _order_verdicts(OrderKind.WEAK_LOG_MAJORIZE, x, y, tol,
                           detail=lambda k, i: {"m": len(mats)})


def _lemma31_verdicts(inst: Instance, ps: Sequence[float], tol: float) -> Verdicts:
    """inv([A]) <= [inv(A)] in the Loewner order, for a principal submatrix
    [.]: margin is lambda_min of the difference over max(1, its Frobenius
    norm), each instance of a stack at its own idx."""
    a, indices = inst.c, inst.idx
    idxs = [indices] if a.ndim == 2 else indices  # per instance
    rows = np.array(indices)[..., None]  # (k, 1), or (T, k, 1) on a stack
    cols = rows.swapaxes(-1, -2)
    sub_inv = _pd_inverse(np.take_along_axis(np.take_along_axis(a, rows, -2), cols, -1))
    inv_sub = np.take_along_axis(np.take_along_axis(_pd_inverse(a), rows, -2), cols, -1)
    diff = symmetrize(inv_sub - sub_inv)
    lam_min = _eigvalsh(diff)[..., -1]
    # one dot product per matrix, as np.linalg.norm takes it, for its bits
    flat = diff.reshape(*diff.shape[:-2], 1, -1)
    fro = np.sqrt(flat @ flat.swapaxes(-1, -2))[..., 0, 0]
    margin = _by_exponent(lam_min / np.maximum(1.0, fro), None)
    lam_mins, fros = np.ravel(lam_min).tolist(), np.ravel(fro).tolist()
    return Verdicts(margin, margin >= -tol, tol,
                    detail=lambda k, i: {"idx": list(idxs[i]), "lambda_min": lam_mins[i],
                                         "fro_norm": fros[i]})


def _tail_start(m, n: int) -> int | None:
    """fischer-tail's m as an int in 1..n (so 2, 2.0 and np.int64(2) hash
    alike); None checks every m."""
    if m is None:
        return None
    if (isinstance(m, bool) or not isinstance(m, numbers.Real) or not math.isfinite(m)
            or m != int(m)):
        raise IndexOutOfRange(f"m = {m!r} is not an integer in 1..{n}")
    if not 1 <= m <= n:
        raise IndexOutOfRange(f"m = {m} out of range 1..{n}")
    return int(m)


def _fischer_tail_verdicts(inst: Instance, ps: Sequence[float], tol: float) -> Verdicts:
    """Tail products prod_{i>=m} lambda_i(C) <= prod_{i>=m} lambda_i(Diag C).

    m = 1 is the Fischer inequality det(C) <= prod det(Ci); m = None checks
    every m and reports the first m of worst normalized margin. C must be
    positive definite (NotPositiveDefinite).
    """
    c, part = inst.c, inst.partition
    n = part.n
    ms = range(1, n + 1) if inst.m is None else [inst.m]
    # Both spectra must be positive before their logs: C's first, then
    # Diag C's (NotPositiveDefinite names the eigenvalue)
    spectrum = _positive_spectrum(_eigvalsh(c))
    block_spectrum = _positive_spectrum(_block_spectra(c, part))
    # (2, T, n) logs of lambda(C) and of lambda(Diag C)
    logs = np.log(np.stack([spectrum, block_spectrum])).reshape(2, -1, n)
    # (M, 2, T) log tail products, positions m..n (1-based), for each m
    tails = np.stack([np.sum(logs[..., m - 1:], axis=-1) for m in ms])
    llhs, lrhs = tails[:, 0], tails[:, 1]
    margins = lrhs - llhs
    worst = np.argmin(margins / np.fmax(1.0, np.fmax(np.abs(llhs), np.abs(lrhs))), axis=0)
    cols = np.arange(llhs.shape[1])
    return _log_verdicts(
        llhs[worst, cols], lrhs[worst, cols], tol,
        detail=lambda k, i: {"worst_m": ms[worst[i]], "margins_by_m": {
            str(m): v for m, v in zip(ms, margins[:, i].tolist())}})


def _block_spectra(c, part: Partition) -> np.ndarray:
    """lambda(Diag C): the spectra of the diagonal blocks, concatenated and
    sorted nonincreasing, with one eigensolver call per block size."""
    return sort_desc(np.concatenate(_blockwise(_eigvalsh, c, part), axis=-1))


def _kyfan_verdicts(inst: Instance, ps: Sequence[float], tol: float) -> Verdicts:
    """lambda(Diag C) majorized by lambda(C) (equal traces, dominated prefixes)."""
    c = inst.c
    return _order_verdicts(OrderKind.MAJORIZE, _block_spectra(c, inst.partition), _eigvalsh(c), tol)


# ---------------------------------------------------------------------------
# Evaluators for statements that are false in general.

def _square_sum_logdets(cd: np.ndarray) -> tuple:
    """(log det(C^2 + D^2), log det C, log det D) of a stacked pair
    cd = (C, D), each a matrix or a stack, with no square formed: for
    symmetric C and D, C^2 + D^2 is the Gram matrix of [C; D], whose
    log-determinant a QR takes without squaring the condition number. One
    Cholesky call factors C and D, C's error first."""
    logdets = _each(_logdet, cd)
    return _gram_logdet(np.concatenate(cd, axis=-2)), logdets[0], logdets[1]


def _blockwise_square_sum_logdets(c, d, part: Partition) -> tuple[list, tuple]:
    """(_square_sum_logdets of each diagonal block, in block order, and of
    the whole)."""
    cd = np.array((c, d))
    return (_blockwise(lambda g: _square_sum_logdets(g.swapaxes(0, 1)), cd, part),
            _square_sum_logdets(cd))


def _inv_square_sum_verdicts(inst: Instance, ps: Sequence[float], tol: float) -> Verdicts:
    # log det(D^-2 + C^-2), as D^-2 + C^-2 = D^-2 (C^2 + D^2) C^-2
    blocks, (gram, lc, ld) = _blockwise_square_sum_logdets(inst.c, inst.d, inst.partition)
    llhs = sum(gram_j - 2.0 * (lc_j + ld_j) for gram_j, lc_j, ld_j in blocks)
    return _log_verdicts(llhs, gram - 2.0 * (lc + ld), tol)


def inv_square_sum_exact(c_exact, d_exact, part: Partition):
    """Exact rational sides of inv-square-sum: (blockwise product, full det),
    each factor det(D^-2 + C^-2). A singular exact C, Ci, D or Di raises
    SingularMatrix, C's before D's. On integers, with C = c/s and D = d/t
    (a Scaled C or D is used as it is), and no inverse: since
    D^-2 + C^-2 = D^-2 (C^2 + D^2) C^-2, each factor is
    det(t^2 c^2 + s^2 d^2)/(det c det d)^2. The float checker takes the
    same identity, with det(C^2 + D^2) from a QR of [C; D]. A D zero off
    its diagonal blocks gives the whole's det d = prod det di and
    d^2 = d1^2 (+) ... (+) dk^2 from the blocks'."""
    (d, t), (c, s) = exact.clear_denominators(d_exact), exact.clear_denominators(c_exact)
    block_d = exact.block_diagonal(d, part.offsets())
    factors, d_dets, d_squares = [], [], []
    for name, lo, hi in _blocks_then_whole(part, len(c)):
        ci, di = exact.submatrix(c, lo, hi), exact.submatrix(d, lo, hi)
        det_c = _nonzero_det(ci, "C" + name)
        if name or not block_d:  # a block, or a whole D of its own
            d_dets.append(_nonzero_det(di, "D" + name))
            d_squares.append(exact.square(di))
            det_d, d_square = d_dets[-1], d_squares[-1]
        else:
            det_d = math.prod(d_dets)
            d_square = exact.direct_sum([exact.Scaled(sq, 1) for sq in d_squares]).ints
        squares = _combine(t * t, exact.square(ci), s * s, d_square)
        factors.append(Fraction(exact.det_int(squares), (det_c * det_d) ** 2))
    return math.prod(factors[:-1]), factors[-1]


def _sv_weak_log_verdicts(inst: Instance, ps: Sequence[float], tol: float) -> Verdicts:
    blocks, y = _product_singular_values(inst.c, inst.d, inst.partition)
    x = sort_desc(np.concatenate(blocks, axis=-1))
    return _order_verdicts(OrderKind.WEAK_LOG_MAJORIZE, x, y, tol)


# ---------------------------------------------------------------------------
# Parametrized checks. Each does the p-independent work once on a validated
# instance or stack, then computes each side over the whole exponent grid in
# one numpy pass, one row per exponent, one column per instance, with one
# power x**p per exponent (_powers), which keeps every verdict the bits of a
# one-exponent grid.

def _sum_log1p_power(x: np.ndarray, ps: Sequence[float]) -> np.ndarray:
    """sum log1p(x^p) over the last axis, for each p of ps: a (P, ...) array.
    Where x^p overflows a double, its term is p*log(x), which equals
    log1p(x^p) to double precision there."""
    xp = _powers(x, ps)
    over = np.isinf(xp)
    if over.any():
        p_col = np.reshape(ps, (-1,) + (1,) * x.ndim)
        return np.sum(np.where(over, p_col * np.log(x), np.log1p(xp)), axis=-1)
    return np.sum(np.log1p(xp), axis=-1)


def _log1p_power_verdicts(inst: Instance, ps: Sequence[float], tol: float) -> Verdicts:
    """det-power and neg-power: sum log1p(x^p) <= sum log1p(y^p) over the
    product spectra."""
    x, y = _product_spectra(inst.c, inst.d, inst.partition)
    return _log_verdicts(_sum_log1p_power(x, ps), _sum_log1p_power(y, ps), tol, ps)


def _thm32_verdicts(inst: Instance, ps: Sequence[float], tol: float) -> Verdicts:
    """Weak majorization of the blockwise inverse-sum spectrum by the full
    one, both raised entrywise to p >= 1."""
    mats = inst.mats
    x, y = _choi_spectra(mats, inst.partition)
    # x**p need not be nonincreasing in its last bit, so the powers are
    # sorted, as one stack; check_orders rejects an overflowed power
    xp, yp = sort_desc((_powers(x, ps), _powers(y, ps)))
    return _order_verdicts(OrderKind.WEAK_MAJORIZE, xp, yp, tol, ps,
                           detail=lambda k, i: {"m": len(mats)})


def _abs_power_verdicts(inst: Instance, ps: Sequence[float], tol: float) -> Verdicts:
    block_svs, s_full = _product_singular_values(inst.c, inst.d, inst.partition)
    llhs = sum(_sum_log1p_power(s, ps) for s in block_svs)
    return _log_verdicts(llhs, _sum_log1p_power(s_full, ps), tol, ps)


def _commuted_power_verdicts(inst: Instance, ps: Sequence[float], tol: float) -> Verdicts:
    # (w, V) of each diagonal block of C, then of D
    c_eigs, d_eigs = (_blockwise(_pd_eigh, a, inst.partition) for a in (inst.c, inst.d))
    c_eig = _pd_eigh(inst.c)
    # every power below is a (P, ..., n, n) stack, one product for the grid
    powers = [(eigh_powers(*ce, ps), eigh_powers(*de, ps)) for ce, de in zip(c_eigs, d_eigs)]
    llhs = sum(_logdet_ratio(np.array(pair)) for pair in powers)
    cp = eigh_powers(*c_eig, ps)
    lrhs = _logdet_ratio(np.array((cp, _direct_sum([dp for _, dp in powers]))))
    return _log_verdicts(llhs, lrhs, tol, ps)


def _require_exponent(p) -> None:
    """Raise BadExponent on an exponent that is not None, an int or a float
    (a bool, a string, a numpy integer), NonFinite on a NaN or infinite one:
    every exponent accepted writes to JSON and reads back (from_json)."""
    if p is None:
        return
    if isinstance(p, bool) or not isinstance(p, (int, float)):
        raise BadExponent(f"exponent p must be a number, got {p!r}")
    if not math.isfinite(p):
        raise NonFinite(f"non-finite exponent p = {p}")


@dataclass(frozen=True)
class PSplit:
    """A parametrized id's exponents: the statement is made for
    lo <= p < hi (exponent_spec rejects any other p); `grid` is the
    exponent grid a fuzz trial sweeps when no p is given, `default` the
    CLI's p when --p is absent."""

    lo: float
    hi: float
    grid: tuple[float, ...]
    default: float


# ---------------------------------------------------------------------------
# The registry: one Spec per catalog id.

class Role(enum.Enum):
    THEOREM = "theorem"      # expected to hold: a violation is a bug, not a finding
    EVALUATOR = "evaluator"  # false in general: violations are data, never errors
    OPEN = "open"            # unresolved: verdicts are recorded, nothing is asserted


class Shape(enum.Enum):
    """The Instance fields an id reads, and so the inputs the fuzzer draws,
    the CLI loads and a fingerprint hashes (assemble, _hashed)."""

    BLOCK_D = "block-d"      # partition, c, d block diagonal for the partition
    GENERAL_D = "general-d"  # partition, c, d
    MATS = "mats"            # partition, mats
    C = "c"                  # partition, c
    C_M = "c+m"              # partition, c, and m (None: every m)
    C_IDX = "c+idx"          # c, idx


Checker = Callable[[Instance, Sequence[float], float], Verdicts]
# (C cap, D-block cap, block-scale bias in decades) for block-D fuzz draws;
# a None cap leaves GenConfig.kappa_max alone.
Caps = tuple[float | None, float | None, float]


@dataclass(frozen=True, eq=False)
class Spec:
    """What the catalog, the fuzzer and the CLI know about one id.

    check: (validated instance or stack, ps, tol) -> the Verdicts of its
        instances, one row per exponent of ps; an id without an exponent
        ignores ps and gives one row.
    split: the exponents of a parametrized id: its interval, fuzz grid
        and default p.
    caps: the generator caps for block-D draws.
    reference: (partition, C, D) of the counterexample the fuzzer injects as
        trial 0; D is block diagonal for the partition for a block-D id.
        The fuzzer checks it once per process for each exponent grid and
        tol, keyed by this Spec object, and reuses the verdicts
        (fuzzing._checked_reference).
    certify: (c_exact, d_exact, part) -> exact (lhs, rhs), with d_exact the
        whole exact D, block diagonal for a block-D id; each an exact.Scaled
        (as the CLI reads it) or a matrix of Fractions.

    Entries reach the certifiers through lambdas that look up their
    module-level names, so a patch of a module attribute (a tracer's, a
    test's) sees every call made after it. A reference the fuzzer has
    already checked is not checked again, so a patched checker or kernel
    does not see it; a Spec swapped into SPECS is a new key and is.
    """

    role: Role
    shape: Shape
    check: Checker
    split: PSplit | None = None
    caps: Caps = (None, None, 0.0)
    reference: tuple[Partition, np.ndarray, np.ndarray] | None = None
    certify: Callable | None = None


_INV_SQ_REF = (refdata.INV_SQ_PART, refdata.INV_SQ_C, refdata.INV_SQ_D)
# The false block-D statements need matrix powers or singular values of
# explicit products, which square or cube the working condition number.
# Their caps keep every derived object within double precision while still
# reaching the strongly unequal block scales the known violations live in.
# commuted-power forms C^p and D^p, whose condition numbers are kappa^p, so
# its grid stops at p = 2 and its C draw is capped at 1e6: C^2 then stays
# inside the Cholesky near-singular rejection envelope. inv-square-sum does
# not square kappa (a QR of [C; D], no inverse): its D cap and bias set the
# regime its draws are made in, not a limit of double precision.

SPECS: dict[str, Spec] = {
    "main-thm": Spec(Role.THEOREM, Shape.BLOCK_D, _weak_log_verdicts),
    "matic": Spec(Role.THEOREM, Shape.BLOCK_D, _matic_verdicts,
                  certify=lambda c, d, part: matic_exact(c, d, part)),
    "det-power": Spec(
        Role.THEOREM, Shape.BLOCK_D, _log1p_power_verdicts,
        split=PSplit(0.0, math.inf, grid=(0.0, 0.5, 1.0, 2.0, 3.0), default=1.0)),
    "abs-power": Spec(
        Role.EVALUATOR, Shape.BLOCK_D, _abs_power_verdicts,
        split=PSplit(0.0, math.inf, grid=(0.0, 0.5, 1.0, 2.0, 3.0), default=2.0),
        caps=(1e3, 1e2, 1.0), reference=_INV_SQ_REF),
    "commuted-power": Spec(
        Role.EVALUATOR, Shape.BLOCK_D, _commuted_power_verdicts,
        split=PSplit(0.0, math.inf, grid=(0.0, 0.5, 1.0, 2.0), default=2.0),
        caps=(1e6, 1e3, 1.5), reference=_INV_SQ_REF),
    "inv-square-sum": Spec(Role.EVALUATOR, Shape.BLOCK_D, _inv_square_sum_verdicts,
                           caps=(None, 1e3, 1.5), reference=_INV_SQ_REF,
                           certify=lambda c, d, part: inv_square_sum_exact(c, d, part)),
    "neg-power": Spec(
        Role.EVALUATOR, Shape.BLOCK_D, _log1p_power_verdicts,
        split=PSplit(-math.inf, 0.0, grid=(-0.5, -1.0, -2.0, -3.0), default=-1.0),
        caps=(None, 1e3, 1.5),
        reference=(refdata.NEG_POWER_PART, refdata.NEG_POWER_C, refdata.NEG_POWER_D)),
    "matic-general-d": Spec(
        Role.EVALUATOR, Shape.GENERAL_D, _matic_verdicts,
        reference=(refdata.MATIC_GEN_PART, refdata.MATIC_GEN_C, refdata.MATIC_GEN_D),
        certify=lambda c, d, part: matic_exact(c, d, part)),
    "weak-log-general-d": Spec(
        Role.EVALUATOR, Shape.GENERAL_D, _weak_log_verdicts,
        reference=(refdata.WLOG_PART, refdata.WLOG_C, refdata.WLOG_D)),
    "sv-weak-log": Spec(Role.EVALUATOR, Shape.BLOCK_D, _sv_weak_log_verdicts,
                        caps=(1e2, 1e2, 1.0), reference=_INV_SQ_REF),
    "choi": Spec(Role.THEOREM, Shape.MATS, _choi_verdicts),
    "thm32": Spec(Role.THEOREM, Shape.MATS, _thm32_verdicts,
                  split=PSplit(1.0, math.inf, grid=(1.0, 2.0, 3.0), default=1.0)),
    "open-q": Spec(Role.OPEN, Shape.MATS, _open_q_verdicts),
    "lemma31": Spec(Role.THEOREM, Shape.C_IDX, _lemma31_verdicts),
    "fischer-tail": Spec(Role.THEOREM, Shape.C_M, _fischer_tail_verdicts),
    "ky-fan": Spec(Role.THEOREM, Shape.C, _kyfan_verdicts),
}

INEQUALITY_IDS = tuple(SPECS)
THEOREM_IDS = frozenset(i for i, spec in SPECS.items() if spec.role is Role.THEOREM)
EVALUATOR_IDS = frozenset(i for i, spec in SPECS.items() if spec.role is Role.EVALUATOR)


def spec_of(inequality: str) -> Spec:
    """The Spec of a catalog id; any other name raises UnknownInequality."""
    try:
        return SPECS[inequality]
    except KeyError:
        raise UnknownInequality(
            f"unknown inequality id {inequality!r}; known: {', '.join(SPECS)}") from None


def require_tol(tol) -> None:
    """Raise BadConfig on a tolerance that is not a finite real >= 0."""
    if (isinstance(tol, bool) or not isinstance(tol, numbers.Real)
            or not math.isfinite(tol) or tol < 0):
        raise BadConfig(f"tolerance must be a finite number >= 0, got {tol!r}")


def exponent_spec(inequality: str, ps: Sequence[float | None]) -> Spec:
    """spec_of(inequality), once each exponent a call runs at (ps, None
    where it has none; empty to check the id alone) passes, in order: a
    finite number or None (_require_exponent); no p for an id without an
    exponent; a p for a parametrized id; lo <= p < hi. Each of the last
    three raises BadExponent."""
    spec = spec_of(inequality)
    split = spec.split
    for p in ps:
        _require_exponent(p)
        if split is None:
            if p is not None:
                raise BadExponent(f"{inequality} takes no exponent, got p = {p}")
        elif p is None:
            raise BadExponent(f"{inequality} needs p")
        elif p < split.lo:
            raise BadExponent(f"{inequality} needs p >= {split.lo:g}, got p = {p}")
        elif p >= split.hi:
            raise BadExponent(f"{inequality} needs p < {split.hi:g}, got p = {p}")
    return spec


def check_validated(inequality: str, inst: Instance, ps: Sequence[float],
                    tol: float = DEFAULT_TOL) -> Verdicts:
    """The Verdicts of a validated instance (validate_instance), or of the
    instances of a stack of them in stack order, at each exponent of ps,
    with the id and its Shape set from the Spec. The exponents must have
    passed exponent_spec; an id without an exponent ignores ps and gives
    one row. numpy's floating-point warnings are off: the kernels' own
    checks judge an overflow."""
    spec = spec_of(inequality)
    with np.errstate(all="ignore"):
        # first_error's members are the exponents, in order: a call that
        # raises reruns the whole checker at one exponent at a time, so
        # only a failure pays for it
        verdicts = first_error(lambda: spec.check(inst, ps, tol),
                               lambda p: spec.check(inst, (p,), tol), lambda: ps)
    verdicts.inequality, verdicts.shape = inequality, spec.shape
    return verdicts


def run_check(inequality: str, inst: Instance, tol: float = DEFAULT_TOL) -> InequalityVerdict:
    """Dispatch any catalog id on an Instance; the single entry point used by
    the CLI. Parametrized ids are evaluated at inst.p. The exponent
    (exponent_spec) and the tolerance (require_tol) are checked first, then
    each input matrix once (validate_instance)."""
    spec = exponent_spec(inequality, (inst.p,))
    require_tol(tol)
    inst = validate_instance(spec.shape, inst)
    return check_validated(inequality, inst, (inst.p,), tol).verdict(0, 0, inst)
