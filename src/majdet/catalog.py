"""One checker per inequality family, each returning a structured verdict.

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
whole; a block-D id's D must be block diagonal, and is hashed and written as
its blocks, so main-thm and weak-log-general-d share one check, as do matic
and matic-general-d.
Determinant comparisons run in the log domain, and det(I + C^-1 D) is always
computed as det(C + D)/det(C) through Cholesky log-determinants. Spectra of
C^-1 D come from the pencil kernel behind linalg.eig_pencil, which never
inverts C; explicit inverses appear only where a statement names them, and
in the singular-value statements, which need the actual product C^-1 D.

Inputs are validated once, at the boundary: validate_instance checks each
input matrix of the id's Shape (square, sized for the partition, finite,
symmetric), and the checkers then call only linalg's private kernels, which
validate nothing. Every checker is written with numpy broadcasting, so it
takes one validated instance or a stack of them (instances that share
everything but their matrices, whose matrices are stacked along a leading
axis, as stack_instances builds it or the fuzzer draws it) and returns one
verdict per instance; check_validated runs it, and the fuzzer evaluates a
whole group of trials in one call per kernel that way.

The parametrized ids (det-power, thm32, abs-power, commuted-power,
neg-power) are split at p: a preparation step does everything that does not
depend on p (spectra, singular values, eigendecompositions) once per
instance or stack, and returns a grid step, which takes a whole exponent
grid and computes each side over it in one numpy pass: the powers as one
(P, ...) stack, one log1p and one sum, or one order check, over all the
exponents. run_check evaluates one p and check_p_grid a grid through that
split; each verdict has the bits of a one-exponent grid.

SPECS holds one Spec per id: its role, the inputs it reads, its checker and,
for the fuzzer and the CLI, its p-split with exponent grid and default p,
its generator caps, its reference counterexample and its exact certifier.
Adding an id means adding its checker and one Spec.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
import math
import numbers
from collections.abc import Callable, Sequence
from dataclasses import InitVar, dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import exact, refdata
from .blocks import Partition, diag_blocks, direct_sum, principal_indices, principal_submatrix
from .errors import (
    BadConfig,
    BadExponent,
    DimensionMismatch,
    IndexOutOfRange,
    MajdetError,
    MissingField,
    NegativePower,
    NotBlockDiagonal,
    NonFinite,
    NotPositiveDefinite,
    SingularMatrix,
    UnknownInequality,
)
from .linalg import (
    _eigvalsh,
    _finite,
    _logdet,
    _pd_eigh,
    _pd_inverse,
    _pencil,
    _rowwise,
    _singular_values,
    as_square,
    eigh_powers,
    frobenius,
    require_symmetric,
    symmetrize,
)
from .orders import DEFAULT_TOL, OrderKind, OrderReport, check_orders, sort_desc


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
    matrices may also be stacks along one leading axis, one matrix per
    instance, for instances that share everything else (stack_instances).
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
        if d_blocks is None:
            return
        d, part = direct_sum(d_blocks), self.partition  # direct_sum checks squareness
        if part is not None and len(d_blocks) != part.k:
            raise DimensionMismatch(f"{len(d_blocks)} D blocks for a {part.k}-block partition")
        for size, got in zip(part.sizes if part else (), (np.shape(b)[-1] for b in d_blocks)):
            if got != size:
                raise DimensionMismatch(f"D block is {got}x{got}, expected {size}")
        object.__setattr__(self, "d", d)

    def to_json(self, shape: Shape | None = None) -> dict:
        """The set fields as JSON; a Shape.BLOCK_D instance writes D as its
        blocks, under "d_blocks" (_c_d_payload)."""
        out: dict = {}
        if self.partition is not None:
            out["partition"] = list(self.partition.sizes)
        if self.c is not None:
            out["c"] = self.c.tolist()
        if self.d is not None and shape is Shape.BLOCK_D:
            out["d_blocks"] = [b.tolist() for b in _c_d_payload(shape, self)[1:]]
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
        """Inverse of to_json (D from "d" or "d_blocks"); raises NonFinite on a
        NaN or infinite entry or p, and BadExponent on a p not a number."""
        p = payload.get("p")
        if p is not None:
            if isinstance(p, bool) or not isinstance(p, (int, float)):
                raise BadExponent(f"exponent p must be a number, got {p!r}")
            if not math.isfinite(p):
                raise NonFinite(f"non-finite exponent p = {p}")
        return cls(
            partition=Partition(tuple(payload["partition"])) if "partition" in payload else None,
            c=_finite_array(payload["c"]) if "c" in payload else None,
            d_blocks=tuple(_finite_array(b) for b in payload["d_blocks"])
            if "d_blocks" in payload else None,
            d=_finite_array(payload["d"]) if "d" in payload else None,
            mats=tuple(_finite_array(m) for m in payload["mats"])
            if "mats" in payload else None,
            idx=tuple(payload["idx"]) if "idx" in payload else None,
            p=p,
            m=payload.get("m"),
        )


def _finite_array(rows) -> np.ndarray:
    arr = np.array(rows, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise NonFinite("instance matrix has a non-finite entry")
    return arr


# The matrix fields of an Instance; mats holds a tuple of matrices.
_MATRIX_FIELDS = ("c", "d", "mats")


def stack_instances(insts: Sequence[Instance]) -> Instance:
    """One Instance whose matrices are those of insts stacked along a new
    leading axis, in order; insts share matrix shapes, partition, idx, m
    and p, and the stack takes those of the first."""
    def stacked(values: list):
        if values[0] is None:
            return None
        if isinstance(values[0], tuple):
            return tuple(np.stack(column) for column in zip(*values))
        return np.stack(values)

    return replace(insts[0], **{f: stacked([getattr(inst, f) for inst in insts])
                                for f in _MATRIX_FIELDS})


def _exp_or_none(x: float) -> float | None:
    try:
        return math.exp(x)
    except OverflowError:
        return None


def _feed(h, parts) -> None:
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=float).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")


def _digest(parts) -> str:
    h = hashlib.sha256()
    _feed(h, parts)
    return h.hexdigest()[:16]


def _instances(a: np.ndarray):
    """The index of each instance in a matrix stack a: the one index () when
    a is a single matrix."""
    return itertools.product(*map(range, a.shape[:-2]))


def _fingerprint(n: int, partition: Partition | None, *payload) -> Fingerprint:
    sizes = partition.sizes if partition is not None else None
    return Fingerprint(n=n, partition=sizes, digest=_digest(payload))


def _fingerprints(n: int, partition: Partition | None, arrays, *extra) -> list[Fingerprint]:
    """One fingerprint per instance of a stack (one in all for an instance):
    _fingerprint of its matrices from arrays, then of extra."""
    return [_fingerprint(n, partition, *(a[i] for a in arrays), *extra)
            for i in _instances(arrays[0])]


def _p_fingerprints(n: int, partition: Partition | None,
                    arrays) -> list[Callable[[float], Fingerprint]]:
    """Per instance, p -> _fingerprint(n, partition, *its matrices, p),
    hashing the matrices once."""
    sizes = partition.sizes if partition is not None else None

    def for_instance(i) -> Callable[[float], Fingerprint]:
        prefix = hashlib.sha256()
        _feed(prefix, [a[i] for a in arrays])

        def at(p: float) -> Fingerprint:
            h = prefix.copy()
            _feed(h, (p,))
            return Fingerprint(n=n, partition=sizes, digest=h.hexdigest()[:16])

        return at

    return [for_instance(i) for i in _instances(arrays[0])]


def _scalar_verdict(inequality: str, llhs: float, lrhs: float, tol: float,
                    fingerprint: Fingerprint, detail: dict | None = None) -> InequalityVerdict:
    margin = lrhs - llhs
    tol_eff = tol * max(1.0, abs(llhs), abs(lrhs))
    return InequalityVerdict(
        inequality=inequality,
        lhs=_exp_or_none(llhs),
        rhs=_exp_or_none(lrhs),
        margin=margin,
        holds=margin >= -tol_eff,
        tol=tol_eff,
        fingerprint=fingerprint,
        detail={"log_lhs": llhs, "log_rhs": lrhs, **(detail or {})},
    )


def _scalar_verdicts(inequality: str, llhs, lrhs, tol: float,
                     fingerprints: list[Fingerprint],
                     detail: dict | None = None) -> list[InequalityVerdict]:
    """One scalar verdict per instance, from the per-instance log sides."""
    return [_scalar_verdict(inequality, lo, hi, tol, fp, detail)
            for lo, hi, fp in zip(np.ravel(llhs).tolist(), np.ravel(lrhs).tolist(), fingerprints)]


def _order_verdict(inequality: str, report: OrderReport, tol: float,
                   fingerprint: Fingerprint, detail: dict | None = None) -> InequalityVerdict:
    return InequalityVerdict(
        inequality=inequality,
        lhs=None,
        rhs=None,
        margin=report.worst_margin(),
        holds=report.holds,
        tol=tol,
        fingerprint=fingerprint,
        order=report,
        detail=dict(detail or {}),
    )


def _order_verdicts(inequality: str, kind: OrderKind, x, y, tol: float,
                    fingerprints: list[Fingerprint],
                    detail: dict | None = None) -> list[InequalityVerdict]:
    """One order verdict per row pair of x and y (per instance)."""
    return [_order_verdict(inequality, report, tol, fp, detail)
            for report, fp in zip(check_orders(kind, x, y, tol), fingerprints)]


# ---------------------------------------------------------------------------
# Validation at the boundary: each input matrix is checked once, and the
# checkers below run on what it returns, through the linalg kernels only.
# Derived matrices (sums, inverses, powers) are symmetrized where they are
# formed and never validated again.

def _check_dim(m: np.ndarray, part: Partition):
    if m.shape[-1] != part.n:
        raise DimensionMismatch(f"matrix is {m.shape[-1]}x{m.shape[-1]}, partition needs {part.n}")


def validate_instance(shape: Shape, inst: Instance, lead: int = 0) -> Instance:
    """inst with every input matrix its Shape reads as a float array,
    checked once: square and sized for the partition (DimensionMismatch),
    finite (NonFinite) and symmetric (NotSymmetric). lemma31's idx comes
    back as checked ints. A block-D D must be zero off the diagonal blocks
    (NotBlockDiagonal), each block judged symmetric on its own slack. A
    field the Shape reads that is unset raises MissingField. With lead = 1,
    inst is a stack (stack_instances) and each matrix of it is checked, on
    its own symmetry slack, in one call per field."""
    for name in _REQUIRED_FIELDS[shape]:
        if getattr(inst, name) is None:
            needs = "d or d_blocks" if name == "d" else name
            raise MissingField(f"a {shape.value} instance needs {needs}, which is unset")
    part = inst.partition
    if shape is Shape.MATS:
        mats = [as_square(a, lead) for a in inst.mats]
        if not mats:
            raise DimensionMismatch("need at least one matrix")
        for a in mats:
            _check_dim(a, part)
        return replace(inst, mats=tuple(require_symmetric(a) for a in mats))
    if shape is Shape.C_IDX:
        a = as_square(inst.c, lead)
        idx = principal_indices(inst.idx, a.shape[-1])
        return replace(inst, c=require_symmetric(a), idx=idx)
    if shape is Shape.C:
        c = as_square(inst.c, lead)
        _check_dim(c, part)
        return replace(inst, c=require_symmetric(c))
    c = as_square(inst.c, lead)
    d = as_square(inst.d, lead)
    if c.shape != d.shape:
        raise DimensionMismatch(f"{c.shape} vs {d.shape}")
    _check_dim(c, part)
    c = require_symmetric(c)
    if shape is Shape.GENERAL_D:
        return replace(inst, c=c, d=require_symmetric(d))
    off = d.copy()  # D with its diagonal blocks zeroed
    for lo, hi in part.offsets():
        require_symmetric(d[..., lo:hi, lo:hi])
        off[..., lo:hi, lo:hi] = 0.0
    if np.logical_or.reduce(off != 0.0, axis=None):  # NaN and inf included
        _finite(off)
        at = tuple(np.argwhere(off)[0])
        raise NotBlockDiagonal(f"D is not block diagonal for partition {part.sizes}: entry "
                               f"({at[-2]}, {at[-1]}) = {float(d[at])!r} is off the blocks")
    return replace(inst, c=c, d=d)


# ---------------------------------------------------------------------------
# Checkers. Each takes a validated instance, or a stack of them (matrices
# with one leading axis), and returns one verdict per instance: the same
# code runs with and without the leading axis.

def _c_d_payload(shape: Shape, inst: Instance) -> tuple[np.ndarray, ...]:
    """A C+D instance as an id of the Shape hashes and writes it: C, then D
    whole, or for Shape.BLOCK_D the diagonal blocks of D."""
    if shape is Shape.BLOCK_D:
        return (inst.c, *diag_blocks(inst.d, inst.partition))
    return inst.c, inst.d


def product_spectra(c, d, part: Partition) -> tuple[np.ndarray, np.ndarray]:
    """(concatenated spectra of Ci^-1 Di sorted nonincreasing, spectrum of
    C^-1 D), with Ci and Di the diagonal blocks of C and D: positive
    definite float arrays, or stacks of them."""
    x = sort_desc(np.concatenate(
        [_pencil(cb, db) for cb, db in zip(diag_blocks(c, part), diag_blocks(d, part))],
        axis=-1))
    return x, _pencil(c, d)


def _weak_log_verdicts(inequality: str, inst: Instance, tol: float) -> list[InequalityVerdict]:
    """main-thm (block-diagonal D) and weak-log-general-d (any D): the
    blockwise spectrum weak-log-majorized by lambda(C^-1 D)."""
    part = inst.partition
    x, y = product_spectra(inst.c, inst.d, part)
    payload = _c_d_payload(SPECS[inequality].shape, inst)
    return _order_verdicts(inequality, OrderKind.WEAK_LOG_MAJORIZE, x, y, tol,
                           _fingerprints(part.n, part, payload))


def check_main_theorem(c, d_blocks, part: Partition, tol: float = DEFAULT_TOL) -> InequalityVerdict:
    """Weak log majorization of the blockwise spectrum by the full spectrum."""
    return run_check("main-thm", Instance(partition=part, c=c, d_blocks=d_blocks), tol)


def _logdet_ratio_blocks(c_blocks, d_blocks):
    """sum_i [logdet(Ci + Di) - logdet(Ci)]."""
    return sum(
        _logdet(symmetrize(cb + db)) - _logdet(cb)
        for cb, db in zip(c_blocks, d_blocks)
    )


def _matic_verdicts(inequality: str, inst: Instance, tol: float) -> list[InequalityVerdict]:
    """matic (block-diagonal D) and matic-general-d (any D):
    prod det(I + Ci^-1 Di) <= det(I + C^-1 D)."""
    part = inst.partition
    c, d = inst.c, inst.d
    llhs = _logdet_ratio_blocks(diag_blocks(c, part), diag_blocks(d, part))
    lrhs = _logdet(symmetrize(c + d)) - _logdet(c)
    payload = _c_d_payload(SPECS[inequality].shape, inst)
    return _scalar_verdicts(inequality, llhs, lrhs, tol, _fingerprints(part.n, part, payload))


def check_matic(c, d_blocks, part: Partition, tol: float = DEFAULT_TOL) -> InequalityVerdict:
    """prod det(I + Ci^-1 Di) <= det(I + C^-1 D) for block-diagonal D."""
    return run_check("matic", Instance(partition=part, c=c, d_blocks=d_blocks), tol)


def _certify(factor, c_exact, d_exact, part: Partition):
    """(prod_i factor(Ci, Di), factor(C, D)) over the diagonal blocks and the
    whole of an exact C and D, on integers: C = C'/s and D = D'/t with C', D'
    from clearing denominators, and factor(C', D', s, t, name) returns the
    exact Fraction, name labelling the block ("" for the whole)."""
    (c, s), (d, t) = exact.clear_denominators(c_exact), exact.clear_denominators(d_exact)

    def at(lo: int, hi: int, name: str) -> Fraction:
        return factor(exact.submatrix(c, lo, hi), exact.submatrix(d, lo, hi), s, t, name)

    lhs = math.prod(at(lo, hi, str(i)) for i, (lo, hi) in enumerate(part.offsets(), start=1))
    return lhs, at(0, len(c), "")


def _nonzero_det(a: exact.IntMatrix, name: str) -> int:
    det = exact.det_int(a)
    if det == 0:
        raise SingularMatrix(f"exact {name} is singular")
    return det


def _combine(x: int, a: exact.IntMatrix, y: int, b: exact.IntMatrix) -> exact.IntMatrix:
    """x a + y b for integer matrices a and b."""
    return [[x * u + y * v for u, v in zip(ra, rb)] for ra, rb in zip(a, b)]


def _det_ratio_exact(c, d, s: int, t: int, name: str) -> Fraction:
    """det(C + D)/det(C) for C = c/s, D = d/t: det(t c + s d)/(t^n det c)."""
    det_c = _nonzero_det(c, "C" + name)
    return Fraction(exact.det_int(_combine(t, c, s, d)), t ** len(c) * det_c)


def matic_exact(c_exact, d_exact, part: Partition):
    """Exact rational sides of matic and matic-general-d:
    (prod_i det(Ci + Di)/det(Ci), det(C + D)/det(C)). A singular exact C or
    Ci raises SingularMatrix."""
    return _certify(_det_ratio_exact, c_exact, d_exact, part)


def check_det_power(c, d_blocks, part: Partition, p: float,
                    tol: float = DEFAULT_TOL) -> InequalityVerdict:
    """prod det(I + (Ci^-1 Di)^p) <= det(I + (C^-1 D)^p) for p >= 0.

    Sides are evaluated as sums of log1p(lambda^p) over the product spectra;
    the matrix power is never formed.
    """
    inst = Instance(partition=part, c=c, d_blocks=d_blocks)
    return check_p_grid("det-power", inst, (p,), tol)[0]


def identity_abs_square(c, d_blocks, part: Partition,
                        tol: float = DEFAULT_TOL) -> InequalityVerdict:
    """Equality check: det(I + |C^-1 D|^2) = det(D^-2 + C^-2) * det(D)^2,
    globally and blockwise, to relative tolerance.

    The two sides travel independent computation paths (singular values of
    the explicit product vs Cholesky log-determinants). margin is minus the
    worst normalized residual, so holds == (margin >= -tol).
    """
    require_tol(tol)
    inst = validate_instance(Shape.BLOCK_D, Instance(partition=part, c=c, d_blocks=d_blocks))
    payload = _c_d_payload(Shape.BLOCK_D, inst)

    def sides(cmat, dmat) -> tuple[float, float]:
        ic = _pd_inverse(cmat)
        s = _singular_values(ic @ dmat)
        left = float(np.sum(np.log1p(s**2)))
        idm = _pd_inverse(dmat)
        right = float(_logdet(symmetrize(idm @ idm + ic @ ic))) + 2.0 * float(_logdet(dmat))
        return left, right

    lg, rg = sides(inst.c, inst.d)
    lb, rb = 0.0, 0.0
    for cb, db in zip(diag_blocks(inst.c, part), payload[1:]):
        bl, br = sides(cb, db)
        lb += bl
        rb += br
    res_global = abs(lg - rg) / max(1.0, abs(lg), abs(rg))
    res_block = abs(lb - rb) / max(1.0, abs(lb), abs(rb))
    worst = max(res_global, res_block)
    fp = _fingerprint(part.n, part, *payload)
    return InequalityVerdict(
        inequality="identity-abs-square",
        lhs=_exp_or_none(lg),
        rhs=_exp_or_none(rg),
        margin=-worst,
        holds=worst <= tol,
        tol=tol,
        fingerprint=fp,
        detail={
            "log_lhs_global": lg, "log_rhs_global": rg,
            "log_lhs_blocks": lb, "log_rhs_blocks": rb,
            "residual_global": res_global, "residual_blockwise": res_block,
        },
    )


def _block_inverse_sums(mats, part: Partition) -> list[np.ndarray]:
    """Per position j: sum_i inv(block_j(Ai))."""
    sums = [np.zeros(mats[0].shape[:-2] + (s, s)) for s in part.sizes]
    for a in mats:
        for j, blk in enumerate(diag_blocks(a, part)):
            sums[j] = sums[j] + _pd_inverse(blk)
    return [symmetrize(s) for s in sums]


def _full_inverse_sum(mats) -> np.ndarray:
    total = np.zeros_like(mats[0])
    for a in mats:
        total = total + _pd_inverse(a)
    return symmetrize(total)


def _choi_verdicts(inst: Instance, tol: float) -> list[InequalityVerdict]:
    mats, part = inst.mats, inst.partition
    llhs = sum(_logdet(s) for s in _block_inverse_sums(mats, part))
    lrhs = _logdet(_full_inverse_sum(mats))
    return _scalar_verdicts("choi", llhs, lrhs, tol, _fingerprints(part.n, part, mats),
                            detail={"m": len(mats)})


def check_choi(mats, part: Partition, tol: float = DEFAULT_TOL) -> InequalityVerdict:
    """prod_j det(sum_i inv(Ai_block_j)) <= det(sum_i inv(Ai))."""
    return run_check("choi", Instance(partition=part, mats=tuple(mats)), tol)


def _choi_spectra(mats, part: Partition) -> tuple[np.ndarray, np.ndarray]:
    block_spec = np.concatenate([_eigvalsh(s) for s in _block_inverse_sums(mats, part)], axis=-1)
    return sort_desc(block_spec), _eigvalsh(_full_inverse_sum(mats))


def check_thm32(mats, part: Partition, p: float, tol: float = DEFAULT_TOL) -> InequalityVerdict:
    """Weak majorization of the blockwise inverse-sum spectrum by the full one,
    both raised entrywise to p >= 1."""
    return check_p_grid("thm32", Instance(partition=part, mats=tuple(mats)), (p,), tol)[0]


def _open_q_verdicts(inst: Instance, tol: float) -> list[InequalityVerdict]:
    mats, part = inst.mats, inst.partition
    x, y = _choi_spectra(mats, part)
    return _order_verdicts("open-q", OrderKind.WEAK_LOG_MAJORIZE, x, y, tol,
                           _fingerprints(part.n, part, mats), detail={"m": len(mats)})


def check_open_q(mats, part: Partition, tol: float = DEFAULT_TOL) -> InequalityVerdict:
    """Weak log majorization between the same spectra as thm32 at p = 1.

    Open in general (proved only for 2x2 with two 1x1 blocks); this records
    the empirical verdict and asserts nothing.
    """
    return run_check("open-q", Instance(partition=part, mats=tuple(mats)), tol)


def _lemma31_verdicts(inst: Instance, tol: float) -> list[InequalityVerdict]:
    a, indices = inst.c, inst.idx
    sub_inv = _pd_inverse(principal_submatrix(a, indices))
    inv_sub = principal_submatrix(_pd_inverse(a), indices)
    diff = symmetrize(inv_sub - sub_inv)
    lam_mins = _eigvalsh(diff)[..., -1]
    verdicts = []
    for i, fp in zip(_instances(a), _fingerprints(a.shape[-1], None, (a,), indices)):
        lam_min = float(lam_mins[i])
        fro = frobenius(diff[i])
        margin = lam_min / max(1.0, fro)
        verdicts.append(InequalityVerdict(
            inequality="lemma31",
            lhs=None,
            rhs=None,
            margin=margin,
            holds=margin >= -tol,
            tol=tol,
            fingerprint=fp,
            detail={"idx": list(indices), "lambda_min": lam_min, "fro_norm": fro},
        ))
    return verdicts


def check_lemma31(a, idx, tol: float = DEFAULT_TOL) -> InequalityVerdict:
    """inv([A]) <= [inv(A)] in the Loewner order, for a principal submatrix [.]."""
    return run_check("lemma31", Instance(c=a, idx=idx), tol)


def _tail_start(m, n: int) -> int | None:
    """fischer-tail's m as an int in 1..n; None checks every m."""
    if m is None:
        return None
    if (isinstance(m, bool) or not isinstance(m, numbers.Real) or not math.isfinite(m)
            or m != int(m)):
        raise IndexOutOfRange(f"m = {m!r} is not an integer in 1..{n}")
    if not 1 <= m <= n:
        raise IndexOutOfRange(f"m = {m} out of range 1..{n}")
    return int(m)


def _tail_logsum(sorted_desc: np.ndarray, m: int) -> float:
    # m is 1-based: product over positions m..n
    return float(np.sum(np.log(sorted_desc[m - 1:])))


def _fischer_tail_verdicts(inst: Instance, tol: float) -> list[InequalityVerdict]:
    c, part = inst.c, inst.partition
    n = part.n
    start = _tail_start(inst.m, n)
    lam_full = _eigvalsh(c)
    lam_diag = sort_desc(np.concatenate([_eigvalsh(b) for b in diag_blocks(c, part)], axis=-1))
    ms = range(1, n + 1) if start is None else [start]
    verdicts = []
    for i, fp in zip(_instances(c), _fingerprints(n, part, (c,), inst.m)):
        worst_norm = math.inf
        worst = (0.0, 0.0, 1)
        per_m = {}
        for mm in ms:
            llhs = _tail_logsum(lam_full[i], mm)
            lrhs = _tail_logsum(lam_diag[i], mm)
            scale = max(1.0, abs(llhs), abs(lrhs))
            per_m[mm] = lrhs - llhs
            normed = (lrhs - llhs) / scale
            if normed < worst_norm:
                worst_norm = normed
                worst = (llhs, lrhs, mm)
        llhs, lrhs, worst_m = worst
        verdicts.append(_scalar_verdict(
            "fischer-tail", llhs, lrhs, tol, fp,
            detail={"worst_m": worst_m, "margins_by_m": {str(k): v for k, v in per_m.items()}}))
    return verdicts


def check_fischer_tail(c, part: Partition, m: int | None = None,
                       tol: float = DEFAULT_TOL) -> InequalityVerdict:
    """Tail products prod_{i>=m} lambda_i(C) <= prod_{i>=m} lambda_i(Diag C).

    m = 1 is the Fischer inequality det(C) <= prod det(Ci); m = None checks
    every m and reports the worst margin. A non-integer m, or one outside
    1..n, raises IndexOutOfRange.
    """
    return run_check("fischer-tail", Instance(partition=part, c=c, m=m), tol)


def _kyfan_verdicts(inst: Instance, tol: float) -> list[InequalityVerdict]:
    c, part = inst.c, inst.partition
    x = np.concatenate([_eigvalsh(b) for b in diag_blocks(c, part)], axis=-1)
    return _order_verdicts("ky-fan", OrderKind.MAJORIZE, x, _eigvalsh(c), tol,
                           _fingerprints(part.n, part, (c,)))


def check_kyfan(c, part: Partition, tol: float = DEFAULT_TOL) -> InequalityVerdict:
    """lambda(Diag C) majorized by lambda(C) (equal traces, dominated prefixes)."""
    return run_check("ky-fan", Instance(partition=part, c=c), tol)


# ---------------------------------------------------------------------------
# Evaluators for statements that are false in general.

def _inv_square(a: np.ndarray) -> np.ndarray:
    inv = _pd_inverse(a)
    return symmetrize(inv @ inv)


def _inv_square_sum_logdet(c: np.ndarray, d: np.ndarray, where: str):
    """log det(D^-2 + C^-2); a failure on the derived sum names it and
    where it was formed."""
    total = symmetrize(_inv_square(d) + _inv_square(c))
    try:
        return _logdet(total)
    except (NotPositiveDefinite, NonFinite) as err:
        raise type(err)(f"D^-2 + C^-2 ({where}): {err}") from err


def _inv_square_sum_verdicts(inst: Instance, tol: float) -> list[InequalityVerdict]:
    part = inst.partition
    c, d = inst.c, inst.d
    dbs = diag_blocks(d, part)
    llhs = sum(
        _inv_square_sum_logdet(cb, db, f"block {j}")
        for j, (cb, db) in enumerate(zip(diag_blocks(c, part), dbs), start=1)
    )
    lrhs = _inv_square_sum_logdet(c, d, "whole")
    return _scalar_verdicts("inv-square-sum", llhs, lrhs, tol,
                            _fingerprints(part.n, part, (c, *dbs)))


def _inv_square_sum_det(c, d, s: int, t: int, name: str) -> Fraction:
    """det(D^-2 + C^-2) for C = c/s, D = d/t, without an inverse: since
    D^-2 + C^-2 = D^-2 (C^2 + D^2) C^-2, it is
    det(C^2 + D^2)/(det C det D)^2 = det(t^2 c^2 + s^2 d^2)/(det c det d)^2."""
    scale = _nonzero_det(c, "C" + name) * _nonzero_det(d, "D" + name)
    squares = _combine(t * t, exact.mat_mul(c, c), s * s, exact.mat_mul(d, d))
    return Fraction(exact.det_int(squares), scale * scale)


def inv_square_sum_exact(c_exact, d_exact, part: Partition):
    """Exact rational sides of inv-square-sum: (blockwise product, full det),
    each factor det(D^-2 + C^-2). A singular exact C, Ci, D or Di raises
    SingularMatrix."""
    return _certify(_inv_square_sum_det, c_exact, d_exact, part)


def _sv_weak_log_verdicts(inst: Instance, tol: float) -> list[InequalityVerdict]:
    part = inst.partition
    c, d = inst.c, inst.d
    dbs = diag_blocks(d, part)
    x = np.concatenate(
        [_singular_values(_pd_inverse(cb) @ db) for cb, db in zip(diag_blocks(c, part), dbs)],
        axis=-1)
    y = _singular_values(_pd_inverse(c) @ d)
    return _order_verdicts("sv-weak-log", OrderKind.WEAK_LOG_MAJORIZE, x, y, tol,
                           _fingerprints(part.n, part, (c, *dbs)))


# ---------------------------------------------------------------------------
# Parametrized checks, split at p. Each prepare step does the p-independent
# work on a validated instance or stack and returns the grid step
# `step(ps, tol) -> one verdict list per exponent, one verdict per instance`.
# A step computes each side over the whole grid in one numpy pass, with one
# power x**p per exponent: numpy's fast paths for p = 0.5, 2 and -1 round
# differently from a broadcast power, and one power per p keeps every verdict
# the bits of a one-exponent grid.

GridStep = Callable[[Sequence[float], float], list[list[InequalityVerdict]]]


def _powers(x: np.ndarray, ps: Sequence[float]) -> np.ndarray:
    """x**p for each p of ps, as a (P, ...) stack; an overflow is left inf."""
    with np.errstate(over="ignore"):
        return np.stack([x**p for p in ps])


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


def _scalar_grid(inequality: str, llhs: np.ndarray, lrhs: np.ndarray, ps: Sequence[float],
                 tol: float, fingerprints: list[Callable[[float], Fingerprint]]
                 ) -> list[list[InequalityVerdict]]:
    """One list of scalar verdicts per exponent, from (P, ...) log sides."""
    rows = zip(ps, np.reshape(llhs, (len(ps), -1)).tolist(),
               np.reshape(lrhs, (len(ps), -1)).tolist())
    return [[_scalar_verdict(inequality, lo, hi, tol, fp(p), {"p": p})
             for lo, hi, fp in zip(los, his, fingerprints)]
            for p, los, his in rows]


def _log1p_power_sides(inequality: str, x: np.ndarray, y: np.ndarray,
                       fingerprints: list[Callable[[float], Fingerprint]]) -> GridStep:
    """sum log1p(x^p) <= sum log1p(y^p) over precomputed spectra."""
    def step(ps: Sequence[float], tol: float) -> list[list[InequalityVerdict]]:
        return _scalar_grid(inequality, _sum_log1p_power(x, ps), _sum_log1p_power(y, ps),
                            ps, tol, fingerprints)

    return step


def _spectra_log1p_power(inequality: str) -> Callable[[Instance], GridStep]:
    """det-power and neg-power: both sides from the product spectra."""
    def prepare(inst: Instance) -> GridStep:
        part = inst.partition
        x, y = product_spectra(inst.c, inst.d, part)
        fingerprints = _p_fingerprints(part.n, part, _c_d_payload(SPECS[inequality].shape, inst))
        return _log1p_power_sides(inequality, x, y, fingerprints)

    return prepare


def _prepare_thm32(inst: Instance) -> GridStep:
    mats, part = inst.mats, inst.partition
    x, y = _choi_spectra(mats, part)
    fingerprints = _p_fingerprints(part.n, part, mats)
    m = len(mats)

    def step(ps: Sequence[float], tol: float) -> list[list[InequalityVerdict]]:
        # check_orders rejects an overflowed power
        with np.errstate(over="ignore"):
            yp = np.stack([_rowwise(lambda row: row**p, y) for p in ps])
        reports = iter(check_orders(OrderKind.WEAK_MAJORIZE, _powers(x, ps), yp, tol))
        return [[_order_verdict("thm32", report, tol, fp(p), {"p": p, "m": m})
                 for fp, report in zip(fingerprints, reports)]
                for p in ps]

    return step


def _prepare_abs_power(inst: Instance) -> GridStep:
    part = inst.partition
    c, d = inst.c, inst.d
    dbs = diag_blocks(d, part)
    block_svs = [_singular_values(_pd_inverse(cb) @ db)
                 for cb, db in zip(diag_blocks(c, part), dbs)]
    s_full = _singular_values(_pd_inverse(c) @ d)
    fingerprints = _p_fingerprints(part.n, part, (c, *dbs))

    def step(ps: Sequence[float], tol: float) -> list[list[InequalityVerdict]]:
        llhs = sum(_sum_log1p_power(s, ps) for s in block_svs)
        return _scalar_grid("abs-power", llhs, _sum_log1p_power(s_full, ps), ps, tol,
                            fingerprints)

    return step


def _prepare_commuted_power(inst: Instance) -> GridStep:
    part = inst.partition
    c = inst.c
    dbs = diag_blocks(inst.d, part)
    c_block_eigs = [_pd_eigh(b) for b in diag_blocks(c, part)]
    d_block_eigs = [_pd_eigh(b) for b in dbs]
    c_eig = _pd_eigh(c)
    fingerprints = _p_fingerprints(part.n, part, (c, *dbs))

    def step(ps: Sequence[float], tol: float) -> list[list[InequalityVerdict]]:
        # every power below is a (P, ..., n, n) stack, one product for the grid
        cp_blocks = [eigh_powers(w, v, ps) for w, v in c_block_eigs]
        dp_blocks = [eigh_powers(w, v, ps) for w, v in d_block_eigs]
        llhs = _logdet_ratio_blocks(cp_blocks, dp_blocks)
        cp = eigh_powers(*c_eig, ps)
        dp = direct_sum(dp_blocks)
        lrhs = _logdet(symmetrize(cp + dp)) - _logdet(cp)
        return _scalar_grid("commuted-power", llhs, lrhs, ps, tol, fingerprints)

    return step


def _det_power_domain(p) -> None:
    if p is None:
        raise BadExponent("det-power needs p")
    if p < 0:
        raise NegativePower(f"p = {p}; use the neg-power evaluator for p < 0")


def _thm32_domain(p) -> None:
    if p is None:
        raise BadExponent("thm32 needs p")
    if p < 1:
        raise BadExponent(f"p = {p}; the weak majorization is stated for p >= 1")


def _neg_power_domain(p) -> None:
    if p is None or p >= 0:
        raise BadExponent("neg-power needs p < 0")


def _nonnegative_domain(inequality: str) -> Callable[[float | None], None]:
    def domain(p) -> None:
        if p is None or p < 0:
            raise BadExponent(f"{inequality} needs p >= 0")

    return domain


@dataclass(frozen=True)
class PSplit:
    """A parametrized id: `domain(p)` raises on an exponent the statement is
    not made for; `prepare(inst)` is the p-independent step, and returns the
    grid step `(ps, tol) -> one verdict list per p`. `grid` is the
    exponent grid a fuzz trial sweeps when no p is given, `default` the CLI's
    p when --p is absent."""

    domain: Callable[[float | None], None]
    prepare: Callable[[Instance], GridStep]
    grid: tuple[float, ...]
    default: float

    def require(self, ps: Sequence[float]) -> None:
        """Raise on the first exponent of ps that is not finite or outside
        the domain."""
        for p in ps:
            if p is not None and not math.isfinite(p):
                raise NonFinite(f"non-finite exponent p = {p}")
            self.domain(p)


# ---------------------------------------------------------------------------
# The registry: one Spec per catalog id.

class Role(enum.Enum):
    THEOREM = "theorem"      # expected to hold: a violation is a bug, not a finding
    EVALUATOR = "evaluator"  # false in general: violations are data, never errors
    OPEN = "open"            # unresolved: verdicts are recorded, nothing is asserted


class Shape(enum.Enum):
    """The Instance fields an id reads, and so the inputs the fuzzer draws
    and the CLI loads."""

    BLOCK_D = "block-d"      # partition, c, d block diagonal for the partition
    GENERAL_D = "general-d"  # partition, c, d
    MATS = "mats"            # partition, mats
    C = "c"                  # partition, c (and m for fischer-tail)
    C_IDX = "c+idx"          # c, idx


# The Instance fields validate_instance requires per Shape.
_REQUIRED_FIELDS = {
    Shape.BLOCK_D: ("partition", "c", "d"),
    Shape.GENERAL_D: ("partition", "c", "d"),
    Shape.MATS: ("partition", "mats"),
    Shape.C: ("partition", "c"),
    Shape.C_IDX: ("c", "idx"),
}

Checker = Callable[[Instance, float], list[InequalityVerdict]]
# (C cap, D-block cap, block-scale bias in decades) for block-D fuzz draws;
# a None cap leaves GenConfig.kappa_max alone.
Caps = tuple[float | None, float | None, float]


@dataclass(frozen=True, eq=False)
class Spec:
    """What the catalog, the fuzzer and the CLI know about one id.

    check: (validated instance or stack, tol) -> one verdict per instance;
        None for a parametrized id, which its split checks.
    split: the p-split of a parametrized id, with its fuzz grid and default p.
    caps: the generator caps for block-D draws.
    reference: (partition, C, D) of the counterexample the fuzzer injects as
        trial 0; D is block diagonal for the partition for a block-D id.
    certify: (c_exact, d_exact, part) -> exact (lhs, rhs), with d_exact the
        whole exact D, block diagonal for a block-D id.

    Entries reach the certifiers through lambdas that look up their
    module-level names, so a patch of a module attribute (a tracer's, a
    test's) sees every call.
    """

    role: Role
    shape: Shape
    check: Checker | None = None
    split: PSplit | None = None
    caps: Caps = (None, None, 0.0)
    reference: tuple[Partition, np.ndarray, np.ndarray] | None = None
    certify: Callable | None = None


_INV_SQ_REF = (refdata.INV_SQ_PART, refdata.INV_SQ_C, refdata.INV_SQ_D)
# The false block-D statements need squared inverses, matrix powers, or
# singular values of explicit products, which square or cube the working
# condition number. Their caps keep every derived object within double
# precision while still reaching the strongly unequal block scales the known
# violations live in. commuted-power forms C^p and D^p, whose condition
# numbers are kappa^p, so its grid stops at p = 2 and its C draw is capped at
# 1e6: C^2 then stays inside the Cholesky near-singular rejection envelope.

SPECS: dict[str, Spec] = {
    "main-thm": Spec(Role.THEOREM, Shape.BLOCK_D,
                     lambda i, tol: _weak_log_verdicts("main-thm", i, tol)),
    "matic": Spec(Role.THEOREM, Shape.BLOCK_D,
                  lambda i, tol: _matic_verdicts("matic", i, tol),
                  certify=lambda c, d, part: matic_exact(c, d, part)),
    "det-power": Spec(
        Role.THEOREM, Shape.BLOCK_D,
        split=PSplit(_det_power_domain, _spectra_log1p_power("det-power"),
                     grid=(0.0, 0.5, 1.0, 2.0, 3.0), default=1.0)),
    "abs-power": Spec(
        Role.EVALUATOR, Shape.BLOCK_D,
        split=PSplit(_nonnegative_domain("abs-power"), _prepare_abs_power,
                     grid=(0.0, 0.5, 1.0, 2.0, 3.0), default=2.0),
        caps=(1e3, 1e2, 1.0), reference=_INV_SQ_REF),
    "commuted-power": Spec(
        Role.EVALUATOR, Shape.BLOCK_D,
        split=PSplit(_nonnegative_domain("commuted-power"), _prepare_commuted_power,
                     grid=(0.0, 0.5, 1.0, 2.0), default=2.0),
        caps=(1e6, 1e3, 1.5), reference=_INV_SQ_REF),
    "inv-square-sum": Spec(Role.EVALUATOR, Shape.BLOCK_D, _inv_square_sum_verdicts,
                           caps=(None, 1e3, 1.5), reference=_INV_SQ_REF,
                           certify=lambda c, d, part: inv_square_sum_exact(c, d, part)),
    "neg-power": Spec(
        Role.EVALUATOR, Shape.BLOCK_D,
        split=PSplit(_neg_power_domain, _spectra_log1p_power("neg-power"),
                     grid=(-0.5, -1.0, -2.0, -3.0), default=-1.0),
        caps=(None, 1e3, 1.5),
        reference=(refdata.NEG_POWER_PART, refdata.NEG_POWER_C, refdata.NEG_POWER_D)),
    "matic-general-d": Spec(
        Role.EVALUATOR, Shape.GENERAL_D,
        lambda i, tol: _matic_verdicts("matic-general-d", i, tol),
        reference=(refdata.MATIC_GEN_PART, refdata.MATIC_GEN_C, refdata.MATIC_GEN_D),
        certify=lambda c, d, part: matic_exact(c, d, part)),
    "weak-log-general-d": Spec(
        Role.EVALUATOR, Shape.GENERAL_D,
        lambda i, tol: _weak_log_verdicts("weak-log-general-d", i, tol),
        reference=(refdata.WLOG_PART, refdata.WLOG_C, refdata.WLOG_D)),
    "sv-weak-log": Spec(Role.EVALUATOR, Shape.BLOCK_D, _sv_weak_log_verdicts,
                        caps=(1e2, 1e2, 1.0), reference=_INV_SQ_REF),
    "choi": Spec(Role.THEOREM, Shape.MATS, _choi_verdicts),
    "thm32": Spec(
        Role.THEOREM, Shape.MATS,
        split=PSplit(_thm32_domain, _prepare_thm32, grid=(1.0, 2.0, 3.0), default=1.0)),
    "open-q": Spec(Role.OPEN, Shape.MATS, _open_q_verdicts),
    "lemma31": Spec(Role.THEOREM, Shape.C_IDX, _lemma31_verdicts),
    "fischer-tail": Spec(Role.THEOREM, Shape.C, _fischer_tail_verdicts),
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


def exponent_spec(inequality: str, p: float | None) -> Spec:
    """spec_of(inequality), raising BadExponent when an exponent p is given to
    an id that has none."""
    spec = spec_of(inequality)
    if p is not None and spec.split is None:
        raise BadExponent(f"{inequality} takes no exponent, got p = {p}")
    return spec


def check_validated(inequality: str, inst: Instance, ps: Sequence[float],
                    tol: float = DEFAULT_TOL) -> list[tuple[InequalityVerdict, ...]]:
    """Verdicts of a validated instance (validate_instance), or of each
    instance of a stack of them (stack_instances), at each exponent of ps:
    one tuple per instance, in stack order. The exponents must have passed
    the id's PSplit.require; an id without an exponent ignores ps and gives
    one verdict per instance."""
    spec = spec_of(inequality)
    if spec.split is None:
        return [(verdict,) for verdict in spec.check(inst, tol)]
    step = spec.split.prepare(inst)
    try:
        per_p = step(ps, tol)
    except MajdetError:
        # The grid stops at its first failing kernel call over all exponents;
        # one exponent at a time raises the error of the first failing
        # exponent, as checking the exponents in turn does.
        per_p = [step((p,), tol)[0] for p in ps]
    return list(zip(*per_p))


def check_p_grid(inequality: str, inst: Instance, ps: Sequence[float],
                 tol: float = DEFAULT_TOL) -> tuple[InequalityVerdict, ...]:
    """Verdicts of a parametrized id at each exponent of ps, in order, on one
    instance. The tolerance and every exponent are checked first; the
    p-independent work is then done once, and the whole grid in one step."""
    spec = spec_of(inequality)
    if spec.split is None:
        raise UnknownInequality(f"{inequality!r} is not a parametrized id")
    require_tol(tol)
    spec.split.require(ps)
    inst = validate_instance(spec.shape, inst)
    return check_validated(inequality, inst, ps, tol)[0] if len(ps) else ()


def evaluate_general(inequality: str, inst: Instance, tol: float = DEFAULT_TOL) -> InequalityVerdict:
    """Evaluate one of the no-expectation statements; violation is data, not error."""
    if spec_of(inequality).role is not Role.EVALUATOR:
        raise UnknownInequality(f"{inequality!r} is not an evaluator id")
    return run_check(inequality, inst, tol)


def run_check(inequality: str, inst: Instance, tol: float = DEFAULT_TOL) -> InequalityVerdict:
    """Dispatch any catalog id on an Instance; the single entry point used by
    the CLI. Parametrized ids are evaluated at inst.p; an instance with a p
    for an id without an exponent raises BadExponent. The exponent and the
    tolerance (require_tol) are checked first, then each input matrix once
    (validate_instance)."""
    spec = exponent_spec(inequality, inst.p)
    require_tol(tol)
    if spec.split is not None:
        spec.split.require((inst.p,))
    return check_validated(inequality, validate_instance(spec.shape, inst), (inst.p,), tol)[0][0]
