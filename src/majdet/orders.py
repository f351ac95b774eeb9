"""Vector preorder checks: majorization, weak majorization, their log variants,
and sorted entrywise domination, each reported with per-prefix margins.

Log-order arithmetic happens entirely in the log domain (prefix sums of
logarithms, never raw products) so verdicts survive eigenvalue ratios up to
1e12 at dimensions up to 100. check_order compares two vectors, which it
sorts and tests one at a time. check_orders compares the rows of two float
(..., n) arrays of one shape whose rows are already nonincreasing (a caller
sorts each spectrum once, or has it sorted from its solver) in one pass,
and returns arrays (OrderChecks), which build an OrderReport only for a row
asked for. It checks x and y as one stack: one finiteness test and, for
the log kinds, one positivity test and one log serve both sides.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyVector, LengthMismatch, NonFinite, NonPositiveEntry, ZeroOrder

DEFAULT_TOL = 1e-9
# The smallest normal double.
_TINY = float(np.finfo(float).tiny)
_NON_FINITE = "order check on a non-finite (NaN or infinite) entry"


class OrderKind(enum.Enum):
    MAJORIZE = "majorize"
    WEAK_MAJORIZE = "weak-majorize"
    LOG_MAJORIZE = "log-majorize"
    WEAK_LOG_MAJORIZE = "weak-log-majorize"
    ENTRYWISE_LE = "entrywise-le"


LOG_KINDS = (OrderKind.LOG_MAJORIZE, OrderKind.WEAK_LOG_MAJORIZE)
STRICT_KINDS = (OrderKind.MAJORIZE, OrderKind.LOG_MAJORIZE)


@dataclass(frozen=True)
class OrderReport:
    """Outcome of a single order check.

    margins[k-1] is the y-side prefix minus the x-side prefix (log domain for
    the log kinds; per-entry difference for ENTRYWISE_LE). residual is the
    total-equality gap for the non-weak kinds, None otherwise. fail_index is
    the first 1-based k whose margin dips below tolerance (n when only the
    total-equality condition fails). Every margin is finite: check_order
    raises NonFinite instead of judging a NaN or an infinity.
    """

    kind: OrderKind
    n: int
    margins: tuple[float, ...]
    residual: float | None
    holds: bool
    fail_index: int | None
    tol: float

    def verdict(self) -> str:
        return "holds" if self.holds else f"fails-at-k={self.fail_index}"

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "n": self.n,
            "margins": list(self.margins),
            "residual": self.residual,
            "holds": self.holds,
            "fail_index": self.fail_index,
            "tol": self.tol,
        }


def sort_desc(v) -> np.ndarray:
    """Rearrange into nonincreasing order (stable for ties); each row of a
    (..., n) array separately."""
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.size == 0:
        raise EmptyVector("cannot sort an empty vector")
    return -np.sort(-arr, axis=-1, kind="stable")


@dataclass(frozen=True, eq=False)
class OrderChecks:
    """check_orders on the rows of two (..., n) arrays, as arrays with one
    row per row pair, in C order: margins (rows, n) as in OrderReport, and
    per row holds, fail_index (0 where the row holds) and residual (None for
    the weak kinds and ENTRYWISE_LE)."""

    kind: OrderKind
    tol: float
    margins: np.ndarray
    holds: np.ndarray
    fail_index: np.ndarray
    residual: np.ndarray | None

    def report(self, row: int = 0) -> OrderReport:
        """The OrderReport of one row."""
        fail = int(self.fail_index[row])
        return OrderReport(
            kind=self.kind, n=self.margins.shape[1], margins=tuple(self.margins[row].tolist()),
            residual=None if self.residual is None else float(self.residual[row]),
            holds=bool(self.holds[row]), fail_index=fail or None, tol=self.tol)


def check_order(kind: OrderKind, x, y, tol: float = DEFAULT_TOL,
                pad: bool = False) -> OrderReport:
    """Decide whether the vector x is below the vector y in the given order,
    with margins.

    Margins are computed on sorted-descending copies. Tolerances are applied
    per prefix, scaled by max(1, |prefix|). With pad=True (ENTRYWISE_LE
    only), the shorter vector is zero-padded to the longer one's length.
    An empty x, then an empty y, raises EmptyVector; then a NaN or infinite
    entry, a prefix sum that overflows, or a scaled tolerance that overflows
    raises NonFinite, without a numpy warning.
    """
    kind = OrderKind(kind)
    xs, ys = (sort_desc(np.ravel(np.asarray(v, dtype=float))) for v in (x, y))
    if not (np.logical_and.reduce(np.isfinite(xs)) and np.logical_and.reduce(np.isfinite(ys))):
        raise NonFinite(_NON_FINITE)
    if xs.size != ys.size:
        if not (pad and kind is OrderKind.ENTRYWISE_LE):
            raise LengthMismatch(f"{xs.size} vs {ys.size}")
        width = max(xs.size, ys.size)
        xs = np.concatenate([xs, np.zeros(width - xs.size)])
        ys = np.concatenate([ys, np.zeros(width - ys.size)])
    with np.errstate(all="ignore"):  # an overflow raises NonFinite in _checks
        return _checks(kind, np.array((xs, ys)), tol).report()


def check_orders(kind: OrderKind, x: np.ndarray, y: np.ndarray,
                 tol: float = DEFAULT_TOL) -> OrderChecks:
    """check_order on each row pair of two float (..., n) arrays of one
    shape, each row already nonincreasing, as arrays (OrderChecks): x and y
    are checked as one stack, whose NaN or infinite entry raises
    check_order's NonFinite."""
    xy = np.array((x, y))
    if not np.logical_and.reduce(np.isfinite(xy), axis=None):
        raise NonFinite(_NON_FINITE)
    return _checks(kind, xy, tol)


def _checks(kind: OrderKind, xy: np.ndarray, tol: float) -> OrderChecks:
    """The checks of the row pairs of xy, a (2, ..., n) stack of the x rows
    and then the y rows, sorted nonincreasing and finite: the positivity
    test, the logs, the prefix sums and their magnitudes are taken once for
    all rows of both. A tolerance whose scaled value overflows raises
    NonFinite."""
    n = xy.shape[-1]
    xy = xy.reshape(2, -1, n)
    if kind is not OrderKind.ENTRYWISE_LE:
        if kind in LOG_KINDS:
            if not np.minimum.reduce(xy[..., -1], axis=None) > 0.0:
                raise NonPositiveEntry("log orders need strictly positive entries")
            xy = np.log(xy)
        xy = np.cumsum(xy, axis=-1)
    margins = xy[1] - xy[0]
    if not np.logical_and.reduce(np.isfinite(margins), axis=None):
        raise NonFinite("order check with a prefix sum that overflows")
    size = np.abs(xy)
    scales = np.maximum(1.0, np.maximum(size[0], size[1]))
    largest = float(np.maximum.reduce(scales, axis=None))
    if not math.isfinite(tol * largest):
        raise NonFinite(f"order check with a tolerance that overflows: tol = {tol!r} "
                        f"times the prefix scale {largest!r}")
    ok = margins >= -tol * scales
    holds = np.logical_and.reduce(ok, axis=-1)
    fail_index = np.where(holds, 0, np.argmin(ok, axis=-1) + 1)  # the first prefix not ok
    residual = None
    if kind in STRICT_KINDS:
        # prefixes that hold can still fail the total-equality condition
        residual = margins[..., -1]
        total_off = holds & (np.abs(residual) > tol * scales[..., -1])
        holds = holds & ~total_off
        fail_index = np.where(total_off, n, fail_index)
    return OrderChecks(kind, tol, margins, holds, fail_index, residual)


def _positive(a) -> np.ndarray:
    arr = np.asarray(a, dtype=float).ravel()
    if arr.size == 0:
        raise EmptyVector("empty vector")
    if np.min(arr) <= 0.0:
        raise NonPositiveEntry("entries must be strictly positive")
    return arr


def power_mean(a, r: float) -> float:
    """Power mean ((1/m) sum a_i^r)^(1/r); nondecreasing in r.

    The entries are scaled by max(a) for r > 0 and by min(a) for r < 0, so
    the largest term (a_i/scale)^r is 1 and the mean neither overflows nor
    underflows; a ratio a_i/scale outside the normal doubles is raised to r
    through logarithms. A result that still overflows raises NonFinite.
    """
    arr = _positive(a)
    if r == 0.0:
        raise ZeroOrder("order 0 is the geometric mean; call geometric_mean")
    scale = float(np.max(arr) if r > 0.0 else np.min(arr))
    with np.errstate(all="ignore"):
        ratio = arr / scale
        normal = (ratio >= _TINY) & (ratio < math.inf)
        terms = np.where(normal, ratio**r, np.exp(r * (np.log(arr) - math.log(scale))))
        mean = float(np.mean(terms))
        out = scale * float(np.float64(mean) ** (1.0 / r))
    if not (math.isfinite(mean) and math.isfinite(out)):
        raise NonFinite(f"power mean of order {r}: the mean of (a_i/{scale!r})^r is {mean}, "
                        f"the result {out}")
    return out


def geometric_mean(a) -> float:
    """(prod a_i)^(1/m), computed through the mean of logs."""
    arr = _positive(a)
    return float(math.exp(np.mean(np.log(arr))))
