"""Vector preorder checks: majorization, weak majorization, their log variants,
and sorted entrywise domination, each reported with per-prefix margins.

Log-order arithmetic happens entirely in the log domain (prefix sums of
logarithms, never raw products) so verdicts survive eigenvalue ratios up to
1e12 at dimensions up to 100.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyVector, LengthMismatch, NonFinite, NonPositiveEntry, ZeroOrder

DEFAULT_TOL = 1e-9


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

    def worst_margin(self) -> float:
        """Smallest per-prefix margin (0 for an empty report)."""
        return min(self.margins, default=0.0)

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
    """Rearrange into nonincreasing order (stable for ties)."""
    arr = np.asarray(v, dtype=float).ravel()
    if arr.size == 0:
        raise EmptyVector("cannot sort an empty vector")
    return -np.sort(-arr, kind="stable")


def _prefix_margins(x: np.ndarray, y: np.ndarray, tol: float):
    """Per-prefix margins plus scale-aware pass flags."""
    px = np.cumsum(x)
    py = np.cumsum(y)
    margins = py - px
    scales = np.maximum(1.0, np.maximum(np.abs(px), np.abs(py)))
    ok = margins >= -tol * scales
    return margins, scales, ok


def check_order(kind: OrderKind, x, y, tol: float = DEFAULT_TOL,
                pad: bool = False) -> OrderReport:
    """Decide whether x is below y in the given order, with margins.

    Margins are computed on sorted-descending copies. Tolerances are applied
    per prefix, scaled by max(1, |prefix|). With pad=True (ENTRYWISE_LE
    only), the shorter vector is zero-padded to the longer one's length.
    A NaN or infinite entry, or a prefix sum that overflows, raises
    NonFinite.
    """
    kind = OrderKind(kind)
    xs = sort_desc(x)
    ys = sort_desc(y)
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise NonFinite("order check on a non-finite (NaN or infinite) entry")
    if xs.size != ys.size:
        if pad and kind is OrderKind.ENTRYWISE_LE:
            width = max(xs.size, ys.size)
            xs = np.concatenate([xs, np.zeros(width - xs.size)])
            ys = np.concatenate([ys, np.zeros(width - ys.size)])
        else:
            raise LengthMismatch(f"{xs.size} vs {ys.size}")
    n = xs.size

    if kind is OrderKind.ENTRYWISE_LE:
        margins = ys - xs
        scales = np.maximum(1.0, np.maximum(np.abs(xs), np.abs(ys)))
        ok = margins >= -tol * scales
        residual = None
    else:
        if kind in LOG_KINDS:
            if xs[-1] <= 0.0 or ys[-1] <= 0.0:
                raise NonPositiveEntry("log orders need strictly positive entries")
            xs = np.log(xs)
            ys = np.log(ys)
        margins, scales, ok = _prefix_margins(xs, ys, tol)
        residual = float(margins[-1]) if kind in STRICT_KINDS else None
    if not np.all(np.isfinite(margins)):
        raise NonFinite("order check with a prefix sum that overflows")

    fail_index: int | None = None
    holds = bool(ok.all())
    if not holds:
        fail_index = int(np.argmin(ok)) + 1
    elif residual is not None and abs(residual) > tol * scales[-1]:
        holds = False
        fail_index = n
    return OrderReport(
        kind=kind,
        n=n,
        margins=tuple(float(v) for v in margins),
        residual=residual,
        holds=holds,
        fail_index=fail_index,
        tol=tol,
    )


def _positive(a) -> np.ndarray:
    arr = np.asarray(a, dtype=float).ravel()
    if arr.size == 0:
        raise EmptyVector("empty vector")
    if np.min(arr) <= 0.0:
        raise NonPositiveEntry("entries must be strictly positive")
    return arr


def power_mean(a, r: float) -> float:
    """Power mean ((1/m) sum a_i^r)^(1/r); nondecreasing in r."""
    arr = _positive(a)
    if r == 0.0:
        raise ZeroOrder("order 0 is the geometric mean; call geometric_mean")
    return float(np.mean(arr**r) ** (1.0 / r))


def geometric_mean(a) -> float:
    """(prod a_i)^(1/m), computed through the mean of logs."""
    arr = _positive(a)
    return float(math.exp(np.mean(np.log(arr))))
