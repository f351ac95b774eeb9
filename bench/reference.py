"""60-digit mpmath reference margins for the ids the benchmark grades.

Inputs use majdet's instance JSON layout (``partition``, ``c``, ``d_blocks``,
``d``, ``p``). Every float entry converts to mpmath exactly, so the reference
sees the very matrices the float check saw. Margins follow majdet's
definitions: a scalar margin is log(rhs) - log(lhs); an order margin is the
per-prefix difference of the log-domain prefix sums of the sorted spectra.
Nothing here imports majdet, so the grade does not move when the program does.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath

DIGITS = 60

_ctx = mpmath.MPContext()
_ctx.dps = DIGITS


@dataclass(frozen=True)
class RefMargins:
    """Reference margins plus the per-margin tolerance scales majdet applies."""

    margins: tuple  # mpf values
    scales: tuple  # mpf values, max(1, |lhs side|, |rhs side|) per margin

    def holds(self, tol: float) -> bool:
        return all(m >= -tol * s for m, s in zip(self.margins, self.scales))


def _mat(rows):
    return _ctx.matrix([[_ctx.mpf(float(x)) for x in row] for row in rows])


def _offsets(sizes):
    lo = 0
    for size in sizes:
        yield lo, lo + size
        lo += size


def _block(m, lo, hi):
    return m[lo:hi, lo:hi]


def _direct_sum(blocks):
    n = sum(b.rows for b in blocks)
    out = _ctx.zeros(n, n)
    lo = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.rows):
                out[lo + i, lo + j] = b[i, j]
        lo += b.rows
    return out


def _sym(m):
    return (m + m.T) / 2


def _logdet(m):
    low = _ctx.cholesky(_sym(m))
    return 2 * _ctx.fsum(_ctx.log(low[i, i]) for i in range(low.rows))


def _eigs(m):
    return sorted(_ctx.eigsy(_sym(m), eigvals_only=True), reverse=True)


def _eig_product(c, d):
    """Spectrum of C^-1 D through the reduction R^T C^-1 R with D = R R^T."""
    r = _ctx.cholesky(_sym(d))
    return _eigs(r.T * _ctx.inverse(c) * r)


def _svals(m):
    return sorted(_ctx.sqrt(w) for w in _eigs(m.T * m))


def _power(m, p):
    w, v = _ctx.eigsy(_sym(m))
    diag = _ctx.diag([w[i] ** p for i in range(m.rows)])
    return _sym(v * diag * v.T)


def _inv_square(m):
    inv = _ctx.inverse(m)
    return inv * inv


def _scalar(llhs, lrhs) -> RefMargins:
    return RefMargins((lrhs - llhs,), (max(1, abs(llhs), abs(lrhs)),))


def _weak_log(x, y) -> RefMargins:
    xs = sorted(x, reverse=True)
    ys = sorted(y, reverse=True)
    margins, scales = [], []
    px = py = _ctx.mpf(0)
    for a, b in zip(xs, ys):
        px += _ctx.log(a)
        py += _ctx.log(b)
        margins.append(py - px)
        scales.append(max(1, abs(px), abs(py)))
    return RefMargins(tuple(margins), tuple(scales))


def _parts(inst: dict):
    """(C, per-block C, D, per-block D) with D the full matrix."""
    sizes = inst["partition"]
    c = _mat(inst["c"])
    if "d" in inst:
        d = _mat(inst["d"])
    else:
        d = _direct_sum([_mat(b) for b in inst["d_blocks"]])
    spans = list(_offsets(sizes))
    return c, [_block(c, lo, hi) for lo, hi in spans], d, [_block(d, lo, hi) for lo, hi in spans]


def _spectra(c, cbs, d, dbs):
    x = [w for cb, db in zip(cbs, dbs) for w in _eig_product(cb, db)]
    return x, _eig_product(c, d)


def _matic_like(c, cbs, d, dbs) -> RefMargins:
    llhs = _ctx.fsum(_logdet(cb + db) - _logdet(cb) for cb, db in zip(cbs, dbs))
    return _scalar(llhs, _logdet(c + d) - _logdet(c))


def _log1p_power_sum(values, p):
    return _ctx.fsum(_ctx.log1p(v ** p) for v in values)


def reference_margins(inequality: str, inst: dict) -> RefMargins:
    """Reference margins for one instance; raises KeyError for an ungraded id."""
    c, cbs, d, dbs = _parts(inst)
    p = inst.get("p")
    p = None if p is None else _ctx.mpf(p)
    if inequality in ("main-thm", "weak-log-general-d"):
        return _weak_log(*_spectra(c, cbs, d, dbs))
    if inequality in ("matic", "matic-general-d"):
        return _matic_like(c, cbs, d, dbs)
    if inequality in ("det-power", "neg-power"):
        x, y = _spectra(c, cbs, d, dbs)
        return _scalar(_log1p_power_sum(x, p), _log1p_power_sum(y, p))
    if inequality == "inv-square-sum":
        llhs = _ctx.fsum(_logdet(_inv_square(db) + _inv_square(cb)) for cb, db in zip(cbs, dbs))
        return _scalar(llhs, _logdet(_inv_square(d) + _inv_square(c)))
    if inequality == "commuted-power":
        return _matic_like(_power(c, p), [_power(cb, p) for cb in cbs],
                           _direct_sum([_power(db, p) for db in dbs]),
                           [_power(db, p) for db in dbs])
    if inequality in ("abs-power", "sv-weak-log"):
        x = [s for cb, db in zip(cbs, dbs) for s in _svals(_ctx.inverse(cb) * db)]
        y = _svals(_ctx.inverse(c) * d)
        if inequality == "sv-weak-log":
            return _weak_log(x, y)
        return _scalar(_log1p_power_sum(x, p), _log1p_power_sum(y, p))
    raise KeyError(inequality)


# An error below the unit roundoff of the margin's magnitude is as good as
# exact; counting it as one unit roundoff keeps a geometric mean finite.
UNIT_ROUNDOFF = 2.0 ** -53


def margin_errors(reported, ref: RefMargins) -> list[float]:
    """|reported - reference| for each margin, as floats, floored at the
    unit roundoff of the margin's magnitude."""
    if len(reported) != len(ref.margins):
        raise ValueError(f"{len(reported)} reported margins, {len(ref.margins)} reference")
    return [max(float(abs(_ctx.mpf(float(m)) - r)), UNIT_ROUNDOFF * max(1.0, abs(float(r))))
            for m, r in zip(reported, ref.margins)]
