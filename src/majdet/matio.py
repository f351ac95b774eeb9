"""Matrix file format: JSON {"n": int, "rows": [[...]], optional "exact": ...}.

Every entry of "rows" must be a finite JSON number (number_array, which
also reads the matrices of stored instances): Python's json module would
otherwise accept NaN and Infinity, and numpy reads true as 1 and "1" as
1.0. "exact" holds per-entry
["numerator", "denominator"] pairs of integer strings or JSON integers
(not floats, which int() would truncate, nor booleans) and, when present,
must agree with rows to 1e-12 after division; it enables exact rational
certification of determinant comparisons.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import BadEntry, BadMatrixFile, MajdetError, NonFinite


def write_matrix(path, rows: np.ndarray, exact=None) -> None:
    arr = np.asarray(rows, dtype=float)
    payload: dict = {"n": int(arr.shape[0]), "rows": arr.tolist()}
    if exact is not None:
        payload["exact"] = [
            [[str(f.numerator), str(f.denominator)] for f in row] for row in exact
        ]
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def number_array(rows) -> np.ndarray:
    """Nested lists of JSON numbers as a float array. An entry that is not
    an int or a float (a string, a boolean, null, a list of a ragged
    nesting) raises BadEntry; a NaN or infinite entry, or an int beyond
    the float range, raises NonFinite."""
    entries = np.array(rows, dtype=object)  # a ragged row stays a list, a bad entry
    for x in entries.flat:
        if type(x) not in (int, float):
            kind = "boolean" if isinstance(x, bool) else "non-numeric"
            raise BadEntry(f"{kind} entry {x!r}")
    try:
        arr = entries.astype(float)
    except OverflowError as err:
        raise NonFinite(f"entry out of float range ({err})") from err
    if not np.isfinite(arr).all():
        raise NonFinite("non-finite entry (NaN or infinity)")
    return arr


def read_matrix(path) -> tuple[np.ndarray, list[list[Fraction]] | None]:
    """Parse a matrix file; returns (float array, exact rationals or None)."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise BadMatrixFile(f"{path}: {err}") from err
    if not isinstance(payload, dict) or "n" not in payload or "rows" not in payload:
        raise BadMatrixFile(f"{path}: expected an object with 'n' and 'rows'")
    n = payload["n"]
    rows = payload["rows"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise BadMatrixFile(f"{path}: 'n' must be a positive integer")
    if (not isinstance(rows, list) or len(rows) != n
            or any(not isinstance(r, list) or len(r) != n for r in rows)):
        raise BadMatrixFile(f"{path}: 'rows' must be a {n}x{n} array")
    try:
        arr = number_array(rows)
    except MajdetError as err:
        raise BadMatrixFile(f"{path}: {err}") from err
    exact = None
    if "exact" in payload:
        raw = payload["exact"]
        if (not isinstance(raw, list) or len(raw) != n
                or any(not isinstance(r, list) or len(r) != n for r in raw)):
            raise BadMatrixFile(f"{path}: 'exact' must be a {n}x{n} array of pairs")
        for row in raw:
            for pair in row:
                if not isinstance(pair, list) or any(
                        isinstance(part, bool) or not isinstance(part, (str, int))
                        for part in pair):
                    raise BadMatrixFile(f"{path}: exact entry {pair!r} is not a pair of "
                                        "integer strings or integers")
        try:
            exact = [
                [Fraction(int(num), int(den)) for num, den in row] for row in raw
            ]
        except (TypeError, ValueError, ZeroDivisionError) as err:
            raise BadMatrixFile(f"{path}: bad exact entry ({err})") from err
        try:
            approx = np.array([[float(f) for f in row] for row in exact])
        except OverflowError as err:
            raise BadMatrixFile(f"{path}: exact entry out of float range ({err})") from err
        if np.max(np.abs(approx - arr)) > 1e-12 * max(1.0, float(np.max(np.abs(arr)))):
            raise BadMatrixFile(f"{path}: 'exact' disagrees with 'rows'")
    return arr, exact
