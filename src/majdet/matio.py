"""Matrix file format: JSON {"n": int, "rows": [[...]], optional "exact": ...}.

Every entry of "rows" must be a finite JSON number (number_array, which
also reads the matrices of stored instances): Python's json module would
otherwise accept NaN and Infinity, and numpy reads true as 1 and "1" as
1.0. "exact" holds per-entry ["numerator", "denominator"] pairs of integer
strings (an optional sign and ASCII digits) or JSON integers (not floats,
which int() would truncate, nor booleans), each denominator nonzero and of
either sign, in lowest terms or not. When present, each pair
divided out (correctly rounded, as float(Fraction) is) must agree with rows
to 1e-12, and the exact matrix must be exactly symmetric. It is read once
into integers, as an exact.Scaled: an integer matrix over its least common
denominator, which the exact certification of determinant comparisons
takes as it is.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import BadEntry, BadMatrixFile, MajdetError, NonFinite
from .exact import Scaled, from_pairs


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


def _is_integer(part) -> bool:
    """A JSON integer (not a bool), or a string of an optional sign and ASCII
    digits: no spaces, underscores or other digits, which int() also takes."""
    if type(part) is int:
        return True
    return type(part) is str and part.isascii() and (
        part.isdigit() or part[:1] in "+-" and part[1:].isdigit())


def read_matrix(path) -> tuple[np.ndarray, Scaled | None]:
    """Parse a matrix file; returns (float array, exact part or None)."""
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
    if "exact" not in payload:
        return arr, None
    raw = payload["exact"]
    if (not isinstance(raw, list) or len(raw) != n
            or any(not isinstance(r, list) or len(r) != n for r in raw)):
        raise BadMatrixFile(f"{path}: 'exact' must be a {n}x{n} array of pairs")
    # (numerator, denominator) ints; the first bad entry in row order raises
    pairs = []
    for i, row in enumerate(raw):
        parsed = []
        for j, pair in enumerate(row):
            if (type(pair) is not list or len(pair) != 2
                    or not (_is_integer(pair[0]) and _is_integer(pair[1]))):
                raise BadMatrixFile(f"{path}: exact entry ({i}, {j}) {pair!r} is not a pair "
                                    "of integer strings or integers")
            try:
                num, den = int(pair[0]), int(pair[1])
            except ValueError as err:  # more digits than int() converts
                raise BadMatrixFile(f"{path}: exact entry ({i}, {j}): {err}") from err
            if not den:
                raise BadMatrixFile(f"{path}: exact entry ({i}, {j}) has a zero denominator")
            parsed.append((num, den))
        pairs.append(parsed)
    try:
        approx = np.array([[num / den for num, den in row] for row in pairs])
    except OverflowError as err:
        raise BadMatrixFile(f"{path}: exact entry out of float range ({err})") from err
    if np.max(np.abs(approx - arr)) > 1e-12 * max(1.0, float(np.max(np.abs(arr)))):
        raise BadMatrixFile(f"{path}: 'exact' disagrees with 'rows'")
    exact = from_pairs(pairs)
    ints = exact.ints
    for i in range(n):
        for j in range(i + 1, n):
            if ints[i][j] != ints[j][i]:
                upper, lower = (Fraction(x, exact.scale) for x in (ints[i][j], ints[j][i]))
                raise BadMatrixFile(f"{path}: 'exact' is not symmetric: entry ({i}, {j}) "
                                    f"is {upper} but entry ({j}, {i}) is {lower}")
    return arr, exact
