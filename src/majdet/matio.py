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

A valid file is read in whole-matrix passes, with no Python call per
entry. The file's bytes are decoded once, and its newlines translated as
text mode does, so that a JSON error names the same offsets. "rows" takes
one set of the entries' types, one float conversion and one finiteness
test. "exact" takes one pass over the pairs, one join of the parts (their
types are tested only when one is not a string), one scan of the joined
string parts (what int() takes beyond a sign and ASCII digits is
non-ASCII, whitespace or an underscore), one int() per numerator and per
distinct denominator, then the float cross-check, the least common
denominator and the symmetry test on flat lists. When a pass fails, a walk
over the entries in row order names the first bad one, with the message
of the rule it breaks (_number_array_each, _raise_first_bad_pair).
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from itertools import chain
from operator import truediv
from pathlib import Path

import numpy as np

from .errors import BadEntry, BadMatrixFile, DimensionMismatch, MajdetError, NonFinite
from .exact import Scaled, from_pairs

_NUMBERS = frozenset((int, float))
_PARTS = frozenset((str, int))
_INT_NOISE = re.compile(r"[\t\n\v\f\r _]")  # the ASCII int() takes beyond a sign and digits


def write_matrix(path, rows: np.ndarray, exact=None) -> None:
    """Write a matrix file that read_matrix reads back: empty or non-square
    rows (DimensionMismatch), non-finite rows (NonFinite) or an exact part
    read_matrix refuses (BadMatrixFile) raise before the file is opened."""
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or not arr.size:
        raise DimensionMismatch(f"a matrix file holds a square matrix, got shape {arr.shape}")
    payload: dict = {"n": int(arr.shape[0]), "rows": arr.tolist()}
    if exact is not None:
        payload["exact"] = [
            [[str(f.numerator), str(f.denominator)] for f in row] for row in exact
        ]
    try:
        text = json.dumps(payload, indent=1, allow_nan=False)
    except ValueError as err:
        raise NonFinite("non-finite entry (NaN or infinity)") from err
    if exact is not None:
        _exact_part(path, payload["exact"], arr)
    Path(path).write_text(text + "\n")


def number_array(rows) -> np.ndarray:
    """Nested lists of JSON numbers as a float array. An entry that is not
    an int or a float (a string, a boolean, null, a list of a ragged
    nesting) raises BadEntry; a NaN or infinite entry, or an int beyond
    the float range, raises NonFinite. A list of equal-length lists of ints
    and floats is converted whole; anything else takes _number_array_each."""
    arr = None
    if type(rows) is list and set(map(type, rows)) <= {list}:
        try:
            if set(map(type, chain.from_iterable(rows))) <= _NUMBERS:
                arr = np.array(rows, dtype=float)
        except (ValueError, OverflowError):  # ragged rows, an int beyond the float range
            pass
    if arr is not None and np.isfinite(arr).all():
        return arr
    return _number_array_each(rows)


def _number_array_each(rows) -> np.ndarray:
    """number_array entry by entry: each entry's type tested, in row order,
    then the whole converted and tested finite."""
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


def _integer_parts(pairs: list) -> tuple[list[int], list[int]] | None:
    """The numerators and denominators of a flat list of exact entries, or
    None when some entry is not a pair of integer strings or integers, has
    a part with more digits than int() converts, or a zero denominator."""
    if set(map(type, pairs)) != {list} or set(map(len, pairs)) != {2}:
        return None
    parts = list(chain.from_iterable(pairs))
    try:
        text = "".join(parts)  # every part a string, the common case
    except TypeError:
        if not set(map(type, parts)) <= _PARTS:
            return None
        text = "".join([x for x in parts if type(x) is str])
    if not text.isascii() or _INT_NOISE.search(text):
        return None
    try:
        nums = list(map(int, parts[0::2]))
        by_den = {den: int(den) for den in set(parts[1::2])}
    except ValueError:  # a sign alone or twice, an empty string, too many digits
        return None
    if 0 in by_den.values():
        return None
    return nums, list(map(by_den.__getitem__, parts[1::2]))


def _raise_first_bad_pair(path, raw) -> None:
    """Raise for the first exact entry, in row order, that _integer_parts
    refuses: not a pair of integer strings or integers, a part int() does not
    convert, or a zero denominator."""
    for i, row in enumerate(raw):
        for j, pair in enumerate(row):
            if (type(pair) is not list or len(pair) != 2
                    or not (_is_integer(pair[0]) and _is_integer(pair[1]))):
                raise BadMatrixFile(f"{path}: exact entry ({i}, {j}) {pair!r} is not a pair "
                                    "of integer strings or integers")
            try:
                _, den = int(pair[0]), int(pair[1])
            except ValueError as err:  # more digits than int() converts
                raise BadMatrixFile(f"{path}: exact entry ({i}, {j}): {err}") from err
            if not den:
                raise BadMatrixFile(f"{path}: exact entry ({i}, {j}) has a zero denominator")


def read_matrix(path) -> tuple[np.ndarray, Scaled | None]:
    """Parse a UTF-8 matrix file; returns (float array, exact part or None)."""
    try:
        with open(os.fspath(path), "rb") as file:  # an int is not a file descriptor here
            text = file.read().decode("utf-8")
        if "\r" in text:  # newlines as text mode reads them
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        payload = json.loads(text)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
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
    return arr, _exact_part(path, payload["exact"], arr)


def _exact_part(path, raw, arr: np.ndarray) -> Scaled:
    """The exact part raw of the matrix file at path, checked against its
    rows arr as read_matrix reads it: a Scaled, or BadMatrixFile."""
    n = len(arr)
    if (not isinstance(raw, list) or len(raw) != n
            or any(not isinstance(r, list) or len(r) != n for r in raw)):
        raise BadMatrixFile(f"{path}: 'exact' must be a {n}x{n} array of pairs")
    parts = _integer_parts(list(chain.from_iterable(raw)))
    if parts is None:
        _raise_first_bad_pair(path, raw)
    nums, dens = parts
    try:
        approx = np.array(list(map(truediv, nums, dens)))
    except OverflowError as err:
        raise BadMatrixFile(f"{path}: exact entry out of float range ({err})") from err
    if np.max(np.abs(approx - arr.ravel())) > 1e-12 * max(1.0, float(np.max(np.abs(arr)))):
        raise BadMatrixFile(f"{path}: 'exact' disagrees with 'rows'")
    exact = from_pairs(nums, dens, n)
    ints = exact.ints
    if ints != [list(col) for col in zip(*ints)]:
        i, j = next((i, j) for i in range(n) for j in range(i + 1, n) if ints[i][j] != ints[j][i])
        upper, lower = (Fraction(x, exact.scale) for x in (ints[i][j], ints[j][i]))
        raise BadMatrixFile(f"{path}: 'exact' is not symmetric: entry ({i}, {j}) "
                            f"is {upper} but entry ({j}, {i}) is {lower}")
    return exact
