"""matio against the per-entry reader it replaced (oracles.read_matrix_per_entry).

Every generated file must give equal float bytes and an equal Scaled from
both readers, or the same exception type and message. The files are
mostly valid symmetric matrices of rational pairs, with parts written as
JSON integers or as strings with signs and leading zeros, some beyond the
float range; then a few entries are broken, so that the first bad one in
row order has to win, and some files have CRLF newlines, a BOM, a syntax
error or an invalid UTF-8 byte past the first 8 KB.
"""

import json
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majdet import catalog, matio
from majdet.catalog import Instance
from majdet.errors import BadMatrixFile, DimensionMismatch, NonFinite
from majdet.exact import clear_denominators
from majdet.matio import number_array, read_matrix, write_matrix

from oracles import number_array_per_entry, read_matrix_per_entry

# parts that are not integers, though int() takes some of them
BAD_PARTS = [" 1 ", "1 ", "\t1", "1\n", "1_0", "١", "²", "", "-", "+", "+-1", "--1",
             "1e3", "0x10", "1.0", "0" * 5 + "१", True, False, None, 1.0, 2.5, [1], [],
             "1" * 4301, "-" + "1" * 4301]
NOT_PAIRS = ["11", 11, [1], [1, 2, 3], None, {"1": 2}, [[1, 2]], True]
BAD_ROW_ENTRIES = [True, False, None, "1", [1], [], {"a": 1}, float("nan"), float("inf"),
                   -float("inf"), 10**400, -(10**309)]


def outcome(fn):
    """fn(), or the type and message of what it raised."""
    try:
        return fn()
    except Exception as err:  # noqa: BLE001 - any difference is a failure
        return type(err).__name__, str(err)


def array_bytes(arr: np.ndarray) -> tuple:
    return arr.dtype.str, arr.shape, arr.flags.c_contiguous, arr.tobytes()


def both(path):
    """What each reader makes of path: (array bytes, exact part), or an error."""
    return tuple(outcome(lambda: (array_bytes((got := read(path))[0]), got[1]))
                 for read in (read_matrix, read_matrix_per_entry))


@st.composite
def integer_part(draw, value: int):
    """value as a JSON integer, or as a string with an optional sign and
    leading zeros."""
    if draw(st.booleans()):
        return value
    sign = draw(st.sampled_from(["", "+"])) if value >= 0 else "-"
    return sign + "0" * draw(st.integers(0, 3)) + str(abs(value))


@st.composite
def pair_values(draw):
    """(num, den), den nonzero and of either sign, not in lowest terms, and
    sometimes both scaled beyond the float range."""
    num = draw(st.one_of(st.integers(-10**6, 10**6), st.integers(-2**70, 2**70)))
    den = draw(st.integers(1, 10**5)) * draw(st.sampled_from([1, -1]))
    common = draw(st.sampled_from([1, 1, 3, 2**64, 10**320]))
    return num * common, den * common


@st.composite
def matrix_files(draw):
    """The text of a matrix file: a symmetric exact part and its rows, then
    up to four broken entries, rows or file bytes."""
    n = draw(st.integers(1, 4))
    upper = {(i, j): draw(pair_values()) for i in range(n) for j in range(i, n)}
    values = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    rows = [[num / den for num, den in row] for row in values]
    exact = [[[draw(integer_part(num)), draw(integer_part(den))] for num, den in row]
             for row in values]
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["part", "pair", "zero-den", "asymmetric", "disagree",
                                     "beyond-float", "row", "big-int-row"]))
        pair = list(map(str, values[i][j]))
        if kind == "part":
            pair[draw(st.integers(0, 1))] = draw(st.sampled_from(BAD_PARTS))
            exact[i][j] = pair
        elif kind == "pair":
            exact[i][j] = draw(st.sampled_from(NOT_PAIRS))
        elif kind == "zero-den":
            exact[i][j] = [pair[0], draw(st.sampled_from([0, "0", "-0", "+000"]))]
        elif kind == "asymmetric":  # equal floats, unequal fractions
            num, den = values[i][j]
            exact[i][j] = [str(num * 10**20 + 1), str(den * 10**20)]
        elif kind == "disagree":
            value = values[i][j][0] / values[i][j][1]
            rows[i][j] = value + max(1.0, abs(value)) * 1e-9
        elif kind == "beyond-float":
            exact[i][j] = [draw(st.sampled_from(["1" + "0" * 400, -(10**309)])), "1"]
        elif kind == "row":
            rows[i][j] = draw(st.sampled_from(BAD_ROW_ENTRIES))
        else:  # an integer entry beyond 2^53 or 2^63, exact and rows alike
            value = draw(st.sampled_from([2**53 + 1, 2**63 + 1, -(2**64) - 3, 3**100]))
            for a, b in ((i, j), (j, i)):
                rows[a][b], exact[a][b] = value, [str(value), "1"]
    payload = {"n": n, "rows": rows}
    if draw(st.booleans()) or n > 1:
        payload["exact"] = exact
    return json.dumps(payload, indent=draw(st.sampled_from([None, 1])))


@st.composite
def file_bytes(draw):
    """A matrix file's bytes, sometimes with CRLF or CR newlines, a BOM, a
    syntax error, or an invalid UTF-8 byte past 8 KB."""
    text = draw(matrix_files())
    newline = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    text = text.replace("\n", newline)
    if draw(st.integers(0, 5)) == 5:  # a syntax error after the newlines
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(["x", ",", "}", newline + "]"])) + text[at:]
    data = text.encode()
    if draw(st.integers(0, 7)) == 7:
        data = b"\xef\xbb\xbf" + data
    if draw(st.integers(0, 7)) == 7:
        data = data + b" " * 9000 + b"\xff" + b"\r\n" * draw(st.integers(0, 3))
    return data


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    """One file path for every example of a hypothesis test."""
    return tmp_path_factory.mktemp("matio") / "m.json"


class TestAgainstPerEntryReader:
    @settings(max_examples=400, deadline=None)
    @given(data=file_bytes())
    def test_same_arrays_or_same_error(self, scratch_file, data):
        scratch_file.write_bytes(data)
        new, old = both(scratch_file)
        assert new == old

    @pytest.mark.parametrize("data", [
        b'{"n": 1,\r\n "rows": [[1.0]]\r\n,,}', b'{"n": 1,\r "rows":\r [[1.0]] x}',
        b'\xef\xbb\xbf{"n": 1, "rows": [[1.0]]}',
        b'{"n": 1, "rows": [[1.0]]}' + b"\r\n" * 5000 + b"\xff",
        b'{"n": 1, "rows": [[1.0]]' + b" " * 9000 + b'\xc3(}',
        b'{"n": 1, "rows": [[1.0]], "exact": [[["1", "1' + b"1" * 4300 + b'"]]]}',
        b'{"n": 1, "rows": [[1' + b"0" * 4300 + b']]}',
    ], ids=["crlf-syntax", "cr-syntax", "bom", "bad-byte-past-8k", "bad-byte-past-8k-no-crlf",
            "string-part-of-4301-digits", "json-int-of-4301-digits"])
    def test_file_level_errors(self, tmp_path, data):
        path = tmp_path / "m.json"
        path.write_bytes(data)
        new, old = both(path)
        assert new == old
        assert len(new) == 2  # each is an error

    def test_missing_path_and_directory(self, tmp_path):
        for path in (tmp_path / "absent.json", tmp_path, str(tmp_path / "absent.json")):
            new, old = both(path)
            assert new == old
            assert new[0] in ("BadMatrixFile",)

    @pytest.mark.parametrize("path", [0, 3.5, None])
    def test_path_not_a_path_raises_type_error(self, path):
        # read as a path, never as a file descriptor
        for read in (read_matrix, read_matrix_per_entry):
            with pytest.raises(TypeError):
                read(path)

    def test_first_bad_entry_in_row_order_wins(self, tmp_path):
        exact = [[["1", "1"], ["1", "0"]], [[1.5, 1], ["1", "1"]]]
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 2, "rows": [[1.0, 1.0], [1.0, 1.0]], "exact": exact}))
        new, old = both(path)
        assert new == old == ("BadMatrixFile",
                              f"{path}: exact entry (0, 1) has a zero denominator")


def nested(leaves):
    return st.recursive(leaves, lambda inner: st.lists(inner, max_size=4), max_leaves=20)


JSON_LEAVES = st.one_of(
    st.integers(-2**70, 2**70), st.sampled_from([2**53 + 1, 2**63 + 1, 10**400, -(10**309)]),
    st.floats(allow_nan=True, allow_infinity=True), st.booleans(), st.none(),
    st.sampled_from(["1", "x"]))


class TestNumberArray:
    @settings(max_examples=300, deadline=None)
    @given(rows=nested(JSON_LEAVES))
    def test_same_array_or_same_error(self, rows):
        assert (outcome(lambda: array_bytes(number_array(rows)))
                == outcome(lambda: array_bytes(number_array_per_entry(rows))))

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.lists(st.one_of(st.integers(-2**70, 2**70), st.floats()),
                                  min_size=3, max_size=3), min_size=1, max_size=4))
    def test_lists_of_numbers(self, rows):
        assert (outcome(lambda: array_bytes(number_array(rows)))
                == outcome(lambda: array_bytes(number_array_per_entry(rows))))

    @settings(max_examples=200, deadline=None)
    @given(key=st.sampled_from(["mats", "d_blocks"]), mats=st.lists(nested(JSON_LEAVES),
                                                                   min_size=1, max_size=3))
    def test_instance_from_json_ragged_and_nested(self, key, mats):
        payload = {"partition": [1, 1], "c": [[2.0, 0.0], [0.0, 2.0]], key: mats}

        def read():
            inst = Instance.from_json(payload)
            return [array_bytes(m) for m in (inst.c, inst.d, *(inst.mats or ())) if m is not None]

        new = outcome(read)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(catalog, "number_array", number_array_per_entry)
            old = outcome(read)
        assert new == old


class TestWholeMatrixPasses:
    def test_valid_file_takes_no_per_entry_step(self, tmp_path, monkeypatch):
        def refuse(*_):
            raise AssertionError("per-entry step on a valid file")

        monkeypatch.setattr(matio, "_is_integer", refuse)
        monkeypatch.setattr(matio, "_number_array_each", refuse)
        monkeypatch.setattr(matio, "_raise_first_bad_pair", refuse)
        path = tmp_path / "m.json"
        exact = [[Fraction(3, 2), Fraction(-1, 3)], [Fraction(-1, 3), Fraction(10**400 + 1, 10**400)]]
        path.write_text(json.dumps({
            "n": 2, "rows": [[float(x) for x in row] for row in exact],
            "exact": [[["3", "+02"], [-1, 3]], [["-01", "3"], [str(10**400 + 1), 10**400]]]}))
        arr, scaled = read_matrix(path)
        assert scaled == clear_denominators(exact)
        assert arr.tolist() == [[1.5, -1 / 3], [-1 / 3, 1.0]]


class TestWriteMatrix:
    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 5), data=st.data())
    def test_write_read_round_trip(self, n, data):
        values = [[data.draw(st.fractions(-10**6, 10**6, max_denominator=10**4))
                   for _ in range(n)] for _ in range(n)]
        exact = [[values[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        rows = np.array([[float(x) for x in row] for row in exact])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.json"
            write_matrix(path, rows, exact=exact)
            arr, scaled = read_matrix(path)
            plain = Path(tmp) / "plain.json"
            write_matrix(plain, rows)
            back, none = read_matrix(plain)
        assert arr.tobytes() == back.tobytes() == rows.tobytes()
        assert none is None
        assert [[Fraction(x, scaled.scale) for x in row] for row in scaled.ints] == exact

    @pytest.mark.parametrize("rows, error", [
        ([[1.0, float("nan")], [float("nan"), 1.0]], NonFinite),
        ([[1.0, float("inf")], [0.0, 1.0]], NonFinite),
        (np.zeros((2, 3)), DimensionMismatch),
        (np.zeros(3), DimensionMismatch),
        (np.zeros((2, 2, 2)), DimensionMismatch),
        (np.zeros((0, 0)), DimensionMismatch),
    ], ids=["nan", "inf", "2x3", "vector", "stack", "empty"])
    def test_unreadable_matrix_raises_before_writing(self, tmp_path, rows, error):
        path = tmp_path / "m.json"
        with pytest.raises(error):
            write_matrix(path, rows)
        assert not path.exists()

    @pytest.mark.parametrize("rows, exact", [
        (np.eye(2), [[Fraction(1)]]),
        (np.eye(2), [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]]),
        ([[1.0, 0.5], [0.5, 1.0]],
         [[Fraction(1), Fraction(1, 2)], [Fraction(1, 2) + Fraction(1, 10**15), Fraction(1)]]),
    ], ids=["shape", "disagrees", "asymmetric"])
    def test_unreadable_exact_part_raises_before_writing(self, tmp_path, rows, exact):
        path = tmp_path / "m.json"
        with pytest.raises(BadMatrixFile) as wrote:
            write_matrix(path, rows, exact=exact)
        assert not path.exists()
        # the error a read of that file raises
        path.write_text(json.dumps({"n": 2, "rows": np.asarray(rows).tolist(), "exact": [
            [[str(f.numerator), str(f.denominator)] for f in row] for row in exact]}))
        with pytest.raises(BadMatrixFile) as read:
            read_matrix(path)
        assert str(wrote.value) == str(read.value)
