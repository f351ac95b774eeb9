import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import majdet
from majdet import cli, refdata
from majdet.blocks import Partition, diag_blocks
from majdet.catalog import SPECS, Shape, inv_square_sum_exact, matic_exact, run_check
from majdet.cli import build_parser, main
from majdet.errors import BadMatrixFile, BadPartition, IndexOutOfRange
from majdet.exact import Scaled, clear_denominators
from majdet.fuzzing import GenConfig, build_instance, derive_seed
from majdet.matio import read_matrix, write_matrix

from oracles import drawn_rational_pd, fraction_direct_sum, rand_pd


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_ref_files(tmp_path, with_exact=False):
    paths = {}
    paths["c"] = tmp_path / "c.json"
    write_matrix(paths["c"], refdata.WLOG_C)
    for i, block in enumerate(diag_blocks(refdata.WLOG_D, Partition((2, 2))), start=1):
        paths[f"d{i}"] = tmp_path / f"d{i}.json"
        write_matrix(paths[f"d{i}"], block)
    return paths


class TestMatrixFiles:
    def test_roundtrip(self, tmp_path, rng):
        a = rand_pd(rng, 4)
        path = tmp_path / "a.json"
        write_matrix(path, a)
        back, exact = read_matrix(path)
        np.testing.assert_array_equal(back, a)
        assert exact is None

    def test_exact_roundtrip(self, tmp_path):
        path = tmp_path / "c.json"
        write_matrix(path, refdata.INV_SQ_C, exact=refdata.INV_SQ_C_EXACT)
        arr, exact = read_matrix(path)
        assert exact == clear_denominators(refdata.INV_SQ_C_EXACT)
        np.testing.assert_array_equal(arr, refdata.INV_SQ_C)

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        with pytest.raises(BadMatrixFile):
            read_matrix(path)

    def test_not_an_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(BadMatrixFile, match="expected an object with 'n' and 'rows'$"):
            read_matrix(path)

    def test_wrong_shape(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "rows": [[1.0, 0.0]]}))
        with pytest.raises(BadMatrixFile):
            read_matrix(path)

    def test_exact_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "n": 1, "rows": [[0.5]], "exact": [[["1", "3"]]],
        }))
        with pytest.raises(BadMatrixFile):
            read_matrix(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(BadMatrixFile):
            read_matrix(tmp_path / "absent.json")

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_entry(self, tmp_path, token):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"n": 2, "rows": [[1.0, {token}], [{token}, 1.0]]}}')
        with pytest.raises(BadMatrixFile):
            read_matrix(path)

    @pytest.mark.parametrize("rows", [
        [[True, False], [False, True]], [[1.0, 0.0], [0.0, True]],
    ], ids=["all-bool", "one-bool"])
    def test_boolean_entry(self, tmp_path, rows):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "rows": rows}))
        with pytest.raises(BadMatrixFile, match="boolean entry"):
            read_matrix(path)

    @pytest.mark.parametrize("rows", [
        '[["1", "0"], ["0", " 1e0 "]]', '[[1, null], [null, 1]]', '[[1, 0], [0, [1]]]',
        '[[1, 0], [0, 1' + '0' * 400 + ']]',
    ], ids=["string", "null", "nested", "int-beyond-float"])
    def test_entry_not_a_finite_number(self, tmp_path, rows):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"n": 2, "rows": {rows}}}')
        with pytest.raises(BadMatrixFile):
            read_matrix(path)

    @pytest.mark.parametrize("pair", [
        [1.0000000000001, 1], [1, 1.0], [True, 1], ["1", False], "11", [None, 1],
        ["1_0", "10"], [" 10 ", "10"], ["١٠", "10"], ["10", "+-1"], ["10", "-"], ["10", ""],
        ["10"], ["10", "10", "1"],
    ], ids=["float-num", "float-den", "bool-num", "bool-den", "string", "null",
            "underscore", "spaces", "non-ascii-digits", "two-signs", "sign-only", "empty",
            "one-part", "three-parts"])
    def test_exact_part_not_an_integer(self, tmp_path, pair):
        # int() would read the underscore, spaced and Arabic-Indic parts as 10
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 1, "rows": [[1.0]], "exact": [[pair]]}))
        with pytest.raises(BadMatrixFile, match=r"\(0, 0\) .* is not a pair of integer strings "
                                                 "or integers"):
            read_matrix(path)

    @pytest.mark.parametrize("pair", [["3", "2"], [3, 2], ["3", 2], [-3, "-2"], ["+3", "+2"],
                                      ["-03", "-02"], ["3" + "0" * 400, "2" + "0" * 400]])
    def test_exact_parts_strings_or_integers(self, tmp_path, pair):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps({"n": 1, "rows": [[1.5]], "exact": [[pair]]}))
        arr, exact = read_matrix(path)
        assert exact == Scaled([[3]], 2)
        assert arr.tolist() == [[1.5]]

    @pytest.mark.parametrize("exact, reason", [
        ([[["1", "0"]]], "(0, 0) has a zero denominator"),
        ([[["1", "2", "3"]]],
         "(0, 0) ['1', '2', '3'] is not a pair of integer strings or integers"),
        ([[[1, 2], ["1", "0"]], [[1, 2, 3], [1, 1]]], "(0, 1) has a zero denominator"),
        ([[["1" + "0" * 400, "1"], [1, 2, 3]], [[1, 1], [1, 1]]],
         "(0, 1) [1, 2, 3] is not a pair of integer strings or integers"),
    ], ids=["zero-denominator", "three-parts", "first-in-row-order", "before-float-range"])
    def test_bad_exact_entry_message(self, tmp_path, exact, reason):
        n = len(exact)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": n, "rows": np.eye(n).tolist(), "exact": exact}))
        with pytest.raises(BadMatrixFile) as err:
            read_matrix(path)
        assert str(err.value) == f"{path}: exact entry {reason}"

    def test_exact_part_beyond_int_digit_limit(self, tmp_path):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this Python converts integer strings of any length")
        path = tmp_path / "bad.json"
        exact = [[["1", "1"], ["1", "1" * (limit + 1)]], [[1, 1], [1, 1]]]
        path.write_text(json.dumps({"n": 2, "rows": np.eye(2).tolist(), "exact": exact}))
        with pytest.raises(BadMatrixFile, match=rf"^{re.escape(str(path))}: exact entry "
                                                r"\(0, 1\): Exceeds the limit"):
            read_matrix(path)


class TestVerifyPaper:
    def test_exit_zero_and_json(self, capsys):
        code, out, err = run_cli(capsys, "verify-paper")
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert {rec["scenario"] for rec in lines} == {
            "ex-2.3", "ex-2.3-log", "ex-2.3-le", "ex-2.6", "ex-2.7", "ex-2.8"
        }
        assert all(rec["pass"] for rec in lines)
        assert "scenario ex-2.3: PASS" in err

    def test_hermetic_identical_output(self, capsys):
        _, out1, _ = run_cli(capsys, "verify-paper", "--json-only")
        _, out2, _ = run_cli(capsys, "verify-paper", "--json-only")
        assert out1 == out2

    def test_json_only_suppresses_table(self, capsys):
        code, out, err = run_cli(capsys, "verify-paper", "--json-only")
        assert code == 0
        assert err == ""


class TestCheck:
    def test_matic_reference_files_exit_zero(self, capsys, tmp_path):
        paths = write_ref_files(tmp_path)
        code, out, _ = run_cli(
            capsys, "check", "matic",
            "--c", str(paths["c"]), "--d", str(paths["d1"]), str(paths["d2"]),
            "--part", "2,2",
        )
        assert code == 0
        verdict = json.loads(out)
        assert verdict["holds"] is True
        assert verdict["inequality"] == "matic"

    def test_inv_square_sum_reference_exit_two_with_exact(self, capsys, tmp_path):
        c_path = tmp_path / "c.json"
        write_matrix(c_path, refdata.INV_SQ_C, exact=refdata.INV_SQ_C_EXACT)
        d_paths = []
        for i, (lo, hi) in enumerate(refdata.INV_SQ_PART.offsets(), start=1):
            p = tmp_path / f"d{i}.json"
            block_exact = [row[lo:hi] for row in refdata.INV_SQ_D_EXACT[lo:hi]]
            write_matrix(p, refdata.INV_SQ_D[lo:hi, lo:hi], exact=block_exact)
            d_paths.append(str(p))
        code, out, err = run_cli(
            capsys, "check", "inv-square-sum",
            "--c", str(c_path), "--d", *d_paths, "--part", "2,2",
        )
        assert code == 2
        verdict = json.loads(out)
        assert verdict["holds"] is False
        assert verdict["exact"]["holds"] is False
        lhs = Fraction(verdict["exact"]["lhs"])
        rhs = Fraction(verdict["exact"]["rhs"])
        assert lhs > rhs

    def test_matic_general_d_exact_certificate_uses_full_d(self, capsys, tmp_path):
        c_path = tmp_path / "c.json"
        d_path = tmp_path / "d.json"
        for path, m in ((c_path, refdata.MATIC_GEN_C), (d_path, refdata.MATIC_GEN_D)):
            write_matrix(path, m, exact=[[Fraction(int(x)) for x in row] for row in m])
        code, out, _ = run_cli(
            capsys, "check", "matic-general-d",
            "--c", str(c_path), "--d", str(d_path), "--part", "1,1",
        )
        assert code == 2
        verdict = json.loads(out)
        assert verdict["holds"] is False
        assert verdict["exact"] == {"lhs": "7/2", "rhs": "224/71", "holds": False}

    @pytest.mark.parametrize("inequality", ["matic", "matic-general-d"])
    def test_singular_exact_c_exit_one(self, capsys, tmp_path, inequality):
        # the float C agrees with the exact one within read_matrix's 1e-12 and
        # passes the pivot floor, but the exact C is singular
        c_path = tmp_path / "c.json"
        write_matrix(c_path, [[1.0, 1.0], [1.0, 1.0 + 5e-13]],
                     exact=[[Fraction(1)] * 2, [Fraction(1)] * 2])
        if inequality == "matic":
            d_paths = [str(tmp_path / "d1.json"), str(tmp_path / "d2.json")]
            for path in d_paths:
                write_matrix(path, [[1.0]], exact=[[Fraction(1)]])
        else:
            d_paths = [str(tmp_path / "d.json")]
            write_matrix(d_paths[0], np.eye(2), exact=[[1, 0], [0, 1]])
        code, out, err = run_cli(capsys, "check", inequality, "--c", str(c_path),
                                 "--d", *d_paths, "--part", "1,1")
        assert code == 1
        assert out == ""
        assert err.startswith("majdet: error:") and "exact C is singular" in err

    def test_inv_square_sum_near_singular_derived_matrix_agrees_with_exact(self, capsys,
                                                                             tmp_path):
        # C passes the pivot floor, but D^-2 + C^-2 would not: inv-square-sum
        # never forms it, and its float verdict is the exact certificate's
        c = [[1.0, 1.0], [1.0, 1.0 + 5e-13]]
        c_path = tmp_path / "c.json"
        write_matrix(c_path, c, exact=[[Fraction(x) for x in row] for row in c])
        d_paths = [str(tmp_path / "d1.json"), str(tmp_path / "d2.json")]
        for path in d_paths:
            write_matrix(path, [[1.0]], exact=[[Fraction(1)]])
        code, out, _ = run_cli(capsys, "check", "inv-square-sum", "--c", str(c_path),
                               "--d", *d_paths, "--part", "1,1")
        verdict = json.loads(out)
        assert code == 0
        assert verdict["holds"] is verdict["exact"]["holds"] is True
        lhs, rhs = (Fraction(verdict["exact"][side]) for side in ("lhs", "rhs"))
        exact_margin = (math.log(rhs.numerator) - math.log(rhs.denominator)
                        - math.log(lhs.numerator) + math.log(lhs.denominator))
        assert verdict["margin"] == pytest.approx(exact_margin, rel=0, abs=verdict["tol"])

    def test_overflowing_derived_matrix_prints_only_the_error(self, capsys, tmp_path):
        # finite entries whose C + D overflows: the kernels reject it, and
        # numpy's overflow warning is not printed on top of the error
        c_path, d_path = tmp_path / "c.json", tmp_path / "d1.json"
        c_path.write_text('{"n": 2, "rows": [[2, 1e308], [1e308, 2]]}')
        d_path.write_text('{"n": 1, "rows": [[1]]}')
        code, out, err = run_cli(capsys, "check", "matic", "--c", str(c_path),
                                 "--d", str(d_path), str(d_path), "--part", "1,1")
        assert code == 1
        assert out == ""
        assert err == "majdet: error: non-finite entry (max |a_ij| = inf)\n"

    def test_nan_entry_exit_one(self, capsys, tmp_path):
        paths = write_ref_files(tmp_path)
        rows = refdata.WLOG_C.tolist()
        rows[0][1] = rows[1][0] = float("nan")
        # json's NaN token, which write_matrix refuses to write
        paths["c"].write_text(json.dumps({"n": len(rows), "rows": rows}))
        code, out, err = run_cli(
            capsys, "check", "matic",
            "--c", str(paths["c"]), "--d", str(paths["d1"]), str(paths["d2"]),
            "--part", "2,2",
        )
        assert code == 1
        assert out == ""
        assert "non-finite" in err

    def test_single_blockdiagonal_d_file(self, capsys, tmp_path):
        paths = write_ref_files(tmp_path)
        d_full = tmp_path / "dfull.json"
        full = np.zeros((4, 4))
        full[:2, :2] = refdata.WLOG_D[:2, :2]
        full[2:, 2:] = refdata.WLOG_D[2:, 2:]
        write_matrix(d_full, full)
        code, out, _ = run_cli(
            capsys, "check", "main-thm",
            "--c", str(paths["c"]), "--d", str(d_full), "--part", "2,2",
        )
        assert code == 0

    def test_single_exact_d_file_certifies_like_block_files(self, capsys, tmp_path):
        c_path, d_path = tmp_path / "c.json", tmp_path / "d.json"
        write_matrix(c_path, refdata.INV_SQ_C, exact=refdata.INV_SQ_C_EXACT)
        write_matrix(d_path, refdata.INV_SQ_D, exact=refdata.INV_SQ_D_EXACT)
        block_paths = []
        for i, (lo, hi) in enumerate(Partition((2, 2)).offsets()):
            path = tmp_path / f"d{i}.json"
            write_matrix(path, refdata.INV_SQ_D[lo:hi, lo:hi],
                         exact=[row[lo:hi] for row in refdata.INV_SQ_D_EXACT[lo:hi]])
            block_paths.append(str(path))
        outs = []
        for d_args in ([str(d_path)], block_paths):
            code, out, _ = run_cli(capsys, "check", "inv-square-sum", "--c", str(c_path),
                                   "--d", *d_args, "--part", "2,2")
            assert code == 2
            outs.append(json.loads(out))
        assert outs[0] == outs[1]
        assert outs[0]["exact"]["holds"] is False

    def test_exact_d_joined_once(self, capsys, tmp_path, monkeypatch):
        # one D file is certified as read and scanned for its off-block
        # entries; block files are joined by one direct sum and not scanned
        calls = []
        for name in ("direct_sum", "block_diagonal"):
            def counted(*args, _name=name, _fn=getattr(cli.exact, name)):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(cli.exact, name, counted)
        c_path, d_path = tmp_path / "c.json", tmp_path / "d.json"
        write_matrix(c_path, refdata.INV_SQ_C, exact=refdata.INV_SQ_C_EXACT)
        write_matrix(d_path, refdata.INV_SQ_D, exact=refdata.INV_SQ_D_EXACT)
        block_paths = []
        for i, (lo, hi) in enumerate(Partition((2, 2)).offsets()):
            path = tmp_path / f"d{i}.json"
            write_matrix(path, refdata.INV_SQ_D[lo:hi, lo:hi],
                         exact=[row[lo:hi] for row in refdata.INV_SQ_D_EXACT[lo:hi]])
            block_paths.append(str(path))
        seen = {}
        for inequality, d_args in (("matic", [str(d_path)]), ("matic", block_paths),
                                   ("matic-general-d", [str(d_path)])):
            calls.clear()
            run_cli(capsys, "check", inequality, "--c", str(c_path), "--d", *d_args,
                    "--part", "2,2")
            seen[inequality, len(d_args)] = list(calls)
        assert seen == {("matic", 1): ["block_diagonal"], ("matic", 2): ["direct_sum"],
                        ("matic-general-d", 1): []}

    def test_single_dense_d_file_exit_one(self, capsys, tmp_path):
        paths = write_ref_files(tmp_path)
        d_path = tmp_path / "dfull.json"
        write_matrix(d_path, refdata.WLOG_D)
        for inequality in ("main-thm", "matic", "det-power"):
            code, out, err = run_cli(capsys, "check", inequality, "--c", str(paths["c"]),
                                     "--d", str(d_path), "--part", "2,2")
            assert (code, out) == (1, "")
            assert "block diagonal" in err

    def test_single_d_file_with_exact_off_block_entry_exit_one(self, capsys, tmp_path):
        # the float entry rounds to 0.0, but the exact D is not block diagonal
        paths = write_ref_files(tmp_path)
        full = np.zeros((4, 4))
        full[:2, :2] = refdata.WLOG_D[:2, :2]
        full[2:, 2:] = refdata.WLOG_D[2:, 2:]
        d_exact = [[Fraction(int(x)) for x in row] for row in full]
        d_exact[0][3] = d_exact[3][0] = Fraction(1, 10**15)
        d_path = tmp_path / "dfull.json"
        write_matrix(d_path, full, exact=d_exact)
        code, out, err = run_cli(capsys, "check", "matic", "--c", str(paths["c"]),
                                 "--d", str(d_path), "--part", "2,2")
        assert (code, out) == (1, "")
        assert "block diagonal" in err

    def test_asymmetric_exact_part_exit_one(self, capsys, tmp_path):
        # the exact C agrees with its symmetric rows to 1e-12, but C[1][0] is
        # not C[0][1], so there is no symmetric matrix to certify
        c_path, d_path = tmp_path / "c.json", tmp_path / "d.json"
        c_path.write_text(json.dumps({
            "n": 2, "rows": [[2, 1 / 3], [1 / 3, 2]],
            "exact": [[[2, 1], [1, 3]], [[333333333333333, 10**15], [2, 1]]]}))
        d_path.write_text(json.dumps({"n": 1, "rows": [[1]], "exact": [[[1, 1]]]}))
        code, out, err = run_cli(capsys, "check", "matic", "--c", str(c_path),
                                 "--d", str(d_path), str(d_path), "--part", "1,1")
        assert (code, out) == (1, "")
        assert err == (f"majdet: error: {c_path}: 'exact' is not symmetric: entry (0, 1) "
                       "is 1/3 but entry (1, 0) is 333333333333333/1000000000000000\n")

    def test_bad_partition_exit_one(self, capsys, tmp_path):
        paths = write_ref_files(tmp_path)
        code, _, err = run_cli(
            capsys, "check", "matic",
            "--c", str(paths["c"]), "--d", str(paths["d1"]), str(paths["d2"]),
            "--part", "3,2",
        )
        assert code == 1
        assert "error" in err

    def test_non_integer_partition_token(self, capsys, tmp_path):
        paths = write_ref_files(tmp_path)
        code, out, err = run_cli(
            capsys, "check", "matic",
            "--c", str(paths["c"]), "--d", str(paths["d1"]), str(paths["d2"]),
            "--part", "1,x",
        )
        assert (code, out) == (1, "")
        assert err == "majdet: error: bad partition '1,x'; expected n1,n2,...,nk\n"
        with pytest.raises(BadPartition):
            cli._parse_partition("1,x", 2)

    def test_non_integer_index_token(self, capsys, tmp_path):
        path = tmp_path / "a.json"
        write_matrix(path, np.eye(2))
        code, out, err = run_cli(capsys, "check", "lemma31", "--a", str(path), "--idx", "0,a")
        assert (code, out) == (1, "")
        assert err == "majdet: error: bad index list '0,a'; expected i,j,... (0-based)\n"
        with pytest.raises(IndexOutOfRange):
            cli._parse_idx("0,a")

    def test_missing_file_exit_one(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "check", "matic",
            "--c", str(tmp_path / "nope.json"), "--d", str(tmp_path / "alsono.json"),
            "--part", "2,2",
        )
        assert code == 1

    @pytest.mark.parametrize("payload", [
        {"n": 2, "rows": [[1.0, 0.0], [0.0, 1.0]], "exact": [1, 2]},
        {"n": 2, "rows": [[1.0, 0.0], [0.0, 1.0]],
         "exact": [[["1" + "0" * 400, "1"], ["0", "1"]], [["0", "1"], ["1", "1"]]]},
        {"n": True, "rows": [[1.0]]},
        b'{"n": 1, "rows": [[1.0]], "note": "\xff"}',
    ], ids=["exact-not-pairs", "exact-overflows-float", "n-is-bool", "not-utf-8"])
    def test_malformed_matrix_file_exit_one(self, capsys, tmp_path, payload):
        c_path, d_path = tmp_path / "c.json", tmp_path / "d.json"
        c_path.write_bytes(payload if isinstance(payload, bytes) else json.dumps(payload).encode())
        write_matrix(d_path, np.eye(2))
        code, out, err = run_cli(capsys, "check", "matic", "--c", str(c_path),
                                 "--d", str(d_path), "--part", "1,1")
        assert (code, out) == (1, "")
        assert err.startswith(f"majdet: error: {c_path}: ")

    def test_weak_log_general_d_exit_two(self, capsys, tmp_path):
        c_path = tmp_path / "c.json"
        d_path = tmp_path / "d.json"
        write_matrix(c_path, refdata.WLOG_C)
        write_matrix(d_path, refdata.WLOG_D)
        code, out, _ = run_cli(
            capsys, "check", "weak-log-general-d",
            "--c", str(c_path), "--d", str(d_path), "--part", "2,2",
        )
        assert code == 2
        verdict = json.loads(out)
        assert verdict["order"]["fail_index"] == 2

    def test_lemma31(self, capsys, tmp_path, rng):
        path = tmp_path / "a.json"
        write_matrix(path, rand_pd(rng, 4))
        code, out, _ = run_cli(capsys, "check", "lemma31",
                               "--a", str(path), "--idx", "0,2")
        assert code == 0

    def test_choi_files(self, capsys, tmp_path, rng):
        paths = []
        for i in range(2):
            p = tmp_path / f"a{i}.json"
            write_matrix(p, rand_pd(rng, 4))
            paths.append(str(p))
        code, out, _ = run_cli(capsys, "check", "choi", "--a", *paths, "--part", "2,2")
        assert code == 0


def write_exact_file(draw, path: Path, m) -> str:
    """A matrix file of m whose exact pairs take every spelling a file may
    use: scaled by 1 to 3 or by -1 to -3, each part a string or an integer."""
    def pair(x: Fraction) -> list:
        k = draw(st.integers(1, 3)) * draw(st.sampled_from((1, -1)))
        return [draw(st.sampled_from((str, int)))(v * k) for v in (x.numerator, x.denominator)]

    path.write_text(json.dumps({"n": len(m), "rows": [[float(x) for x in row] for row in m],
                                "exact": [[pair(x) for x in row] for row in m]}))
    return str(path)


EXACT_CERTIFIERS = {"matic": matic_exact, "matic-general-d": matic_exact,
                    "inv-square-sum": inv_square_sum_exact}


@given(data=st.data(), inequality=st.sampled_from(sorted(EXACT_CERTIFIERS)),
       sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_exact_certificate_from_files_matches_library(data, inequality, sizes):
    """The CLI's exact certificate on files is the library's on the same
    Fractions, whatever denominators and spellings each file uses."""
    part = Partition(tuple(sizes))
    c = drawn_rational_pd(data.draw, part.n)
    if inequality == "matic-general-d":
        blocks = [d := drawn_rational_pd(data.draw, part.n)]
    else:
        blocks = [drawn_rational_pd(data.draw, size) for size in sizes]
        d = fraction_direct_sum(blocks)
    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        c_file = write_exact_file(data.draw, Path(tmp) / "c.json", c)
        d_files = [write_exact_file(data.draw, Path(tmp) / f"d{i}.json", b)
                   for i, b in enumerate(blocks)]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(["check", inequality, "--c", c_file, "--d", *d_files,
                         "--part", ",".join(map(str, sizes))])
    lhs, rhs = EXACT_CERTIFIERS[inequality](c, d, part)
    assert code in (0, 2)
    assert json.loads(stdout.getvalue())["exact"] == {
        "lhs": f"{lhs.numerator}/{lhs.denominator}",
        "rhs": f"{rhs.numerator}/{rhs.denominator}",
        "holds": lhs <= rhs,
    }


def instance_args(tmp_path, shape: Shape, inst) -> list[str]:
    """`check` arguments that load inst from freshly written files."""
    def write(name, m):
        path = tmp_path / f"{name}.json"
        write_matrix(path, m)
        return str(path)

    if shape is Shape.C_IDX:
        return ["--a", write("a", inst.c), "--idx", ",".join(map(str, inst.idx))]
    if shape is Shape.MATS:
        args = ["--a", *[write(f"a{i}", m) for i, m in enumerate(inst.mats)]]
    else:
        args = ["--c", write("c", inst.c)]
    if shape is Shape.GENERAL_D:
        args += ["--d", write("d", inst.d)]
    elif shape is Shape.BLOCK_D:
        args += ["--d", *[write(f"d{i}", b)
                          for i, b in enumerate(diag_blocks(inst.d, inst.partition))]]
    return args + ["--part", ",".join(map(str, inst.partition.sizes))]


def reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


@pytest.mark.parametrize("inequality", list(SPECS))
def test_check_every_id_matches_run_check(capsys, tmp_path, inequality):
    spec = SPECS[inequality]
    cfg = GenConfig(n=4, partition=Partition((2, 2)), m=2, seed=2026)
    inst = build_instance(inequality, cfg, 1)
    if spec.split is not None:
        inst = replace(inst, p=spec.split.default)
    verdict = run_check(inequality, inst)
    code, out, _ = run_cli(capsys, "check", inequality, "--json-only",
                           *instance_args(tmp_path, spec.shape, inst))
    assert out == json.dumps(verdict.to_json()) + "\n"
    assert code == (0 if verdict.holds else 2)


NO_EXPONENT_IDS = [i for i, spec in SPECS.items() if spec.split is None]


@pytest.mark.parametrize("inequality", NO_EXPONENT_IDS)
def test_check_rejects_p_without_exponent(capsys, tmp_path, inequality):
    cfg = GenConfig(n=4, partition=Partition((2, 2)), m=2, seed=2026)
    inst = build_instance(inequality, cfg, 1)
    code, out, err = run_cli(capsys, "check", inequality, "--p", "7",
                             *instance_args(tmp_path, SPECS[inequality].shape, inst))
    assert (code, out) == (1, "")
    assert f"{inequality} takes no exponent" in err


# The check flags each Shape reads; each of the others is an input error.
SHAPE_FLAGS = {
    Shape.BLOCK_D: ("--c", "--d", "--part"),
    Shape.GENERAL_D: ("--c", "--d", "--part"),
    Shape.MATS: ("--a", "--part"),
    Shape.C: ("--c", "--part"),
    Shape.C_M: ("--c", "--part", "--m"),
    Shape.C_IDX: ("--a", "--idx"),
}
INPUT_FLAGS = ("--c", "--d", "--a", "--part", "--m", "--idx")


def check_args(tmp_path, inequality):
    cfg = GenConfig(n=4, partition=Partition((2, 2)), m=2, seed=2026)
    return instance_args(tmp_path, SPECS[inequality].shape, build_instance(inequality, cfg, 1))


@pytest.mark.parametrize("inequality, flag", [
    (i, flag) for i, spec in SPECS.items() for flag in INPUT_FLAGS
    if flag not in SHAPE_FLAGS[spec.shape]])
def test_check_rejects_a_flag_its_shape_does_not_read(capsys, tmp_path, inequality, flag):
    extra = tmp_path / "extra.json"
    write_matrix(extra, np.eye(4))
    value = {"--part": "2,2", "--m": "2", "--idx": "0,1"}.get(flag, str(extra))
    code, out, err = run_cli(capsys, "check", inequality, *check_args(tmp_path, inequality),
                             flag, value)
    assert (code, out) == (1, "")
    assert err == f"majdet: error: {inequality} takes no {flag}\n"


@pytest.mark.parametrize("inequality, flag", [
    (i, flag) for i in ("matic", "weak-log-general-d", "choi", "ky-fan", "fischer-tail",
                        "lemma31")
    for flag in SHAPE_FLAGS[SPECS[i].shape] if flag != "--m"])
def test_check_needs_every_flag_its_shape_reads(capsys, tmp_path, inequality, flag):
    args = check_args(tmp_path, inequality)
    at = args.index(flag)
    rest = next((j for j in range(at + 1, len(args)) if args[j].startswith("--")), len(args))
    code, out, err = run_cli(capsys, "check", inequality, *args[:at], *args[rest:])
    assert (code, out) == (1, "")
    assert err == f"majdet: error: {inequality} needs {flag}\n"


@pytest.mark.parametrize("inequality, p, message", [
    ("det-power", "-1", "det-power needs p >= 0, got p = -1.0"),
    ("abs-power", "-1", "abs-power needs p >= 0, got p = -1.0"),
    ("commuted-power", "-0.5", "commuted-power needs p >= 0, got p = -0.5"),
    ("thm32", "0.5", "thm32 needs p >= 1, got p = 0.5"),
    ("neg-power", "0", "neg-power needs p < 0, got p = 0.0"),
])
def test_check_rejects_p_outside_the_interval(capsys, tmp_path, inequality, p, message):
    code, out, err = run_cli(capsys, "check", inequality, "--p", p,
                             *check_args(tmp_path, inequality))
    assert (code, out) == (1, "")
    assert err == f"majdet: error: {message}\n"


@pytest.mark.parametrize("inequality", NO_EXPONENT_IDS)
def test_fuzz_rejects_p_without_exponent(capsys, inequality):
    code, out, err = run_cli(capsys, "fuzz", inequality, "--n", "2", "--part", "1,1",
                             "--trials", "3", "--p", "7")
    assert (code, out) == (1, "")
    assert f"{inequality} takes no exponent" in err


class TestOverflow:
    @pytest.mark.parametrize("inequality", ["det-power", "abs-power"])
    def test_overflowing_power_equality_holds(self, capsys, tmp_path, inequality):
        # C = I, D = 1000 I: both sides are 2 log1p(1000^120), and 1000^120
        # overflows a double
        c_path, d_path = tmp_path / "c.json", tmp_path / "d.json"
        write_matrix(c_path, np.eye(2))
        write_matrix(d_path, 1000.0 * np.eye(2))
        code, out, err = run_cli(capsys, "check", inequality, "--c", str(c_path),
                                 "--d", str(d_path), "--part", "1,1", "--p", "120")
        assert code == 0
        verdict = json.loads(out, parse_constant=reject_constant)
        assert verdict["holds"] is True
        assert verdict["margin"] == pytest.approx(0.0, abs=1e-12)
        assert verdict["lhs"] is None and verdict["rhs"] is None
        assert verdict["detail"]["log_lhs"] == pytest.approx(240 * math.log(1000.0))
        assert "lhs = exp(" in err

    def test_overflowing_log_sides_exit_one(self, capsys, tmp_path):
        # both log sides are 1e308 log(1000) = inf: no verdict, and no NaN JSON
        c_path, d_path = tmp_path / "c.json", tmp_path / "d.json"
        write_matrix(c_path, np.eye(3))
        write_matrix(d_path, 1000.0 * np.eye(3))
        code, out, err = run_cli(capsys, "check", "det-power", "--c", str(c_path),
                                 "--d", str(d_path), "--part", "3", "--p", "1e308")
        assert (code, out) == (1, "")
        assert err == ("majdet: error: log-determinant comparison with a non-finite side: "
                       "log lhs = inf, log rhs = inf\n")

    def test_overflowing_tolerance_exit_one(self, capsys, tmp_path):
        # the log sides are about 1e200; 1e110 times them overflows, and the
        # verdict's tol would be inf, which JSON cannot hold
        c_path, d_path = tmp_path / "c.json", tmp_path / "d.json"
        write_matrix(c_path, np.diag([2.0, 1.0, 3.0]))
        write_matrix(d_path, np.diag([1.5, 2.0, 0.7]))
        code, out, err = run_cli(capsys, "check", "det-power", "--c", str(c_path),
                                 "--d", str(d_path), "--part", "3", "--p", "1e200",
                                 "--tol", "1e110")
        assert (code, out) == (1, "")
        assert err.startswith("majdet: error: log-determinant comparison with a tolerance "
                              "that overflows: tol = 1e+110, log lhs = 6.93")
        # lambda(C^-1 D) = 10: the log prefix sums reach 3 log 10
        write_matrix(c_path, np.eye(3))
        write_matrix(d_path, 10.0 * np.eye(3))
        code, out, err = run_cli(capsys, "check", "main-thm", "--c", str(c_path),
                                 "--d", str(d_path), "--part", "3", "--tol", "1e308")
        assert (code, out) == (1, "")
        assert err.startswith("majdet: error: order check with a tolerance that overflows: "
                              "tol = 1e+308 times the prefix scale ")

    def test_indefinite_fischer_tail_c_exit_one(self, capsys, tmp_path):
        c_path = tmp_path / "c.json"
        write_matrix(c_path, np.array([[1.0, 2.0], [2.0, 1.0]]))
        code, out, err = run_cli(capsys, "check", "fischer-tail", "--c", str(c_path),
                                 "--part", "1,1")
        assert (code, out, err) == (1, "", "majdet: error: eigenvalue -1.000e+00 <= 0\n")

    def test_overflowing_log_sides_in_fuzz_name_the_trial(self, capsys):
        code, out, err = run_cli(capsys, "fuzz", "det-power", "--n", "3", "--trials", "3",
                                 "--p", "1e308")
        assert (code, out) == (1, "")
        assert err == (f"majdet: error: trial 0 (seed {derive_seed(0, 0)}): log-determinant "
                       "comparison with a non-finite side: log lhs = inf, log rhs = inf\n")

    def test_overflowing_order_power_is_input_error(self, capsys, tmp_path):
        # the inverse-sum spectra are 100 and 200; their 150th powers overflow
        paths = []
        for i in range(2):
            path = tmp_path / f"a{i}.json"
            write_matrix(path, np.diag([0.01, 0.02]))
            paths.append(str(path))
        code, out, err = run_cli(capsys, "check", "thm32", "--a", *paths,
                                 "--part", "1,1", "--p", "150")
        assert code == 1
        assert out == ""
        assert "non-finite" in err

    @pytest.mark.parametrize("flag", ["--p", "--tol"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_flag_exit_one(self, capsys, tmp_path, flag, value):
        paths = write_ref_files(tmp_path)
        code, out, _ = run_cli(
            capsys, "check", "det-power",
            "--c", str(paths["c"]), "--d", str(paths["d1"]), str(paths["d2"]),
            "--part", "2,2", flag, value,
        )
        assert code == 1
        assert out == ""

    @pytest.mark.parametrize("command", ["check", "fuzz"])
    @pytest.mark.parametrize("value", ["-0.5", "-1e-9", "-inf"])
    def test_negative_tol_exit_one(self, capsys, tmp_path, command, value):
        paths = write_ref_files(tmp_path)
        argv = (["check", "ky-fan", "--c", str(paths["c"]), "--part", "4"] if command == "check"
                else ["fuzz", "ky-fan", "--n", "2", "--trials", "2"])
        code, out, err = run_cli(capsys, *argv, f"--tol={value}")
        assert (code, out) == (1, "")
        assert "argument --tol" in err

    @pytest.mark.parametrize("command", ["check", "fuzz"])
    @pytest.mark.parametrize("value", ["-1e-3", "-2.5e1", "-1", "-.5"])
    def test_negative_exponent_after_a_space(self, capsys, tmp_path, command, value):
        # argparse before Python 3.13 took "-1e-3" for an option
        paths = write_ref_files(tmp_path)
        argv = (["check", "neg-power", "--c", str(paths["c"]), "--d", str(paths["d1"]),
                 str(paths["d2"]), "--part", "2,2"] if command == "check"
                else ["fuzz", "neg-power", "--n", "2", "--trials", "3", "--json-only"])

        def run(*flags):
            code, out, err = run_cli(capsys, *argv, *flags)
            if command == "fuzz":  # drop the report's wall_time
                out = {k: v for k, v in json.loads(out).items() if k != "wall_time"}
            return code, out, err

        spaced = run("--p", value)
        assert spaced == run(f"--p={value}")
        assert spaced[0] in (0, 2)  # a verdict, not a usage error
        code, out, err = run_cli(capsys, *argv, "--tol", "-1e-9")
        assert (code, out) == (1, "")
        assert "argument --tol: '-1e-9' is negative" in err

    def test_zero_tol_holds_on_equality(self, capsys, tmp_path):
        # ky-fan on one block compares a trace with itself: margin exactly 0
        paths = write_ref_files(tmp_path)
        code, out, _ = run_cli(capsys, "check", "ky-fan", "--c", str(paths["c"]),
                               "--part", "4", "--tol", "0")
        assert code == 0
        verdict = json.loads(out)
        assert (verdict["holds"], verdict["margin"], verdict["tol"]) == (True, 0.0, 0.0)

    def test_tail_start_beyond_float_range_exit_one(self, tmp_path):
        c_path = tmp_path / "c.json"
        write_matrix(c_path, np.eye(4))
        proc = run_module("check", "fischer-tail", "--c", str(c_path), "--part", "2,2",
                          "--m", str(10**400))
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("majdet: error: m = 1000")
        assert "Traceback" not in proc.stderr


class TestFuzzCommand:
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_exit_one(self, capsys, seed):
        code, out, err = run_cli(capsys, "fuzz", "main-thm", "--n", "2", "--trials", "2",
                                 "--seed", seed)
        assert (code, out) == (1, "")
        assert err == f"majdet: error: seed must be in [0, 2**64), got {seed}\n"

    def test_keep_instances_lists_the_same_violations(self, capsys):
        argv = ["fuzz", "matic-general-d", "--n", "4", "--part", "2,2", "--trials", "40",
                "--seed", "3"]
        listed = []
        for flags in ([], ["--keep-instances"]):
            _, _, err = run_cli(capsys, *argv, *flags)
            listed.append([line for line in err.splitlines() if line.startswith("  trial")])
        assert len(listed[0]) == 5
        assert listed[0] == listed[1]

    def test_theorem_exit_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "fuzz", "main-thm", "--n", "4", "--part", "2,2",
            "--trials", "50", "--seed", "42",
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["violations"] == 0
        assert rep["trials"] == 50

    def test_false_family_exit_two(self, capsys):
        code, out, _ = run_cli(
            capsys, "fuzz", "abs-power", "--n", "4", "--part", "2,2",
            "--trials", "5", "--seed", "7", "--p", "2",
        )
        assert code == 2
        rep = json.loads(out)
        assert rep["violations"] >= 1
        assert rep["violating"][0]["trial"] == 0

    def test_open_q_small_case(self, capsys):
        code, out, _ = run_cli(
            capsys, "fuzz", "open-q", "--n", "2", "--part", "1,1", "--m", "2",
            "--trials", "100",
        )
        assert code == 0

    def test_commuted_power_high_kappa_reports(self, capsys):
        # C^2 at p = 2 has condition number kappa^2; the C draw is capped at
        # 1e6 so no trial falls through the Cholesky pivot floor
        code, out, _ = run_cli(
            capsys, "fuzz", "commuted-power", "--n", "5", "--part", "2,3",
            "--kappa-max", "1e8", "--seed", "7", "--trials", "5",
        )
        assert code == 2
        lines = out.strip().splitlines()
        assert len(lines) == 1
        rep = json.loads(lines[0], parse_constant=reject_constant)
        assert rep["trials"] == 5
        assert rep["violating"][0]["trial"] == 0

    def test_unknown_id_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "fuzz", "bogus", "--n", "2", "--trials", "1")
        assert code == 1

    def test_trial_error_names_trial(self, capsys):
        code, out, err = run_cli(capsys, "fuzz", "thm32", "--n", "3", "--part", "1,2",
                                 "--scale", "1e-110", "--trials", "3", "--seed", "5")
        assert (code, out) == (1, "")
        assert err == (f"majdet: error: trial 0 (seed {derive_seed(5, 0)}): order check on a "
                       "non-finite (NaN or infinite) entry\n")

    def test_bad_config_exit_one(self, capsys):
        code, _, _ = run_cli(capsys, "fuzz", "main-thm", "--n", "4",
                             "--part", "3,2", "--trials", "1")
        assert code == 1

    def test_exponent_outside_domain_exit_one(self, capsys):
        # the exponent is checked before any draw: no trial is blamed
        code, out, err = run_cli(capsys, "fuzz", "det-power", "--n", "4", "--part", "2,2",
                                 "--trials", "3", "--p", "-1")
        assert (code, out) == (1, "")
        assert err == "majdet: error: det-power needs p >= 0, got p = -1.0\n"


class TestGenCommand:
    def test_roundtrip_pd(self, capsys, tmp_path):
        out_path = tmp_path / "m.json"
        code, out, _ = run_cli(capsys, "gen", "--n", "3", "--seed", "1",
                               "--out", str(out_path))
        assert code == 0
        arr, _ = read_matrix(out_path)
        np.linalg.cholesky(arr)  # raises unless positive definite

    def test_deterministic_bytes(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "gen", "--n", "4", "--seed", "9", "--out", str(p1))
        run_cli(capsys, "gen", "--n", "4", "--seed", "9", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_n_zero_exit_one(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "gen", "--n", "0",
                                 "--out", str(tmp_path / "x.json"))
        assert (code, out) == (1, "")
        assert err == "majdet: error: dimension must be >= 1, got 0\n"
        assert not any(tmp_path.iterdir())

    def test_failed_draw_writes_no_file(self, capsys, tmp_path):
        # the two 1x1 blocks draw, the 3x3 block runs out of resamples: the
        # blocks are all drawn before any is written
        code, out, err = run_cli(capsys, "gen", "--n", "5", "--part", "1,1,3",
                                 "--style", "gram", "--kappa-max", "1",
                                 "--out", str(tmp_path / "d.json"))
        assert (code, out) == (1, "")
        assert err == "majdet: error: no draw met kappa_max=1 in 100 attempts\n"
        assert not any(tmp_path.iterdir())

    def test_unwritable_path_exit_one(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "gen", "--n", "3",
                                 "--out", str(tmp_path / "missing" / "x.json"))
        assert (code, out) == (1, "")
        assert err.startswith("majdet: error: [Errno 2] ")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("scale", ["0", "-1"])
    def test_non_positive_scale_exit_one(self, capsys, tmp_path, scale):
        out_path = tmp_path / "x.json"
        code, out, _ = run_cli(capsys, "gen", "--n", "2", "--scale", scale,
                               "--out", str(out_path))
        assert code == 1
        assert out == ""
        assert not out_path.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_exit_one(self, capsys, tmp_path, seed):
        # derive_seed reads a seed modulo 2^64: -1 would draw as 2^64 - 1
        out_path = tmp_path / "x.json"
        code, out, err = run_cli(capsys, "gen", "--n", "2", "--seed", seed,
                                 "--out", str(out_path))
        assert (code, out) == (1, "")
        assert err == f"majdet: error: seed must be in [0, 2**64), got {seed}\n"
        assert not any(tmp_path.iterdir())

    def test_partition_writes_blocks(self, capsys, tmp_path):
        out_path = tmp_path / "d.json"
        code, out, _ = run_cli(capsys, "gen", "--n", "4", "--part", "2,2",
                               "--seed", "3", "--out", str(out_path))
        assert code == 0
        written = json.loads(out)["written"]
        assert len(written) == 2
        for path in written:
            arr, _ = read_matrix(path)
            assert arr.shape == (2, 2)


class TestParserReuse:
    """One parser serves every main() call of a process, and behaves like a
    freshly built one."""

    def test_built_once(self, capsys):
        assert build_parser() is build_parser()
        build_parser.cache_clear()
        for argv in (["--help"], ["check", "no-such-id"], ["verify-paper", "--json-only"],
                     ["fuzz", "main-thm", "--n", "2", "--trials", "2"]):
            run_cli(capsys, *argv)
        assert build_parser.cache_info().misses == 1

    @pytest.mark.parametrize("argv", [
        ["verify-paper"], ["check", "matic"], ["fuzz", "matic", "--n", "2", "--trials", "1"],
        ["gen", "--n", "2", "--out", "x.json"],
    ], ids=lambda argv: argv[0])
    def test_parser_holds_no_handler(self, argv):
        args = build_parser().parse_args(argv)
        assert not any(callable(value) for value in vars(args).values())

    def test_reused_parser_matches_fresh(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        paths = write_ref_files(tmp_path)
        sequence = [
            ["--help"],
            ["check", "--help"],
            ["fuzz", "main-thm", "--trials", "3"],  # usage error: --n is required
            ["check", "no-such-id"],
            ["check", "matic", "--c", str(paths["c"]), "--d", str(paths["d1"]),
             str(paths["d2"]), "--part", "2,2"],
            ["fuzz", "main-thm", "--n", "4", "--part", "2,2", "--trials", "5",
             "--seed", "3", "--json-only"],
        ]

        def run_all(argvs):
            results = {}
            for argv in argvs:
                code, out, err = run_cli(capsys, *argv)
                if out.startswith("{"):  # drop the fuzz report's wall_time
                    out = [{k: v for k, v in json.loads(line).items() if k != "wall_time"}
                           for line in out.splitlines()]
                results[tuple(argv)] = (code, out, err)
            return results

        forward = run_all(sequence)
        backward = run_all(sequence[::-1])
        build_parser.cache_clear()
        fresh = run_all(sequence)
        assert forward == backward == fresh
        assert [forward[tuple(argv)][0] for argv in sequence] == [0, 0, 1, 1, 0, 0]

    def test_patched_handler_runs(self, capsys, tmp_path, monkeypatch):
        build_parser()
        seen = []

        def fake_check(args):
            seen.append(args.inequality)
            return 7

        monkeypatch.setattr(cli, "cmd_check", fake_check)
        paths = write_ref_files(tmp_path)
        assert main(["check", "matic", "--c", str(paths["c"])]) == 7
        assert seen == ["matic"]


def run_module(*argv):
    """`python -m majdet.cli argv` importing the same majdet as this process,
    also from a checkout that is not installed."""
    src = str(Path(majdet.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "majdet.cli", *argv],
                          capture_output=True, text=True, env=env)


class TestEntryPoint:
    def test_console_script(self):
        proc = run_module("verify-paper", "--json-only")
        assert proc.returncode == 0
        assert proc.stdout.strip()

    def test_help_matches_in_process(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run_cli(capsys, "--help")
        proc = run_module("--help")
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
        assert (code, err) == (0, "") and out.startswith("usage: majdet")

    def test_usage_error_exit_one(self):
        proc = run_module("fuzz")
        assert proc.returncode == 1
