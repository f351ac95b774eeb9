"""Golden digests: the bytes of fuzz reports, verdicts and verify-paper.

The other equivalence tests compare two paths through the same verdict
code (fuzz against build_instance + run_check), so a change both paths
share goes unseen there. These tests pin the sha256 of the JSON the
library and the CLI emit, taken before the verdict layer was rewritten as
arrays:

- fuzz(id, cfg, 70, keep_instances=True) without wall_time, for every id
  on nine configs (two chunks each, the injected reference included), or
  the error it raises; two GRAM configs resample often, and two configs
  have three D blocks at n = 8;
- run_check(...).to_json() on fixed instances, one exponent or a grid;
- the stdout of `majdet verify-paper`;
- the files, stdout, stderr and exit code of `majdet gen` for both styles,
  one matrix and one file per block, at three condition caps, and the
  bytes of gen_pd on the same styles and caps (a GRAM draw at cap 30
  resamples, at cap 1 it runs out of resamples past n = 1);
- the stdout, stderr and exit code of `majdet check` on exact-entry files:
  matic, matic-general-d and inv-square-sum on seeded 4-decimal matrices
  at n = 4, 8 and 12, the ex-2.7 and ex-2.8 violators, and one rejected
  file per rule of a file's exact part.

A change that means to alter these bytes regenerates the table with
`PYTHONPATH=src python tests/test_golden.py` and says why.

The digests are bits of one BLAS kernel. numpy's OpenBLAS is built with
DYNAMIC_ARCH and picks its kernels by CPU, and the SPECTRAL draw forms
Q diag(lam) Q^T through its QR and matrix product; so do several checks.
Under another kernel, drawn matrices and margins differ in their last
bits, and most digests with them, with no verdict changed. TAKEN_ON names
the BLAS build and the CPU level the digests were taken on, and a
mismatch names them next to this run's (provenance), so that a kernel
change does not read as a regression.
"""

import contextlib
import hashlib
import io
import json
import operator
import os
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from majdet import cli, refdata
from majdet.blocks import Partition
from majdet.catalog import SPECS, run_check
from majdet.errors import MajdetError
from majdet.fuzzing import GenConfig, GenStyle, build_instance, fuzz, gen_pd

FUZZ_CONFIGS = {
    "n2": GenConfig(n=2, partition=Partition((1, 1)), seed=11),
    "n4": GenConfig(n=4, partition=Partition((2, 2)), seed=12),
    "n8": GenConfig(n=8, partition=Partition((3, 5)), m=3, seed=13),
    "n16": GenConfig(n=16, partition=Partition((8, 8)), seed=14),
    "gram": GenConfig(n=4, partition=Partition((1, 3)), style=GenStyle.GRAM,
                      kappa_max=1e8, seed=15),
    # GRAM draws that resample: at cap 1e3 (n = 4) and 1e5 (n = 8, three
    # D blocks, two of one size)
    "gram-1e3": GenConfig(n=4, partition=Partition((2, 2)), style=GenStyle.GRAM,
                          kappa_max=1e3, seed=16),
    "gram-n8": GenConfig(n=8, partition=Partition((2, 3, 3)), m=3, style=GenStyle.GRAM,
                         kappa_max=1e5, seed=17),
    "n8-3": GenConfig(n=8, partition=Partition((2, 3, 3)), m=3, seed=18),
    # p = 3 powers of thm32's spectra overflow here: the error text is pinned
    "tiny": GenConfig(n=3, partition=Partition((1, 2)), entry_scale=1e-110, seed=5),
}

CHECK_CONFIGS = (
    GenConfig(n=4, partition=Partition((2, 2)), seed=3),
    GenConfig(n=5, partition=Partition((2, 3)), kappa_max=1e10, seed=4),
)


# The BLAS build (np.show_config) and the CPU's highest x86-64 level
# (numpy's CPU feature table) that every digest below was taken on.
TAKEN_ON = ("scipy-openblas 0.3.31.188.0", "X86_V4 (AVX512_SKX)")


def blas_build() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']}"


def cpu_level() -> str:
    """The highest x86-64 level that numpy's CPU feature table finds on this
    CPU, with the AVX-512 group that X86_V4 stands for."""
    from numpy._core._multiarray_umath import __cpu_features__ as features

    level = next((name for name in ("X86_V4", "X86_V3", "X86_V2") if features.get(name)),
                 "no x86-64 level")
    return f"{level} (AVX512_SKX)" if features.get("AVX512_SKX") else level


def provenance() -> str:
    """Where the digests were taken, and this run's BLAS build, CPU level
    and OPENBLAS_CORETYPE (when set), on one line."""
    here = f"{blas_build()}, {cpu_level()}"
    coretype = os.environ.get("OPENBLAS_CORETYPE")
    if coretype is not None:
        here += f", OPENBLAS_CORETYPE={coretype}"
    return f"golden digests taken on {TAKEN_ON[0]}, {TAKEN_ON[1]}; this run: {here}"


def assert_digest(got: str, want: str) -> None:
    assert got == want, f"digest {got} != {want} ({provenance()})"


def _sha(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def _outcome(fn):
    try:
        return fn()
    except MajdetError as err:
        return {"error": type(err).__name__, "message": str(err)}


def fuzz_digest(inequality: str, config: str) -> str:
    def report():
        out = fuzz(inequality, FUZZ_CONFIGS[config], 70, keep_instances=True).to_json()
        out.pop("wall_time")
        return out

    return _sha(_outcome(report))


def check_digest(inequality: str) -> str:
    """run_check at the Spec's default p (and at m = 2 for fischer-tail),
    and at each p of the Spec's grid, in one outcome (the first error ends
    it), on three draws of each config."""
    split = SPECS[inequality].split
    out = []
    for cfg in CHECK_CONFIGS:
        for trial in range(3):
            inst = build_instance(inequality, cfg, trial,
                                  p=split.default if split else None)
            out.append(_outcome(lambda: run_check(inequality, inst).to_json()))
            if inequality == "fischer-tail":
                out.append(_outcome(lambda: run_check(inequality, replace(inst, m=2)).to_json()))
            if split:
                out.append(_outcome(lambda: [run_check(inequality, replace(inst, p=p), tol=1e-7)
                                             .to_json() for p in split.grid]))
    return _sha(out)


GEN_LAYOUTS = {"n4": ["--n", "4"], "n8-part": ["--n", "8", "--part", "3,5"]}
GEN_KAPPAS = ("1", "30", "1e3", "1e6")


@contextlib.contextmanager
def _chdir(path):
    """Run the block in directory path (contextlib.chdir is new in 3.11)."""
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def gen_digest(style: str, layout: str, kappa: str) -> str:
    """`majdet gen` run in a fresh directory: its exit code, stdout, stderr
    and every file it leaves there, by name."""
    argv = ["gen", *GEN_LAYOUTS[layout], "--style", style, "--kappa-max", kappa,
            "--seed", "3", "--out", "d.json"]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, _chdir(tmp), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
        files = {path.name: path.read_text() for path in sorted(Path(tmp).iterdir())}
    return _sha({"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                 "files": files})


def gen_pd_digest(style: str, kappa: str) -> str:
    """gen_pd's bytes, or the error it raises, for n in (1, 3, 8) and
    trials 0..3 at entry scale 2."""
    out = []
    for n in (1, 3, 8):
        cfg = GenConfig(n=n, style=GenStyle(style), kappa_max=float(kappa),
                        entry_scale=2.0, seed=17)
        for trial in range(4):
            out.append(_outcome(lambda: gen_pd(cfg, trial).tobytes().hex()))
    return _sha(out)


def _decimal_pd(rng: np.random.Generator, n: int) -> list[list[Fraction]]:
    """G G^T/10^4 + I for G of integers in [-99, 99], formed on Python ints
    (no BLAS): symmetric positive definite, with 4-decimal entries."""
    g = rng.integers(-99, 100, size=(n, n)).tolist()
    return [[Fraction(sum(map(operator.mul, gi, gj)) + 10**4 * (i == j), 10**4)
             for j, gj in enumerate(g)] for i, gi in enumerate(g)]


def _exact_pairs(entries) -> list:
    return [[[str(x.numerator), str(x.denominator)] for x in row] for row in entries]


def _matrix_file(entries, **changes) -> dict:
    """A matrix file's JSON: n, rows and exact from Fraction entries, then
    changes."""
    return {"n": len(entries), "rows": [[float(x) for x in row] for row in entries],
            "exact": _exact_pairs(entries), **changes}


EXACT_PARTS = {4: (2, 2), 8: (3, 5), 12: (5, 7)}
_GOOD_C = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]]
# The rejected files, each a 2x2 C of a matic check that breaks one rule of
# a file's exact part (README, matrix file format); D is two good 1x1 files.
_BAD_EXACT = {
    "not-a-list": [["2", "1"], "11"],
    "three-parts": [["2", "1"], ["1", "1", "1"]],
    "float-part": [["2", "1"], [1.0, 1]],
    "bool-part": [["2", "1"], [True, 1]],
    "null-part": [["2", "1"], [None, 1]],
    "spaced-part": [["2", "1"], [" 1 ", "1"]],
    "underscore-part": [["2", "1"], ["1_0", "10"]],
    "non-ascii-digit": [["2", "1"], ["\u0661", "1"]],
    "superscript-digit": [["2", "1"], ["\u00b2", "2"]],
    "two-signs": [["2", "1"], ["1", "+-1"]],
    "zero-denominator": [["2", "1"], ["1", "0"]],
}


def exact_check_cases() -> dict:
    """name -> (files by name, as JSON, and the argv of `majdet check`)."""
    cases = {}
    rng = np.random.default_rng(20261021)
    for ineq in ("matic", "inv-square-sum", "matic-general-d"):
        for n, sizes in EXACT_PARTS.items():
            c = _decimal_pd(rng, n)
            ds = [_decimal_pd(rng, n)] if ineq == "matic-general-d" else [
                _decimal_pd(rng, s) for s in sizes]
            files = {"c.json": _matrix_file(c)}
            files.update({f"d{i}.json": _matrix_file(d) for i, d in enumerate(ds)})
            cases[f"{ineq}/n{n}"] = (files, ["check", ineq, "--c", "c.json", "--d",
                                             *sorted(files)[1:], "--part",
                                             ",".join(map(str, sizes))])
    # one whole block-diagonal D file for a block-D id
    whole = [[Fraction(0)] * 8 for _ in range(8)]
    for lo, hi in ((0, 3), (3, 8)):
        block = _decimal_pd(rng, hi - lo)
        for i in range(lo, hi):
            whole[i][lo:hi] = block[i - lo]
    cases["matic/n8-one-d"] = (
        {"c.json": _matrix_file(_decimal_pd(rng, 8)), "d.json": _matrix_file(whole)},
        ["check", "matic", "--c", "c.json", "--d", "d.json", "--part", "3,5"])
    gen_c, gen_d = ([[Fraction(int(x)) for x in row] for row in m]
                    for m in (refdata.MATIC_GEN_C, refdata.MATIC_GEN_D))
    cases["ex-2.7"] = ({"c.json": _matrix_file(gen_c), "d.json": _matrix_file(gen_d)},
                       ["check", "matic-general-d", "--c", "c.json", "--d", "d.json",
                        "--part", "1,1"])
    sq_c, sq_d = refdata.INV_SQ_C_EXACT, refdata.INV_SQ_D_EXACT
    cases["ex-2.8"] = (
        {"c.json": _matrix_file(sq_c), "d0.json": _matrix_file([r[:2] for r in sq_d[:2]]),
         "d1.json": _matrix_file([r[2:] for r in sq_d[2:]])},
        ["check", "inv-square-sum", "--c", "c.json", "--d", "d0.json", "d1.json",
         "--part", "2,2"])
    cases["ex-2.8-one-d"] = (
        {"c.json": _matrix_file(sq_c), "d.json": _matrix_file(sq_d)},
        ["check", "inv-square-sum", "--c", "c.json", "--d", "d.json", "--part", "2,2"])

    one = [[Fraction(1)]]
    good = {"d0.json": _matrix_file(one), "d1.json": _matrix_file(one)}
    matic = ["check", "matic", "--c", "c.json", "--d", "d0.json", "d1.json", "--part", "1,1"]
    pairs = _exact_pairs(_GOOD_C)
    bad = {f"rejected/{name}": {"exact": [pairs[0], row]} for name, row in _BAD_EXACT.items()}
    bad["rejected/not-square"] = {"exact": [pairs[0], pairs[1][:1]]}
    bad["rejected/disagrees"] = {"exact": [pairs[0], [["1", "1"], ["21", "10"]]]}
    bad["rejected/beyond-float-range"] = {
        "exact": [pairs[0], [["1", "1"], ["2" + "0" * 400, "1"]]]}
    bad["rejected/asymmetric"] = {
        "exact": [[["2", "1"], ["1", "1"]], [["10000000000000001", "10000000000000000"],
                                             ["2", "1"]]]}
    for name, changes in bad.items():
        cases[name] = ({"c.json": _matrix_file(_GOOD_C, **changes), **good}, matic)
    off = [[Fraction(2), Fraction(1, 10**400)], [Fraction(1, 10**400), Fraction(2)]]
    cases["rejected/not-block-diagonal"] = (
        {"c.json": _matrix_file(_GOOD_C), "d.json": _matrix_file(off)},
        ["check", "matic", "--c", "c.json", "--d", "d.json", "--part", "1,1"])
    return cases


def exact_check_digest(name: str) -> str:
    """`majdet check` on one case's files, written in a fresh directory: its
    exit code, stdout and stderr."""
    files, argv = exact_check_cases()[name]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, _chdir(tmp), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        for file, payload in files.items():
            Path(file).write_text(json.dumps(payload) + "\n")
        code = cli.main(argv)
    return _sha({"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()})


def verify_paper_digest(capsys) -> str:
    assert cli.main(["verify-paper"]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


GOLDEN_FUZZ = {
    "abs-power/gram": "074a085b2b98e01b20929cc03f286cb2d9128a3a6fd5869ece9bcb00787131fe",
    "abs-power/gram-1e3": "99e963949c9d10644f7c57a3e41c328e344c53c743e0ab965cffbafcd557278d",
    "abs-power/gram-n8": "345323b6ef3fbdbe50c2c12cd25ec5a206ca3374d13b408fa2cf494da75c4ebb",
    "abs-power/n16": "06ff923c3c4d7844e47bd99500da1b6ce9c7770415c989dc5a2130c8d3f3c263",
    "abs-power/n2": "39ca44901b7c2a895dbab20926a79405e8632e305fd7e1bcc40985611e9cb0fc",
    "abs-power/n4": "30446e9b36135985fe53171d55148f48a9e660ee66e2d0d5c096a54af57a8449",
    "abs-power/n8": "6f69efa539a018ae05c879351d93b6122fbc0649b22d5ee531006173bc457747",
    "abs-power/n8-3": "5d776fee9401ac14bb1d8c116e9edc02a51b47461a46022f6ed2e101def939fe",
    "abs-power/tiny": "ca7a6c0cc858ebf284e5272728f151d2e9d77037c606862299c944e32c2bff6a",
    "choi/gram": "1185e4fbd170d0e241c917273407849f0e540cbb8e5becea3585d3b03dc925fa",
    "choi/gram-1e3": "84ba1b0a0c69a9b7c5dcac4516406e28ed86f6bbc037188ea906b2c2c31bad25",
    "choi/gram-n8": "fe8c035d998e6c4deab3ccbed46b60ccd67d52c55230f3589ac6464e0ed95018",
    "choi/n16": "26af4156e20569e7891e9aa43982b472c95352d527ff58a79fcf5a80877e29bc",
    "choi/n2": "aa7d2e9b12160ecd34e933bfc92363dda6c46a9affe0506154cc1ebd6f4ffa2c",
    "choi/n4": "f757a1efecf8d4323d2de66ca0c968c46f59747f20f5b4fb42480ed5a86074ca",
    "choi/n8": "bc7320d039998adc962a7fef4dcbc4f02814e91e693b9dcfebff3350e27b53db",
    "choi/n8-3": "514abb94e2bde7c5f51ffa6a6ced4c75f050aafd75ed8181628d97a5ef2e8003",
    "choi/tiny": "33d14d4226b5d9ab0de25a93aa3565b4ba9e97f5c3e8641f15638cd76886c8b7",
    "commuted-power/gram": "a45a4a67e0d5f98c9b9fba73cc1d29a6c193234a86cdc094aa22a8d53235db49",
    "commuted-power/gram-1e3": "b966af4179ac9089cde32d3391fdcd041b617de9cb013f0d68804825534c4f5d",
    "commuted-power/gram-n8": "fb61af0e378270313f18ebd8034824f90709a09f0385004d59cda25ed0b10721",
    "commuted-power/n16": "75a6ecffb5997afc2c8a81e5ab352246903d7f681f0d8f9cbd1ed6087e129e88",
    "commuted-power/n2": "fb89951a717a24254edc99ab12169fa3d4b692de0e80bb8bc00bb3fc44d1fea1",
    "commuted-power/n4": "3dd1eb10d73ccecc9daf4d63c747cf5e0964f95aad7a4f390841540d928f26dc",
    "commuted-power/n8": "1d6a434541c077441b976664e0cec71809e460b809c13d2a5a09b2f28717c030",
    "commuted-power/n8-3": "df4c8aa8a79b3d13bc45a002754e218131a8b456e91ae23c06b623ba568f6ea0",
    "commuted-power/tiny": "7f87614230a08dc37dc54c03e110f71e2f1fe3bd1a3afc004504796cab0e7107",
    "det-power/gram": "c93d7e4d68234e828cb044c6cf5fb6f6561a1a2a9bc88209a150ceae289839d1",
    "det-power/gram-1e3": "c5ba0f757cdbf187399b624942c21d809cd251a5cfb110a27765a71cfdf30208",
    "det-power/gram-n8": "363ade600a798e80723c49cef0c7102fabb6d66d24242df9fef1f545b7ec7e1b",
    "det-power/n16": "7688dfd9b1e56948b9da8acb3913de0b9f6e7e9ec4f5d4470beb8ffb6e1ae9d2",
    "det-power/n2": "6057a8114b1d8a376905d7c8a48f1da967306ae55cfae0327ac53c1fd8a903c5",
    "det-power/n4": "b8fcaee6388177a282f6461e6504b99c7f84fbe0444232769366f88545d1117c",
    "det-power/n8": "908230428080a7736551fa54981cae7018249a82a681658bff4cc545ed813746",
    "det-power/n8-3": "65961a78a14283d4c2f972863c4d56e3a9bb1a61d21aa54daa25ee75127b8929",
    "det-power/tiny": "18f3b39b6c108a66ae7ab5733eb3b96b1b34fb6d72a76df204aa622402ab52c8",
    "fischer-tail/gram": "d70da40b65156dc3f81a7b18addcbfa537ea27225b921a0f73329f560d630d27",
    "fischer-tail/gram-1e3": "23964aba722cb4e535f300577be44d2094517f44a08b2888254b206a3466df4e",
    "fischer-tail/gram-n8": "9a4e3691e5c4c1422940ccbff857e5186dbbb5f6e9e005f8c529e965fcf84d97",
    "fischer-tail/n16": "44913483248cab8623af7d58e9555e160feee85049d6cd2fbf8a98ca81cda567",
    "fischer-tail/n2": "50cd055e32a61a9bc5233ae258e351e92a78593b4add1b3250968f7da54beb2a",
    "fischer-tail/n4": "c741995c031d6e2f7c6d4073b3bcdda22abae6ecf7f19108006a29ced2092d2f",
    "fischer-tail/n8": "1657146f3a86389fb63a18bdb11f804d1c77a416a4a7572edbbe4e0fc0884cd5",
    "fischer-tail/n8-3": "b80453a926806ae6599e06df4f3fa9a09bf7cae0d1993ec88f1583a66391ef63",
    "fischer-tail/tiny": "267fe9b9ec887986568d6af85f2293b169bec0c18f7905f2bf3d37569ce6308c",
    "inv-square-sum/gram": "10d2a215f3f3f7e7eaa91a2df516d64a809e1621a5964514394b91d4d5053a52",
    "inv-square-sum/gram-1e3": "6e7b31433081ecba49fcf7aa3ee89b40ffeb450c47786f8c4b162fb237714397",
    "inv-square-sum/gram-n8": "8f2324439a16dbe3d1af8e018bf99bc19b84eba83ef4f3199b15edeb7557bad2",
    "inv-square-sum/n16": "79491d53922005aa43894110ec821089d3b395706067f54c41d57c51b4ccc4da",
    "inv-square-sum/n2": "fa0d041a4bd512e5616e1bf19e90e7cb7515698466d8028c594b5502267d9fd8",
    "inv-square-sum/n4": "b353a3cbb0d2cb063b77c48c1176d3fcb6810db19cbe90063584f59badb658e9",
    "inv-square-sum/n8": "ffc9bbcb42a895015d46eb58b92932c07f0561a48070c5186d00711bd37ba5ca",
    "inv-square-sum/n8-3": "a0faaed58676124fc6af6c0a765636d33b9bce940d49ae8eb4fb0de4efa8ed5c",
    "inv-square-sum/tiny": "ffb945ee261ce045320658f157df8f68d0f03a4b241531b3318dce2bf0300d53",
    "ky-fan/gram": "0214aa4ae707df5806b38eb496492f9963ddb2132a96ad112debb9d618e72513",
    "ky-fan/gram-1e3": "30509647bc3ec56784b33790e938979dfefcf5803c6c6c75fefc063cf78f7f2c",
    "ky-fan/gram-n8": "10704855cdf4d6fc6f4de9fad8f572aaad4c2eae9dac7618a6a37396ed71d7a3",
    "ky-fan/n16": "eb82d3916842dc81d2193a892c138dec9e81a4bd7df4936399133dc87a3005ba",
    "ky-fan/n2": "cddf701f008737c44e43c16a35527fd4d07dd8b9607ea59c8f9494fb34711f94",
    "ky-fan/n4": "5aaaaab255a5ff41476076e9543de06189ee3b7350db2557f03b809f87da7cb3",
    "ky-fan/n8": "7b7ba8247e4d90609e7c19eb393f5a05fd0ed927e18d90ff9deb7dd828647f99",
    "ky-fan/n8-3": "5b4df8f3fd1b8186ed84fa392a441bbcc7b8db1fe83417e7e91cd2b47790ba7b",
    "ky-fan/tiny": "d6e755d04e9ae899e017ddd6161ecd572c2e12103443a79af097fbf5ea8e0328",
    "lemma31/gram": "5d1ee5f2667605ec2a285c07d16d2896a9614d0349d4d580e61d228a2eb38ed0",
    "lemma31/gram-1e3": "2ac5c3872f149462aea67bd0a1d047f12a3f8dccdd419d8defb5624c3e14b5c8",
    "lemma31/gram-n8": "81448f6dddc34cfbc20e3ed74fdfe681159178d235904939ab242138ae35eff6",
    "lemma31/n16": "160b5b68f8a4675410482d80702f4586c633ee0b3446405dfb517d1ae22334db",
    "lemma31/n2": "f8c6047d6a76eee2ef7986f5a8a68f21acbee95d8366a11d7a207fe7518f2aa0",
    "lemma31/n4": "daba438b9cc6450ddfb7f0d465b21ccd4034738bd61084b793209cfe4b223321",
    "lemma31/n8": "0d9cd27c8166e1ca7eee99e2cce1fd9121033b055ac0e1d598f9387a820d3643",
    "lemma31/n8-3": "d3f80765ad104ea1b27b3df82404e4eda069bad1f455ea9fc1a3c2c2aa276a7d",
    "lemma31/tiny": "654e866e7302171a4003136627f3da54dffc1cdc727d612c0858ce1bc9e566e4",
    "main-thm/gram": "bcdbce69c68e6e368aa8482dbe996486198eb225198363fee4bb561056a5f780",
    "main-thm/gram-1e3": "515c39717b712dc4a042021bae67210b62053966e29452a2d42be78588b5b302",
    "main-thm/gram-n8": "45834da501f8a9e21e818b3fea7a68ca3dcb6dbcfef749e95e863cab18aec151",
    "main-thm/n16": "fcd24f1aae33860548a8b6331c4d1524d23fa44bda385c1b44ffc99d3275acf7",
    "main-thm/n2": "076f94e3bc1d507d6337ab7dcbca51a72f59388318c97d8ad90fc794b4865359",
    "main-thm/n4": "889484c6cbfb6e1d146faba6854462406ad4010ce2c40709ae9cf23ff571057e",
    "main-thm/n8": "66154db89e5f356b7cf524d3c862232e6f50642079f54b28a17c8327a6ee6cfa",
    "main-thm/n8-3": "2dac6f680e3a5643f941be56912b6d8121d1587f677d7832c3282f3c8020fe2c",
    "main-thm/tiny": "e706b1dd5c1575df32eb863b0f0f00164b87bebaf62a7bca727b490eff38766f",
    "matic/gram": "8b854377bfbb5c30cc6aea12dc5434b526ef34eeb606c9baa485578779bea61b",
    "matic/gram-1e3": "56f87a5fa9ac2bb9ad5422a701aed9e9e01b86b298644f11076ce57d91f754df",
    "matic/gram-n8": "12f0a66fc42473fdb57b439e0217ac3d38dab709d0245a3fa9127433120b488a",
    "matic/n16": "09242ac6a808bdfca474bf608505fe45c19484059062dad29b02bfe907692af5",
    "matic/n2": "6f395061e8991554fd8cf16ab720b4307c63785f6f839ae17e035ed5f5369c5d",
    "matic/n4": "4ce09166cdc9c09f5e0a8bb3afaf02c7ac19329fcbe04119fe625e5cd1529349",
    "matic/n8": "a1df67900883bfc1192fc9a610034f6d646b229a87038ae9a1a0883232849b1c",
    "matic/n8-3": "dd0f61ab6cd3010a3ead28ab9f7c1e1eb616539cd0ec01d08372d69257c62976",
    "matic/tiny": "b6dda0ec28edec2eb5dbeb81c2dbd42cd4acb9e1f5617b9fe4bb29976f72d381",
    "matic-general-d/gram": "08696f7b941cf0ce76f7cbc6dc1d72cf79b0a30f56987ee0cfb9fc4bd1e888b4",
    "matic-general-d/gram-1e3": "7e9341aad7163254cfcf90b860ef3ca0740572b0c2a718da0c98ab1ee9c77280",
    "matic-general-d/gram-n8": "c17a878d03a6288837094203a74cf909fa77b74ee76146d167af3826ac926720",
    "matic-general-d/n16": "92620d6768fe4a87163a19ded5358c18c0e178edebb6b186907db03f69086040",
    "matic-general-d/n2": "d7418b6300be0bbfaa401ec67ce0369e77cba2cbfeae47b3db04598e505d8902",
    "matic-general-d/n4": "74bca1720087afaec9d066a37d199bead80e73acc8c1decff859459fc9360bde",
    "matic-general-d/n8": "0d086766720a2bc946744a4ccd2ef11f0691d680d16494f552b5d4f318d552e6",
    "matic-general-d/n8-3": "cc56e7f07a312bd9042f88f70dfd572b07122c2d0f318968cea8b4877283f412",
    "matic-general-d/tiny": "e3a97f8b836884f00b9778a9450951fe95236d08cf9b47fc42d107a9a25daf52",
    "neg-power/gram": "4c89b55d93aca035b3ea4c2badb0d6c7d0dcea1de120c17f80dd9139044372c6",
    "neg-power/gram-1e3": "432a8f19dd0217507f6e88fe5db0f3df0f6eb437844a797df99cafc55efeee5d",
    "neg-power/gram-n8": "aa6f0c19237abd960733385b089ed893b44e4f5925464a2556d581d92040d166",
    "neg-power/n16": "06f35e83f2db3526fa5866cae12465181baf17155b381e34d13f64836598af0f",
    "neg-power/n2": "24ad0c0f76390a7de8eaabfc4719e0ddc956b693e50f53b6dab2fc34fbd7ccea",
    "neg-power/n4": "90be9e804def90a87f5123c82d4dca86c47163939cc6092d78071782eac94fcb",
    "neg-power/n8": "8fea98f7eb2422074c9c330eeee462df1df73cef4543a11478be4b8f96b4adba",
    "neg-power/n8-3": "09517eb2771132c365455755e81d8f12e5e729c61ed2a7fd250924a745f57d4b",
    "neg-power/tiny": "a63c61195532066b1a77d944f09eb490e7b2f798822423fed1ad53537ee6e855",
    "open-q/gram": "593e6605bb731cf5e7bd9cc2cc7ba3b3b15a61798134c17c17f3b0e19e153c2d",
    "open-q/gram-1e3": "b393b2899200656aaa12a2c0969ce09305df0f535da6f907ac5b0b8a098fb02e",
    "open-q/gram-n8": "51245c163b1776ce6fdcd5da1c1e16bd8ce133e72bdb57a70c7778bdc2926a5d",
    "open-q/n16": "ebf3b2d13d5f9dc25ce5847512d056390e516fcb2922d4a3407f375fc8d6864a",
    "open-q/n2": "16747eb708c46e9b35f1a47bd6e98fdb13864dc48e49d41c1802abc1d0abbf24",
    "open-q/n4": "2c1cb3fb53e52858e02b310e6ab658efde4513aaad3b83462cd81c26d8ff85a8",
    "open-q/n8": "ac36d97888c139137a25c1bf7777943fbd593337f42791db268e532f8e550868",
    "open-q/n8-3": "35a7277a79ac19fce39265ba6d724d7a9c99df66d3619a1db2026557eee08211",
    "open-q/tiny": "c440c2a36d73dccc6712641e843dbae3ee7a3b8aafae8369f44b78965c9951f7",
    "sv-weak-log/gram": "396eaeddf426da1b6ded3c1b4ef94ec0050df53a9d65250a71629c2a2b769bc3",
    "sv-weak-log/gram-1e3": "439d88dd6108a37a01c87bf9c1fb35bef5d4d94a3019457f8da99ab3fe494f15",
    "sv-weak-log/gram-n8": "d61a33f173b2cef92aff43b675405d6edd6e9b6056b8df52eee6561aa9ba2782",
    "sv-weak-log/n16": "5d3f7787278666d7b5ae528973336db8c563b560e258db267d23a56354a538bb",
    "sv-weak-log/n2": "33cdf7d6ab442f34c8f9092056097ac0a4491f96ad1c23edaaf432d54ccafefe",
    "sv-weak-log/n4": "80cb14899b1f36376e2a3005ab3fc259b276dc0d6a819e5e69fe303c9995c263",
    "sv-weak-log/n8": "c968d2f97747c4a87c0e3b6a7d87494bae93f1a3df7dec50c3fbb55d56dec74d",
    "sv-weak-log/n8-3": "71ff38e48c641e565ca029fc3d653485ee10714218b1515a1d59a1a4388728bf",
    "sv-weak-log/tiny": "832a558c2e9dc8b5952d765c463ede24d5e63f6a5bde6c786765ef4d36e24224",
    "thm32/gram": "518652a78631f5893c09ccfa377ac6ae90cd9368c3dbd207ab7a72ea6c7d21a5",
    "thm32/gram-1e3": "7ca2a6726c8dde2fe53ae2bf814bd42fabdf2a0ab92c2dcffcdd4e735e507e68",
    "thm32/gram-n8": "0f9ef5502bc4916c15ff157f71b7ee3bda6341f354ea00d25da3d205a8404053",
    "thm32/n16": "5952790b3d29bdfd2a63dae8b821023e335b1a97840408e380d9970cff3a2383",
    "thm32/n2": "87042a8099d2d87f6e4b86ffb67426630d0f096c44d663fce3e89d071a4ab410",
    "thm32/n4": "8a08355f589120507a6a934dfdb6c3137e6b9ca447b6caa6b5773143ec18ba16",
    "thm32/n8": "7a1e2568264f9440a6d433d7147e5c7a62f4006cc2f3fd26d87af4010e460a54",
    "thm32/n8-3": "ed2b168b4d84e6b07901988f2adec78bc91bf48d68d1bade1c01f662cbc0b05d",
    "thm32/tiny": "5a02ad060992f19f8c3f4ed1a05ccae6f65db949e181f165d837832f0f5518ff",
    "weak-log-general-d/gram": "c6c2458e5cf360a81cd5ccbc6adde4800ed20e430dd57836c889c7dfbd230f9a",
    "weak-log-general-d/gram-1e3": "6884f0b272031264cf24b653a0dc359a6dcf5d1ecd25b8c1c958afca1c17c3e9",
    "weak-log-general-d/gram-n8": "9f0022300001b320fd3419ee18d74302015c2f4e9eaf7f056e011f95c83b80a0",
    "weak-log-general-d/n16": "ec153b405dadb8ee3df6811b70b9432f4c16a98c994a0bedfe67539e83f4e060",
    "weak-log-general-d/n2": "a8900f395301f472f5f04b28bb4b89ebc2fe8052cd26b33e17d4f1ee29300bdf",
    "weak-log-general-d/n4": "6551753477990eb0f5e2b4493fa97b69330fababc8f45fc71cce9020657a585d",
    "weak-log-general-d/n8": "f4936d9bf12a0bae05cf9898041b901f9cf757db118258b0b8b30854cff7fc02",
    "weak-log-general-d/n8-3": "173b6665e30457910a66bf1c8c104703fc1877e02b36bb5601be69c1698e7ce4",
    "weak-log-general-d/tiny": "125bf405e47f63e6dad9cb9ebb3b0f9d22d105a55099ab6e96650e7d38bc2456",
}

GOLDEN_CHECK = {
    "abs-power": "73fe4ac734dc5686bf4ba1b8b453108b53dee247e690e4bdf7950183ceccb610",
    "choi": "8936413ca8550a82213d0766ca03a294952ef84cfbb9fa794f76cb6eba56bb4c",
    "commuted-power": "ce78511bfd4763305f0ccadfb08d97d8f945cde97520ef45f06a7110549eaa52",
    "det-power": "ceb3304332bff3c988433762d3af1c356932483f76b0f3c1918c9a998bc083cc",
    "fischer-tail": "2ce4969907e0a387d8c9107ef1e15e33a7249b2d43629bc532870407d709c4f3",
    "inv-square-sum": "09fd7aac260bebb3f0a4eb20c5bdba6eff44c89093177057d0fec7d1c093c743",
    "ky-fan": "18c6afe0f6583ec93e21a71aaa4d7c5e2d45c9f924a3d5404cad7964041eade9",
    "lemma31": "b54de1c22344b664b7c39f9a16eddf53edf69a7a737f824ccca902227f2f37ce",
    "main-thm": "abf7e6113c59244cf32989f9ae94a7dde67497a0f15c56b0a6a3c472a5c97847",
    "matic": "0ef1796e6cfcc39af7fe622ee86c8db16b1c2cfad641b6d5eb3f4a76a89010d3",
    "matic-general-d": "42be0fe7cd93d7d26d0743b0d80dccb9e92fae165ca514c41b19b49887507258",
    "neg-power": "ce454a2ef8f5e81dfd949e13d55e56199e38f1ebdb2405ee56dd1b72f4ca5233",
    "open-q": "7ce4327b888ef229073cef274966ec668ff111cda8223aae1b08a84c304df2c5",
    "sv-weak-log": "60fdf8c639ded07ce2aeb0ed977869b52ef1a193bf9a457032f9724d18f83f8f",
    "thm32": "ba1d7ea7d681c9f090cd8f848e3ef8fd072c50ea36c211610bfb67c02229e5e0",
    "weak-log-general-d": "7342083b1485f85192e5f4f82e083b3ead3ebd01a8a5d615b341aa856f584c31",
}

GOLDEN_VERIFY_PAPER = "951ce357b4a4d3625511458557882a297e7b559bbde78080cce1f3e418700d51"


GOLDEN_GEN = {
    "spectral/n4/1": "c4b42b81db399ee659bc6d61acc286d092d8b825f3a1e1bd2490fe3defe31b25",
    "spectral/n4/30": "5541e6e61b9bc59968a9b730472eb8c61a28ad7a381611bad1cd2e7e68675b45",
    "spectral/n4/1e3": "482bb06827f86c906ba47f19fd513121cb095de2a7e8b6b8e798aa185269885c",
    "spectral/n4/1e6": "86594cd371107a627321f98f1828e8f2071d512e3140dd35da372294b1044f31",
    "spectral/n8-part/1": "be93d0c2a25c971c8a1292cccfcbd87bdf1d5b8834cd78c8f28de1cc9f164c71",
    "spectral/n8-part/30": "b4fe53ba0f3a4767144562f5dcf814eb271a122bfb84ee6dc241ef57c73c21d8",
    "spectral/n8-part/1e3": "2e56e36a2a6d39730071dc2286390f551f877981fdc5d071181b43d467b049f0",
    "spectral/n8-part/1e6": "bae9c77aecffabbfe109d9eb036c23d350ee7b3b450a4ed831ba4dab6c5185f2",
    "gram/n4/1": "93808d890b307052f6e6ef8fbc654184731209b2044d5a188beab6d0d4f35516",
    "gram/n4/30": "c7a98ceeb2550369c5dfa88c19ee65f674330a2cc2ab33e54a039b9a700e3eb0",
    "gram/n4/1e3": "96b5a2c4a60756486f6b32d2c8fbf611214236bd859a0bacf8ea2d09aeab3bc1",
    "gram/n4/1e6": "96b5a2c4a60756486f6b32d2c8fbf611214236bd859a0bacf8ea2d09aeab3bc1",
    "gram/n8-part/1": "93808d890b307052f6e6ef8fbc654184731209b2044d5a188beab6d0d4f35516",
    "gram/n8-part/30": "45842932b5159a43dc991d6a86c581f219b4914c1ff4dcd5cd75aa05aec2c8da",
    "gram/n8-part/1e3": "caf2a72fcf8a5d269e8a0cb9290b0c865d72364ea48ec77123dae3c15f18c255",
    "gram/n8-part/1e6": "caf2a72fcf8a5d269e8a0cb9290b0c865d72364ea48ec77123dae3c15f18c255",
}

GOLDEN_GEN_PD = {
    "spectral/1": "b4cc3bf751357b5c29fd0f9222b13b9fad0537ef77f6f7f881581fb24eb2e792",
    "spectral/30": "c33fab73c429c5b5645b044c6217c7070fb33acb969d9b178e07ebe3ea46b2af",
    "spectral/1e3": "826f906d0402f823267d701f39375bbadbf30044f31828144d9f63ff8aec1666",
    "spectral/1e6": "70acef3a55a41d556e30738a92a13395e45f954b877b62414b69a644ccff6050",
    "gram/1": "daf58d2c2a0e5aa1ade0cc8748747b03036cb5979f9515536d5a7b6c53869f6d",
    "gram/30": "b48f68d35926aaf16dc3b9810ab13bcc76c89ddafcf532a3e3b34893a5edc081",
    "gram/1e3": "7c7850cc51872b5a73ac17c55154f5b7c021d0e84689f60898c02d7ac3a66f56",
    "gram/1e6": "7c7850cc51872b5a73ac17c55154f5b7c021d0e84689f60898c02d7ac3a66f56",
}

GOLDEN_EXACT_CHECK = {
    "ex-2.7": "6636e62a39b82735445f44a74e90f2ea9ced20c58b0a55f2232549b4f909f406",
    "ex-2.8": "a8f13326aab584d97819af277d0cb767c32eb2c1ab62b464515781f04f85fecc",
    "ex-2.8-one-d": "a8f13326aab584d97819af277d0cb767c32eb2c1ab62b464515781f04f85fecc",
    "inv-square-sum/n12": "0939b25716ccefd1bb578ac31780321dcb7be42400f59ac14fc10489cdb2b849",
    "inv-square-sum/n4": "78ed142748ecb29c6114c82b1b16f0febb8f90e0d9382736a6d79c72e0761c17",
    "inv-square-sum/n8": "0d9203813fcd7ab79d5bef0d7738529fea64f80ebb6ca0e514ef3e4a11e9e5f7",
    "matic-general-d/n12": "6565f2321ee10e149783d876d3098a746d6c3526f13f01e9671716187b3a75f6",
    "matic-general-d/n4": "095e92cdb4418fc91b1948a9572148eb712d4df6cf41cc1c6b08a240f210e3be",
    "matic-general-d/n8": "6477bc76a8bbf74872c04504644d7c135519ca9fc80698c0fd3a2b291b19788f",
    "matic/n12": "9170505b48242f4289556979b15b02d2f769445b968c287eab24ff33c5f409e9",
    "matic/n4": "3345e379c93d1787c77b00f699c1a66c60e9c04323cf4a108260e0f2e1b4ebc9",
    "matic/n8": "6829770efe9c4ee0d9321cec56efa8a301f9674fd000c2b46f29d4e49b29a5f5",
    "matic/n8-one-d": "f50c0dad2e272311b436eaff04e769dca123066974a34d88a3f6636bc87fbe83",
    "rejected/asymmetric": "cad0aee74c7abda46ad30d8ddb84e51bde96bef59f49d231c8f3da2b63ad8066",
    "rejected/beyond-float-range": "d3c9bcf5d32e0d19e6f9c2a326609be69eee14772235c7750d4d75351aac6c14",
    "rejected/bool-part": "c85edab1f6c0c15d24356b7e726583473530a6c970ed89304fd4b4e5cb4c958a",
    "rejected/disagrees": "e1fc01696ad20aa3558743e6720e8adf75c697dfcbbb52faba79a7a1e57c550a",
    "rejected/float-part": "3851559f9fcf21aa788b11bdd83902ea95eb866a6c71f03a181e03727f05f486",
    "rejected/non-ascii-digit": "244ef8038cc285ab4c32e800649c24ea9c3170c2edbaad97b28302a4b24c1dd0",
    "rejected/not-a-list": "0d86fb954b1019bf130fe1f5491100ad2cdc6f69cb252645163b98d3032cbe81",
    "rejected/not-block-diagonal": "87c43ae0c0f629d5dc284c9e1bd49bfe410b1ed1031bd323650de728571d0e6d",
    "rejected/not-square": "cd970f8c090b56b030ff101e6b837b5df7b59362b46b1159e125e739a4a14229",
    "rejected/null-part": "4a2b66707a9ec2ae7351733696ebfbeb2fa11649f94b7486fa191d73e04cc83e",
    "rejected/spaced-part": "3417831f79d4fe6b9627dfc28210cfc5ebd8c4f192f3f3b0519f30a433c072f7",
    "rejected/superscript-digit": "ac6fe1f43e77aa4965e400f499b76c0a4d0607be79c9fddb78746cc412e0e558",
    "rejected/three-parts": "76aa0120f154f1e0452ba3e556c1459f3dba921acbce2ec81fe939cf7850d769",
    "rejected/two-signs": "cdbad7c0ce7e99b8784b88bb631ed53614b46477e9b12961eb910c13cd2c82db",
    "rejected/underscore-part": "18225342616e4a40d5d9dc8d10eeebcd2c53e937ef5463b36e5d666c6fb7a5a3",
    "rejected/zero-denominator": "b9844e871b550e36396dc3590385699438bfefc70ac41690843e470616d76c64",
}


@pytest.mark.parametrize("config", sorted(FUZZ_CONFIGS))
@pytest.mark.parametrize("inequality", sorted(SPECS))
def test_fuzz_report_bytes(inequality, config):
    assert_digest(fuzz_digest(inequality, config), GOLDEN_FUZZ[f"{inequality}/{config}"])


@pytest.mark.parametrize("inequality", sorted(SPECS))
def test_check_bytes(inequality):
    assert_digest(check_digest(inequality), GOLDEN_CHECK[inequality])


def test_verify_paper_bytes(capsys):
    assert_digest(verify_paper_digest(capsys), GOLDEN_VERIFY_PAPER)


@pytest.mark.parametrize("kappa", GEN_KAPPAS)
@pytest.mark.parametrize("layout", sorted(GEN_LAYOUTS))
@pytest.mark.parametrize("style", [s.value for s in GenStyle])
def test_gen_bytes(style, layout, kappa):
    assert_digest(gen_digest(style, layout, kappa), GOLDEN_GEN[f"{style}/{layout}/{kappa}"])


@pytest.mark.parametrize("kappa", GEN_KAPPAS)
@pytest.mark.parametrize("style", [s.value for s in GenStyle])
def test_gen_pd_bytes(style, kappa):
    assert_digest(gen_pd_digest(style, kappa), GOLDEN_GEN_PD[f"{style}/{kappa}"])


@pytest.mark.parametrize("name", sorted(GOLDEN_EXACT_CHECK))
def test_exact_check_bytes(name):
    assert_digest(exact_check_digest(name), GOLDEN_EXACT_CHECK[name])


def test_exact_check_cases_all_pinned():
    assert sorted(GOLDEN_EXACT_CHECK) == sorted(exact_check_cases())


def test_provenance_names_build_cpu_and_coretype(monkeypatch):
    monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
    line = provenance()
    assert line.startswith(f"golden digests taken on {TAKEN_ON[0]}, {TAKEN_ON[1]}; this run: ")
    assert line.endswith(f"this run: {blas_build()}, {cpu_level()}")
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")
    assert provenance() == f"{line}, OPENBLAS_CORETYPE=Haswell"


if __name__ == "__main__":
    print("GOLDEN_FUZZ = {")
    for inequality in sorted(SPECS):
        for config in sorted(FUZZ_CONFIGS):
            print(f'    "{inequality}/{config}": "{fuzz_digest(inequality, config)}",')
    print("}\n\nGOLDEN_CHECK = {")
    for inequality in sorted(SPECS):
        print(f'    "{inequality}": "{check_digest(inequality)}",')
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(["verify-paper"])
    print("}\n\nGOLDEN_VERIFY_PAPER = "
          f'"{hashlib.sha256(buf.getvalue().encode()).hexdigest()}"')
    print("\nGOLDEN_GEN = {")
    for style in GenStyle:
        for layout in sorted(GEN_LAYOUTS):
            for kappa in GEN_KAPPAS:
                print(f'    "{style.value}/{layout}/{kappa}": '
                      f'"{gen_digest(style.value, layout, kappa)}",')
    print("}\n\nGOLDEN_GEN_PD = {")
    for style in GenStyle:
        for kappa in GEN_KAPPAS:
            print(f'    "{style.value}/{kappa}": "{gen_pd_digest(style.value, kappa)}",')
    print("}\n\nGOLDEN_EXACT_CHECK = {")
    for name in sorted(exact_check_cases()):
        print(f'    "{name}": "{exact_check_digest(name)}",')
    print("}")
