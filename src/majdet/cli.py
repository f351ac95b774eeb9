"""Command-line surface.

Commands: verify-paper | check | fuzz | gen. Machine-readable results go to
stdout as line-delimited JSON; a human-readable table goes to stderr unless
--json-only is set. Exit codes: 0 = holds/pass, 1 = usage or input error,
2 = inequality violated.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import exact, matio, scenarios
from .blocks import Partition, validate_partition
from .catalog import INEQUALITY_IDS, Instance, Shape, Spec, assemble, run_check, spec_of
from .errors import BadMatrixFile, MajdetError
from .fuzzing import GenConfig, GenStyle, draw_trials, fuzz
from .orders import DEFAULT_TOL


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors, per the CLI contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_partition(text: str, n: int) -> Partition:
    try:
        sizes = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise MajdetError(f"bad partition {text!r}; expected n1,n2,...,nk") from None
    return validate_partition(sizes, n)


def _parse_idx(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise MajdetError(f"bad index list {text!r}; expected i,j,... (0-based)") from None


def finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def tolerance(text: str) -> float:
    value = finite(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative; a tolerance must be >= 0")
    return value


def _emit(payload: dict) -> None:
    print(json.dumps(payload, allow_nan=False))


def _table(lines, json_only: bool) -> None:
    if not json_only:
        for line in lines:
            print(line, file=sys.stderr)


# The check flags each Shape reads, its matrix files first, in input order
# (catalog.assemble). Each is required but --m; any other is an input error.
_READS = {
    Shape.BLOCK_D: ("c", "d", "part"),
    Shape.GENERAL_D: ("c", "d", "part"),
    Shape.MATS: ("a", "part"),
    Shape.C: ("c", "part"),
    Shape.C_M: ("c", "part", "m"),
    Shape.C_IDX: ("a", "idx"),
}


def _load_check_inputs(args, spec: Spec) -> tuple[Instance, tuple]:
    """Build the Instance for `check` from files and flags, plus the exact
    part of each matrix file (None where it has none), in input order."""
    ineq, reads = args.inequality, _READS[spec.shape]
    for flag in ("c", "d", "a", "part", "m", "idx"):
        given = getattr(args, flag) is not None
        if given and flag not in reads:
            raise MajdetError(f"{ineq} takes no --{flag}")
        if not given and flag in reads and flag != "m":
            raise MajdetError(f"{ineq} needs --{flag}")
    paths = args.a if "a" in reads else [args.c, *(args.d or ())]
    floats, exacts = zip(*map(matio.read_matrix, paths))
    part = None if args.part is None else _parse_partition(args.part, floats[0].shape[0])
    p = args.p if args.p is not None or spec.split is None else spec.split.default
    idx = None if args.idx is None else _parse_idx(args.idx)
    return assemble(spec.shape, part, floats, p=p, m=args.m, idx=idx), exacts


def _exact_certification(spec: Spec, part: Partition, exacts: tuple) -> dict | None:
    """Exact rational recomputation of both sides when every input file of
    a C+D id carries an exact part: D joined from its files with
    exact.direct_sum. A block-D id's exact D must be zero off the diagonal
    blocks, where a float entry can round to 0.0 (BadMatrixFile)."""
    c_exact, *d_parts = exacts
    if spec.shape not in (Shape.BLOCK_D, Shape.GENERAL_D) or None in d_parts:
        return None
    d_exact = exact.direct_sum(d_parts)
    if spec.shape is Shape.BLOCK_D and any(
            x for lo, hi in part.offsets() for row in d_exact[lo:hi] for x in row[:lo] + row[hi:]):
        raise BadMatrixFile(f"exact D is not block diagonal for partition {part.sizes}")
    if spec.certify is None or c_exact is None:
        return None
    lhs, rhs = spec.certify(c_exact, d_exact, part)
    return {
        "lhs": f"{lhs.numerator}/{lhs.denominator}",
        "rhs": f"{rhs.numerator}/{rhs.denominator}",
        "holds": lhs <= rhs,
    }


def cmd_verify_paper(args) -> int:
    results = scenarios.run_all()
    ok = True
    for res in results:
        _emit(res.to_json())
        lines = [f"scenario {res.scenario}: {'PASS' if res.passed else 'FAIL'}"]
        for row in res.rows:
            lines.append(
                f"  {'ok ' if row.passed else 'BAD'} {row.name}: "
                f"computed {row.computed:.6g}, expected {row.expected:.6g} "
                f"(tol {row.tol:g})"
            )
        _table(lines, args.json_only)
        ok &= res.passed
    return 0 if ok else 1


def cmd_check(args) -> int:
    spec = spec_of(args.inequality)
    inst, exacts = _load_check_inputs(args, spec)
    verdict = run_check(args.inequality, inst, tol=args.tol)
    cert = _exact_certification(spec, inst.partition, exacts)
    payload = verdict.to_json()
    if cert is not None:
        payload["exact"] = cert
    _emit(payload)
    lines = [
        f"{args.inequality}: {'holds' if verdict.holds else 'VIOLATED'} "
        f"(margin {verdict.margin:.6g}, tol {verdict.tol:g})"
    ]
    for side in ("lhs", "rhs"):
        value = getattr(verdict, side)
        if value is not None:
            lines.append(f"  {side} = {value:.10g}")
        elif f"log_{side}" in verdict.detail:
            lines.append(f"  {side} = exp({verdict.detail[f'log_{side}']:.10g})")
    if verdict.order is not None:
        lines.append(f"  order check: {verdict.order.verdict()}")
    if cert is not None:
        lines.append(
            f"  exact: lhs {cert['lhs']} rhs {cert['rhs']} "
            f"-> {'holds' if cert['holds'] else 'VIOLATED'} (zero tolerance)"
        )
    _table(lines, args.json_only)
    return 0 if verdict.holds else 2


def _gen_config(args, **fields) -> GenConfig:
    """The GenConfig of `fuzz` and `gen` from their shared flags, plus fields."""
    return GenConfig(
        n=args.n,
        partition=_parse_partition(args.part, args.n) if args.part else None,
        style=GenStyle(args.style),
        kappa_max=args.kappa_max,
        entry_scale=args.scale,
        seed=args.seed,
        **fields,
    )


def cmd_fuzz(args) -> int:
    cfg = _gen_config(args, m=args.m)
    report = fuzz(args.inequality, cfg, args.trials, p=args.p, tol=args.tol,
                  keep_instances=args.keep_instances)
    _emit(report.to_json())
    lines = [
        f"fuzz {args.inequality}: {report.trials} trials, "
        f"{report.violations} violations, worst margin {report.worst_margin:.6g} "
        f"({report.wall_time:.2f}s)"
    ]
    for rec in report.records[:5]:
        if not rec.verdict.holds:
            lines.append(f"  trial {rec.trial}: margin {rec.verdict.margin:.6g}")
    _table(lines, args.json_only)
    return 0 if report.violations == 0 else 2


def cmd_gen(args) -> int:
    """Trial 0's matrix, or one per block of --part: all are drawn before
    any file is written, so a failed draw writes none."""
    cfg = _gen_config(args)
    sizes = cfg.part().sizes
    mats, _ = draw_trials(cfg, range(1), [(size, cfg.kappa_max, 0.0) for size in sizes])
    out = Path(args.out)
    paths = [out] if len(sizes) == 1 else [
        out.with_name(f"{out.stem}.{i}{out.suffix or '.json'}") for i in range(1, len(sizes) + 1)]
    for path, mat in zip(paths, mats):
        matio.write_matrix(path, mat[0])
    written = [str(path) for path in paths]
    _emit({"written": written})
    _table([f"wrote {p}" for p in written], args.json_only)
    return 0


# Each handler is looked up in the module when main runs, so the cached
# parser holds none and a patched cmd_* applies.
_COMMANDS = {
    "verify-paper": lambda args: cmd_verify_paper(args),
    "check": lambda args: cmd_check(args),
    "fuzz": lambda args: cmd_fuzz(args),
    "gen": lambda args: cmd_gen(args),
}


@functools.cache
def build_parser() -> _Parser:
    """The one parser of this process: built on the first call, shared by
    every later `main` call."""
    parser = _Parser(prog="majdet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = sub.add_parser("verify-paper", help="replicate the built-in reference examples")
    sp.add_argument("--json-only", action="store_true", help="suppress the stderr table")

    sp = sub.add_parser("check", help="check one inequality on matrix files")
    sp.add_argument("inequality", choices=sorted(INEQUALITY_IDS))
    sp.add_argument("--c", help="matrix file for C")
    sp.add_argument("--d", nargs="+", help="D block files (or one block-diagonal/general D)")
    sp.add_argument("--a", nargs="+", help="matrix files for the A_i family / lemma31 input")
    sp.add_argument("--part", help="partition sizes n1,n2,...,nk")
    sp.add_argument("--p", type=finite, default=None, help="exponent for parametrized checks")
    sp.add_argument("--m", type=int, default=None, help="tail start (fischer-tail; 1-based)")
    sp.add_argument("--idx", help="0-based principal submatrix indices, e.g. 0,2,3")
    sp.add_argument("--tol", type=tolerance, default=DEFAULT_TOL)
    sp.add_argument("--json-only", action="store_true")

    sp = sub.add_parser("fuzz", help="randomized trials of one inequality")
    sp.add_argument("inequality")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--part", help="partition sizes; default single block")
    sp.add_argument("--m", type=int, default=2, help="matrix count for the choi family")
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--style", choices=[s.value for s in GenStyle], default="spectral")
    sp.add_argument("--kappa-max", type=finite, default=1e6)
    sp.add_argument("--scale", type=finite, default=1.0)
    sp.add_argument("--p", type=finite, default=None,
                    help="fix the exponent (default: id-specific grid)")
    sp.add_argument("--tol", type=tolerance, default=DEFAULT_TOL)
    sp.add_argument("--keep-instances", action="store_true",
                    help="serialize every trial's instance, not just violations")
    sp.add_argument("--json-only", action="store_true")

    sp = sub.add_parser("gen", help="write random PD matrix file(s)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--part", help="write one file per block of this partition")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--style", choices=[s.value for s in GenStyle], default="spectral")
    sp.add_argument("--kappa-max", type=finite, default=1e6)
    sp.add_argument("--scale", type=finite, default=1.0)
    sp.add_argument("--out", required=True, help="output path")
    sp.add_argument("--json-only", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        # A derived matrix that overflows (C + D, an inverse, a power) is
        # rejected by the kernels with its own error, so numpy's
        # floating-point warnings would only repeat it on stderr.
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args)
    except MajdetError as err:
        print(f"majdet: error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"majdet: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
