"""The three workloads: inputs from a seed, the ops to time, and the grading.

Each workload is a closed loop with one client: the next op starts only
after the previous one returned. An op is one `fuzz()` campaign (fuzz-small),
one `run_check` call (check-lib) or one `majdet` process (cli). `cycle()`
returns the same op list every time, so a run is a whole number of
identical cycles and per-op ratios repeat exactly.

`check(op, result)` runs after each op, outside its timing, and keeps only
what grading needs; `grade()` runs after the timed region, computes the
mpmath reference and returns the failures and margin errors.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

TOL = 1e-9

ALL_IDS = (
    "main-thm", "matic", "det-power", "abs-power", "commuted-power", "inv-square-sum",
    "neg-power", "matic-general-d", "weak-log-general-d", "sv-weak-log", "choi", "thm32",
    "open-q", "lemma31", "fischer-tail", "ky-fan",
)
THEOREM_IDS = frozenset(
    {"main-thm", "matic", "det-power", "choi", "thm32", "lemma31", "fischer-tail", "ky-fan"})
EVALUATOR_IDS = frozenset(
    {"abs-power", "commuted-power", "inv-square-sum", "neg-power", "matic-general-d",
     "weak-log-general-d", "sv-weak-log"})

# The paper's worked counterexamples, copied so the benchmark's inputs stay
# fixed when the program's own tables move.
INV_SQ_C = [["65/4", "21", "10", "25/2"], ["21", "159/4", "83/4", "57/2"],
            ["10", "83/4", "45/2", "111/4"], ["25/2", "57/2", "111/4", "157/4"]]
INV_SQ_D = [["147/10", "15"], ["15", "79/5"]], [["1/4", "2/5"], ["2/5", "4/5"]]
MATIC_GEN_C = [["12", "7"], ["7", "10"]]
MATIC_GEN_D = [["16", "7"], ["7", "5"]]


@dataclass
class Op:
    label: str
    args: tuple
    key: int  # index of the op's distinct input within the workload
    exit: int | None = None  # expected cli exit code; None: from the printed verdict
    exact: bool = False  # cli check whose inputs all carry exact entries


@dataclass
class Grade:
    failed: int = 0
    known_failed: int = 0  # failures inside a documented seed defect
    margin_errors: list = field(default_factory=list)
    notes: list = field(default_factory=list)


# Partitions rotate over the ids (or instances) in a fixed order, so every
# seed runs the same mix of block structures and only the matrices change;
# partitions drawn per seed would make the cost of a run depend on the seed.
SMALL_PARTS = {2: ((1, 1),), 4: ((2, 2), (1, 3), (3, 1)),
               8: ((4, 4), (2, 3, 3), (1, 2, 5), (3, 5))}
CLI_PARTS = {4: (2, 2), 8: (3, 5), 12: (5, 7)}


def geometric_pd(rng: np.random.Generator, n: int, kappa: float) -> np.ndarray:
    """Haar-random eigenvectors, eigenvalues geometric from 1 to kappa, so the
    condition number is exactly kappa (LAPACK's latms mode 3)."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    lam = kappa ** (np.arange(n) / max(n - 1, 1))
    a = (q * lam) @ q.T
    return (a + a.T) / 2.0


def reported_margins(verdict) -> list[float]:
    return list(verdict.order.margins) if verdict.order is not None else [verdict.margin]


# ---------------------------------------------------------------------------
# fuzz-small

class FuzzWorkload:
    """`fuzz()` campaigns; work is counted in trials, as FuzzReport.trials does."""

    def __init__(self, name: str, seed: int, scale: float = 1.0):
        self.name = name
        self.seed = seed
        self.scale = scale
        self.campaigns: list[tuple] = []
        self.first_digest: dict[int, str] = {}
        self.injected: dict[int, tuple] = {}  # campaign -> (id, instance json, margins)
        self.failed = 0
        self.failures: list[str] = []

    def prepare(self) -> None:
        from majdet import GenConfig, GenStyle, Partition

        rng = np.random.default_rng(self.seed)
        self.campaigns = []
        for ineq, n, sizes, trials, p, style, kappa in self._specs():
            cfg = GenConfig(n=n, partition=Partition(sizes), style=GenStyle(style),
                            kappa_max=kappa, seed=int(rng.integers(0, 2**63)))
            self.campaigns.append((ineq, cfg, max(1, int(trials * self.scale)), p))

    @staticmethod
    def _specs():
        specs = [(ineq, n, SMALL_PARTS[n][j % len(SMALL_PARTS[n])], 10, None, "spectral", 1e6)
                 for j, ineq in enumerate(ALL_IDS) for n in (2, 4, 8)]
        # GRAM draws are resampled until the cap holds; 1e3 makes that
        # loop reject some draws, which 1e6 never does at n = 4.
        specs.append(("main-thm", 4, (2, 2), 10, None, "gram", 1e3))
        return specs

    def cycle(self) -> list[Op]:
        return [Op(f"{ineq}/n={cfg.n}", (ineq, cfg, trials, p), i)
                for i, (ineq, cfg, trials, p) in enumerate(self.campaigns)]

    def warm_up(self) -> None:
        from majdet import fuzz

        seen = set()
        for ineq, cfg, _trials, p in self.campaigns:
            if ineq not in seen:
                seen.add(ineq)
                fuzz(ineq, cfg, 1, p=p, tol=TOL)

    def run(self, op: Op):
        from majdet import fuzz  # looked up per call, so the tracer's patch applies

        ineq, cfg, trials, p = op.args
        return fuzz(ineq, cfg, trials, p=p, tol=TOL)

    @staticmethod
    def units(result) -> int:
        return result.trials

    def check(self, op: Op, report) -> bool:
        if isinstance(report, BaseException):
            self.failed += 1
            self.failures.append(f"{op.label}: {type(report).__name__}: {report}")
            return False
        ineq, _cfg, trials, _p = op.args
        problems = []
        if report.trials != trials or report.holds + report.violations != trials:
            problems.append("trial counts do not add up")
        if ineq in THEOREM_IDS and report.violations:
            problems.append(f"{report.violations} violations of a theorem")
        trial0 = [r for r in report.records if r.trial == 0 and not r.verdict.holds]
        if ineq in EVALUATOR_IDS and not trial0:
            problems.append("injected trial-0 violation not recorded")
        body = report.to_json()
        body.pop("wall_time")
        digest = json.dumps(body, sort_keys=True)
        first = self.first_digest.setdefault(op.key, digest)
        if digest != first:
            problems.append("report differs from the same campaign's first run")
        if trial0 and op.key not in self.injected:
            self.injected[op.key] = (ineq, trial0[0].instance, reported_margins(trial0[0].verdict))
        if problems:
            self.failed += 1
            self.failures.append(f"{op.label}: {'; '.join(problems)}")
        return not problems

    def grade(self) -> Grade:
        from reference import margin_errors, reference_margins

        grade = Grade(failed=self.failed)
        for ineq, inst, margins in self.injected.values():
            grade.margin_errors.extend(margin_errors(margins, reference_margins(ineq, inst)))
        grade.notes = list(dict.fromkeys(self.failures))[:20]
        return grade


# ---------------------------------------------------------------------------
# check-lib

class CheckLibWorkload:
    """Direct run_check calls at extreme conditioning, graded at 60 digits."""

    IDS = ("main-thm", "matic", "weak-log-general-d")
    KAPPAS = (1e4, 1e8, 1e10, 1e12)
    PER_CLASS = 48
    # Verdicts at kappa >= 1e10 rest on eigenvalues the seed's Jacobi solver
    # gets wrong by up to ~15 in log; failures there are a known defect.
    KNOWN_DEFECT_KAPPA = 1e10

    def __init__(self, name: str, seed: int, scale: float = 1.0):
        self.name = name
        self.seed = seed
        self.per_class = max(1, int(self.PER_CLASS * scale))
        self.pool: list[tuple] = []  # (id, kappa, Instance)
        self.order: list[int] = []
        self.seen: dict[int, tuple] = {}
        self.outcomes: dict[int, list[int]] = {}  # key -> [ops, ops that failed before grading]
        self.failures: list[str] = []

    def prepare(self) -> None:
        from majdet import Instance, Partition

        rng = np.random.default_rng(self.seed)
        self.pool = []
        for kappa in self.KAPPAS:
            for ineq in self.IDS:
                for i in range(self.per_class):
                    part = Partition(SMALL_PARTS[8][i % len(SMALL_PARTS[8])])
                    c = geometric_pd(rng, 8, kappa)
                    if ineq == "weak-log-general-d":
                        inst = Instance(partition=part, c=c, d=geometric_pd(rng, 8, kappa))
                    else:
                        blocks = tuple(geometric_pd(rng, s, kappa) for s in part.sizes)
                        inst = Instance(partition=part, c=c, d_blocks=blocks)
                    self.pool.append((ineq, kappa, inst))
        self.order = rng.permutation(len(self.pool)).tolist()

    def cycle(self) -> list[Op]:
        return [Op(f"{self.pool[i][0]}/kappa={self.pool[i][1]:g}", (i,), i) for i in self.order]

    def warm_up(self) -> None:
        from majdet import run_check

        for ineq in self.IDS:
            inst = next(inst for name, _k, inst in self.pool if name == ineq)
            run_check(ineq, inst, TOL)

    def run(self, op: Op):
        from majdet import run_check  # looked up per call, so the tracer's patch applies

        ineq, _kappa, inst = self.pool[op.key]
        return run_check(ineq, inst, TOL)

    @staticmethod
    def units(_result) -> int:
        return 1

    def check(self, op: Op, verdict) -> bool:
        count = self.outcomes.setdefault(op.key, [0, 0])
        count[0] += 1
        if isinstance(verdict, BaseException):
            count[1] += 1
            self.failures.append(f"{op.label}: {type(verdict).__name__}: {verdict}")
            return False
        outcome = (verdict.holds, tuple(reported_margins(verdict)))
        first = self.seen.setdefault(op.key, outcome)
        if outcome != first:
            count[1] += 1
            self.failures.append(f"{op.label}: verdict differs from its first run")
            return False
        return True

    def grade(self) -> Grade:
        from reference import margin_errors, reference_margins

        grade = Grade()
        for key, (ops, failed) in sorted(self.outcomes.items()):
            ineq, kappa, inst = self.pool[key]
            bad = failed
            if key in self.seen:
                holds, margins = self.seen[key]
                ref = reference_margins(ineq, inst.to_json())
                grade.margin_errors.extend(margin_errors(margins, ref))
                if holds != ref.holds(TOL):
                    bad = ops
                    self.failures.append(f"{ineq}/kappa={kappa:g}: float verdict "
                                         f"{'holds' if holds else 'violated'} disagrees "
                                         f"with the 60-digit reference")
            grade.failed += bad
            if kappa >= self.KNOWN_DEFECT_KAPPA:
                grade.known_failed += bad
        grade.notes = list(dict.fromkeys(self.failures))[:20]
        return grade


# ---------------------------------------------------------------------------
# cli

EXACT_DISAGREES = "exact certificate disagrees with the 60-digit reference"


def _strict_json_lines(text: str) -> list[dict]:
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return [json.loads(line, parse_constant=reject) for line in text.splitlines() if line.strip()]


def _decimal_pd(rng: np.random.Generator, n: int) -> list[list[Fraction]]:
    """Symmetric positive definite matrix with 4-decimal rational entries."""
    a = geometric_pd(rng, n, 1e3) * 10.0
    out = [[Fraction(round(a[i][j] * 10**4), 10**4) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            out[i][j] = out[j][i]
    return out


def _write_matrix(path: Path, rows, exact=None) -> str:
    payload = {"n": len(rows), "rows": [[float(x) for x in row] for row in rows]}
    if exact is not None:
        payload["exact"] = [[[str(f.numerator), str(f.denominator)] for f in row] for row in exact]
    path.write_text(json.dumps(payload) + "\n")
    return str(path)


def _fractions(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


class CliWorkload:
    """Sequential CLI invocations over a fixed command mix, each one argv
    passed to `majdet.cli.main` in this process, stdout captured. Process
    start-up and imports are timed apart, in the traced run's cli.*_import_ms.
    """

    def __init__(self, name: str, seed: int, work_dir: Path, scale: float = 1.0):
        self.name = name
        self.seed = seed
        self.dir = work_dir
        self.ops: list[Op] = []
        self.refs: dict[int, tuple] = {}  # key -> (id, instance json) to grade against
        self.seen: dict[int, tuple] = {}  # key -> (exit code, parsed lines)
        self.outcomes: dict[int, list[int]] = {}  # key -> [ops, ops that failed before grading]
        self.problems: dict[int, set[str]] = {}
        self.failures: list[str] = []
        self.fuzz_trials = max(2, int(20 * scale))

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.dir.mkdir(parents=True, exist_ok=True)
        d = self.dir
        ops: list[Op] = []
        refs: dict[int, tuple] = {}

        def add(label, argv, exit_code, ref=None, exact=False):
            key = len(ops)
            ops.append(Op(label, tuple(argv), key, exit_code, exact))
            if ref is not None:
                refs[key] = ref

        add("verify-paper", ["verify-paper"], 0)
        add("gen", ["gen", "--n", "8", "--part", "3,5", "--seed", str(self.seed),
                    "--out", str(d / "gen.json")], 0)

        # float checks of theorem ids on generated files
        for ineq, n, extra in (("main-thm", 8, []), ("det-power", 8, ["--p", "2"])):
            sizes = CLI_PARTS[n]
            c = geometric_pd(rng, n, 1e6)
            blocks = [geometric_pd(rng, s, 1e6) for s in sizes]
            files = [_write_matrix(d / f"{ineq}-d{i}.json", b.tolist()) for i, b in enumerate(blocks)]
            inst = {"partition": list(sizes), "c": c.tolist(), "d_blocks": [b.tolist() for b in blocks]}
            if extra:
                inst["p"] = 2.0
            add(f"check-{ineq}", ["check", ineq, "--c", _write_matrix(d / f"{ineq}-c.json", c.tolist()),
                                  "--d", *files, "--part", ",".join(map(str, sizes)), *extra],
                None, ref=(ineq, inst))

        # exact-entry checks; the expected exit code comes from the reference
        for ineq in ("matic", "inv-square-sum", "matic-general-d"):
            for n in (4, 8, 12):
                sizes = CLI_PARTS[n]
                c = _decimal_pd(rng, n)
                cfile = _write_matrix(d / f"{ineq}-{n}-c.json", c, c)
                if ineq == "matic-general-d":
                    dm = _decimal_pd(rng, n)
                    dfiles = [_write_matrix(d / f"{ineq}-{n}-d.json", dm, dm)]
                    inst = {"partition": list(sizes), "c": c, "d": dm}
                else:
                    blocks = [_decimal_pd(rng, s) for s in sizes]
                    dfiles = [_write_matrix(d / f"{ineq}-{n}-d{i}.json", b, b)
                              for i, b in enumerate(blocks)]
                    inst = {"partition": list(sizes), "c": c, "d_blocks": blocks}
                add(f"check-{ineq}-exact-{n}",
                    ["check", ineq, "--c", cfile, "--d", *dfiles, "--part", ",".join(map(str, sizes))],
                    None, ref=(ineq, _floats(inst)), exact=True)

        # the built-in exact violators
        c = _fractions(INV_SQ_C)
        blocks = [_fractions(b) for b in INV_SQ_D]
        dfiles = [_write_matrix(d / f"invsq-d{i}.json", b, b) for i, b in enumerate(blocks)]
        add("check-inv-square-sum-builtin",
            ["check", "inv-square-sum", "--c", _write_matrix(d / "invsq-c.json", c, c),
             "--d", *dfiles, "--part", "2,2"], 2,
            ref=("inv-square-sum", _floats({"partition": [2, 2], "c": c, "d_blocks": blocks})),
            exact=True)
        c = _fractions(MATIC_GEN_C)
        dm = _fractions(MATIC_GEN_D)
        add("check-matic-general-d-builtin",
            ["check", "matic-general-d", "--c", _write_matrix(d / "mgen-c.json", c, c),
             "--d", _write_matrix(d / "mgen-d.json", dm, dm), "--part", "1,1"], 2,
            ref=("matic-general-d", _floats({"partition": [1, 1], "c": c, "d": dm})),
            exact=True)

        add("fuzz-det-power", ["fuzz", "det-power", "--n", "4", "--part", "2,2", "--trials",
                               str(self.fuzz_trials), "--seed", str(self.seed)], 0)

        # input errors: exit 1 and nothing on stdout
        c4 = geometric_pd(rng, 4, 1e3)
        good_c = _write_matrix(d / "err-c.json", c4.tolist())
        good_d = [_write_matrix(d / f"err-d{i}.json", c4[lo:lo + 2, lo:lo + 2].tolist())
                  for i, lo in enumerate((0, 2))]
        add("check-missing-file", ["check", "matic", "--c", str(d / "absent.json"),
                                   "--d", *good_d, "--part", "2,2"], 1)
        add("check-bad-partition", ["check", "matic", "--c", good_c, "--d", *good_d,
                                    "--part", "3,3"], 1)
        add("check-unknown-id", ["check", "no-such-id", "--c", good_c], 1)
        nan_c = c4.tolist()
        nan_c[0][1] = nan_c[1][0] = float("nan")
        add("check-matic-nan", ["check", "matic", "--c", _write_matrix(d / "nan-c.json", nan_c),
                                "--d", *good_d, "--part", "2,2"], 1)
        self.ops = ops
        self.refs = refs

    def cycle(self) -> list[Op]:
        return list(self.ops)

    def warm_up(self) -> None:
        self.run(self.ops[0])

    def run(self, op: Op) -> tuple[int, str]:
        """(exit code, stdout) of one CLI invocation."""
        import majdet.cli  # looked up per call, so the tracer's patch applies

        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = majdet.cli.main(list(op.args))
        return code, stdout.getvalue()

    @staticmethod
    def units(_result) -> int:
        return 1

    def check(self, op: Op, result) -> bool:
        problems = []
        if isinstance(result, BaseException):
            problems.append(f"{type(result).__name__}: {result}")
        else:
            code, stdout = result
            try:
                lines = _strict_json_lines(stdout)
            except ValueError as err:
                lines = None
                problems.append(f"stdout is not strict JSON ({err})")
            if op.exit is not None and code != op.exit:
                problems.append(f"exit {code}, expected {op.exit}")
            if op.exit == 1 and stdout.strip():
                problems.append("input error printed a result")
            if lines is not None:
                problems.extend(self._check_payload(op, code, lines))
                # a fuzz report's wall_time is the one field allowed to vary
                stable = [{k: v for k, v in line.items() if k != "wall_time"} for line in lines]
                first = self.seen.setdefault(op.key, (code, stable))
                if (code, stable) != first:
                    problems.append("output differs from the first run")
        count = self.outcomes.setdefault(op.key, [0, 0])
        count[0] += 1
        if problems:
            count[1] += 1
            self.problems.setdefault(op.key, set()).update(problems)
            self.failures.append(f"{op.label}: {'; '.join(problems)}")
        return not problems

    @staticmethod
    def known_defect(label: str, problems: set[str]) -> bool:
        """Failures the seed is known to produce, counted but not fatal:
        a NaN entry is not rejected (exit 2 and NaN JSON instead of exit 1),
        and the exact certificate of matic-general-d uses only the diagonal
        blocks of D, so it can claim `holds` for a violated instance."""
        if label == "check-matic-nan":
            return True
        return label.startswith("check-matic-general-d") and problems == {EXACT_DISAGREES}

    def _check_payload(self, op: Op, code: int, lines: list[dict]) -> list[str]:
        label = op.label
        if label == "verify-paper":
            if not lines or not all(line.get("pass") is True for line in lines):
                return ["a verify-paper scenario failed"]
            return []
        if label == "gen":
            return self._check_gen(lines)
        if label.startswith("fuzz"):
            if len(lines) != 1 or lines[0].get("violations") != 0:
                return ["fuzz of a theorem reported violations"]
            return []
        if op.key in self.refs:
            if len(lines) != 1 or "holds" not in lines[0]:
                return ["check printed no verdict"]
            verdict = lines[0]
            if code != (0 if verdict["holds"] else 2):
                return [f"exit {code} does not match holds={verdict['holds']}"]
            if op.exact and "exact" not in verdict:
                return ["exact-entry input without exact certification"]
        return []

    @staticmethod
    def _check_gen(lines: list[dict]) -> list[str]:
        if len(lines) != 1 or len(lines[0].get("written", [])) != 2:
            return ["gen did not report two block files"]
        for path in lines[0]["written"]:
            try:
                payload = json.loads(Path(path).read_text())
                a = np.array(payload["rows"], dtype=float)
            except (OSError, ValueError, KeyError) as err:
                return [f"gen wrote an unreadable file ({err})"]
            if not np.array_equal(a, a.T) or np.linalg.eigvalsh(a)[0] <= 0.0:
                return ["gen wrote a matrix that is not symmetric positive definite"]
        return []

    def grade(self) -> Grade:
        from reference import margin_errors, reference_margins

        grade = Grade()
        for key, (ops, failed) in sorted(self.outcomes.items()):
            op = self.ops[key]
            if key in self.refs and key in self.seen:
                lines = self.seen[key][1]
                if len(lines) == 1 and "holds" in lines[0]:
                    verdict = lines[0]
                    ineq, inst = self.refs[key]
                    ref = reference_margins(ineq, inst)
                    problems = []
                    if verdict["holds"] != ref.holds(TOL):
                        problems.append("float verdict disagrees with the 60-digit reference")
                    if "exact" in verdict and verdict["exact"]["holds"] != (ref.margins[0] >= 0):
                        problems.append(EXACT_DISAGREES)
                    if problems:
                        failed = ops
                        self.problems.setdefault(key, set()).update(problems)
                        self.failures.append(f"{op.label}: {'; '.join(problems)}")
                    if "builtin" in op.label:
                        grade.margin_errors.extend(
                            margin_errors(reported_margins_json(verdict), ref))
            grade.failed += failed
            if failed and self.known_defect(op.label, self.problems.get(key, set())):
                grade.known_failed += failed
        grade.notes = list(dict.fromkeys(self.failures))[:20]
        return grade


def reported_margins_json(verdict: dict) -> list[float]:
    order = verdict.get("order")
    return list(order["margins"]) if order else [verdict["margin"]]


def _floats(inst: dict) -> dict:
    def conv(m):
        return [[float(x) for x in row] for row in m]

    out = {"partition": inst["partition"], "c": conv(inst["c"])}
    if "d" in inst:
        out["d"] = conv(inst["d"])
    else:
        out["d_blocks"] = [conv(b) for b in inst["d_blocks"]]
    if "p" in inst:
        out["p"] = inst["p"]
    return out
