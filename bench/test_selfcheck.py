"""Self-check of the benchmark at tiny size.

    python3 -m pytest bench/test_selfcheck.py -q

Every workload must print each metric that BENCHMARK.json names, with its
unit; a wrong verdict must land in `failed` and in pass_share, while a
failure inside a documented seed defect lands in pass_share only; a
directory holding only the benchmark must make it exit non-zero.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace, section):
    out = _bench("--workload", workload, "--seed", "3", "--seconds", "0.05",
                 "--trace", trace, "--scale", "0.05")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stdout
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == expected
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name


class _FlipOne(workloads.CheckLibWorkload):
    """Reports the opposite verdict for the first kappa=1e4 instance."""

    def run(self, op):
        verdict = super().run(op)
        ineq, kappa, _inst = self.pool[op.key]
        if kappa == 1e4 and op.key == self.flip_key:
            return dataclasses.replace(verdict, holds=not verdict.holds)
        return verdict

    def prepare(self):
        super().prepare()
        self.flip_key = next(i for i, (_id, kappa, _inst) in enumerate(self.pool) if kappa == 1e4)


def test_wrong_verdict_counts_as_failed():
    workload = _FlipOne("check-lib", seed=5, scale=0.05)
    done = run.run_cycles(workload, 0.0)
    grade = workload.grade()
    assert grade.failed == done.cycles  # the flipped instance fails in every cycle
    assert grade.known_failed == 0
    attempted = len(done.plain.durations)
    pass_share = run.end_to_end(done.plain, 1.0, 1.0, 1.0, 1.0 - grade.failed / attempted,
                                grade.margin_errors)["pass_share"][0]
    assert pass_share < 1.0


def test_wrong_exit_code_counts_as_failed(tmp_path):
    workload = workloads.CliWorkload("cli", seed=5, work_dir=tmp_path, scale=0.05)
    workload.prepare()
    op = workload.ops[0]
    assert op.label == "verify-paper"
    assert workload.check(op, (1, "")) is False
    assert workload.grade().failed == 1


def test_without_program_sources_it_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _bench("--workload", "fuzz-small", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_known_defect_counts_in_pass_share_only(tmp_path):
    workload = workloads.CliWorkload("cli", seed=5, work_dir=tmp_path, scale=0.05)
    workload.prepare()
    op = next(op for op in workload.ops if op.label == "check-matic-nan")
    assert workload.check(op, (2, '{"holds": false, "margin": NaN}\n')) is False
    grade = workload.grade()
    assert (grade.failed, grade.known_failed) == (1, 1)
