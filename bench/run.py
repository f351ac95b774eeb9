"""majdet benchmark: one closed-loop workload per run, outputs checked.

    python3 bench/run.py --workload fuzz-small --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run's record (environment, calibration, unscaled timings, sample
counts, reference cost, failure notes). ``--trace 0`` times the workload
and prints the end-to-end metrics. ``--trace 1`` alternates untraced and traced cycles
and prints the per-layer metrics plus the tracing overhead; the spans go
to ``bench/out/``. Without ``src/majdet`` the run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

WORKLOADS = ("fuzz-small", "check-lib", "cli")
# setup_s is the median of the set-ups run between cycles, at least SETUP_REPS
SETUP_REPS = 5
SETUP_EVERY_S = 2.0
# Timing metrics rest on each input's best time over the run's cycles,
# scaled to a reference machine speed. On the shared 2-core x86_64 VM the
# benchmark was tuned on, speed swings by up to 2x for seconds or a whole run
# at a time, and CPU time moves with it. Medians over cycles spread by 30%
# between runs, and raw best-of-cycles times of runs minutes apart by up to
# 20%. A fixed pure-Python loop, timed every CAL_EVERY_S between ops, gives
# the run's best speed; times are multiplied by CAL_REF_MS over the loop's
# best time, CAL_REF_MS being the loop's time on that VM when it runs fast.
TAIL_PERCENTILE = 90
CAL_LOOP = 20_000
CAL_REF_MS = 1.5
CAL_EVERY_S = 0.2
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

IMPORT_PROBE = ("import time; t = time.perf_counter(); import majdet; "
                "print(time.perf_counter() - t)")


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _child_env() -> dict:
    """Environment for a child interpreter that imports majdet from src/."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def _calibrate() -> float:
    """Least ms of five runs of a fixed pure-Python loop: the machine's speed now."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter_ns()
        acc = 0
        for i in range(CAL_LOOP):
            acc = (acc + i * i) % 1_000_003
        times.append((time.perf_counter_ns() - t0) / 1e6)
    return min(times)


def _cpu_ns() -> int:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time_ns() + int((kids.ru_utime + kids.ru_stime) * 1e9)


def _peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _probe_s(code: str) -> float:
    """Wall seconds of a fresh interpreter running `code`."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_child_env(), check=True,
                   stdout=subprocess.DEVNULL, timeout=60)
    return time.perf_counter() - t0


def _import_s() -> float:
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=_child_env(),
                         check=True, capture_output=True, text=True, timeout=60)
    return float(out.stdout.strip())


def _environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_ENV},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def make_workload(name: str, seed: int, scale: float, work_dir: Path):
    from workloads import CheckLibWorkload, CliWorkload, FuzzWorkload

    if name == "fuzz-small":
        return FuzzWorkload(name, seed, scale)
    if name == "check-lib":
        return CheckLibWorkload(name, seed, scale)
    return CliWorkload(name, seed, work_dir, scale)


def _set_up(workload) -> float:
    """Seconds of one set-up: import majdet in a fresh interpreter, generate
    the inputs and warm up."""
    t0 = time.perf_counter()
    workload.prepare()
    workload.warm_up()
    return _import_s() + time.perf_counter() - t0


class Timed:
    """Per-op samples of one phase of a run. Every cycle runs the same op
    list, so the sample at position i of each cycle is the same input."""

    def __init__(self):
        self.durations: list[int] = []
        self.cpu_ns: list[int] = []
        self.units: list[int] = []
        self.cycle_ends: list[int] = []  # op count at the end of each cycle

    def add(self, duration: int, cpu: int, units: int) -> None:
        self.durations.append(duration)
        self.cpu_ns.append(cpu)
        self.units.append(units)

    def end_cycle(self) -> None:
        self.cycle_ends.append(len(self.durations))

    def ops_per_s(self) -> float:
        return sum(self.units) / (sum(self.durations) / 1e9) if self.durations else 0.0

    def cycle_ops_per_s(self) -> list[float]:
        bounds = zip([0, *self.cycle_ends], self.cycle_ends)
        return [sum(self.units[lo:hi]) / (sum(self.durations[lo:hi]) / 1e9) for lo, hi in bounds]

    def best(self, samples: list[int]) -> list[int]:
        """Each input's least sample over the cycles."""
        size = self.cycle_ends[0]
        return [min(samples[i::size]) for i in range(size)]


@dataclass
class Run:
    plain: Timed = field(default_factory=Timed)
    traced: Timed = field(default_factory=Timed)
    cycles: int = 0
    calibration: list[float] = field(default_factory=list)  # loop ms, best of 5
    setups: list[float] = field(default_factory=list)  # set-up seconds


def run_cycles(workload, seconds: float, tracer=None) -> Run:
    """Whole cycles until `seconds` have passed. The calibration loop is
    timed between ops every CAL_EVERY_S, and a set-up runs between cycles
    every SETUP_EVERY_S, so that both sample the machine over the whole run.
    With a tracer, cycles alternate untraced and traced (at least one of each)."""
    run = Run(calibration=[_calibrate()], setups=[_set_up(workload)])
    last_calibration = last_setup = time.perf_counter()
    start = time.perf_counter()
    while True:
        tracing = tracer is not None and run.cycles % 2 == 1
        phase = run.traced if tracing else run.plain
        if tracing:
            tracer.install()
        try:
            for op in workload.cycle():
                c0 = _cpu_ns()
                t0 = time.perf_counter_ns()
                try:
                    result = tracer.op(workload.run, op) if tracing else workload.run(op)
                except Exception as err:  # an op that raises is a failed op
                    result = err
                t1 = time.perf_counter_ns()
                units = 0 if isinstance(result, BaseException) else workload.units(result)
                phase.add(t1 - t0, _cpu_ns() - c0, units)
                workload.check(op, result)
                if time.perf_counter() - last_calibration >= CAL_EVERY_S:
                    run.calibration.append(_calibrate())
                    last_calibration = time.perf_counter()
        finally:
            if tracing:
                tracer.uninstall()
        phase.end_cycle()
        run.cycles += 1
        done = time.perf_counter() - start >= seconds
        if done and (tracer is None or run.cycles >= 2):
            while len(run.setups) < SETUP_REPS:
                run.setups.append(_set_up(workload))
            return run
        if time.perf_counter() - last_setup >= SETUP_EVERY_S:
            run.setups.append(_set_up(workload))
            last_setup = time.perf_counter()


def timing(plain: Timed, ref_factor: float) -> dict:
    """Timing metrics from each input's best time over the cycles, with
    times multiplied by `ref_factor`."""
    durations = plain.best(plain.durations)
    cycle_units = sum(plain.units[:plain.cycle_ends[0]])
    tail_ns = statistics.quantiles(durations, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    return {
        "ops_per_s": cycle_units / (sum(durations) / 1e9) / ref_factor,
        "latency_p50_ms": statistics.median(durations) / 1e6 * ref_factor,
        "latency_tail_ms": tail_ns / 1e6 * ref_factor,
        "cpu_ms_per_op": statistics.fmean(plain.best(plain.cpu_ns)) / 1e6 * ref_factor,
    }


def end_to_end(plain: Timed, ref_factor: float, setup_s: float, rss: float,
               pass_share: float, errors: list[float]) -> dict:
    times = timing(plain, ref_factor)
    return {
        "setup_s": (setup_s * ref_factor, "s"),
        "ops_per_s": (times["ops_per_s"], "1/s"),
        "latency_tail_ms": (times["latency_tail_ms"], "ms"),
        "cpu_ms_per_op": (times["cpu_ms_per_op"], "ms"),
        "peak_rss_mb": (rss, "MiB"),
        "pass_share": (pass_share, "share"),
        "margin_err_gmean": (math.exp(statistics.fmean(math.log(e) for e in errors)), "log"),
    }


def per_layer(workload, tracer, plain: Timed, traced: Timed) -> dict:
    ops = len(traced.durations)
    out = tracer.layer_metrics(ops)
    trials = sum(traced.units) if workload.name.startswith("fuzz") else 0
    checks = tracer.calls_of("catalog.run_check")

    def ratio(num, den):
        return num / den if den else 0.0

    attempts, accepted = tracer.edge("fuzzing.sample_pd", "linalg.eigvals_sym")
    out["fuzzing.draws_per_trial"] = (ratio(tracer.calls_of("fuzzing.sample_pd"), trials), "1")
    out["fuzzing.gram_accept_ratio"] = (ratio(accepted, attempts), "1")
    out["catalog.checks_per_trial"] = (ratio(checks, trials), "1")
    out["linalg.cholesky_per_check"] = (ratio(tracer.calls_of("linalg.cholesky"), checks), "1")
    out["linalg.require_symmetric_per_check"] = (
        ratio(tracer.calls_of("linalg.require_symmetric"), checks), "1")
    if workload.name != "cli":
        out.update({f"cli.{k}": (0.0, "ms") for k in
                    ("interpreter_ms", "numpy_import_ms", "majdet_import_ms")})
    else:
        bare = statistics.median(_probe_s("pass") * 1e3 for _ in range(SETUP_REPS))
        numpy_ms = statistics.median(_probe_s("import numpy") * 1e3 for _ in range(SETUP_REPS))
        cli_ms = statistics.median(_probe_s("import majdet.cli") * 1e3 for _ in range(SETUP_REPS))
        out["cli.interpreter_ms"] = (bare, "ms")
        out["cli.numpy_import_ms"] = (numpy_ms - bare, "ms")
        out["cli.majdet_import_ms"] = (cli_ms - numpy_ms, "ms")
    untraced, with_trace = plain.ops_per_s(), traced.ops_per_s()
    out["trace.untraced_ops_per_s"] = (untraced, "1/s")
    out["trace.traced_ops_per_s"] = (with_trace, "1/s")
    out["trace.overhead_share"] = (ratio(untraced - with_trace, untraced), "share")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the inputs (the self-check runs at a tiny scale)")
    args = parser.parse_args(argv)

    if not (SRC / "majdet" / "__init__.py").is_file():
        _fail(f"no majdet sources under {SRC}; run from a source checkout")
    for name in BLAS_ENV:
        os.environ[name] = BLAS_THREADS
    sys.path.insert(0, str(SRC))

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "loadavg_start": os.getloadavg(),
              "calibration_ms_start": _calibrate()}
    t0 = time.perf_counter()
    try:
        import majdet
    except ImportError as err:
        _fail(f"cannot import majdet from {SRC}: {err}")
    if Path(majdet.__file__).resolve().parent != (SRC / "majdet").resolve():
        _fail(f"majdet imported from {majdet.__file__}, not from {SRC}")
    record["import_in_process_s"] = time.perf_counter() - t0
    record["environment"] = _environment()

    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload = make_workload(args.workload, args.seed, args.scale, work_dir)
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
        run = run_cycles(workload, args.seconds, tracer)
        rss = _peak_rss_mib()

        t_ref = time.perf_counter()
        grade = workload.grade()
        record["reference_s"] = time.perf_counter() - t_ref
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if not grade.margin_errors:
        _fail("no reported margin could be graded; the workload's outputs are missing")

    plain, traced = run.plain, run.traced
    attempted = len(plain.durations) + len(traced.durations)
    unexpected = grade.failed - grade.known_failed
    correct = unexpected == 0
    ref_factor = CAL_REF_MS / min(run.calibration)
    if args.trace:
        spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_spans(spans)
        metrics = per_layer(workload, tracer, plain, traced)
        record["spans_file"] = str(spans.relative_to(ROOT))
        record["spans_dropped"] = tracer.dropped
    else:
        metrics = end_to_end(plain, ref_factor, statistics.median(run.setups), rss,
                             1.0 - grade.failed / attempted, grade.margin_errors)
    errors = grade.margin_errors
    record.update({
        "calibration_ms_best": min(run.calibration),
        "calibration_samples": len(run.calibration),
        "latency_p50_ms": timing(plain, ref_factor)["latency_p50_ms"],
        "ref_factor": ref_factor, "unscaled": timing(plain, 1.0),
        "ops": len(plain.durations), "traced_ops": len(traced.durations), "cycles": run.cycles,
        "inputs": plain.cycle_ends[0], "latency_tail_percentile": TAIL_PERCENTILE,
        "ops_per_s_by_cycle": plain.cycle_ops_per_s(), "setup_s_reps": run.setups,
        "margin_err_max": max(errors), "margin_err_p50": statistics.median(errors),
        "failed_known_defect": grade.known_failed, "failed_unexpected": unexpected,
        "graded_margins": len(grade.margin_errors), "failure_notes": grade.notes,
        "loadavg_end": os.getloadavg(), "calibration_ms_end": _calibrate(),
    })
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": unexpected,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
