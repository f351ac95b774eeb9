"""Measure a trajectory point: every workload over a list of seeds.

    python3 bench/baseline.py --seeds 1-10 --seconds 20 --out bench/baseline.json

Runs `bench/run.py` once per workload and seed with ``--trace 0`` (seeds
outer, so drift of the machine's speed spreads over all workloads), then
once per workload with ``--trace 1`` on the first seed. Each run's last two
stdout lines are kept under ``bench/out/runs/``. The summary gives, per
workload and end-to-end metric, the median, the quartiles and the spread
(q3 - q1) / median, with quartiles from ``statistics.quantiles(v, n=4)``;
it exits with code 1 if a spread exceeds a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS = BENCH_DIR / "out" / "runs"


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    record, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
    (RUNS / f"{workload}-{seed}-trace{trace}.json").write_text(
        json.dumps({"record": record["record"], "result": result}) + "\n")
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks: {result}")
    return {"record": record["record"], "result": result}


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--held-out-seed", type=int, default=4242)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--commit", default="", help="the program commit measured, for the record")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    RUNS.mkdir(parents=True, exist_ok=True)

    runs = {w: [] for w in workloads}
    for seed in args.seeds:
        for workload in workloads:
            runs[workload].append(_run(workload, seed, seconds, 0))
            print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)

    over_third = []
    end_to_end = {}
    for workload, done in runs.items():
        rows = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            rows[name] = _summary([r["result"]["metrics"][name]["value"] for r in done])
            rows[name]["unit"] = metric["unit"]
            if name != "setup_s" and rows[name]["spread"] > metric["bound"] / 3:
                over_third.append(f"{workload}/{name}: {rows[name]['spread']:.3f}")
        records = [r["record"] for r in done]
        rows["_run"] = {
            "attempted": [r["result"]["attempted"] for r in done],
            "failed_known_defect": [rec["failed_known_defect"] for rec in records],
            "cycles": [rec["cycles"] for rec in records],
            "calibration_ms_best": [rec["calibration_ms_best"] for rec in records],
            "margin_err_max": [rec["margin_err_max"] for rec in records],
            "reference_s_median": statistics.median(rec["reference_s"] for rec in records),
        }
        end_to_end[workload] = rows

    per_layer = {w: {name: m["value"] for name, m in
                     _run(w, args.seeds[0], seconds, 1)["result"]["metrics"].items()}
                 for w in workloads}
    summary = {
        "about": ("Trajectory point: medians, quartiles and spread of each end-to-end "
                  "metric over the listed seeds, one run per seed, and the per-layer "
                  "metrics of one traced run on the first seed. Later claims must also "
                  "hold on held_out_seed, which was not run while the benchmark was tuned."),
        "program_commit": args.commit,
        "run_seconds": seconds,
        "seeds": args.seeds,
        "held_out_seed": args.held_out_seed,
        "environment": runs[workloads[0]][0]["record"]["environment"],
        "end_to_end": end_to_end,
        f"per_layer_seed_{args.seeds[0]}": per_layer,
    }
    text = json.dumps(summary, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    for workload, rows in end_to_end.items():
        print(workload, {k: round(v["spread"], 3) for k, v in rows.items() if k != "_run"})
    if over_third:
        print("spread above a third of the bound: " + ", ".join(over_third))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
