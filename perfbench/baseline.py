"""Run the benchmark over several seeds and summarise its spread.

    python3 perfbench/baseline.py --runs 10 [--workload access-iws] [--write]

For each workload this runs `run.py` once per seed (untraced, one process
at a time, `run_seconds` from BENCHMARK.json), then one traced run on the
first seed. It prints each end-to-end metric's median, quartiles and
spread (Q3 - Q1 over the median, from `statistics.quantiles(n=4)`)
against the metric's bound. With `--write` it stores the summary, the
traced per-layer values and the exact counts behind them in
`perfbench/baseline.json`, the reference later changes diff against.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    return {"record": json.loads(lines[-2])["record"], "result": json.loads(lines[-1])}


def summarise(values: list, bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": spread,
        "bound": bound,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    summary: dict = {}
    context = None
    for name in names:
        runs = []
        for seed in seeds:
            started = time.perf_counter()
            out = run_once(name, seed, seconds, 0)
            context = context or out["record"]
            runs.append(out)
            values = {k: round(v["value"], 4) for k, v in out["result"]["metrics"].items()}
            print(
                f"{name} seed {seed} ({time.perf_counter() - started:.0f}s, "
                f"{len(out['record']['rounds'])} rounds, host slowness "
                f"{out['record']['host_slowness']:.3f}): {values}",
                flush=True,
            )
        entry = {"seeds": seeds, "end_to_end": {}}
        for metric, bound in bounds.items():
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            entry["end_to_end"][metric] = summarise(values, bound)
        entry["host_slowness"] = [r["record"]["host_slowness"] for r in runs]
        entry["raw_medians"] = [r["record"]["raw_medians"] for r in runs]
        if not args.no_trace:
            traced = run_once(name, seeds[0], seconds, 1)
            entry["per_layer"] = {
                k: v["value"] for k, v in traced["result"]["metrics"].items()
            }
            bases = traced["record"]["trace_bases"]
            bases.pop("spans")
            entry["trace_bases"] = bases
        summary[name] = entry
        for metric, s in entry["end_to_end"].items():
            flag = "" if s["spread"] <= s["bound"] / 3 else "  <-- above bound/3"
            print(
                f"  {metric:18s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                f"q3 {s['q3']:.6g}  spread {s['spread']:.3f} (bound {s['bound']}){flag}",
                flush=True,
            )
    if args.write:
        baseline = {
            "python": platform.python_version(),
            "nproc": context["nproc"],
            "git_commit": context["git_commit"],
            "run_seconds": seconds,
            "workloads": summary,
        }
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
