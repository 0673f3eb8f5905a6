"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads a,b] [--trace 0|1] [--write perfbench/baseline.json]

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time,
and prints for every metric its median, first and third quartile
(``statistics.quantiles(values, n=4)``) and spread, the distance between
the quartiles as a share of the median, next to the metric's bound from
``BENCHMARK.json``.  ``--write`` merges the summary into a baseline file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else None, "n": len(values)}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--write", default=None, help="baseline JSON file to merge the summary into")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", file=sys.stderr, flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            metrics[name] = summarise([r["metrics"][name]["value"] for r in runs])
            metrics[name]["unit"] = runs[0]["metrics"][name]["unit"]
        record_path = os.path.join(ROOT, ".perfbench", f"{workload}-seed{parse_seeds(args.seeds)[0]}"
                                   f"-trace{args.trace}-full.json")
        with open(record_path) as fh:
            facts = json.load(fh)["facts"]
        summary[workload] = {"seeds": args.seeds, "runs": len(runs), "facts_first_run": facts,
                             "all_correct": all(r["correct"] for r in runs),
                             "attempted": sum(r["attempted"] for r in runs),
                             "failed": sum(r["failed"] for r in runs), "metrics": metrics}
        for name, s in metrics.items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.3f}"
            bound = bounds.get(name)
            print(f"{workload:16} {name:34} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {spread:>6} bound {bound if bound is not None else '-'}",
                  flush=True)

    if args.write:
        baseline = {}
        if os.path.exists(args.write):
            with open(args.write) as fh:
                baseline = json.load(fh)
        section = baseline.setdefault("end_to_end" if args.trace == 0 else "per_layer", {})
        section.update(summary)
        with open(args.write, "w") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
