"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 bench/sets.py --label A --seeds 1-10 [--workloads ltd-large,count]
                          [--seconds 20] [--trace 0]

Runs ``bench/run.py`` once per (workload, seed), one run at a time, writes
every result to ``bench/out/sets-<label>.json`` and prints, per workload and
metric, the median, the quartiles (``statistics.quantiles(n=4)``) and the
inter-quartile spread as a share of the median. These are the figures
recorded in bench/README.md.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("ltd-large", "ltd-corpus", "count", "cli-cold")


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seconds", default=str(
        json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]))
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    runs = {}
    for workload in args.workloads.split(","):
        for seed in seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds,
                 "--trace", args.trace],
                cwd=BENCH.parent, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            runs.setdefault(workload, []).append(dict(result, seed=seed))
            print(workload, seed, json.dumps(
                {k: round(v["value"], 4) for k, v in result["metrics"].items()}),
                flush=True)
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / f"sets-{args.label}.json").write_text(json.dumps(runs, indent=1) + "\n")
    for workload, results in runs.items():
        fails = {(r["failed"], r["attempted"]) for r in results}
        print(f"\n{workload}: correct={all(r['correct'] for r in results)} "
              f"failed/attempted={sorted(fails)}")
        print("| metric | median | q1 | q3 | spread |")
        print("|---|---|---|---|---|")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            print(f"| {name} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                  f"{(q3 - q1) / med if med else 0:.3f} |")


if __name__ == "__main__":
    main()
