"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/repeat.py --workload NAME --seeds 1-10 [--trace 0|1]
        [--seconds S] [--out FILE.jsonl]

Runs ``run.py`` once per seed, one run at a time, and prints for every
metric the median and the quartile spread (Q3 - Q1) / median over the runs,
with quartiles as ``statistics.quantiles(values, n=4)`` gives them.  With
``--out`` it appends one JSON line per run: the details line and the result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    values = {}
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=200)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        details, result = json.loads(lines[-2]), json.loads(lines[-1])
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(json.dumps({**details, "result": result}) + "\n")
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.6g}"
                         for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    if len(next(iter(values.values()))) >= 2:
        for name, vals in values.items():
            print(f"{name}: median {statistics.median(vals):.6g} "
                  f"spread {spread(vals):.4f} (n={len(vals)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
