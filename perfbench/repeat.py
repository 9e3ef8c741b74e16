"""Run the benchmark several times and report each metric's spread.

Usage (from the repository root):
  python3 perfbench/repeat.py --workload NAME [--workload NAME ...]
      [--seeds 0-9] [--seconds 25] [--trace 0|1] [--out FILE]

For every workload it runs ``perfbench/run.py`` once per seed, one run at a
time, and prints for each metric the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread: the distance
between the quartiles as a share of the median.  With --out, every run's
result line and run record, and the summaries, are written to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (
        median, median, median
    )
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "n": len(values),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", default="25")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    report: dict = {}
    for workload in args.workload:
        runs = []
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", args.seconds, "--trace", args.trace,
                ],
                capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            record = [
                json.loads(line.partition(" ")[2])
                for line in lines if line.startswith("run_record ")
            ]
            runs.append({"seed": seed, **result, "record": record[0]})
            print(
                f"{workload} seed {seed}: correct={result['correct']} "
                + " ".join(
                    f"{k}={m['value']:.6g}"
                    for k, m in result["metrics"].items()
                    if m["value"] is not None
                )[:400],
                flush=True,
            )
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            if None in values:
                continue
            metrics[name] = dict(summary(values), unit=first["unit"])
        report[workload] = {"runs": runs, "summary": metrics}
        for name, s in metrics.items():
            print(
                f"  {workload} {name}: median={s['median']:.6g} "
                f"q1={s['q1']:.6g} q3={s['q3']:.6g} spread={s['spread']:.4f}"
            )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
