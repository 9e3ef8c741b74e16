"""Pin the output references that check.py compares against.

Usage (from the repository root): python3 perfbench/pin.py [--seeds K]

Runs each simulate workload untraced at benchmark seeds 0..K-1 and keeps
the means of every results.csv row as printed; runs each verify workload
once untraced (state counts, coupling means) and once traced (the number
of coupled-run steps, the slot count behind slots_per_s).  Writes
perfbench/reference.json.  Rerun only when a change is meant to alter
results, and say so.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import check
from run import ROOT, WORKLOADS, Bench
from tracer import layer_metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=20)
    args = parser.parse_args(argv)
    workloads: dict = {}
    samples: dict = {}
    for name, (command, _) in WORKLOADS.items():
        work_dir = ROOT / ".perfbench" / f"pin-{name}"
        shutil.rmtree(work_dir, ignore_errors=True)
        work_dir.mkdir(parents=True)
        if command == "simulate":
            seeds = {}
            for seed in range(args.seeds):
                report, out = Bench(name, seed, work_dir).call()
                if report["rc"] != 0:
                    sys.exit(f"{name} seed {seed}: exit {report['rc']}")
                text = (out / "results.csv").read_text(encoding="utf-8")
                seeds[str(seed)] = check.pinned_rows(text)
                if "simulate" not in samples:
                    samples["simulate"] = {
                        "workload": name,
                        "seed": str(seed),
                        "results_csv": text,
                    }
                print(f"{name} seed {seed}: {len(seeds[str(seed)])} rows")
            workloads[name] = {"seeds": seeds}
            continue
        bench = Bench(name, 0, work_dir)
        report, out = bench.call(work_dir / "trace.json")
        if report["rc"] != 0:
            sys.exit(f"{name}: exit {report['rc']}")
        with open(out / "verify.json", encoding="utf-8") as fh:
            payload = json.load(fh)
        with open(work_dir / "trace.json", encoding="utf-8") as fh:
            data = json.load(fh)
        steps = layer_metrics(data, 1.0, 1.0)["model.step_calls"]["value"]
        workloads[name] = {
            "instances": [{"states": i["states"]} for i in payload["instances"]],
            "coupling": [
                {
                    "scenario": c["scenario"],
                    "mean_discounted_diff": repr(c["mean_discounted_diff"]),
                }
                for c in payload["coupling"]
            ],
            "step_calls": steps,
        }
        if "verify" not in samples:
            payload.pop("config_path")
            samples["verify"] = {"workload": name, "verify_json": payload}
        print(f"{name}: {workloads[name]}")
    with open(check.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"workloads": workloads, "samples": samples}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
