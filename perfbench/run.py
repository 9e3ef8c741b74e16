"""eslsim benchmark: four fixed workloads through the public CLI entry
point ``eslsim.cli.main``, each call in a fresh single-process interpreter.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (configs under perfbench/workloads/, reasons in README.md):
  sim-grid        simulate, 18-cell benchmark-grid shape, 40 x 250 slots
  sim-long        simulate, one heavy cell, 2 x 50,000 slots
  verify-shipped  verify, shipped instances, 4 x 5000 coupling seeds
  solve-large     verify, (N, M, cap) = (4, 2, 5), token coupling

Each workload is one closed-loop call by one caller, repeated in fresh
processes until --seconds have been used (at least a workload-specific
minimum of calls), with ESLSIM_WORKERS=1 and every BLAS/OpenMP thread pool
pinned to one thread.  Every call's output is checked (check.py).  The
simulate workloads pass the seed through ``simulate --seed``; the verify
workloads are deterministic (the solver has no randomness and the CLI fixes
coupling seeds to 0..n-1), so they ignore it.

--trace 0 reports the end-to-end metrics; --trace 1 runs untraced calls for
half the time, then one call with tracer.py's wrappers installed, and
reports the per-layer metrics.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

import check
from tracer import layer_metrics, synthesize_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

# workload -> (CLI command, minimum calls per run)
WORKLOADS = {
    "sim-grid": ("simulate", 3),
    "sim-long": ("simulate", 3),
    "verify-shipped": ("verify", 3),
    "solve-large": ("verify", 2),
}
PINNED_ENV = {
    "ESLSIM_WORKERS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
}
SETUP_SAMPLES = 11  # fresh-interpreter set-up samples per untraced run
SEED_STRIDE = 1000  # simulate --seed = seed * stride: episode seeds never overlap
RUN_LIMIT_S = 150.0  # no further call starts if it could end after this


class ChildFailed(RuntimeError):
    """A workload process exited non-zero or printed no report."""


class Bench:
    """Spawns the workload's fresh processes inside one work directory."""

    def __init__(self, workload: str, seed: int, work_dir: Path) -> None:
        self.workload = workload
        self.command, self.min_calls = WORKLOADS[workload]
        self.seed = seed
        self.config = HERE / "workloads" / f"{workload}.yaml"
        self.work_dir = work_dir
        self.env = dict(os.environ, **PINNED_ENV)
        self.started = time.monotonic()
        self.setups: list[float] = []
        self.calls: list[dict] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def spawn(self, cli_args=(), trace_path=None) -> dict:
        cmd = [sys.executable, "-E", "-s", str(CHILD), str(ROOT / "src")]
        if trace_path is not None:
            cmd += ["--trace", str(trace_path)]
        if cli_args:
            cmd += ["--", *cli_args]
        t_spawn = time.monotonic()
        proc = subprocess.run(
            cmd,
            env=self.env,
            cwd=self.work_dir,
            capture_output=True,
            text=True,
            timeout=max(10.0, 175.0 - self.elapsed()),
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise ChildFailed(
                f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
            )
        report = json.loads(lines[-1])
        report["setup_s"] = report["ready"] - t_spawn
        report["elapsed_s"] = time.monotonic() - t_spawn
        return report

    def call(self, trace_path=None) -> tuple[dict, Path]:
        """One workload call; returns its report and output directory."""
        out = self.work_dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        args = [self.command, "--config", str(self.config), "--out", str(out)]
        if self.command == "simulate":
            args += ["--seed", str(self.seed * SEED_STRIDE)]
        return self.spawn(args, trace_path), out

    def slots(self, reference: dict) -> int:
        """Simulated slots per call: cells x episodes x horizon for
        simulate, coupled-run steps (pinned) for verify."""
        if self.command == "verify":
            return reference["step_calls"]
        with open(self.config, encoding="utf-8") as fh:
            cfg = yaml.safe_load(fh)
        cells = len(cfg["robots"]) * len(cfg["alphas"]) * len(cfg["policies"])
        return cells * cfg["episodes"] * cfg["horizon"]


class Checker:
    """Checks every call's output and counts operations."""

    def __init__(self, bench: Bench, reference: dict) -> None:
        self.bench = bench
        self.reference = reference["workloads"][bench.workload]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_rows = None
        if bench.command == "simulate":
            seeds = self.reference["seeds"]
            self.keys = [row[:3] for row in next(iter(seeds.values()))]
            self.pinned = seeds.get(str(bench.seed))
            self.ops = len(self.keys)
        else:
            self.pinned = self.reference
            self.ops = len(self.reference["instances"]) + len(
                self.reference["coupling"]
            )
        self.mode = "reference" if self.pinned is not None else "invariants"

    def record(self, attempted: int, failed: int, problems) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems[:5])

    def crashed(self, reason: str) -> None:
        self.record(self.ops, self.ops, [f"call failed: {reason}"])

    def output(self, out: Path) -> None:
        try:
            if self.bench.command == "verify":
                with open(out / "verify.json", encoding="utf-8") as fh:
                    payload = json.load(fh)
                self.record(*check.check_verify(payload, self.pinned))
                return
            text = (out / "results.csv").read_text(encoding="utf-8")
        except (OSError, ValueError) as exc:
            self.crashed(f"output unreadable: {exc}")
            return
        # without a pinned reference, later calls must repeat the first
        # call's means exactly (same seed, same config)
        want = self.pinned if self.pinned is not None else self.first_rows
        self.record(*check.check_simulate(text, self.keys, want))
        if self.first_rows is None:
            self.first_rows = check.pinned_rows(text)


def run_calls(
    bench: Bench, checker: Checker, budget: float, min_calls: int
) -> list[dict]:
    """Untraced calls until the budget is used, at least min_calls."""
    reports: list[dict] = []
    while True:
        try:
            report, out = bench.call()
        except (ChildFailed, subprocess.TimeoutExpired) as exc:
            checker.crashed(str(exc))
            break
        if report["rc"] != 0:
            checker.crashed(f"eslsim exit code {report['rc']}")
        else:
            checker.output(out)
        reports.append(report)
        bench.calls.append(report)
        print(
            f"call {len(reports)}: wall_s={report['wall_s']:.4f} "
            f"cpu_s={report['cpu_s']:.4f} setup_s={report['setup_s']:.4f} "
            f"peak_rss_mb={report['peak_rss_mb']:.1f}",
            flush=True,
        )
        finish = bench.elapsed() + report["elapsed_s"]
        if finish > RUN_LIMIT_S:
            break
        if len(reports) >= min_calls and finish > budget:
            break
    return reports


def untraced(bench: Bench, checker: Checker, seconds: float) -> dict:
    # half the set-up samples before the calls and half after, so they
    # span the run as the calls do
    setups = bench.setups
    setups.extend(bench.spawn()["setup_s"] for _ in range(SETUP_SAMPLES // 2))
    # leave the trailing samples about the time the leading ones took
    reports = run_calls(bench, checker, seconds - sum(setups), bench.min_calls)
    if not reports:
        raise ChildFailed("no call completed")
    while len(setups) < SETUP_SAMPLES:
        setups.append(bench.spawn()["setup_s"])
    print("setup samples: " + " ".join(f"{s:.4f}" for s in setups))
    walls = [r["wall_s"] for r in reports]
    slots = bench.slots(checker.reference)
    failed_frac = checker.failed / checker.attempted
    print(f"ops_failed_frac={failed_frac} ({checker.failed}/{checker.attempted})")
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "slots_per_s": (statistics.median(slots / w for w in walls), "slots/s"),
        "peak_rss_mb": (
            statistics.median(r["peak_rss_mb"] for r in reports),
            "MB",
        ),
        "setup_s": (statistics.median(setups), "s"),
        "ops_ok_frac": (1.0 - failed_frac, "ratio"),
    }
    return {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in metrics.items()
    }


def traced(bench: Bench, checker: Checker, seconds: float) -> dict:
    reports = run_calls(bench, checker, seconds / 2, 1)
    if not reports:
        raise ChildFailed("no call completed")
    untraced_wall = statistics.median(r["wall_s"] for r in reports)
    trace_path = bench.work_dir / "trace.json"
    report, out = bench.call(trace_path)
    if report["rc"] != 0:
        checker.crashed(f"traced eslsim exit code {report['rc']}")
    else:
        checker.output(out)
    with open(trace_path, encoding="utf-8") as fh:
        data = json.load(fh)
    with open(bench.work_dir / "spans.json", "w", encoding="utf-8") as fh:
        json.dump(synthesize_spans(data["spans"]), fh)
    metrics = layer_metrics(data, report["wall_s"], untraced_wall)
    bench.calls.append(dict(report, traced=True))
    print(
        f"traced call: wall_s={report['wall_s']:.4f} "
        f"untraced median wall_s={untraced_wall:.4f}"
    )
    return metrics


def _version(dist: str):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _git(*args: str):
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_record() -> dict:
    """Machine, versions, source identity and pinned environment."""
    top = _git("rev-parse", "--show-toplevel")
    in_git = top is not None and Path(top).resolve() == ROOT
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "eslsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "PyYAML": _version("PyYAML"),
        "git_sha": _git("rev-parse", "HEAD") if in_git else None,
        "git_dirty": (
            bool(_git("status", "--porcelain", "--untracked-files=no"))
            if in_git else None
        ),
        "src_sha256": digest.hexdigest(),
        "pinned_env": PINNED_ENV,
    }


def _host_loop_ms() -> float:
    """Median of five timings of a fixed pure-Python loop.  The host's speed
    drifts in phases (see README.md); this shows which phase a run saw."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i % 7
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "eslsim" / "cli.py").is_file():
        print(f"eslsim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    reference = check.load_reference()
    broken = check.self_test(reference)
    if broken:
        print("\n".join(broken), file=sys.stderr)
        return 1
    print("self-test: ok (checks reject outputs changed in one printed digit)")

    work_dir = ROOT / ".perfbench" / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, work_dir)
    checker = Checker(bench, reference)
    record = run_record()
    record.update(
        workload=args.workload,
        seed=args.seed,
        seed_used=bench.command == "simulate",
        check_mode=checker.mode,
        trace=args.trace,
        loadavg_start=_loadavg(),
        host_loop_ms_start=_host_loop_ms(),
    )
    print(
        f"workload={args.workload} seed={args.seed} "
        f"seed_used={record['seed_used']} check_mode={checker.mode}",
        flush=True,
    )
    try:
        measure = traced if args.trace else untraced
        metrics = measure(bench, checker, args.seconds)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"workload could not be measured: {exc}", file=sys.stderr)
        return 1
    record["loadavg_end"] = _loadavg()
    record["host_loop_ms_end"] = _host_loop_ms()
    record["problems"] = checker.problems
    record["setup_samples_s"] = bench.setups
    record["calls"] = [
        {key: call[key] for key in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}
        | {"traced": call.get("traced", False)}
        for call in bench.calls
    ]
    with open(work_dir / "record.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print("run_record " + json.dumps(record))
    for line in checker.problems:
        print("problem: " + line)
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
