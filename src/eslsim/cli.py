"""Command-line front end: run experiment grids, audit the serve-longest
structure on capped instances, and tabulate the patrol dwell objective.

Subcommands:
  simulate --config PATH --out DIR [--seed INT] [--beta REAL]
  verify   --config PATH --out DIR
  dwell    --p REAL --n INT [--max INT]

Configs are YAML (key-value with nested sections); schemas are documented
in the README and the shipped files under configs/; unknown keys are
rejected.  The ESLSIM_WORKERS environment variable sets how many worker
processes simulate runs its lane groups in (default 1).  All emitted
numbers carry 6 significant digits and output is deterministic: rerunning
simulate with the same config, seed and build yields a byte-identical
results.csv.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from datetime import datetime, timezone

import yaml

from . import __version__
from .coupling import (
    SCENARIO_NAMES,
    check_gap_pattern,
    coupled_run,
    make_scenario,
)
from .evaluator import (
    PRNG_ID,
    InsufficientReplicationsError,
    grid_dwell_metadata,
    make_grid,
    run_grid,
)
from .mdp import (
    ConvergenceError,
    StateSpaceTooLargeError,
    build_truncated_mdp,
    check_esl_optimality,
    count_states,
    value_iteration,
)
from .model import ModelConfig
from .policies import (
    POLICY_NAMES,
    dwell_metadata,
    dwell_objective,
    esl_decide,
    switch_to_shortest_decide,
)

RESULT_COLUMNS = (
    "alpha",
    "p",
    "policy",
    "discounted_cost_mean",
    "discounted_cost_ci",
    "mean_q_mean",
    "mean_q_ci",
    "serve",
    "serve_ci",
    "switch",
    "switch_ci",
    "idle",
    "idle_ci",
)

SIMULATE_KEYS = (
    "locations",
    "robots",
    "alphas",
    "policies",
    "horizon",
    "episodes",
    "beta",
    "base_seed",
    "cyclic",
)
CYCLIC_KEYS = ("dwell", "search_max")
VERIFY_KEYS = ("rule", "instances", "coupling")
INSTANCE_KEYS = (
    "locations",
    "robots",
    "cap",
    "p",
    "beta",
    "tol",
    "margin",
    "tie_tol",
)
COUPLING_KEYS = ("scenarios", "seeds", "horizon", "p", "beta")

CHECK_RULES = {
    "esl": esl_decide,
    "switch-shortest": switch_to_shortest_decide,
}


class ConfigError(Exception):
    """Config problem with a file- and key-anchored message."""


def _fmt(value) -> str:
    """Fixed 6-significant-digit rendering for CSV cells."""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _round6(value):
    """Round floats (recursively) to 6 significant digits for JSON."""
    if isinstance(value, float):
        return float(f"{value:.6g}")
    if isinstance(value, dict):
        return {k: _round6(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round6(v) for v in value]
    return value


def _load_yaml(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{path}: config file not found")
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1})" if mark is not None else ""
        raise ConfigError(f"{path}: invalid YAML{where}: {exc}")
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return data


def _need(cfg: dict, path: str, key: str, kind, default=None, where=""):
    """cfg[key] checked against kind, or default when the key is absent;
    where prefixes the key in messages (e.g. "instances[0].")."""
    if key not in cfg:
        if default is not None:
            return default
        raise ConfigError(f"{path}: {where}{key}: missing required key")
    value = cfg[key]
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(
            f"{path}: {where}{key}: expected "
            f"{getattr(kind, '__name__', kind)}"
        )
    return value


def _known_keys(cfg: dict, path: str, allowed, where="") -> None:
    """Reject any key of cfg not in allowed, so a misspelt key fails
    instead of silently leaving its default in force."""
    for key in cfg:
        if key not in allowed:
            raise ConfigError(f"{path}: {where}{key}: unknown key")


def _distinct(values: list, path: str, key: str) -> None:
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"{path}: {key}: duplicate entry {value!r}")


def _whole(value) -> bool:
    """An integer of at least 1; bools are not integers here."""
    return type(value) is int and value >= 1


def _open_unit(value) -> bool:
    """A float strictly inside (0, 1); YAML reads every such number as a
    float, and no integer or bool lies there."""
    return type(value) is float and 0.0 < value < 1.0


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _workers() -> int:
    raw = os.environ.get("ESLSIM_WORKERS", "1")
    try:
        w = int(raw)
    except ValueError:
        raise ConfigError(f"ESLSIM_WORKERS: not an integer: {raw!r}")
    if w < 1:
        raise ConfigError("ESLSIM_WORKERS: must be at least 1")
    return w


def cmd_simulate(args) -> int:
    path = args.config
    cfg = _load_yaml(path)
    _known_keys(cfg, path, SIMULATE_KEYS)
    locations = _need(cfg, path, "locations", int, 6)
    robots = _need(cfg, path, "robots", list, [2, 3])
    alphas = _need(cfg, path, "alphas", list, [0.2, 0.5, 0.8])
    policies = _need(cfg, path, "policies", list, list(POLICY_NAMES))
    horizon = _need(cfg, path, "horizon", int, 10000)
    episodes = _need(cfg, path, "episodes", int, 100)
    beta = _need(cfg, path, "beta", float, 0.99)
    base_seed = _need(cfg, path, "base_seed", int, 20260801)
    cyclic_cfg = cfg.get("cyclic", {})
    if not isinstance(cyclic_cfg, dict):
        raise ConfigError(f"{path}: cyclic: expected a mapping")
    _known_keys(cyclic_cfg, path, CYCLIC_KEYS, "cyclic.")
    dwell = cyclic_cfg.get("dwell", "tuned")
    if dwell not in ("tuned", "scan") and not _whole(dwell):
        raise ConfigError(
            f"{path}: cyclic.dwell: expected tuned, scan or a whole number "
            f"of slots >= 1, got {dwell!r}"
        )
    search_max = cyclic_cfg.get("search_max", 1000)
    if not _whole(search_max):
        raise ConfigError(
            f"{path}: cyclic.search_max: expected an integer >= 1, "
            f"got {search_max!r}"
        )

    if args.seed is not None:
        base_seed = args.seed
    if args.beta is not None:
        beta = args.beta

    if locations < 1:
        raise ConfigError(f"{path}: locations: must be at least 1")
    for m in robots:
        if not isinstance(m, int) or not 1 <= m <= locations:
            raise ConfigError(f"{path}: robots: bad robot count {m!r}")
    for a in alphas:
        if not isinstance(a, (int, float)) or not 0 <= a <= 1:
            raise ConfigError(f"{path}: alphas: bad load factor {a!r}")
    for name in policies:
        if name not in POLICY_NAMES:
            raise ConfigError(f"{path}: policies: unknown policy {name!r}")
    for key, values in (
        ("robots", robots),
        ("alphas", alphas),
        ("policies", policies),
    ):
        _distinct(values, path, key)
    if horizon < 1:
        raise ConfigError(f"{path}: horizon: must be at least 1")
    if episodes < 2:
        raise ConfigError(
            f"{path}: episodes: insufficient replications (need at least 2)"
        )
    if not 0.0 < beta < 1.0:
        raise ConfigError(f"{path}: beta: must lie strictly in (0, 1)")

    workers = _workers()
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.monotonic()
    grid = make_grid(
        num_locations=locations,
        robots=robots,
        alphas=[float(a) for a in alphas],
        policies=policies,
        horizon=horizon,
        episodes=episodes,
        discount=beta,
        base_seed=base_seed,
        dwell=dwell,
        search_max=search_max,
    )
    results = run_grid(grid, workers=workers)
    elapsed = time.monotonic() - t0

    out_dir = args.out
    fig_dir = os.path.join(out_dir, "figdata")
    os.makedirs(fig_dir, exist_ok=True)

    _write_csv(
        os.path.join(out_dir, "results.csv"),
        RESULT_COLUMNS,
        [[_fmt(getattr(r, col)) for col in RESULT_COLUMNS] for r in results],
    )

    rows = []
    for res in results:
        row = {col: _round6(getattr(res, col)) for col in RESULT_COLUMNS}
        row["num_locations"] = res.num_locations
        row["num_robots"] = res.num_robots
        row["episodes"] = res.episodes
        rows.append(row)
    manifest = {
        "config_path": os.path.abspath(path),
        "config": cfg,
        "overrides": {"seed": args.seed, "beta": args.beta},
        "version": __version__,
        "prng": PRNG_ID,
        "workers": workers,
        "started": started,
        "elapsed_seconds": round(elapsed, 3),
        "experiments": [
            {
                "num_locations": c.model.num_locations,
                "num_robots": c.model.num_robots,
                "alpha": c.alpha,
                "p": _round6(c.symmetric_p),
                "policy": c.policy,
                "horizon": c.horizon,
                "episodes": c.episodes,
                "base_seed": c.base_seed,
                "beta": c.model.discount,
                "policy_params": c.policy_params,
            }
            for c in grid
        ],
        "dwell_metadata": _round6(grid_dwell_metadata(grid, search_max)),
    }
    with open(
        os.path.join(out_dir, "results.json"), "w", encoding="utf-8"
    ) as fh:
        json.dump({"results": rows, "manifest": manifest}, fh, indent=2)
        fh.write("\n")

    _write_figdata(fig_dir, results, policies)
    return 0


def _write_figdata(fig_dir: str, results, policies) -> None:
    """One CSV per figure panel: grouped bars over load factors.

    The cost and queue panels hold one row per load with a mean and CI
    column pair per policy; the fractions panel one row per load and policy.
    """
    fractions = ("serve", "serve_ci", "switch", "switch_ci", "idle", "idle_ci")
    for m in sorted({res.num_robots for res in results}):
        cell = {(r.alpha, r.policy): r for r in results if r.num_robots == m}
        alphas = sorted({alpha for alpha, _ in cell})

        def row(alpha, names, cols):
            return [
                _fmt(getattr(cell[alpha, name], col))
                for name in names
                for col in cols
            ]

        for metric, mean_attr, ci_attr in (
            ("discounted_cost", "discounted_cost_mean", "discounted_cost_ci"),
            ("mean_queue", "mean_q_mean", "mean_q_ci"),
        ):
            _write_csv(
                os.path.join(fig_dir, f"{metric}_m{m}.csv"),
                ["alpha"]
                + [f"{name}_{s}" for name in policies for s in ("mean", "ci")],
                [
                    [_fmt(alpha)] + row(alpha, policies, (mean_attr, ci_attr))
                    for alpha in alphas
                ],
            )
        _write_csv(
            os.path.join(fig_dir, f"fractions_m{m}.csv"),
            ("alpha", "policy") + fractions,
            [
                [_fmt(alpha), name] + row(alpha, (name,), fractions)
                for alpha in alphas
                for name in policies
            ],
        )


def _violation_record(violation) -> dict:
    """JSON form of a failed optimality comparison; 1-based labels."""
    state = violation.state
    rec = {
        "robots": [loc + 1 for loc in state.robots],
        "queues": list(state.queues),
        "kind": violation.kind,
        "q_gap": _round6(violation.gap) if math.isfinite(violation.gap) else None,
    }
    if violation.robot is not None:
        rec["robot"] = violation.robot + 1
    if violation.alternative is not None:
        rec["alternative"] = [
            {"kind": act.kind, "dest": None if act.dest is None else act.dest + 1}
            for act in violation.alternative
        ]
    return rec


def _instance(inst, path: str, i: int):
    """One verify instance, checked before anything is solved: returns
    (model, cap, tol, margin, tie_tol)."""
    where = f"instances[{i}]."
    if not isinstance(inst, dict):
        raise ConfigError(f"{path}: instances[{i}]: expected a mapping")
    _known_keys(inst, path, INSTANCE_KEYS, where)
    locations = _need(inst, path, "locations", int, where=where)
    robots = _need(inst, path, "robots", int, where=where)
    cap = _need(inst, path, "cap", int, where=where)
    p = _need(inst, path, "p", float, where=where)
    beta = _need(inst, path, "beta", float, 0.9, where)
    tol = _need(inst, path, "tol", float, 1e-10, where)
    margin = _need(inst, path, "margin", int, 3, where)
    tie_tol = _need(inst, path, "tie_tol", float, 1e-9, where)
    for key, bad, want in (
        ("cap", cap < 1, "must be at least 1"),
        ("margin", not 1 <= margin < cap, "must satisfy 1 <= margin < cap"),
        ("tol", tol <= 0.0, "must be positive"),
        ("tie_tol", tie_tol < 0.0, "must be non-negative"),
    ):
        if bad:
            raise ConfigError(f"{path}: {where}{key}: {want}")
    try:
        model = ModelConfig.symmetric(locations, robots, p, beta)
    except ValueError as exc:
        raise ConfigError(f"{path}: instances[{i}]: {exc}")
    return model, cap, tol, margin, tie_tol


def cmd_verify(args) -> int:
    path = args.config
    cfg = _load_yaml(path)
    _known_keys(cfg, path, VERIFY_KEYS)
    instances = _need(cfg, path, "instances", list)
    rule_name = cfg.get("rule", "esl")
    if rule_name not in CHECK_RULES:
        raise ConfigError(f"{path}: rule: unknown decision rule {rule_name!r}")
    rule = CHECK_RULES[rule_name]
    coupling_cfg = cfg.get("coupling", {})
    if not isinstance(coupling_cfg, dict):
        raise ConfigError(f"{path}: coupling: expected a mapping")
    _known_keys(coupling_cfg, path, COUPLING_KEYS, "coupling.")
    scenario_names = coupling_cfg.get("scenarios", list(SCENARIO_NAMES))
    coupling_seeds = coupling_cfg.get("seeds", 200)
    coupling_horizon = coupling_cfg.get("horizon", 2000)
    coupling_p = coupling_cfg.get("p", 0.1)
    coupling_beta = coupling_cfg.get("beta", 0.9)
    for name in scenario_names:
        if name not in SCENARIO_NAMES:
            raise ConfigError(
                f"{path}: coupling.scenarios: unknown scenario {name!r}"
            )
    for key, value, valid, want in (
        ("seeds", coupling_seeds, _whole, "an integer >= 1"),
        ("horizon", coupling_horizon, _whole, "an integer >= 1"),
        ("p", coupling_p, _open_unit, "a number strictly in (0, 1)"),
        ("beta", coupling_beta, _open_unit, "a number strictly in (0, 1)"),
    ):
        if not valid(value):
            raise ConfigError(
                f"{path}: coupling.{key}: expected {want}, got {value!r}"
            )
    if not instances and not scenario_names:
        raise ConfigError(
            f"{path}: nothing to verify: no instances and no coupling "
            "scenarios"
        )
    specs = [_instance(inst, path, i) for i, inst in enumerate(instances)]

    ok = True
    instance_reports = []
    for i, (model, cap, tol, margin, tie_tol) in enumerate(specs):
        key = f"instances[{i}]"
        locations, robots = model.num_locations, model.num_robots
        p, beta = model.arrival_probs[0], model.discount
        try:
            mdp = build_truncated_mdp(model, cap)
        except StateSpaceTooLargeError:
            print(f"{path}: {key}: state space too large", file=sys.stderr)
            return 3
        try:
            table = value_iteration(mdp, tol)
        except ConvergenceError as exc:
            raise ConfigError(f"{path}: {key}.tol: {exc}")
        try:
            violations = check_esl_optimality(
                mdp, table, margin, tie_tol=tie_tol, rule=rule
            )
        except ValueError as exc:
            raise ConfigError(f"{path}: {key}: {exc}")
        if violations:
            ok = False
        instance_reports.append(
            {
                "locations": locations,
                "robots": robots,
                "cap": cap,
                "p": _round6(p),
                "beta": beta,
                "tol": tol,
                "margin": margin,
                "tie_tol": tie_tol,
                "rule": rule_name,
                "states": count_states(model, cap),
                "iterations": table.iterations,
                "residual": _round6(table.residual),
                "violation_count": len(violations),
                "violations": [
                    _violation_record(v) for v in violations[:200]
                ],
            }
        )

    coupling_reports = []
    for name in scenario_names:
        scenario = make_scenario(name, p=coupling_p, discount=coupling_beta)
        failures = 0
        uncoupled = 0
        first_problems: list[str] = []
        diffs = []
        for seed in range(coupling_seeds):
            report = coupled_run(scenario, coupling_horizon, seed)
            problems = check_gap_pattern(report)
            if problems:
                failures += 1
                if not report.coupled:
                    uncoupled += 1
                if len(first_problems) < 5:
                    first_problems.extend(problems[:2])
            diffs.append(report.discounted_diff)
        if failures:
            ok = False
        coupling_reports.append(
            {
                "scenario": name,
                "seeds": coupling_seeds,
                "horizon": coupling_horizon,
                "p": coupling_p,
                "beta": coupling_beta,
                "pattern_failures": failures,
                "uncoupled_runs": uncoupled,
                "sample_problems": first_problems,
                "mean_discounted_diff": _round6(
                    sum(diffs) / len(diffs) if diffs else float("nan")
                ),
                "min_discounted_diff": _round6(min(diffs)) if diffs else None,
            }
        )

    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "ok": ok,
        "version": __version__,
        "prng": PRNG_ID,
        "config_path": os.path.abspath(path),
        "rule": rule_name,
        "instances": instance_reports,
        "coupling": coupling_reports,
    }
    with open(
        os.path.join(out_dir, "verify.json"), "w", encoding="utf-8"
    ) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    if not ok:
        total = sum(r["violation_count"] for r in instance_reports)
        fails = sum(r["pattern_failures"] for r in coupling_reports)
        print(
            f"verify failed: {total} optimality violations, "
            f"{fails} coupling pattern failures",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_dwell(args) -> int:
    p = args.p
    n = args.n
    search_max = args.max
    if not 0.0 < p < 1.0:
        print("dwell: degenerate rate: p must lie strictly in (0, 1)",
              file=sys.stderr)
        return 2
    if n < 1:
        print("dwell: n must be at least 1", file=sys.stderr)
        return 2
    if search_max < 1:
        print("dwell: --max must be at least 1", file=sys.stderr)
        return 2
    print(f"# p={_fmt(p)} n={n} objective f(n*t) per integer dwell t")
    print("t,f")
    for t in range(1, search_max + 1):
        print(f"{t},{_fmt(dwell_objective(p, n, float(n * t)))}")
    meta = {k: _fmt(v) for k, v in dwell_metadata(p, n, search_max).items()}
    print(
        "# scan argmin: t*={scan_t} f={scan_objective}\n"
        "# continuous argmin: u*={continuous_u} floor={floor_t}"
        .format_map(meta)
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eslsim",
        description=(
            "simulate robot-to-queue allocation policies, audit the "
            "serve-longest structure exactly, and tune patrol dwell"
        ),
        epilog="ESLSIM_WORKERS sets the simulate worker-process count.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run an experiment grid")
    sim.add_argument("--config", required=True, help="YAML grid config")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--seed", type=int, default=None,
                     help="override the config base seed")
    sim.add_argument("--beta", type=float, default=None,
                     help="override the config discount factor")
    sim.set_defaults(func=cmd_simulate)

    ver = sub.add_parser(
        "verify", help="exact optimality audit plus paired-run patterns"
    )
    ver.add_argument("--config", required=True, help="YAML verify config")
    ver.add_argument("--out", required=True, help="output directory")
    ver.set_defaults(func=cmd_verify)

    dw = sub.add_parser("dwell", help="tabulate the patrol dwell objective")
    dw.add_argument("--p", type=float, required=True,
                    help="per-slot arrival probability")
    dw.add_argument("--n", type=int, required=True,
                    help="locations per robot")
    dw.add_argument("--max", type=int, default=1000,
                    help="largest dwell to scan (default 1000)")
    dw.set_defaults(func=cmd_dwell)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except InsufficientReplicationsError:
        print("insufficient replications", file=sys.stderr)
        return 2
    except StateSpaceTooLargeError:
        print("state space too large", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
