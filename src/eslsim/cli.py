"""Command-line front end: run experiment grids, audit the serve-longest
structure on capped instances, and tabulate the patrol dwell objective.

Subcommands:
  simulate --config PATH --out DIR [--seed INT] [--beta REAL]
  verify   --config PATH --out DIR
  dwell    --p REAL --n INT [--max INT]

Configs are YAML (key-value with nested sections).  Every key's type,
range and default is one row of the tables below (SIMULATE, VERIFY and
the sections they nest; the README lists them); unknown keys are
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
from typing import NamedTuple

import yaml

from . import __version__
from .coupling import (
    SCENARIO_NAMES,
    check_gap_pattern,
    coupled_run,  # noqa: F401  bound here for perfbench/tracer.py
    coupled_runs,
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
    DEFAULT_STATE_BUDGET,
    ConvergenceError,
    StateSpaceTooLargeError,
    build_truncated_mdp,
    check_esl_optimality,
    count_orbits,
    count_states,
    min_tolerance,
    monotonicity_violations,
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

CHECK_RULES = {
    "esl": esl_decide,
    "switch-shortest": switch_to_shortest_decide,
}


class ConfigError(Exception):
    """Config problem with a file- and key-anchored message."""


REQUIRED = object()  # the default of a key that must be given


def _at_least(lo: int):
    return (lambda v: v >= lo), f"an integer >= {lo}"


def _one_of(names):
    return (lambda v: v in names), "one of " + ", ".join(names)


ANY = (lambda v: True, "")
UNIT = (lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")
OPEN_UNIT = (lambda v: 0.0 < v < 1.0, "a number strictly in (0, 1)")
POSITIVE = (lambda v: 0.0 < v < math.inf, "a finite number > 0")
NON_NEGATIVE = (lambda v: 0.0 <= v < math.inf, "a finite number >= 0")
DWELL_RULE = (
    lambda v: v in ("tuned", "scan") or (type(v) is int and v >= 1),
    "tuned, scan or an integer >= 1",
)


class Key(NamedTuple):
    """One row of a config table.  kind is the type of the value (of each
    entry, for a list key): int, float (an int is taken as a float), str,
    object (any type; allowed decides), or a table of Keys for a nested
    mapping.  allowed is (test, description) of the values it may take.
    A list key has min_items set and holds distinct entries, at least
    min_items of them."""

    name: str
    kind: object
    default: object = REQUIRED
    allowed: tuple = ANY
    min_items: int | None = None


CYCLIC = (
    Key("dwell", object, "tuned", DWELL_RULE),
    Key("search_max", int, 1000, _at_least(1)),
)
SIMULATE = (
    Key("locations", int, 6, _at_least(1)),
    Key("robots", int, [2, 3], _at_least(1), min_items=1),
    Key("alphas", float, [0.2, 0.5, 0.8], UNIT, min_items=1),
    Key("policies", str, list(POLICY_NAMES), _one_of(POLICY_NAMES),
        min_items=1),
    Key("horizon", int, 10000, _at_least(1)),
    Key("episodes", int, 100,
        (lambda v: v >= 2, "an integer >= 2 (insufficient replications)")),
    Key("beta", float, 0.99, OPEN_UNIT),
    Key("base_seed", int, 20260801, _at_least(0)),
    Key("cyclic", CYCLIC, {}),
)
INSTANCE = (
    Key("locations", int, REQUIRED, _at_least(1)),
    Key("robots", int, REQUIRED, _at_least(1)),
    Key("cap", int, REQUIRED, _at_least(1)),
    Key("p", float, REQUIRED, OPEN_UNIT),
    Key("beta", float, 0.9, OPEN_UNIT),
    Key("tol", float, 1e-10, POSITIVE),
    Key("margin", int, 3, _at_least(1)),
    Key("tie_tol", float, 1e-9, NON_NEGATIVE),
)
COUPLING = (
    Key("scenarios", str, list(SCENARIO_NAMES), _one_of(SCENARIO_NAMES),
        min_items=0),
    Key("seeds", int, 200, _at_least(1)),
    Key("horizon", int, 2000, _at_least(1)),
    Key("p", float, 0.1, OPEN_UNIT),
    Key("beta", float, 0.9, OPEN_UNIT),
)
VERIFY = (
    Key("rule", str, "esl", _one_of(CHECK_RULES)),
    Key("instances", INSTANCE, REQUIRED, min_items=0),
    Key("coupling", COUPLING, {}),
)


def _read(cfg: dict, table, path: str, where: str = "") -> dict:
    """cfg checked against table: every key's value, defaults filled in.
    Each unknown, missing, mistyped, out-of-range or repeated value raises
    ConfigError naming the file and the key (where prefixes the key, e.g.
    "instances[0].")."""
    names = [key.name for key in table]
    for name in cfg:
        if name not in names:
            raise ConfigError(f"{path}: {where}{name}: unknown key")
    out = {}
    for key in table:
        at = where + key.name
        if key.name not in cfg and key.default is REQUIRED:
            raise ConfigError(f"{path}: {at}: missing required key")
        value = cfg.get(key.name, key.default)
        if key.min_items is None:
            out[key.name] = _value(value, key, path, at)
            continue
        if type(value) is not list or len(value) < key.min_items:
            kind = "a non-empty list" if key.min_items else "a list"
            raise ConfigError(f"{path}: {at}: expected {kind}, got {value!r}")
        items = [
            _value(v, key, path, f"{at}[{i}]") for i, v in enumerate(value)
        ]
        for i, item in enumerate(items):
            if item in items[:i]:
                raise ConfigError(f"{path}: {at}: duplicate entry {item!r}")
        out[key.name] = items
    return out


def _value(value, key: Key, path: str, at: str):
    """One value, or one list entry, checked against its key's row."""
    if isinstance(key.kind, tuple):
        if type(value) is not dict:
            raise ConfigError(
                f"{path}: {at}: expected a mapping, got {value!r}"
            )
        return _read(value, key.kind, path, at + ".")
    if key.kind is float and type(value) is int:
        value = float(value)
    if key.kind is not object and type(value) is not key.kind:
        raise ConfigError(
            f"{path}: {at}: expected {key.kind.__name__}, got {value!r}"
        )
    test, want = key.allowed
    if not test(value):
        raise ConfigError(f"{path}: {at}: expected {want}, got {value!r}")
    return value


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


def read_simulate(cfg: dict, path: str, seed=None, beta=None) -> dict:
    """The simulate settings of cfg with the --seed / --beta overrides in
    force, checked by the SIMULATE table and the cross-key rules."""
    raw = dict(cfg)
    for key, value in (("base_seed", seed), ("beta", beta)):
        if value is not None:
            raw[key] = value
    sim = _read(raw, SIMULATE, path)
    n = sim["locations"]
    for m in sim["robots"]:
        if m > n:
            raise ConfigError(
                f"{path}: robots: bad robot count {m!r} for {n} locations"
            )
        for a in sim["alphas"]:
            if "cyclic" in sim["policies"] and not 0.0 < a * m / n < 1.0:
                raise ConfigError(
                    f"{path}: alphas: cyclic needs p = alpha * M / N strictly "
                    f"in (0, 1); alpha {a!r} with M={m}, N={n} gives "
                    f"p = {a * m / n!r}"
                )
    return sim


def cmd_simulate(args) -> int:
    path = args.config
    cfg = _load_yaml(path)
    sim = read_simulate(cfg, path, seed=args.seed, beta=args.beta)
    workers = _workers()
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.monotonic()
    grid = make_grid(
        num_locations=sim["locations"],
        robots=sim["robots"],
        alphas=sim["alphas"],
        policies=sim["policies"],
        horizon=sim["horizon"],
        episodes=sim["episodes"],
        discount=sim["beta"],
        base_seed=sim["base_seed"],
        dwell=sim["cyclic"]["dwell"],
        search_max=sim["cyclic"]["search_max"],
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
        "dwell_metadata": _round6(grid_dwell_metadata(grid)),
    }
    with open(
        os.path.join(out_dir, "results.json"), "w", encoding="utf-8"
    ) as fh:
        json.dump({"results": rows, "manifest": manifest}, fh, indent=2)
        fh.write("\n")

    _write_figdata(fig_dir, results, sim["policies"])
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
    """JSON form of a failed optimality comparison at an orbit's
    representative, with the ordered states the orbit holds; 1-based
    labels."""
    state = violation.state
    rec = {
        "robots": [loc + 1 for loc in state.robots],
        "queues": list(state.queues),
        "members": violation.members,
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


def read_verify(cfg: dict, path: str) -> tuple[dict, list[ModelConfig]]:
    """The verify settings of cfg, checked by the VERIFY table and the
    cross-key rules before anything is solved, with each instance's model.
    An instance with more solver states (orbits) than the state budget
    raises StateSpaceTooLargeError."""
    ver = _read(cfg, VERIFY, path)
    models = []
    if not ver["instances"] and not ver["coupling"]["scenarios"]:
        raise ConfigError(
            f"{path}: nothing to verify: no instances and no coupling "
            "scenarios"
        )
    for i, inst in enumerate(ver["instances"]):
        key = f"{path}: instances[{i}]"
        n, m, cap = inst["locations"], inst["robots"], inst["cap"]
        if m > n:
            raise ConfigError(f"{key}.robots: must be at most locations ({n})")
        if inst["margin"] >= cap:
            raise ConfigError(f"{key}.margin: must satisfy 1 <= margin < cap")
        model = ModelConfig.symmetric(n, m, inst["p"], inst["beta"])
        models.append(model)
        if count_orbits(model, cap) > DEFAULT_STATE_BUDGET:
            raise StateSpaceTooLargeError(f"{key}: state space too large")
        floor = min_tolerance(model, cap)
        if inst["tol"] <= floor:
            raise ConfigError(
                f"{key}.tol: {inst['tol']:.3g} is at or below this "
                f"instance's float rounding floor {floor:.3g}; value "
                "iteration cannot certify it"
            )
    return ver, models


def cmd_verify(args) -> int:
    path = args.config
    ver, models = read_verify(_load_yaml(path), path)
    rule_name = ver["rule"]
    coupling = ver["coupling"]

    ok = True
    instance_reports = []
    for i, (inst, model) in enumerate(zip(ver["instances"], models)):
        mdp = build_truncated_mdp(model, inst["cap"])
        try:
            table = value_iteration(mdp, inst["tol"])
        except ConvergenceError as exc:
            raise ConfigError(f"{path}: instances[{i}].tol: {exc}")
        violations = check_esl_optimality(
            mdp,
            table,
            inst["margin"],
            tie_tol=inst["tie_tol"],
            rule=CHECK_RULES[rule_name],
        )
        dips = monotonicity_violations(mdp, table)
        if violations or dips:
            ok = False
        instance_reports.append(
            {
                **inst,
                "p": _round6(inst["p"]),
                "rule": rule_name,
                "states": count_states(model, inst["cap"]),
                "solver_states": len(mdp.states),
                "interior_max_queue": inst["cap"] - inst["margin"],
                "transitions": int(mdp.tr_next.size),
                "iterations": table.iterations,
                "residual": _round6(table.residual),
                "error_bound": _round6(table.error_bound),
                "violation_count": sum(v.members for v in violations),
                "violations": [
                    _violation_record(v) for v in violations[:200]
                ],
                "monotonicity_violation_count": sum(
                    members for _, _, members in dips
                ),
            }
        )

    coupling_reports = []
    for name in coupling["scenarios"]:
        scenario = make_scenario(
            name, p=coupling["p"], discount=coupling["beta"]
        )
        failures = 0
        uncoupled = 0
        first_problems: list[str] = []
        diffs = []
        for report in coupled_runs(
            scenario, coupling["horizon"], range(coupling["seeds"])
        ):
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
                **{k: coupling[k] for k in ("seeds", "horizon", "p", "beta")},
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
        dips = sum(r["monotonicity_violation_count"] for r in instance_reports)
        fails = sum(r["pattern_failures"] for r in coupling_reports)
        print(
            f"verify failed: {total} optimality violations, "
            f"{dips} monotonicity violations, "
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
    except StateSpaceTooLargeError as exc:
        print(str(exc), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
