"""Command-line front end: file outputs, exit codes, determinism."""

import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import eslsim
from eslsim import cli, policies
from eslsim.cli import RESULT_COLUMNS, main
from eslsim.policies import optimize_dwell

REPO = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data"


def config_text(**overrides):
    fields = {
        "locations": "4",
        "robots": "[1]",
        "alphas": "[0.25]",
        "policies": "[esl, fcfs, cyclic]",
        "horizon": "400",
        "episodes": "3",
        "beta": "0.95",
        "base_seed": "11",
    }
    fields.update(overrides)
    lines = [f"{k}: {v}" for k, v in fields.items()]
    lines += ["cyclic:", "  dwell: 2"]
    return "\n".join(lines) + "\n"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_simulate_writes_results(tmp_path):
    cfg = write(tmp_path / "grid.yaml", config_text())
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0

    with open(out / "results.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(RESULT_COLUMNS)
    assert len(rows) == 4
    assert [r[2] for r in rows[1:]] == ["esl", "fcfs", "cyclic"]
    for row in rows[1:]:
        for cell in row[:2] + row[3:]:
            float(cell)  # numeric columns parse round-trip

    payload = json.loads((out / "results.json").read_text())
    assert len(payload["results"]) == 3
    manifest = payload["manifest"]
    for key in (
        "config",
        "version",
        "prng",
        "workers",
        "experiments",
        "dwell_metadata",
        "elapsed_seconds",
        "started",
    ):
        assert key in manifest
    assert len(manifest["experiments"]) == 3

    for name in (
        "discounted_cost_m1.csv",
        "mean_queue_m1.csv",
        "fractions_m1.csv",
    ):
        assert (out / "figdata" / name).exists()


def test_simulate_reruns_byte_identical(tmp_path):
    cfg = write(tmp_path / "grid.yaml", config_text())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "results.csv").read_bytes() == (
        out2 / "results.csv"
    ).read_bytes()


def test_seed_override_recorded_and_changes_results(tmp_path):
    cfg = write(tmp_path / "grid.yaml", config_text())
    base, alt = tmp_path / "base", tmp_path / "alt"
    assert main(["simulate", "--config", cfg, "--out", str(base)]) == 0
    assert main(
        ["simulate", "--config", cfg, "--out", str(alt), "--seed", "99"]
    ) == 0
    manifest = json.loads((alt / "results.json").read_text())["manifest"]
    assert manifest["overrides"]["seed"] == 99
    assert manifest["experiments"][0]["base_seed"] == 99
    assert (base / "results.csv").read_bytes() != (
        alt / "results.csv"
    ).read_bytes()


def test_missing_config_exits_cleanly(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["simulate", "--config", str(tmp_path / "nope.yaml"), "--out", str(out)]
    )
    assert code == 2
    assert "config file not found" in capsys.readouterr().err
    assert not out.exists()  # no partial output


@pytest.mark.parametrize(
    "overrides,needle",
    [
        ({"policies": "[esl, lifo]"}, "policies"),
        ({"episodes": "1"}, "insufficient replications"),
        ({"beta": "1.5"}, "beta"),
        ({"robots": "[9]"}, "robots"),
        ({"horizon": "0"}, "horizon"),
        # cyclic tuning needs p = alpha * M / N strictly inside (0, 1)
        ({"alphas": "[0.0]"}, "bad.yaml: alphas: "),
        (
            {"locations": "2", "robots": "[2]", "alphas": "[1.0]"},
            "bad.yaml: alphas: ",
        ),
        ({"robots": "[true]"}, "bad.yaml: robots[0]: expected int"),
        ({"alphas": "[true]"}, "bad.yaml: alphas[0]: expected float"),
        ({"robots": "[]"}, "bad.yaml: robots: expected a non-empty list"),
        ({"alphas": "[]"}, "bad.yaml: alphas: expected a non-empty list"),
        ({"policies": "[]"}, "bad.yaml: policies: expected a non-empty list"),
    ],
)
def test_bad_config_values_rejected(tmp_path, capsys, overrides, needle):
    cfg = write(tmp_path / "bad.yaml", config_text(**overrides))
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert needle in err
    assert "bad.yaml" in err
    assert not out.exists()


def test_negative_seed_rejected(tmp_path, capsys):
    bad = write(tmp_path / "bad.yaml", config_text(base_seed="-1"))
    out = tmp_path / "o"
    assert main(["simulate", "--config", bad, "--out", str(out)]) == 2
    assert f"{bad}: base_seed: " in capsys.readouterr().err
    good = write(tmp_path / "zero.yaml", config_text(base_seed="0"))
    args = ["simulate", "--config", good, "--out", str(out), "--seed", "-1"]
    assert main(args) == 2
    assert f"{good}: base_seed: " in capsys.readouterr().err
    assert not out.exists()
    assert main(["simulate", "--config", good, "--out", str(out)]) == 0


@pytest.mark.parametrize(
    "overrides,message",
    [
        ({"policies": "[esl, fcfs, esl]"}, "policies: duplicate entry 'esl'"),
        ({"alphas": "[0.5, 0.25, 0.5]"}, "alphas: duplicate entry 0.5"),
        ({"robots": "[1, 2, 1]"}, "robots: duplicate entry 1"),
    ],
)
def test_duplicate_grid_entries_rejected(tmp_path, capsys, overrides, message):
    cfg = write(tmp_path / "dup.yaml", config_text(**overrides))
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert f"{cfg}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text,message",
    [
        pytest.param(
            config_text(horizn="100"), "horizn: unknown key", id="horizn"
        ),
        pytest.param(
            config_text().replace("dwell: 2", "dwel: 2"),
            "cyclic.dwel: unknown key",
            id="cyclic.dwel",
        ),
    ],
)
def test_simulate_unknown_keys_rejected(tmp_path, capsys, text, message):
    cfg = write(tmp_path / "typo.yaml", text)
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert f"{cfg}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "cyclic,key",
    [
        ("dwell: 0", "cyclic.dwell"),
        ("dwell: -3", "cyclic.dwell"),
        ("dwell: fast", "cyclic.dwell"),
        ("dwell: true", "cyclic.dwell"),
        ("dwell: 2\n  search_max: 0", "cyclic.search_max"),
        ("dwell: tuned\n  search_max: 2.5", "cyclic.search_max"),
        ("dwell: tuned\n  search_max: many", "cyclic.search_max"),
    ],
)
def test_bad_cyclic_settings_rejected(tmp_path, capsys, cyclic, key):
    text = config_text().replace("  dwell: 2", f"  {cyclic}")
    cfg = write(tmp_path / "bad.yaml", text)
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert f"{cfg}: {key}: " in capsys.readouterr().err
    assert not out.exists()


def test_smoke_grid_output_pinned(tmp_path):
    """results.csv and the dwell records of the shipped smoke grid, as the
    scipy-tuned release wrote them."""
    out = tmp_path / "out"
    cfg = str(REPO / "configs" / "smoke_grid.yaml")
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "results.csv").read_bytes() == (
        DATA / "smoke_grid_results.csv"
    ).read_bytes()
    manifest = json.loads((out / "results.json").read_text())["manifest"]
    assert manifest["dwell_metadata"] == json.loads(
        (DATA / "smoke_grid_dwell_metadata.json").read_text()
    )


def test_simulate_tunes_each_cyclic_cell_once(tmp_path, monkeypatch):
    scans = []
    real = policies._dwell_scan

    def counted(*args):
        scans.append(args)
        return real(*args)

    monkeypatch.setattr(policies, "_dwell_scan", counted)
    out = tmp_path / "out"
    cfg = str(REPO / "configs" / "smoke_grid.yaml")
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "results.json").read_text())["manifest"]
    cyclic = [e for e in manifest["experiments"] if e["policy"] == "cyclic"]
    assert len(cyclic) == 2
    assert len(scans) == len(cyclic)


def _shipped_configs():
    """Every config the project ships: configs/, the benchmark workloads
    (read only) and the YAML examples of the README."""
    files = sorted((REPO / "configs").glob("*.yaml"))
    files += sorted((REPO / "perfbench" / "workloads").glob("*.yaml"))
    for path in files:
        yield pytest.param(path.read_text(), id=str(path.relative_to(REPO)))
    readme = (REPO / "README.md").read_text()
    blocks = re.findall(r"```yaml\n(.*?)```", readme, re.S)
    assert len(blocks) == 2
    for i, text in enumerate(blocks):
        yield pytest.param(text, id=f"README.md-yaml-{i}")


@pytest.mark.parametrize("text", _shipped_configs())
def test_shipped_configs_pass_the_schema(text):
    cfg = yaml.safe_load(text)
    if "instances" in cfg:
        cli.read_verify(cfg, "shipped.yaml")
    else:
        cli.read_simulate(cfg, "shipped.yaml")


def _schema_defaults(table, prefix=""):
    """{key as the README names it: default} for every row of a table."""
    out = {}
    for key in table:
        name = prefix + key.name
        if isinstance(key.kind, tuple):
            if key.min_items is None:  # a section: only its keys have rows
                out.update(_schema_defaults(key.kind, name + "."))
                continue
            out.update(_schema_defaults(key.kind, name + "[i]."))
        out[name] = key.default
    return out


def test_readme_tables_match_the_schema():
    rows = re.findall(
        r"^\| `([\w.\[\]]+)` \|.*\| (\S[^|]*?) \|$",
        (REPO / "README.md").read_text(),
        re.M,
    )
    documented = {
        name: cli.REQUIRED if cell == "required" else yaml.safe_load(cell[1:-1])
        for name, cell in rows
    }
    assert len(documented) == len(rows)
    schema = _schema_defaults(cli.SIMULATE)
    schema.update(_schema_defaults(cli.VERIFY))
    assert documented == schema


def test_tuned_simulate_does_not_import_scipy(tmp_path):
    cfg = write(
        tmp_path / "grid.yaml",
        config_text(robots="[2]", policies="[cyclic]", horizon="50").replace(
            "dwell: 2", "dwell: tuned"
        ),
    )
    script = (
        "import sys\n"
        "from eslsim.cli import main\n"
        f"assert main(['simulate', '--config', {cfg!r}, "
        f"'--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(eslsim.__file__)))
    env = dict(os.environ, ESLSIM_WORKERS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_worker_env_validated(tmp_path, capsys, monkeypatch):
    cfg = write(tmp_path / "grid.yaml", config_text())
    monkeypatch.setenv("ESLSIM_WORKERS", "zero")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o1")]) == 2
    assert "ESLSIM_WORKERS" in capsys.readouterr().err
    monkeypatch.setenv("ESLSIM_WORKERS", "0")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o2")]) == 2


def test_worker_pool_produces_same_csv(tmp_path, monkeypatch):
    cfg = write(tmp_path / "grid.yaml", config_text())
    seq, par = tmp_path / "seq", tmp_path / "par"
    assert main(["simulate", "--config", cfg, "--out", str(seq)]) == 0
    monkeypatch.setenv("ESLSIM_WORKERS", "2")
    assert main(["simulate", "--config", cfg, "--out", str(par)]) == 0
    assert (seq / "results.csv").read_bytes() == (par / "results.csv").read_bytes()


VERIFY_OK = """\
rule: esl
instances:
  - locations: 2
    robots: 1
    cap: 5
    p: 0.1
    beta: 0.9
    tol: 1.0e-10
    margin: 2
coupling:
  scenarios: [prop1A, prop1B, prop2, prop4]
  seeds: 40
  horizon: 800
  p: 0.1
  beta: 0.9
"""

VERIFY_MUTANT = """\
rule: switch-shortest
instances:
  - locations: 3
    robots: 1
    cap: 4
    p: 0.1
    beta: 0.9
    tol: 1.0e-10
    margin: 2
coupling:
  scenarios: [prop1B]
  seeds: 5
  horizon: 500
"""


def test_verify_passes_on_serve_longest(tmp_path):
    cfg = write(tmp_path / "verify.yaml", VERIFY_OK)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "verify.json").read_text())
    assert payload["ok"] is True
    assert payload["instances"][0]["violation_count"] == 0
    assert payload["instances"][0]["monotonicity_violation_count"] == 0
    assert payload["instances"][0]["interior_max_queue"] == 3  # cap - margin
    assert payload["instances"][0]["states"] == 72  # ordered: 2 x 6^2
    # orbits (occupied queue | unoccupied queue), each with one arrival row
    # of 4 next orbits below the cap, 2 with one queue at it, 1 with both
    assert payload["instances"][0]["solver_states"] == 36
    assert payload["instances"][0]["transitions"] == 25 * 4 + 10 * 2 + 1
    assert 0.0 < payload["instances"][0]["error_bound"] < 1.0e-10  # tol
    assert all(c["pattern_failures"] == 0 for c in payload["coupling"])


def test_verify_fails_on_a_value_dip(tmp_path, capsys, monkeypatch):
    """A value table that drops when a queue grows fails verify even when
    the audit passes.  The dip sits on the orbit of robot at 0, queues
    (5, 4), which also holds robot at 1, queues (4, 5): outside the
    interior and out of one slot's reach of it, so only the monotonicity
    check can see it.  It flags the orbits of (4, 4) and (5, 3) with the
    robot at 0, which also hold (4, 4) and (3, 5) with the robot at 1: 4
    ordered states."""
    solve = cli.value_iteration

    def dipped(mdp, tol):
        table = solve(mdp, tol)
        values = table.values.copy()
        values[eslsim.orbit_id(mdp, eslsim.SystemState((0,), (5, 4)))] -= 100.0
        return dataclasses.replace(table, values=values)

    monkeypatch.setattr(cli, "value_iteration", dipped)
    cfg = write(tmp_path / "verify.yaml", VERIFY_OK)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    assert "4 monotonicity violations" in capsys.readouterr().err
    payload = json.loads((out / "verify.json").read_text())
    assert payload["ok"] is False
    assert payload["instances"][0]["violation_count"] == 0
    assert payload["instances"][0]["monotonicity_violation_count"] == 4


def test_verify_flags_perverted_rule(tmp_path, capsys):
    """switch-shortest fails at one orbit, listed once at its
    representative; its 6 ordered states make the count."""
    cfg = write(tmp_path / "verify.yaml", VERIFY_MUTANT)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    assert "6 optimality violations" in capsys.readouterr().err
    payload = json.loads((out / "verify.json").read_text())
    assert payload["ok"] is False
    inst = payload["instances"][0]
    assert inst["violation_count"] == 6
    [first] = inst["violations"]
    assert min(first["robots"]) >= 1  # serialized labels are 1-based
    assert first["members"] == 6
    assert first["kind"] == "not-argmin"


def test_verify_budget_exceeded(tmp_path, capsys):
    """The state budget counts solver states: (6, 3) at cap 30 has
    5,456^2 orbits."""
    text = (
        VERIFY_OK.replace("locations: 2", "locations: 6")
        .replace("robots: 1", "robots: 3")
        .replace("cap: 5", "cap: 30")
    )
    cfg = write(tmp_path / "verify.yaml", text)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 3
    assert "state space too large" in capsys.readouterr().err
    assert not (out / "verify.json").exists()


@pytest.mark.parametrize(
    "coupling,needle",
    [
        ("  seeds: 0", "coupling.seeds: "),
        ("  seeds: -5", "coupling.seeds: "),
        ("  seeds: 2.5", "coupling.seeds: "),
        ("  horizon: 0", "coupling.horizon: "),
        ("  p: 0.0", "coupling.p: "),
        ("  p: 1.5", "coupling.p: "),
        ("  p: often", "coupling.p: "),
        ("  beta: 1.0", "coupling.beta: "),
        ("  beta: true", "coupling.beta: "),
        ("  scenarios: []", "nothing to verify"),
        ("  scenarios: 5", "coupling.scenarios: expected a list"),
        ("  scenarios: prop1A", "coupling.scenarios: expected a list"),
        (
            "  scenarios: [prop1A, prop1A]",
            "coupling.scenarios: duplicate entry 'prop1A'",
        ),
    ],
)
def test_verify_that_checks_nothing_is_rejected(
    tmp_path, capsys, coupling, needle
):
    text = f"instances: []\ncoupling:\n{coupling}\n"
    cfg = write(tmp_path / "verify.yaml", text)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    assert f"{cfg}: {needle}" in capsys.readouterr().err
    assert not (out / "verify.json").exists()


@pytest.mark.parametrize(
    "edits,message",
    [
        ([("margin: 2", "marign: 1")], "instances[0].marign: unknown key"),
        ([("rule: esl", "rule: esl\nbeta: 0.5")], "beta: unknown key"),
        ([("rule: esl", "rule: esl\ntol: 1.0e-6")], "tol: unknown key"),
        ([("seeds: 40", "seed: 40")], "coupling.seed: unknown key"),
        ([("    p: 0.1\n", "")], "instances[0].p: missing required key"),
        ([("p: 0.1\n", "p: often\n")], "instances[0].p: expected float"),
        ([("cap: 5", "cap: 1.5")], "instances[0].cap: expected int"),
        ([("margin: 2", "margin: 5")], "instances[0].margin: "),
        ([("tol: 1.0e-10", "tol: -1.0")], "instances[0].tol: "),
        ([("tol: 1.0e-10", "tie_tol: -1.0")], "instances[0].tie_tol: "),
        (
            [("margin: 2", "margin: 0")],
            "instances[0].margin: expected an integer >= 1, got 0",
        ),
        ([("rule: esl", "rule: [esl]")], "rule: expected str"),
        ([("robots: 1", "robots: 3")], "instances[0].robots: "),
        (
            [("instances:\n", "instances:\n  - {locations: 2, robots: 1, "
              "cap: 5, p: 0.1, beta: 0.9, tol: 1.0e-10, margin: 2}\n")],
            "instances: duplicate entry ",
        ),
        (
            [("p: 0.1\n", "p: 0.0\n")],
            "instances[0].p: expected a number strictly in (0, 1), got 0.0",
        ),
        (
            [("p: 0.1\n", "p: 1\n")],
            "instances[0].p: expected a number strictly in (0, 1), got 1.0",
        ),
        (
            [("tol: 1.0e-10", "tol: .inf")],
            "instances[0].tol: expected a finite number > 0, got inf",
        ),
        (
            [("tol: 1.0e-10", "tie_tol: .inf")],
            "instances[0].tie_tol: expected a finite number >= 0, got inf",
        ),
        (
            [("p: 0.1\n", "p: 0.3\n"), ("beta: 0.9\n", "beta: 0.99\n"),
             ("tol: 1.0e-10", "tol: 1.0e-13")],
            "instances[0].tol: 1e-13 is at or below this instance's float "
            "rounding floor 2.69e-10; value iteration cannot certify it",
        ),
    ],
)
def test_verify_keys_checked(tmp_path, capsys, edits, message):
    text = VERIFY_OK
    for old, new in edits:
        assert old in text
        text = text.replace(old, new, 1)  # the first match is the instance's
    cfg = write(tmp_path / "verify.yaml", text)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    assert f"{cfg}: {message}" in capsys.readouterr().err
    assert not (out / "verify.json").exists()


def test_verify_reaches_six_locations_and_three_robots(tmp_path, capsys):
    """(6, 3) at cap 6, margin 3: 491,520 ordered interior states in 400
    interior orbits.  Serve-longest fails at 7 of them, which stand for
    19,440 ordered violations: 5,400 not-argmin and 14,040
    serve-not-strict."""
    text = VERIFY_OK.replace(
        "coupling:",
        "  - {locations: 6, robots: 3, cap: 6, p: 0.1, beta: 0.99, "
        "tol: 1.0e-7, margin: 3}\ncoupling:",
    ).replace("seeds: 40", "seeds: 1")
    cfg = write(tmp_path / "verify.yaml", text)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    assert "19440 optimality violations" in capsys.readouterr().err
    inst = json.loads((out / "verify.json").read_text())["instances"][1]
    assert inst["solver_states"] == 7056
    assert inst["violation_count"] == 19440
    counts = {}
    for v in inst["violations"]:
        counts[v["kind"]] = counts.get(v["kind"], 0) + v["members"]
    assert counts == {"not-argmin": 5400, "serve-not-strict": 14040}
    assert len({(tuple(v["robots"]), tuple(v["queues"]))
                for v in inst["violations"]}) == 7


def test_verify_audits_five_locations(tmp_path):
    """Five locations, past the old four-location audit cap, run: 2,640
    orbits stand for 163,840 ordered states, and the audit reads their
    15,625 interior ones."""
    text = VERIFY_OK.replace(
        "coupling:",
        "  - {locations: 5, robots: 1, cap: 7, p: 0.1, margin: 3}\ncoupling:",
    )
    cfg = write(tmp_path / "verify.yaml", text)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    inst = json.loads((out / "verify.json").read_text())["instances"][1]
    assert inst["states"] == 5 * 8**5
    assert inst["solver_states"] == 2640
    assert inst["violation_count"] == 0
    assert inst["error_bound"] < 1.0e-10


def test_verify_nonconvergence_is_a_config_error(tmp_path, capsys, monkeypatch):
    """Value iteration that runs out of sweeps exits 2 with the instance's
    tol named, not with a traceback."""
    real = cli.value_iteration
    monkeypatch.setattr(
        cli, "value_iteration", lambda mdp, tol: real(mdp, tol, max_sweeps=3)
    )
    cfg = write(tmp_path / "verify.yaml", VERIFY_OK)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}: instances[0].tol: value iteration did not converge" in err
    assert not (out / "verify.json").exists()


def test_missing_verify_config(tmp_path, capsys):
    code = main(
        [
            "verify",
            "--config",
            str(tmp_path / "x.yaml"),
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert code == 2
    assert "config file not found" in capsys.readouterr().err


def test_dwell_prints_scan_table(capsys):
    assert main(["dwell", "--p", "0.0667", "--n", "3", "--max", "30"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert "t,f" in lines
    data = [line for line in lines if line and not line.startswith("#")]
    assert len(data) == 31  # header plus one row per scanned dwell
    best = optimize_dwell(0.0667, 3, 30)
    assert f"t*={best}" in out
    assert "continuous argmin" in out


def test_dwell_rejects_degenerate_inputs(capsys):
    assert main(["dwell", "--p", "1.0", "--n", "3"]) == 2
    assert "degenerate rate" in capsys.readouterr().err
    assert main(["dwell", "--p", "0.5", "--n", "0"]) == 2
    assert main(["dwell", "--p", "0.5", "--n", "3", "--max", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "dwell: search_max must be at least 1" in err
