"""Regression pin for the coupling harness.

tests/data/coupling_pin.json holds, for every case below, one sha256 per
horizon over the repr of each seed's `CouplingReport` (every field, so
`discounted_diff` to the last bit) and of its `check_gap_pattern` result,
plus the full records of seeds 0-2 at the long horizon.  The fixture was
written by the harness as it stood before its four per-scenario slot loops
were merged into one, so any change in the paired paths, the gap, the
closed-form sum or the pattern verdicts shows up here.  Both the engine and
its oracle are held to it: coupled_runs with every seed of a case as one
lane, and tests/scalar_coupling.py's coupled_run seed by seed, which also
prints the fixture.

Print the fixture with:  PYTHONPATH=src python3 tests/test_coupling_pin.py
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

import scalar_coupling
from eslsim import (
    SCENARIO_NAMES,
    ModelConfig,
    SystemState,
    check_gap_pattern,
    coupled_runs,
    make_scenario,
)

FIXTURE = Path(__file__).resolve().parent / "data" / "coupling_pin.json"

# (horizon, number of seeds starting at 0)
HORIZONS = ((1, 100), (2, 100), (3, 100), (5, 100), (2000, 400))
RECORD_SEEDS = (0, 1, 2)

# the start states of test_bystander_robots_do_not_disturb_patterns
BYSTANDERS = {
    "prop1A": ((4, 2), ((0, 3), (2, 1, 0, 1))),
    "prop1B": ((3, 2), ((0, 2), (3, 0, 1))),
    "prop2": ((3, 2), ((0, 2), (0, 3, 1))),
    "prop4": ((4, 2), ((2, 3), (1, 3, 0, 0))),
}


def cases():
    out = {}
    for name in SCENARIO_NAMES:
        out[f"{name}/default"] = make_scenario(name)
        out[f"{name}/p0.4-b0.95"] = make_scenario(name, p=0.4, discount=0.95)
        (n, m), (robots, queues) = BYSTANDERS[name]
        out[f"{name}/bystander"] = make_scenario(
            name,
            model=ModelConfig.symmetric(n, m, 0.1, 0.9),
            initial_state=SystemState(robots, queues),
        )
    return out


def record(report) -> dict:
    return {
        "report": repr(report),
        "problems": check_gap_pattern(report),
    }


def scalar_runs(scenario, horizon: int, seeds):
    return (
        scalar_coupling.coupled_run(scenario, horizon, seed) for seed in seeds
    )


def lane_runs(scenario, horizon: int, seeds):
    return (report for _, report in coupled_runs([scenario], horizon, seeds))


def digest(reports) -> str:
    h = hashlib.sha256()
    for report in reports:
        h.update(f"{report!r}\n{check_gap_pattern(report)!r}\n".encode())
    return h.hexdigest()


def build() -> dict:
    long_horizon = HORIZONS[-1][0]
    return {
        key: {
            "digests": {
                str(horizon): digest(
                    scalar_runs(scenario, horizon, range(seeds))
                )
                for horizon, seeds in HORIZONS
            },
            "records": [
                record(report)
                for report in scalar_runs(
                    scenario, long_horizon, RECORD_SEEDS
                )
            ],
        }
        for key, scenario in cases().items()
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def check_against_pin(pinned, key, runs):
    scenario = cases()[key]
    long_horizon = HORIZONS[-1][0]
    records = [
        record(report)
        for report in runs(scenario, long_horizon, RECORD_SEEDS)
    ]
    assert records == pinned[key]["records"]
    for horizon, seeds in HORIZONS:
        assert digest(runs(scenario, horizon, range(seeds))) == (
            pinned[key]["digests"][str(horizon)]
        ), (key, horizon)


@pytest.mark.parametrize("key", sorted(cases()))
def test_reports_match_the_pin(pinned, key):
    check_against_pin(pinned, key, scalar_runs)


@pytest.mark.parametrize("key", sorted(cases()))
def test_lane_reports_match_the_pin(pinned, key):
    check_against_pin(pinned, key, lane_runs)


if __name__ == "__main__":
    json.dump(build(), sys.stdout, indent=1)
    sys.stdout.write("\n")
