"""Paired-run scenarios: preconditions, exact gap shapes, closed-form diffs."""

import dataclasses
import itertools

import pytest

import eslsim.coupling
from eslsim import (
    CouplingScenario,
    ModelConfig,
    SCENARIO_NAMES,
    ScenarioPreconditionError,
    SystemState,
    check_gap_pattern,
    coupled_run,
    make_scenario,
)


def test_default_scenarios_validate():
    for name in SCENARIO_NAMES:
        scenario = make_scenario(name)
        assert scenario.name == name


def test_unknown_scenario_rejected():
    with pytest.raises(ScenarioPreconditionError):
        make_scenario("prop9")


@pytest.mark.parametrize(
    "name,robots,queues",
    [
        ("prop1B", (0,), (0, 2)),    # nothing to serve at the start
        ("prop2", (0,), (1, 3)),     # deviator's own location must be empty
        ("prop2", (1,), (0, 3)),     # deviator must sit at location 0
        ("prop4", (2,), (3, 1, 0)),  # location 1 must hold the longer queue
        ("prop4", (2,), (1, 3, 2)),  # watch post must be empty
        ("prop4", (0,), (1, 3, 0)),  # watcher may not start on either queue
    ],
)
def test_bad_start_states_rejected(name, robots, queues):
    with pytest.raises(ScenarioPreconditionError, match="scenario precondition"):
        make_scenario(name, initial_state=SystemState(robots, queues))


@pytest.mark.parametrize(
    "n,robots,queues",
    [
        (2, (0,), (1, 3)),  # deviator's own location must be empty
        (1, (0,), (0,)),    # there is no location 1 to switch to
    ],
)
def test_scenarios_are_validated_when_made(n, robots, queues):
    model = ModelConfig.symmetric(n, 1, 0.1, 0.9)
    with pytest.raises(ScenarioPreconditionError, match="precondition"):
        CouplingScenario("prop2", model, SystemState(robots, queues))


def test_mirror_scenarios_need_exchangeable_streams():
    with pytest.raises(ScenarioPreconditionError):
        make_scenario("prop2", model=ModelConfig(2, 1, (0.1, 0.2), 0.9))
    with pytest.raises(ScenarioPreconditionError):
        make_scenario("prop4", model=ModelConfig(3, 1, (0.1, 0.3, 0.1), 0.9))


def test_prop1a_needs_a_second_free_location():
    model = ModelConfig.symmetric(2, 2, 0.1, 0.9)
    with pytest.raises(ScenarioPreconditionError):
        make_scenario(
            "prop1A", model=model, initial_state=SystemState((0, 1), (2, 1))
        )


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_gap_patterns_hold_on_every_path(name):
    scenario = make_scenario(name)
    for seed in range(150):
        report = coupled_run(scenario, horizon=1500, seed=seed)
        assert report.coupled
        assert check_gap_pattern(report) == []
        assert report.gap[0] == 0


def test_idle_deviation_cost_gap_closed_form():
    scenario = make_scenario("prop1B")
    beta = scenario.model.discount
    for seed in range(60):
        r = coupled_run(scenario, horizon=1500, seed=seed)
        expected = sum(beta**t for t in range(1, r.tau + 1))
        assert r.discounted_diff == pytest.approx(expected, abs=1e-12)
        assert r.terminal_gap == 0


def test_shorter_target_cost_gap_closed_form():
    scenario = make_scenario("prop4")
    beta = scenario.model.discount
    for seed in range(60):
        r = coupled_run(scenario, horizon=1500, seed=seed)
        assert r.k == 2
        expected = sum(beta**t for t in range(r.tau + 1, r.tau + r.k + 1))
        assert r.discounted_diff == pytest.approx(expected, abs=1e-12)
        assert r.discounted_diff > 0


def test_mirrored_idle_gap_freezes_at_initial_backlog():
    scenario = make_scenario("prop2")
    for seed in range(60):
        r = coupled_run(scenario, horizon=1500, seed=seed)
        assert r.terminal_gap == scenario.initial_state.queues[1]
        assert r.discounted_diff > 0


def test_reports_deterministic_in_seed():
    scenario = make_scenario("prop1A")
    a = coupled_run(scenario, horizon=800, seed=123)
    b = coupled_run(scenario, horizon=800, seed=123)
    assert a == b


def test_uncoupled_run_is_flagged_not_judged():
    scenario = make_scenario("prop1B")
    report = coupled_run(scenario, horizon=1, seed=0)
    assert not report.coupled
    problems = check_gap_pattern(report)
    assert problems and "couple" in problems[0]


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_lost_departure_breaks_the_conservation_check(name, monkeypatch):
    """A step that under-reports one departure leaves the departure gap
    one task off the backlog difference, and the harness must refuse to
    report the run."""
    real_step = eslsim.coupling.step
    dropped = []

    def lossy_step(state, joint, arrivals):
        next_state, delta = real_step(state, joint, arrivals)
        if not dropped and any(delta.departures):
            dropped.append(delta.departures.index(1))
            departures = list(delta.departures)
            departures[dropped[0]] = 0
            delta = delta._replace(departures=tuple(departures))
        return next_state, delta

    monkeypatch.setattr(eslsim.coupling, "step", lossy_step)
    with pytest.raises(RuntimeError, match="conservation identity"):
        coupled_run(make_scenario(name), horizon=200, seed=0)
    assert dropped


def test_bad_horizon_rejected():
    with pytest.raises(ValueError):
        coupled_run(make_scenario("prop1B"), horizon=0, seed=0)


def test_bystander_robots_do_not_disturb_patterns():
    """Extra robots parked away from the manipulated locations serve their
    own queues identically in both systems."""
    cases = [
        make_scenario(
            "prop1A",
            model=ModelConfig.symmetric(4, 2, 0.1, 0.9),
            initial_state=SystemState((0, 3), (2, 1, 0, 1)),
        ),
        make_scenario(
            "prop1B",
            model=ModelConfig.symmetric(3, 2, 0.1, 0.9),
            initial_state=SystemState((0, 2), (3, 0, 1)),
        ),
        make_scenario(
            "prop2",
            model=ModelConfig.symmetric(3, 2, 0.1, 0.9),
            initial_state=SystemState((0, 2), (0, 3, 1)),
        ),
        make_scenario(
            "prop4",
            model=ModelConfig.symmetric(4, 2, 0.1, 0.9),
            initial_state=SystemState((2, 3), (1, 3, 0, 0)),
        ),
    ]
    for scenario in cases:
        for seed in range(40):
            report = coupled_run(scenario, horizon=1500, seed=seed)
            assert report.coupled
            assert check_gap_pattern(report) == []


# Seed 0 of each default scenario gives these gaps:
#   prop1A (0, 1, 0, 0, 1, 0)     tau 4, coupled at 5
#   prop1B (0, 1, 1, 1, 1, 0)     tau 4, coupled at 5
#   prop2  (0, 0, 1, 1, 2, 3)     coupled at 5, terminal gap 3
#   prop4  (0, 0, 0, 0, 1, 1, 0)  tau 3, k 2, coupled at 6
@pytest.mark.parametrize(
    "name,gap_edits,field_edits,expected",
    [
        ("prop1A", {0: 1}, {}, ["gap must start at 0"]),
        ("prop1A", {1: 0}, {}, ["slot 1: expected gap 1, got 0"]),
        ("prop1A", {3: 2}, {}, ["slot 3: expected gap in {0,1}, got 2"]),
        ("prop1A", {5: 1}, {}, ["slot 5: expected gap 0, got 1"]),
        ("prop1B", {0: 7}, {}, ["gap must start at 0"]),
        ("prop1B", {2: 0}, {}, ["slot 2: expected gap 1, got 0"]),
        ("prop1B", {5: 1}, {}, ["slot 5: expected gap 0, got 1"]),
        ("prop2", {0: -1}, {}, ["gap must start at 0"]),
        (
            "prop2",
            {3: 3},
            {},
            [
                "slot 3: gap must climb by 0 or 1, got 2",
                "slot 4: gap must climb by 0 or 1, got -1",
            ],
        ),
        (
            "prop2",
            {5: 2},
            {"terminal_gap": 2},
            ["slot 5: expected terminal gap 3, got 2"],
        ),
        ("prop4", {0: 1}, {}, ["gap must start at 0"]),
        (
            "prop4",
            {},
            {"k": 3},
            [
                "catch-up length disagrees with the start state",
                "slot 6: expected gap 1, got 0",
            ],
        ),
        ("prop4", {2: 1}, {}, ["slot 2: expected gap 0, got 1"]),
        ("prop4", {5: 0}, {}, ["slot 5: expected gap 1, got 0"]),
        ("prop4", {6: 1}, {}, ["slot 6: expected gap 0, got 1"]),
        ("prop4", {}, {"scenario": "prop9"}, ["unknown scenario 'prop9'"]),
    ],
)
def test_corrupted_gap_phases_are_named(
    name, gap_edits, field_edits, expected
):
    report = coupled_run(make_scenario(name), horizon=2000, seed=0)
    assert check_gap_pattern(report) == []
    gap = list(report.gap)
    for t, value in gap_edits.items():
        assert gap[t] != value
        gap[t] = value
    bad = dataclasses.replace(report, gap=tuple(gap), **field_edits)
    assert check_gap_pattern(bad) == expected


def _step_moving_one_task(call, src, dst):
    """A step that, on its call-th use, moves one waiting task from src to
    dst in the next state.  Queue totals and departures are untouched, so
    the conservation identity still holds but the paired paths no longer
    meet.  Each slot steps G first and PI second: calls 2t and 2t + 1."""
    real_step = eslsim.coupling.step
    calls = itertools.count()

    def moving_step(state, joint, arrivals):
        next_state, delta = real_step(state, joint, arrivals)
        if next(calls) == call and next_state.queues[src] > 0:
            queues = list(next_state.queues)
            queues[src] -= 1
            queues[dst] += 1
            next_state = next_state._replace(queues=tuple(queues))
        return next_state, delta

    return moving_step


@pytest.mark.parametrize(
    "name,call,src,dst,message",
    [
        # PI's side at slot 0
        ("prop1A", 1, 0, 1, "failed to meet at the return slot"),
        # G's side at slot 1
        ("prop4", 2, 1, 2, "failed to meet after the crossing"),
    ],
)
def test_displaced_task_breaks_the_meeting_check(
    name, call, src, dst, message, monkeypatch
):
    scenario = make_scenario(name)
    for seed in range(40):
        monkeypatch.setattr(
            eslsim.coupling, "step", _step_moving_one_task(call, src, dst)
        )
        with pytest.raises(RuntimeError, match=message):
            coupled_run(scenario, horizon=2000, seed=seed)
