"""Paired-run scenarios: preconditions, exact gap shapes, closed-form diffs."""

import pytest

import eslsim.coupling
from eslsim import (
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
