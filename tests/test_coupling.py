"""Paired-run scenarios: preconditions, exact gap shapes, closed-form diffs.

The lane engine is held to tests/scalar_coupling.py, the scalar paired
slot loop, report for report.  Faults are planted in both engines' steps:
model.step, looked up by the oracle, and LockstepLanes.step.
"""

import dataclasses
import itertools

import numpy as np
import pytest

import eslsim.coupling
import scalar_coupling
from eslsim.model import LockstepLanes
from eslsim import (
    CouplingScenario,
    ModelConfig,
    SCENARIO_NAMES,
    ScenarioPreconditionError,
    SystemState,
    check_gap_pattern,
    coupled_run,
    coupled_runs,
    make_scenario,
)


def _reprs(reports):
    return [repr(report) for report in reports]


def lane_runs(scenario, horizon, seeds):
    """coupled_runs on one scenario, as its reports."""
    return (report for _, report in coupled_runs([scenario], horizon, seeds))


def scalar_runs(scenario, horizon, seeds):
    """The oracle's reports, one seed at a time."""
    return (
        scalar_coupling.coupled_run(scenario, horizon, seed) for seed in seeds
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
    for report in lane_runs(scenario, 1500, range(150)):
        assert report.coupled
        assert check_gap_pattern(report) == []
        assert report.gap[0] == 0


def test_idle_deviation_cost_gap_closed_form():
    scenario = make_scenario("prop1B")
    beta = scenario.model.discount
    for r in lane_runs(scenario, 1500, range(60)):
        expected = sum(beta**t for t in range(1, r.tau + 1))
        assert r.discounted_diff == pytest.approx(expected, abs=1e-12)
        assert r.terminal_gap == 0


def test_shorter_target_cost_gap_closed_form():
    scenario = make_scenario("prop4")
    beta = scenario.model.discount
    for r in lane_runs(scenario, 1500, range(60)):
        assert r.k == 2
        expected = sum(beta**t for t in range(r.tau + 1, r.tau + r.k + 1))
        assert r.discounted_diff == pytest.approx(expected, abs=1e-12)
        assert r.discounted_diff > 0


def test_mirrored_idle_gap_freezes_at_initial_backlog():
    scenario = make_scenario("prop2")
    for r in lane_runs(scenario, 1500, range(60)):
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
    real_step = scalar_coupling.step
    dropped = []

    def lossy_step(state, joint, arrivals):
        next_state, delta = real_step(state, joint, arrivals)
        if not dropped and any(delta.departures):
            dropped.append(delta.departures.index(1))
            departures = list(delta.departures)
            departures[dropped[0]] = 0
            delta = delta._replace(departures=tuple(departures))
        return next_state, delta

    monkeypatch.setattr(scalar_coupling, "step", lossy_step)
    with pytest.raises(RuntimeError, match="conservation identity"):
        scalar_coupling.coupled_run(make_scenario(name), horizon=200, seed=0)
    assert dropped


def test_bad_horizon_rejected():
    with pytest.raises(ValueError):
        coupled_run(make_scenario("prop1B"), horizon=0, seed=0)


@pytest.mark.parametrize(
    "name,p,queues,horizon",
    [(name, 0.1, None, h) for name in SCENARIO_NAMES for h in (1, 2000)]
    + [("prop1B", 0.4, (30, 0), 2000)],
)
def test_coupled_run_is_one_lane_of_coupled_runs(name, p, queues, horizon):
    """The public one-seed call gives coupled_runs' report and the
    oracle's, bit for bit; the prop1B runs from 30 tasks outlive the
    first arrival block."""
    state = None if queues is None else SystemState((0,), queues)
    scenario = make_scenario(name, p=p, initial_state=state)
    for seed in (0, 5):
        report = coupled_run(scenario, horizon, seed)
        lane = next(coupled_runs([scenario], horizon, [seed]))[1]
        assert repr(report) == repr(lane)
        assert repr(report) == repr(
            scalar_coupling.coupled_run(scenario, horizon, seed)
        )
        if queues is not None:
            assert len(report.gap) - 1 > eslsim.coupling._BLOCK
    with pytest.raises(ValueError, match="horizon"):
        coupled_run(scenario, 0, 0)


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
        for report in lane_runs(scenario, 1500, range(40)):
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


def _step_moving_tasks(call, src, dst, tasks=1):
    """A step that, on its call-th use, moves up to tasks waiting tasks
    from src to dst in the next state.  Queue totals and departures are
    untouched, so the conservation identity still holds but the paired
    paths no longer meet.  Each slot steps G first and PI second: calls 2t
    and 2t + 1."""
    real_step = scalar_coupling.step
    calls = itertools.count()

    def moving_step(state, joint, arrivals):
        next_state, delta = real_step(state, joint, arrivals)
        moved = min(next_state.queues[src], tasks)
        if next(calls) == call and moved:
            queues = list(next_state.queues)
            queues[src] -= moved
            queues[dst] += moved
            next_state = next_state._replace(queues=tuple(queues))
        return next_state, delta

    return moving_step


def _lanes_step_moving_tasks(call, src, dst, tasks=1):
    """_step_moving_tasks for coupled_runs: the fault, in every lane, of
    the call-th LockstepLanes.step, which steps G and PI in the same
    order."""
    real_step = LockstepLanes.step
    calls = itertools.count()

    def moving_step(lanes, serve, end, arrivals):
        real_step(lanes, serve, end, arrivals)
        if next(calls) == call:
            moved = np.minimum(lanes.queues[:, src], tasks)
            lanes.queues[:, src] -= moved
            lanes.queues[:, dst] += moved

    return moving_step


MEETING_FAULTS = [
    # PI's side at slot 0
    ("prop1A", 1, 0, 1, "failed to meet at the return slot"),
    # G's side at slot 1
    ("prop4", 2, 1, 2, "failed to meet after the crossing"),
]


@pytest.mark.parametrize("name,call,src,dst,message", MEETING_FAULTS)
def test_displaced_task_breaks_the_meeting_check(
    name, call, src, dst, message, monkeypatch
):
    scenario = make_scenario(name)
    for seed in range(40):
        monkeypatch.setattr(
            scalar_coupling, "step", _step_moving_tasks(call, src, dst)
        )
        with pytest.raises(RuntimeError, match=message):
            scalar_coupling.coupled_run(scenario, horizon=2000, seed=seed)


@pytest.mark.parametrize("name,call,src,dst,message", MEETING_FAULTS)
def test_displaced_task_breaks_the_lane_meeting_check(
    name, call, src, dst, message, monkeypatch
):
    scenario = make_scenario(name)
    for seed in range(40):
        monkeypatch.setattr(
            LockstepLanes, "step", _lanes_step_moving_tasks(call, src, dst)
        )
        with pytest.raises(RuntimeError, match=message):
            list(coupled_runs([scenario], 2000, [seed]))


def test_drained_long_queue_breaks_prop4_on_both_engines(monkeypatch):
    """Every task moved off PI's long queue at slot 0 leaves nothing for
    its catch-up serves."""
    scenario = make_scenario("prop4")
    for seed in range(40):
        monkeypatch.setattr(
            scalar_coupling, "step", _step_moving_tasks(1, 1, 2, tasks=99)
        )
        with pytest.raises(RuntimeError, match="ran dry"):
            scalar_coupling.coupled_run(scenario, 2000, seed)
        monkeypatch.setattr(
            LockstepLanes, "step", _lanes_step_moving_tasks(1, 1, 2, 99)
        )
        with pytest.raises(RuntimeError, match="ran dry"):
            list(coupled_runs([scenario], 2000, [seed]))


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_lost_departure_breaks_the_lane_conservation_check(
    name, monkeypatch
):
    """The lane form of the lost departure: one served task stays in its
    queue, so the lane's backlog drifts off its departure gap."""
    real_step = LockstepLanes.step
    kept = []

    def lossy_step(lanes, serve, end, arrivals):
        robots = lanes.robots
        real_step(lanes, serve, end, arrivals)
        if not kept and serve.any():
            k, r = np.argwhere(serve)[0]
            kept.append(k)
            lanes.queues[k, robots[k, r]] += 1

    monkeypatch.setattr(LockstepLanes, "step", lossy_step)
    with pytest.raises(RuntimeError, match="conservation identity"):
        list(coupled_runs([make_scenario(name)], 200, range(5)))
    assert kept


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_lanes_match_coupled_run_across_chunks(name):
    scenario = make_scenario(name)
    seeds = range(2 * eslsim.coupling._CHUNK + 3)
    for horizon in (3, 2000):
        assert _reprs(lane_runs(scenario, horizon, seeds)) == _reprs(
            scalar_runs(scenario, horizon, seeds)
        )


def test_lanes_outliving_their_arrival_block_match_coupled_run():
    """From 30 waiting tasks at p 0.4 the runs last tens of slots, so lanes
    outlive the first arrival block and the ones drawn after it."""
    scenario = make_scenario(
        "prop1B", p=0.4, initial_state=SystemState((0,), (30, 0))
    )
    seeds = range(200)
    block = eslsim.coupling._BLOCK
    for horizon in (1, block + 8, 2 * block, 2 * block + 1, 2000):
        assert _reprs(lane_runs(scenario, horizon, seeds)) == _reprs(
            scalar_runs(scenario, horizon, seeds)
        )
    slots = [len(r.gap) - 1 for r in lane_runs(scenario, 2000, seeds)]
    assert min(slots) > block
    assert max(slots) > 2 * block


def test_lane_reports_come_back_in_seed_order():
    # seed 7's lane meets first, two slots before either lane of seed 3
    scenario = make_scenario("prop1B")
    reports = list(lane_runs(scenario, 2000, [3, 7, 3]))
    assert [r.seed for r in reports] == [3, 7, 3]
    assert [r.coupling_time for r in reports] == [6, 4, 6]
    assert _reprs(reports) == _reprs(scalar_runs(scenario, 2000, (3, 7, 3)))


def test_lanes_take_no_seeds_and_reject_a_bad_horizon():
    scenario = make_scenario("prop1B")
    assert list(coupled_runs([scenario], 10, [])) == []
    for horizon in (0, -3):
        with pytest.raises(ValueError, match="horizon"):
            coupled_runs([scenario], horizon, [0])


def test_mixed_scenarios_share_each_seed_and_match_coupled_run():
    """Scenarios of two widths (N 2 and 3) and two p and beta read one
    shared first block per seed; 1,027 seeds cross two chunk boundaries,
    and the prop1B lanes from 30 tasks outlive their first block."""
    scenarios = [
        make_scenario("prop1A"),
        make_scenario("prop4"),
        make_scenario(
            "prop1B",
            p=0.4,
            discount=0.95,
            initial_state=SystemState((0,), (30, 0)),
        ),
    ]
    seeds = range(1027)
    chunk = eslsim.coupling._CHUNK
    pairs = list(coupled_runs(scenarios, 2000, seeds))
    assert [(k, r.seed) for k, r in pairs] == [
        (k, seed)
        for i in range(0, len(seeds), chunk)
        for k in range(len(scenarios))
        for seed in seeds[i:i + chunk]
    ]
    assert [repr(r) for _, r in pairs] == [
        repr(scalar_coupling.coupled_run(scenarios[k], 2000, r.seed))
        for k, r in pairs
    ]
    slots = [len(r.gap) - 1 for k, r in pairs if k == 2]
    assert min(slots) > eslsim.coupling._BLOCK


def test_each_seed_builds_one_generator_for_every_scenario(monkeypatch):
    """Within its first block a run needs no generator of its own: a run
    of the four scenarios builds default_rng(seed) once per seed, and a
    run of none builds none."""
    real_rng = np.random.default_rng
    built = []

    def counting_rng(seed):
        built.append(seed)
        return real_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    scenarios = [make_scenario(name) for name in SCENARIO_NAMES]
    seeds = range(eslsim.coupling._CHUNK + 88)
    assert list(coupled_runs([], eslsim.coupling._BLOCK, seeds)) == []
    assert built == []
    pairs = list(coupled_runs(scenarios, eslsim.coupling._BLOCK, seeds))
    assert len(pairs) == len(scenarios) * len(seeds)
    assert built == list(seeds)
