"""Episode runner, metric aggregation and experiment grid orchestration."""

import math

import numpy as np
import pytest

from eslsim import (
    EpisodeMetrics,
    ExperimentConfig,
    InfeasibleActionError,
    InsufficientReplicationsError,
    ModelConfig,
    SystemState,
    aggregate,
    dwell_metadata,
    esl_decide,
    initial_state,
    make_grid,
    optimize_dwell,
    resolve_dwell,
    run_episode,
    run_grid,
    sample_arrivals,
    step,
    tuned_dwell,
)
from eslsim import evaluator
from eslsim.evaluator import _pregen_arrivals


def config_for(policy, *, n=3, m=1, p=0.2, beta=0.95, horizon=200,
               episodes=2, seed=5, **params):
    model = ModelConfig.symmetric(n, m, p, beta)
    return ExperimentConfig(
        model=model,
        policy=policy,
        horizon=horizon,
        episodes=episodes,
        base_seed=seed,
        policy_params=params,
    )


@pytest.mark.parametrize(
    "policy,params",
    [("esl", {}), ("fcfs", {}), ("cyclic", {"t_dwell": 2})],
)
def test_no_arrivals_no_cost(policy, params):
    metrics = run_episode(config_for(policy, p=0.0, **params), seed=1)
    assert metrics.discounted_cost == 0.0
    assert metrics.mean_queue_length == 0.0


def test_fractions_partition_robot_time():
    metrics = run_episode(config_for("fcfs", p=0.4, horizon=500), seed=3)
    assert abs(
        metrics.serve_frac + metrics.switch_frac + metrics.idle_frac - 1.0
    ) <= 1e-12


def test_run_episode_deterministic():
    cfg = config_for("esl", p=0.3, horizon=400)
    assert run_episode(cfg, seed=9) == run_episode(cfg, seed=9)


def test_common_seed_gives_common_arrivals():
    """Whatever the policy, a seeded episode runs on the seed's arrival
    table: handing that table in explicitly gives the same metrics."""
    for policy in ("esl", "fcfs"):
        cfg = config_for(policy, p=0.3)
        table = _pregen_arrivals(cfg.model, cfg.horizon, seed=12)
        assert run_episode(cfg, 12, arrivals=table) == run_episode(cfg, 12)


def test_pregenerated_table_matches_per_slot_draws():
    model = ModelConfig.symmetric(3, 1, 0.4, 0.9)
    table = _pregen_arrivals(model, 100, seed=77)
    rng = np.random.default_rng(77)
    live = [list(sample_arrivals(model.arrival_probs, rng)) for _ in range(100)]
    assert table == live


def metrics_value(v):
    return EpisodeMetrics(
        discounted_cost=v,
        mean_queue_length=v,
        serve_frac=1.0,
        switch_frac=0.0,
        idle_frac=0.0,
    )


def test_aggregate_mean_and_interval():
    res = aggregate([metrics_value(v) for v in (1.0, 2.0, 3.0)], policy="esl")
    assert res.discounted_cost_mean == pytest.approx(2.0)
    # sample stdev of {1,2,3} is 1, so the half-width is 1.96 / sqrt(3)
    assert res.discounted_cost_ci == pytest.approx(1.96 / math.sqrt(3), abs=1e-12)
    assert round(res.discounted_cost_ci, 4) == 1.1316
    assert res.mean_q_ci == res.discounted_cost_ci
    assert res.episodes == 3
    assert res.policy == "esl"


def test_aggregate_identical_values_zero_width():
    res = aggregate([metrics_value(2.5)] * 4)
    assert res.discounted_cost_ci == 0.0
    assert res.discounted_cost_mean == 2.5


def test_aggregate_requires_two_episodes():
    with pytest.raises(
        InsufficientReplicationsError, match="insufficient replications"
    ):
        aggregate([metrics_value(1.0)])


def replay_cost(cfg, actions, arrivals):
    """Discounted cost of a fixed action sequence over a given arrival table."""
    state = initial_state(cfg.model)
    beta = cfg.model.discount
    total, weight = 0.0, 1.0
    for joint, arr in zip(actions, arrivals):
        total += weight * sum(state.queues)
        weight *= beta
        state = step(state, joint, arr)[0]
    return total


def esl_actions(cfg, arrivals):
    """The joint actions esl_decide takes along an arrival table."""
    state = initial_state(cfg.model)
    actions = []
    for arr in arrivals:
        joint = esl_decide(state)
        actions.append(joint)
        state = step(state, joint, arr)[0]
    return actions


def test_extra_arrival_never_cheapens_a_fixed_plan():
    """Splice one arrival into the path and replay esl's decisions on the
    original path: the replay stays feasible (queues only grow) and the
    cost rises by exactly the discounted tail weight of the extra task."""
    cfg = config_for("esl", n=3, m=1, p=0.3, horizon=250)
    beta = cfg.model.discount
    for seed in range(3):
        table = _pregen_arrivals(cfg.model, cfg.horizon, seed)
        actions = esl_actions(cfg, table)
        base_cost = run_episode(cfg, seed).discounted_cost
        assert replay_cost(cfg, actions, table) == base_cost
        table = [list(a) for a in table]
        slot = next(t for t in range(50, 200) if table[t][1] == 0)
        table[slot][1] = 1
        bumped = replay_cost(cfg, actions, table)
        assert bumped >= base_cost - 1e-12
        expected_rise = sum(beta**t for t in range(slot + 1, cfg.horizon))
        assert bumped - base_cost == pytest.approx(expected_rise, abs=1e-9)


def test_experiment_config_validation():
    model = ModelConfig.symmetric(6, 2, 0.2, 0.99)
    with pytest.raises(ValueError):
        ExperimentConfig(model, "esl", horizon=0, episodes=2, base_seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(model, "esl", horizon=10, episodes=0, base_seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(model, "greedy", horizon=10, episodes=2, base_seed=0)
    with pytest.raises(ValueError, match="alpha"):
        ExperimentConfig(
            model, "esl", horizon=10, episodes=2, base_seed=0, alpha=0.5
        )
    ok = ExperimentConfig(
        model, "esl", horizon=10, episodes=2, base_seed=0, alpha=0.6
    )
    assert ok.symmetric_p == pytest.approx(0.2)


def test_experiment_config_rejects_a_misspelled_dwell():
    model = ModelConfig.symmetric(6, 2, 0.2, 0.99)
    with pytest.raises(ValueError, match="unknown parameter 'tdwell'"):
        ExperimentConfig(
            model,
            "cyclic",
            horizon=10,
            episodes=2,
            base_seed=0,
            policy_params={"tdwell": 2},
        )


def test_symmetric_p_flags_asymmetric_rates():
    model = ModelConfig(3, 1, (0.1, 0.2, 0.1), 0.9)
    cfg = ExperimentConfig(model, "esl", horizon=5, episodes=2, base_seed=0)
    assert math.isnan(cfg.symmetric_p)


def test_episode_metrics_validation():
    with pytest.raises(ValueError):
        EpisodeMetrics(1.0, 1.0, 0.5, 0.2, 0.2)
    with pytest.raises(ValueError):
        EpisodeMetrics(-1.0, 0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        EpisodeMetrics(float("nan"), 0.0, 1.0, 0.0, 0.0)


def test_short_arrival_table_rejected():
    cfg = config_for("esl", horizon=50)
    with pytest.raises(ValueError):
        run_episode(cfg, seed=0, arrivals=[[0, 0, 0]] * 10)


def test_make_grid_order_and_dwell_resolution():
    grid = make_grid(
        num_locations=6,
        robots=(2, 3),
        alphas=(0.2, 0.8),
        policies=("esl", "cyclic"),
        horizon=10,
        episodes=2,
        base_seed=1,
    )
    cells = [(c.model.num_robots, c.alpha, c.policy) for c in grid]
    assert cells == [
        (2, 0.2, "esl"),
        (2, 0.2, "cyclic"),
        (2, 0.8, "esl"),
        (2, 0.8, "cyclic"),
        (3, 0.2, "esl"),
        (3, 0.2, "cyclic"),
        (3, 0.8, "esl"),
        (3, 0.8, "cyclic"),
    ]
    for c in grid:
        if c.policy == "cyclic":
            n_block = -(-6 // c.model.num_robots)
            assert c.policy_params["t_dwell"] == tuned_dwell(
                c.symmetric_p, n_block
            )


def test_run_grid_empty():
    assert run_grid([]) == []


def test_run_grid_preserves_order_and_labels():
    grid = make_grid(
        num_locations=4,
        robots=(1,),
        alphas=(0.4,),
        policies=("esl", "fcfs"),
        horizon=60,
        episodes=3,
        base_seed=2,
    )
    results = run_grid(grid)
    assert [r.policy for r in results] == ["esl", "fcfs"]
    assert all(r.num_locations == 4 and r.num_robots == 1 for r in results)
    assert all(r.episodes == 3 for r in results)


def test_parallel_matches_sequential():
    grid = make_grid(
        num_locations=3,
        robots=(1,),
        alphas=(0.3,),
        policies=("esl",),
        horizon=80,
        episodes=4,
        base_seed=6,
    )
    assert run_grid(grid, workers=2) == run_grid(grid, workers=1)


def test_resolve_dwell_rules():
    record = dwell_metadata(0.1, 2)
    assert resolve_dwell(4, record) == 4
    assert resolve_dwell("tuned", record) == tuned_dwell(0.1, 2)
    assert resolve_dwell("scan", record) == optimize_dwell(0.1, 2)
    for bad in (0, True, "auto"):
        with pytest.raises(ValueError):
            resolve_dwell(bad, record)


def test_light_load_idles_more_than_it_switches():
    cfg = ExperimentConfig(
        model=ModelConfig.symmetric(6, 2, 0.2 / 3, 0.99),
        policy="esl",
        horizon=2000,
        episodes=5,
        base_seed=101,
        alpha=0.2,
    )
    res = run_grid([cfg])[0]
    assert res.idle > res.switch


# Lockstep engine: every lane must reproduce run_episode exactly.

LOCKSTEP_SHAPES = [(3, 1), (4, 2), (5, 2), (6, 3), (3, 3)]
LOCKSTEP_SEEDS = range(100, 120)


def lockstep_cells(policy, n, m, horizon=150):
    """One lane group: p = 0, p = 1 and the unstable alpha = 0.95, with a
    different cyclic dwell in each cell."""
    cells = []
    for dwell, p in enumerate((0.0, 1.0, 0.95 * m / n), start=1):
        params = {"t_dwell": dwell} if policy == "cyclic" else {}
        cells.append(
            ExperimentConfig(
                model=ModelConfig.symmetric(n, m, p, 0.97),
                policy=policy,
                horizon=horizon,
                episodes=len(LOCKSTEP_SEEDS),
                base_seed=LOCKSTEP_SEEDS[0],
                policy_params=params,
            )
        )
    return cells


@pytest.mark.parametrize("n,m", LOCKSTEP_SHAPES)
@pytest.mark.parametrize("policy", ["esl", "fcfs", "cyclic"])
def test_lockstep_matches_run_episode(monkeypatch, policy, n, m):
    # small arrival chunks, so lanes cross several chunk boundaries
    monkeypatch.setattr(evaluator, "_ARRIVAL_CHUNK_ROWS", 7)
    lanes = [
        (cell, seed)
        for cell in lockstep_cells(policy, n, m)
        for seed in LOCKSTEP_SEEDS
    ]
    assert evaluator.run_lockstep(lanes) == [
        run_episode(cell, seed) for cell, seed in lanes
    ]


@pytest.mark.parametrize("n,m", LOCKSTEP_SHAPES)
@pytest.mark.parametrize("policy", ["esl", "fcfs", "cyclic"])
def test_run_grid_lockstep_matches_run_episode(monkeypatch, policy, n, m):
    grid = lockstep_cells(policy, n, m, horizon=90)
    want = [[run_episode(cell, seed) for seed in LOCKSTEP_SEEDS] for cell in grid]
    seen = []
    real_aggregate = evaluator.aggregate

    def capture(metrics, **labels):
        seen.append(list(metrics))
        return real_aggregate(metrics, **labels)

    def scalar_path(*args):
        raise AssertionError("a lane group this large must run in lockstep")

    monkeypatch.setattr(evaluator, "aggregate", capture)
    monkeypatch.setattr(evaluator, "run_episode", scalar_path)
    evaluator.run_grid(grid)
    assert seen == want


def test_lane_rule_runs_small_groups_through_run_episode(monkeypatch):
    cfg = config_for("fcfs", p=0.3, horizon=60)
    small = [(cfg, seed) for seed in range(evaluator.LOCKSTEP_MIN_LANES - 1)]

    def lockstep(*args):
        raise AssertionError("a small group must run episode by episode")

    monkeypatch.setattr(evaluator, "run_lockstep", lockstep)
    assert evaluator.run_lanes(small) == [run_episode(c, s) for c, s in small]


def test_lockstep_rejects_mixed_lanes():
    lanes = [(config_for("esl"), 0), (config_for("esl", m=2), 1)]
    with pytest.raises(ValueError, match="share"):
        evaluator.run_lockstep(lanes)


def lanes_at(robots, queues):
    start = SystemState(tuple(robots[0]), tuple(queues[0]))
    lanes = evaluator.LockstepLanes(len(robots), start)
    lanes.robots = np.array(robots)
    lanes.pos = lanes.base + lanes.robots
    lanes.queues[:] = queues
    return lanes


@pytest.mark.parametrize(
    "serve,end",
    [
        # lane 1, robot 0 serves an empty queue
        ([[True, False], [True, False]], [[0, 1], [0, 1]]),
        # lane 0: robot 1 switches onto robot 0's location
        ([[True, False], [False, False]], [[0, 0], [0, 1]]),
        # lane 1: both robots switch to location 2
        ([[True, False], [False, False]], [[0, 1], [2, 2]]),
        # lane 0, robot 0 serves while moving
        ([[True, False], [False, False]], [[2, 1], [0, 1]]),
        # lane 1 leaves the map past either end
        ([[True, False], [False, False]], [[0, 1], [0, 3]]),
        ([[True, False], [False, False]], [[0, 1], [-1, 1]]),
    ],
)
def test_lockstep_step_rejects_infeasible_lanes(serve, end):
    lanes = lanes_at([[0, 1], [0, 1]], [[2, 0, 1], [0, 0, 4]])
    before = (lanes.robots.copy(), lanes.queues.copy())
    with pytest.raises(InfeasibleActionError):
        lanes.step(
            np.array(serve), np.array(end), np.zeros((2, 3), dtype=bool)
        )
    assert (lanes.robots == before[0]).all()
    assert (lanes.queues == before[1]).all()


def test_lockstep_checks_every_slot(monkeypatch):
    """A decision that goes wrong in one lane at one late slot is caught."""
    real = evaluator._esl_lockstep
    calls = []

    def faulty(lanes, local, t):
        serve, end = real(lanes, local, t)
        calls.append(None)
        if len(calls) == 37:
            end = end.copy()
            end[5, 1] = end[5, 0]
        return serve, end

    monkeypatch.setattr(evaluator, "_esl_lockstep", faulty)
    cfg = config_for("esl", n=4, m=2, p=0.3, horizon=60)
    with pytest.raises(InfeasibleActionError):
        evaluator.run_lockstep([(cfg, seed) for seed in range(12)])
    assert len(calls) == 37


def test_parallel_lockstep_matches_sequential():
    grid = make_grid(
        num_locations=4,
        robots=(2,),
        alphas=(0.3, 0.9),
        policies=("esl", "fcfs", "cyclic"),
        horizon=70,
        episodes=evaluator.LOCKSTEP_MIN_LANES,
        base_seed=3,
    )
    assert run_grid(grid, workers=2) == run_grid(grid, workers=1)
