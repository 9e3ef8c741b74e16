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
from eslsim.model import arrival_table, lane_feasible


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


def shrink_scan_chunks(monkeypatch, rows):
    """Make the cyclic scan advance rows slots per time chunk."""
    monkeypatch.setattr(evaluator, "_SCAN_CHUNK_ENTRIES", 1)
    monkeypatch.setattr(evaluator, "_SCAN_MIN_ROWS", rows)


@pytest.mark.parametrize("n,m", LOCKSTEP_SHAPES)
@pytest.mark.parametrize("policy", ["esl", "fcfs", "cyclic"])
def test_lockstep_matches_run_episode(monkeypatch, policy, n, m):
    # small arrival and scan chunks, so lanes cross several chunk boundaries
    monkeypatch.setattr("eslsim.model._ARRIVAL_CHUNK_ROWS", 7)
    shrink_scan_chunks(monkeypatch, 11)
    lanes = [
        (cell, seed)
        for cell in lockstep_cells(policy, n, m)
        for seed in LOCKSTEP_SEEDS
    ]
    engine = (
        evaluator.run_cyclic_scan
        if policy == "cyclic"
        else evaluator.run_lockstep
    )
    assert engine(lanes) == [run_episode(cell, seed) for cell, seed in lanes]


def test_lanes_sharing_a_seed_draw_it_once(monkeypatch):
    """Each seed's generator serves every lane with that seed, whatever
    its p, and each lane's table is still its own seed's draw."""
    monkeypatch.setattr("eslsim.model._ARRIVAL_CHUNK_ROWS", 7)
    lanes = [
        (cell, seed)
        for cell in lockstep_cells("esl", 6, 3, horizon=30)
        for seed in (5, 3, 9)
    ] + [(lockstep_cells("esl", 6, 3, horizon=30)[2], 4)]
    real_rng = np.random.default_rng
    built = []

    def counting_rng(seed):
        built.append(seed)
        return real_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    table = arrival_table(
        [seed for _, seed in lanes],
        [cell.model.arrival_probs for cell, _ in lanes],
        30,
    )
    assert built == [5, 3, 9, 4]
    monkeypatch.setattr(np.random, "default_rng", real_rng)
    for k, (cell, seed) in enumerate(lanes):
        want = real_rng(seed).random((30, 6)) < cell.model.arrival_probs
        assert (table[:, k] == want).all()


def mixed_cyclic_lanes(n, m, count, horizon=120):
    """count cyclic lanes of one group, cycling through p = 0, p = 1, an
    unstable alpha = 1.1 and a stable alpha = 0.4, each with its own dwell
    (1, 2, 3, 5) and seed."""
    cells = []
    for dwell, p in zip((1, 2, 3, 5), (0.0, 1.0, 1.1 * m / n, 0.4 * m / n)):
        cells.append(
            ExperimentConfig(
                model=ModelConfig.symmetric(n, m, p, 0.97),
                policy="cyclic",
                horizon=horizon,
                episodes=2,
                base_seed=0,
                policy_params={"t_dwell": dwell},
            )
        )
    return [(cells[k % len(cells)], 300 + k) for k in range(count)]


@pytest.mark.parametrize("n,m", [(6, 3), (5, 2), (7, 4)])
@pytest.mark.parametrize(
    "count", range(1, evaluator.LOCKSTEP_MIN_LANES + 3)
)
def test_scan_matches_run_episode_at_every_lane_count(
    monkeypatch, count, n, m
):
    lanes = mixed_cyclic_lanes(n, m, count)
    want = [run_episode(cell, seed) for cell, seed in lanes]
    # one-slot chunks, then chunks that leave a short last one
    for rows in (1, 13):
        shrink_scan_chunks(monkeypatch, rows)
        assert evaluator.run_cyclic_scan(lanes) == want


def test_scan_matches_run_episode_at_the_default_chunk_size():
    """The real chunk size, on a group wide enough for several chunks."""
    lanes = mixed_cyclic_lanes(6, 2, 12, horizon=600)
    rows = evaluator._SCAN_CHUNK_ENTRIES // (12 * 6)
    assert 600 // rows >= 2
    assert evaluator.run_cyclic_scan(lanes) == [
        run_episode(cell, seed) for cell, seed in lanes
    ]


def test_run_lanes_sends_small_cyclic_groups_to_the_scan(monkeypatch):
    lanes = mixed_cyclic_lanes(6, 3, 2)
    want = [run_episode(cell, seed) for cell, seed in lanes]

    def scalar_path(*args):
        raise AssertionError("a cyclic group runs through the scan")

    monkeypatch.setattr(evaluator, "run_episode", scalar_path)
    assert evaluator.run_lanes(lanes) == want


def test_scan_and_lockstep_reject_each_others_policies():
    with pytest.raises(ValueError, match="cyclic"):
        evaluator.run_cyclic_scan([(config_for("esl"), 0)])
    with pytest.raises(ValueError, match="run_cyclic_scan"):
        evaluator.run_lockstep(mixed_cyclic_lanes(6, 3, 2))


@pytest.mark.parametrize("fault", ["shared", "off the map"])
def test_scan_checks_the_schedule_in_every_chunk(monkeypatch, fault):
    """A schedule that goes wrong in one lane at one late slot, in a late
    chunk, is caught."""
    shrink_scan_chunks(monkeypatch, 10)
    lanes = mixed_cyclic_lanes(6, 3, 12)
    real = evaluator.patrol_end
    bad_slot, chunks = 93, []

    def faulty(now, leads, starts, sizes, dwell):
        end = real(now, leads, starts, sizes, dwell)
        chunks.append(int(now[0, 0, 0]))
        if now[0, 0, 0] <= bad_slot <= now[-1, 0, 0]:
            row = end[bad_slot - now[0, 0, 0], 7]
            row[1] = row[0] if fault == "shared" else 6
        return end

    monkeypatch.setattr(evaluator, "patrol_end", faulty)
    with pytest.raises(InfeasibleActionError):
        evaluator.run_cyclic_scan(lanes)
    # raised in the faulty chunk, two short of the last
    assert chunks == list(range(0, 100, 10))


def test_scan_conservation_check_catches_a_corrupt_carry(monkeypatch):
    """A queue corrupted as it is carried across a chunk boundary breaks
    final queue = arrivals - departures."""
    shrink_scan_chunks(monkeypatch, 10)
    lanes = mixed_cyclic_lanes(6, 3, 12)
    real = evaluator._lindley
    calls = []

    def corrupt(queues, serve, arrivals):
        start, carried = real(queues, serve, arrivals)
        calls.append(None)
        if len(calls) == 9:
            carried = carried.copy()
            carried[5, 4] += 1
        return start, carried

    monkeypatch.setattr(evaluator, "_lindley", corrupt)
    with pytest.raises(RuntimeError, match="conservation"):
        evaluator.run_cyclic_scan(lanes)
    assert len(calls) == 12


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


# (serve, end, the one lane that fails) from lanes_at's two lanes, robots
# (0, 1) over queues (2, 0, 1) and (0, 0, 4)
INFEASIBLE_STEPS = [
    # lane 1, robot 0 serves an empty queue
    ([[True, False], [True, False]], [[0, 1], [0, 1]], 1),
    # lane 0: robot 1 switches onto robot 0's location
    ([[True, False], [False, False]], [[0, 0], [0, 1]], 0),
    # lane 1: both robots switch to location 2
    ([[True, False], [False, False]], [[0, 1], [2, 2]], 1),
    # lane 0, robot 0 serves while moving
    ([[True, False], [False, False]], [[2, 1], [0, 1]], 0),
    # lane 1 leaves the map past either end
    ([[True, False], [False, False]], [[0, 1], [0, 3]], 1),
    ([[True, False], [False, False]], [[0, 1], [-1, 1]], 1),
]


@pytest.mark.parametrize(
    "serve,end", [(serve, end) for serve, end, _ in INFEASIBLE_STEPS]
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


@pytest.mark.parametrize("serve,end,lane", INFEASIBLE_STEPS)
def test_lane_feasible_flags_only_the_failing_lane(serve, end, lane):
    lanes = lanes_at([[0, 1], [0, 1]], [[2, 0, 1], [0, 0, 4]])
    ok = lane_feasible(
        lanes.robots, lanes.local(), np.array(serve), np.array(end), 3
    )
    assert ok.tolist() == [k != lane for k in range(2)]


def test_lane_feasible_passes_feasible_lanes():
    """Serving, idling, switching to a free location and onto one its
    robot leaves are all feasible, with one robot or three."""
    lanes = lanes_at([[0, 1], [2, 0]], [[2, 0, 1], [0, 0, 4]])
    serve = np.array([[True, False], [True, False]])
    end = np.array([[0, 2], [2, 1]])
    assert lane_feasible(lanes.robots, lanes.local(), serve, end, 3).all()
    one = lane_feasible(
        np.array([[0], [1]]),
        np.array([[1], [0]]),
        np.array([[True], [False]]),
        np.array([[0], [0]]),
        2,
    )
    assert one.tolist() == [True, True]
    three = lane_feasible(
        np.array([[0, 1, 2]]),
        np.array([[0, 0, 0]]),
        np.zeros((1, 3), dtype=bool),
        np.array([[1, 2, 0]]),
        3,
    )
    assert three.tolist() == [True]


def test_lockstep_checks_every_slot(monkeypatch):
    """A decision that goes wrong in one lane at one late slot is caught."""
    real = evaluator.serve_then_seek_lanes
    calls = []

    def faulty(robots, queues, *, longest_first):
        serve, end = real(robots, queues, longest_first=longest_first)
        calls.append(None)
        if len(calls) == 37:
            end = end.copy()
            end[5, 1] = end[5, 0]
        return serve, end

    monkeypatch.setattr(evaluator, "serve_then_seek_lanes", faulty)
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
