"""Episode runner and experiment grid: discounted cost, queue-length and
robot-time metrics with 95% confidence intervals.

Episodes are deterministic functions of (config, seed).  Arrival coins for a
whole episode are drawn up front from the seed, so two policies evaluated
with the same seed face identical arrival sample paths (common random
numbers) no matter how their decisions differ.

run_episode is the reference slot loop.  run_grid runs large groups of
episodes through run_lockstep, which advances many episodes together as
integer arrays and reproduces run_episode's metrics exactly.  Both engines
draw arrivals with _draw_arrivals, build each lane's policy with make_policy
and their metrics with _metrics.  The cyclic patrol is a closed form in the
slot index (policies.cyclic_decide), so its lockstep rule keeps no state.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import (
    SERVE,
    SWITCH,
    LockstepLanes,
    ModelConfig,
    initial_state,
    step,
)
from .policies import (
    POLICY_NAMES,
    block_size,
    dwell_metadata,
    make_policy,
    resolve_dwell,
)

PRNG_ID = "numpy.random.default_rng (PCG64)"


class InsufficientReplicationsError(ValueError):
    """Confidence intervals need at least two episodes."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One cell of the experiment grid: instance, policy, run lengths.

    alpha, when given, is the per-robot load factor; it must be consistent
    with a symmetric arrival vector p = alpha * M / N.  dwell_record is the
    dwell tuning record (dwell_metadata) make_grid keeps for a cyclic cell.
    """

    model: ModelConfig
    policy: str
    horizon: int
    episodes: int
    base_seed: int
    alpha: float | None = None
    policy_params: dict = field(default_factory=dict)
    dwell_record: dict | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be at least one slot")
        if self.episodes < 1:
            raise ValueError("episode count must be at least 1")
        make_policy(self.policy, self.model, **self.policy_params)
        if self.alpha is not None:
            m = self.model
            want = self.alpha * m.num_robots / m.num_locations
            for p in m.arrival_probs:
                if abs(p - want) > 1e-12:
                    raise ValueError(
                        "alpha inconsistent with arrival probabilities"
                    )

    @property
    def symmetric_p(self) -> float:
        """Common arrival probability; NaN if the vector is asymmetric."""
        probs = self.model.arrival_probs
        if all(p == probs[0] for p in probs):
            return probs[0]
        return float("nan")


@dataclass(frozen=True)
class EpisodeMetrics:
    """Outcome of one episode.

    mean_queue_length is the per-location time average
    (1/T) sum_t (1/N) sum_i x_i(t); the action fractions are over all
    M*T robot-slots and partition them exactly.
    """

    discounted_cost: float
    mean_queue_length: float
    serve_frac: float
    switch_frac: float
    idle_frac: float

    def __post_init__(self) -> None:
        for v in (
            self.discounted_cost,
            self.mean_queue_length,
            self.serve_frac,
            self.switch_frac,
            self.idle_frac,
        ):
            if not math.isfinite(v) or v < 0.0:
                raise ValueError("metrics must be finite and non-negative")
        if abs(self.serve_frac + self.switch_frac + self.idle_frac - 1.0) > 1e-12:
            raise ValueError("action fractions must sum to 1")


@dataclass(frozen=True)
class AggregateResult:
    """Per-cell means and 95% CI half-widths over episodes.

    Field names mirror the results.csv columns; serve/switch/idle are the
    mean robot-time fractions.
    """

    num_locations: int
    num_robots: int
    alpha: float | None
    p: float
    policy: str
    episodes: int
    discounted_cost_mean: float
    discounted_cost_ci: float
    mean_q_mean: float
    mean_q_ci: float
    serve: float
    serve_ci: float
    switch: float
    switch_ci: float
    idle: float
    idle_ci: float


# Arrival-table rows drawn per generator call; PCG64 yields the same stream
# whether the rows come at once or in chunks.
_ARRIVAL_CHUNK_ROWS = 1024


def _draw_arrivals(model: ModelConfig, seed: int, out: np.ndarray) -> None:
    """Fill out, a (horizon, N) bool array or view, with the episode's
    arrival indicators: one default_rng(seed) uniform per (slot, location)
    in row-major order, drawn in row chunks so no (horizon, N) float block
    is held."""
    rng = np.random.default_rng(seed)
    probs = np.asarray(model.arrival_probs)
    for t0 in range(0, len(out), _ARRIVAL_CHUNK_ROWS):
        chunk = out[t0:t0 + _ARRIVAL_CHUNK_ROWS]
        np.less(rng.random(chunk.shape), probs, out=chunk)


def _pregen_arrivals(
    model: ModelConfig, horizon: int, seed: int
) -> list[list[int]]:
    """Draw the whole episode's arrival indicators at once, as 0/1 rows.

    The uniforms come in the order per-slot sample_arrivals calls on the
    same generator would consume them.
    """
    table = np.empty((horizon, model.num_locations), dtype=bool)
    _draw_arrivals(model, seed, table)
    return table.view(np.int8).tolist()


def _metrics(
    config: ExperimentConfig,
    discounted: float,
    queued: int,
    served: int,
    switched: int,
) -> EpisodeMetrics:
    """EpisodeMetrics of one episode from its discounted cost and its
    sums over slots of the queue total, serving robots and switching
    robots."""
    horizon = config.horizon
    robot_slots = config.model.num_robots * horizon
    return EpisodeMetrics(
        discounted_cost=discounted,
        mean_queue_length=queued / (horizon * config.model.num_locations),
        serve_frac=served / robot_slots,
        switch_frac=switched / robot_slots,
        idle_frac=(robot_slots - served - switched) / robot_slots,
    )


def run_episode(
    config: ExperimentConfig,
    seed: int,
    arrivals: Sequence[Sequence[int]] | None = None,
) -> EpisodeMetrics:
    """Simulate one episode and return its metrics.

    Cost is read at the start of each slot, before service and arrivals.
    Passing an explicit arrivals table (horizon x N indicators) bypasses the
    seeded draw; tests use that to splice extra arrivals into a path.
    """
    model = config.model
    horizon = config.horizon
    policy = make_policy(config.policy, model, **config.policy_params)
    state = initial_state(model)
    policy.reset(state)
    if arrivals is None:
        arrivals = _pregen_arrivals(model, horizon, seed)
    elif len(arrivals) < horizon:
        raise ValueError("arrival table shorter than the horizon")
    beta = model.discount
    discounted = 0.0
    weight = 1.0
    queue_total_sum = 0
    serve_ct = 0
    switch_ct = 0
    decide = policy.decide
    observe = policy.observe
    for t in range(horizon):
        total = sum(state.queues)
        discounted += weight * total
        weight *= beta
        queue_total_sum += total
        joint = decide(state, t)
        state, delta = step(state, joint, arrivals[t])
        observe(delta, t)
        for act in joint:
            kind = act.kind
            if kind == SERVE:
                serve_ct += 1
            elif kind == SWITCH:
                switch_ct += 1
    return _metrics(config, discounted, queue_total_sum, serve_ct, switch_ct)


# A group of episodes with fewer lanes than this runs episode by episode
# through run_episode: below it the lockstep engine's fixed numpy cost per
# slot outweighs the lanes it shares that cost across.
LOCKSTEP_MIN_LANES = 10


def _esl_lockstep(lanes: LockstepLanes, local: np.ndarray, t: int):
    """esl_decide in every lane: robots on nonempty queues serve; the k-th
    remaining robot (by index) takes the k-th unoccupied nonempty location
    ordered by (-queue, index), and robots past the last target idle."""
    serve = local > 0
    seek = ~serve
    if not seek.any():
        return serve, lanes.robots
    queues = lanes.queues
    free = queues > 0
    free.reshape(-1)[lanes.pos] = False
    order = np.argsort(np.where(free, -queues, 1), axis=1, kind="stable")
    rank = np.cumsum(seek, axis=1) - 1
    gets = seek & (rank < free.sum(axis=1, keepdims=True))
    dest = order.reshape(-1).take(lanes.base + rank)
    return serve, np.where(gets, dest, lanes.robots)


def _cyclic_lockstep(group: Sequence[tuple[ExperimentConfig, int]]):
    """cyclic_decide in every lane, with per-lane dwell: each robot's end
    location is the closed form of the slot index, with the legs CyclicPolicy
    reads from the start state."""
    policies = [
        make_policy(c.policy, c.model, **c.policy_params) for c, _ in group
    ]
    policies[0].reset(initial_state(group[0][0].model))
    leads, starts, sizes = np.array(policies[0].legs).T
    dwell = np.array([[policy.t_dwell] for policy in policies])

    def decide(lanes: LockstepLanes, local: np.ndarray, t: int):
        end = starts + (t + 1 - leads) // (dwell + 1) % sizes
        return (end == lanes.robots) & (local > 0), end

    return decide


def _fcfs_lockstep(table: np.ndarray, num_robots: int):
    """fcfs_decide in every lane.  Service is FIFO and queues start empty,
    so the oldest waiting task at a location is its next unserved arrival:
    one cursor per location into that location's arrival slots stands in
    for FcfsPolicy's per-location deques of waiting tasks."""
    horizon, num_lanes, n = table.shape
    counts = table.sum(axis=0).reshape(-1)
    cursor = np.zeros(num_lanes * n, dtype=np.int64)
    np.cumsum(counts[:-1], out=cursor[1:])
    cursor = cursor.reshape(num_lanes, n)
    # arrival slots by lane, then location, then time; one sentinel slot
    # keeps the cursor of an exhausted last location in bounds
    stamps = np.zeros(int(counts.sum()) + 1, dtype=np.int32)
    for k in range(num_lanes):
        lo = cursor[k, 0]
        slots = np.nonzero(table[:, k, :].T)[1]
        stamps[lo:lo + len(slots)] = slots
    robot_ids = np.arange(num_robots)
    robot_base = np.arange(num_lanes) * num_robots
    tiebreak = np.arange(n)
    # rank key (arrival slot, not hosted, index) packed into one integer
    width = np.int64(2 * n)
    empty_key = np.iinfo(np.int64).max

    def decide(lanes: LockstepLanes, local: np.ndarray, t: int):
        queues, robots, pos = lanes.queues, lanes.robots, lanes.pos
        nonempty = queues > 0
        waiting = nonempty.sum(axis=1)
        host = np.full(queues.shape, -1)
        host.reshape(-1)[pos] = robot_ids
        key = stamps.take(cursor) * width + (host < 0) * n + tiebreak
        order = np.argsort(
            np.where(nonempty, key, empty_key), axis=1, kind="stable"
        )
        # walk the ranking: each of the first min(M, waiting) locations
        # takes its host if still free, else the lowest free robot
        assigned = np.zeros(robots.size, dtype=bool)
        end = robots.copy()
        flat_end = end.reshape(-1)
        for k in range(num_robots):
            active = waiting > k
            if not active.any():
                break
            loc = order[:, k]
            h = host.reshape(-1).take(lanes.base[:, 0] + loc)
            own = (h >= 0) & ~assigned.take(robot_base + h)
            spare = robot_base + np.argmin(
                assigned.reshape(-1, num_robots), axis=1
            )
            switch = active & ~own
            flat_end[spare[switch]] = loc[switch]
            assigned[np.where(own, robot_base + h, spare)[active]] = True
        # a switcher never targets its own location, so the robots that
        # stay put are the hosts kept in place and the unmatched ones
        serve = (end == robots) & (local > 0)
        cursor.reshape(-1)[pos[serve]] += 1
        return serve, end

    return decide


def _lockstep_arrivals(
    group: Sequence[tuple[ExperimentConfig, int]], horizon: int, n: int
) -> np.ndarray:
    """(horizon, R, N) bool arrival table; lane k is drawn by _draw_arrivals
    from its own seed, exactly as run_episode draws it."""
    table = np.empty((horizon, len(group), n), dtype=bool)
    for k, (config, seed) in enumerate(group):
        _draw_arrivals(config.model, seed, table[:, k])
    return table


def _lane_group_key(config: ExperimentConfig) -> tuple:
    """What the lanes of one lockstep group must share; p and the cyclic
    dwell may differ from lane to lane."""
    m = config.model
    return (
        m.num_locations,
        m.num_robots,
        m.discount,
        config.horizon,
        config.policy,
    )


def run_lockstep(
    group: Sequence[tuple[ExperimentConfig, int]],
) -> list[EpisodeMetrics]:
    """run_episode(config, seed) for every (config, seed) lane at once.

    The lanes must agree on N, M, discount, horizon and policy.  All lanes
    advance one slot per step as integer arrays, each decision rule is
    vectorised across lanes and given the slot index, LockstepLanes.step
    checks feasibility every slot, and the metrics are accumulated with the
    same float operations in the same order as run_episode's slot loop and
    built by the same _metrics, so each lane's EpisodeMetrics equals
    run_episode's exactly.
    """
    if not group:
        return []
    first = group[0][0]
    if any(_lane_group_key(c) != _lane_group_key(first) for c, _ in group):
        raise ValueError(
            "lockstep lanes must share N, M, discount, horizon and policy"
        )
    n, m = first.model.num_locations, first.model.num_robots
    horizon, beta = first.horizon, first.model.discount
    table = _lockstep_arrivals(group, horizon, n)
    if first.policy == "esl":
        decide = _esl_lockstep
    elif first.policy == "fcfs":
        decide = _fcfs_lockstep(table, m)
    else:
        decide = _cyclic_lockstep(group)
    lanes = LockstepLanes(len(group), initial_state(first.model))
    discounted = np.zeros(len(group))
    weight = 1.0
    queue_total_sum = np.zeros(len(group), dtype=np.int64)
    serve_ct = np.zeros((len(group), m), dtype=np.int64)
    switch_ct = np.zeros((len(group), m), dtype=np.int64)
    for t in range(horizon):
        total = lanes.queues.sum(axis=1)
        discounted += weight * total
        weight *= beta
        queue_total_sum += total
        serve, end = decide(lanes, lanes.local(), t)
        serve_ct += serve
        switch_ct += end != lanes.robots
        lanes.step(serve, end, table[t])
    return [
        _metrics(config, cost, queued, served, switched)
        for (config, _), cost, queued, served, switched in zip(
            group,
            discounted.tolist(),
            queue_total_sum.tolist(),
            serve_ct.sum(axis=1).tolist(),
            switch_ct.sum(axis=1).tolist(),
        )
    ]


def run_lanes(
    group: Sequence[tuple[ExperimentConfig, int]],
) -> list[EpisodeMetrics]:
    """Metrics of every (config, seed) lane of one group, in order: through
    run_lockstep from LOCKSTEP_MIN_LANES lanes up, else run_episode."""
    if len(group) < LOCKSTEP_MIN_LANES:
        return [run_episode(config, seed) for config, seed in group]
    return run_lockstep(group)


def _ci_half_width(values: Sequence[float]) -> float:
    # normal 1.96 multiplier, not Student-t, so the interval is short of 95%
    # at small R: measured coverage is about 70% at R = 2, 91% at R = 10.
    return 1.96 * statistics.stdev(values) / math.sqrt(len(values))


def aggregate(
    metrics: Sequence[EpisodeMetrics],
    *,
    num_locations: int = 0,
    num_robots: int = 0,
    alpha: float | None = None,
    p: float = float("nan"),
    policy: str = "",
) -> AggregateResult:
    """Mean and 95% CI half-width per metric over the episode list."""
    if len(metrics) < 2:
        raise InsufficientReplicationsError("insufficient replications")
    cols = {
        "discounted_cost": [m.discounted_cost for m in metrics],
        "mean_q": [m.mean_queue_length for m in metrics],
        "serve": [m.serve_frac for m in metrics],
        "switch": [m.switch_frac for m in metrics],
        "idle": [m.idle_frac for m in metrics],
    }
    return AggregateResult(
        num_locations=num_locations,
        num_robots=num_robots,
        alpha=alpha,
        p=p,
        policy=policy,
        episodes=len(metrics),
        discounted_cost_mean=statistics.fmean(cols["discounted_cost"]),
        discounted_cost_ci=_ci_half_width(cols["discounted_cost"]),
        mean_q_mean=statistics.fmean(cols["mean_q"]),
        mean_q_ci=_ci_half_width(cols["mean_q"]),
        serve=statistics.fmean(cols["serve"]),
        serve_ci=_ci_half_width(cols["serve"]),
        switch=statistics.fmean(cols["switch"]),
        switch_ci=_ci_half_width(cols["switch"]),
        idle=statistics.fmean(cols["idle"]),
        idle_ci=_ci_half_width(cols["idle"]),
    )


def run_grid(
    grid: Sequence[ExperimentConfig], workers: int = 1
) -> list[AggregateResult]:
    """Run every config and aggregate, preserving input order.

    Episode seeds are base_seed + episode index, so configs sharing a
    base_seed (the policies within one cell) see common random numbers.
    The episodes of all configs that share N, M, discount, horizon and
    policy form one lane group for run_lanes; with workers > 1 a process
    pool runs whole groups.
    """
    groups: dict[tuple, list[int]] = {}
    for i, config in enumerate(grid):
        groups.setdefault(_lane_group_key(config), []).append(i)
    lane_groups = (
        [
            (grid[i], seed)
            for i in cells
            for seed in range(
                grid[i].base_seed, grid[i].base_seed + grid[i].episodes
            )
        ]
        for cells in groups.values()
    )
    if workers <= 1:
        return _aggregate_groups(grid, groups, map(run_lanes, lane_groups))
    # imported only when asked for: the pool machinery costs about 2 MB of
    # memory and 20 ms of start-up that a single-process run never needs
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return _aggregate_groups(
            grid, groups, pool.map(run_lanes, lane_groups)
        )


def _aggregate_groups(
    grid: Sequence[ExperimentConfig],
    groups: dict[tuple, list[int]],
    outputs,
) -> list[AggregateResult]:
    """Aggregate each lane group's metrics into its cells as the group
    completes, so only one group's episodes are held at a time."""
    results: list[AggregateResult] = [None] * len(grid)
    for cells, metrics in zip(groups.values(), outputs):
        it = iter(metrics)
        for i in cells:
            config = grid[i]
            results[i] = aggregate(
                [next(it) for _ in range(config.episodes)],
                num_locations=config.model.num_locations,
                num_robots=config.model.num_robots,
                alpha=config.alpha,
                p=config.symmetric_p,
                policy=config.policy,
            )
    return results


def make_grid(
    num_locations: int = 6,
    robots: Sequence[int] = (2, 3),
    alphas: Sequence[float] = (0.2, 0.5, 0.8),
    policies: Sequence[str] = POLICY_NAMES,
    horizon: int = 10000,
    episodes: int = 100,
    discount: float = 0.99,
    base_seed: int = 20260801,
    dwell="tuned",
    search_max: int = 1000,
) -> list[ExperimentConfig]:
    """Experiment grid ordered robots, then load, then policy.

    Every policy inside a cell gets the same base_seed (common random
    numbers).  The cyclic dwell is tuned here, with one scan per cell whose
    record the cell keeps, so neither episode workers nor the run manifest
    tune it again.
    """
    grid: list[ExperimentConfig] = []
    for m in robots:
        n_block = block_size(num_locations, m)
        for alpha in alphas:
            p = alpha * m / num_locations
            model = ModelConfig.symmetric(num_locations, m, p, discount)
            for name in policies:
                params: dict = {}
                record = None
                if name == "cyclic":
                    record = dwell_metadata(p, n_block, search_max)
                    params["t_dwell"] = resolve_dwell(dwell, record)
                grid.append(
                    ExperimentConfig(
                        model=model,
                        policy=name,
                        horizon=horizon,
                        episodes=episodes,
                        base_seed=base_seed,
                        alpha=alpha,
                        policy_params=params,
                        dwell_record=record,
                    )
                )
    return grid


def grid_dwell_metadata(grid: Sequence[ExperimentConfig]) -> list[dict]:
    """Dwell tuning records (both conventions) for each cyclic cell of a
    grid built by make_grid."""
    return [
        {
            "num_robots": c.model.num_robots,
            "alpha": c.alpha,
            **c.dwell_record,
        }
        for c in grid
        if c.policy == "cyclic"
    ]
