"""Episode runner and experiment grid: discounted cost, queue-length and
robot-time metrics with 95% confidence intervals.

Episodes are deterministic functions of (config, seed).  Arrival coins for a
whole episode are drawn up front from the seed, so two policies evaluated
with the same seed face identical arrival sample paths (common random
numbers) no matter how their decisions differ.

run_episode is the reference slot loop.  run_grid runs each group of
episodes through run_lanes.  Cyclic groups of any size go to
run_cyclic_scan: the patrol is a closed form in the slot index
(policies.patrol_end), so each queue is a Lindley recursion on a known
service schedule, solved with array scans one time chunk at a time, and
each chunk's schedule passes model.lane_collision_free.  Large esl and
fcfs groups go to run_lockstep, which advances many episodes together as
integer arrays, one slot per step, with policies.serve_then_seek_lanes
and policies.fcfs_lanes as its rules; it keeps only fcfs's FIFO book.
Both reproduce run_episode's metrics exactly.  Every engine draws its
arrivals with model.arrival_table, run_episode through the one-lane view
_pregen_arrivals, and builds its metrics with _metrics.
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
    InfeasibleActionError,
    LockstepLanes,
    ModelConfig,
    arrival_table,
    initial_state,
    lane_collision_free,
    step,
)
from .policies import (
    POLICY_NAMES,
    block_size,
    dwell_metadata,
    fcfs_lanes,
    make_policy,
    patrol_end,
    resolve_dwell,
    serve_then_seek_lanes,
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


def _pregen_arrivals(
    model: ModelConfig, horizon: int, seed: int
) -> list[list[int]]:
    """The episode's arrival indicators as 0/1 rows: arrival_table's one
    lane, whose uniforms come in the order per-slot sample_arrivals calls
    on the same generator would consume them."""
    table = arrival_table([seed], model.arrival_probs, horizon)[:, 0]
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


def _lane_metrics(
    group: Sequence[tuple[ExperimentConfig, int]],
    discounted, queued, served, switched,
) -> list[EpisodeMetrics]:
    """_metrics of every lane of a group, from (R,) arrays of its sums."""
    sums = (discounted, queued, served, switched)
    return [
        _metrics(config, *lane)
        for (config, _), *lane in zip(group, *(a.tolist() for a in sums))
    ]


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


def _fcfs_book(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """fcfs's FIFO book over a (horizon, R, N) arrival table, in place of
    FcfsPolicy's deques.  Queues start empty and service is FIFO, so the
    oldest task waiting at a location is its next unserved arrival: stamps
    holds the arrival slots by lane, then location, then time, and
    cursor[k, i] indexes location i's next unserved one in lane k."""
    num_lanes, n = table.shape[1:]
    counts = table.sum(axis=0).reshape(-1)
    cursor = (np.cumsum(counts) - counts).reshape(num_lanes, n)
    # one sentinel slot keeps the cursor of an exhausted last location in
    # bounds
    stamps = np.zeros(int(counts.sum()) + 1, dtype=np.int32)
    for k in range(num_lanes):
        lo = cursor[k, 0]
        slots = np.nonzero(table[:, k, :].T)[1]
        stamps[lo:lo + len(slots)] = slots
    return stamps, cursor


def _group_arrivals(
    group: Sequence[tuple[ExperimentConfig, int]],
) -> np.ndarray:
    """(horizon, R, N) arrival table of a lane group, each lane's as
    run_episode draws it."""
    return arrival_table(
        [seed for _, seed in group],
        [config.model.arrival_probs for config, _ in group],
        group[0][0].horizon,
    )


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


def _shared_config(
    group: Sequence[tuple[ExperimentConfig, int]],
) -> ExperimentConfig:
    """The first lane's config, once every lane shares its group key."""
    first = group[0][0]
    if any(_lane_group_key(c) != _lane_group_key(first) for c, _ in group):
        raise ValueError(
            "the lanes of a group must share N, M, discount, horizon and "
            "policy"
        )
    return first


def run_lockstep(
    group: Sequence[tuple[ExperimentConfig, int]],
) -> list[EpisodeMetrics]:
    """run_episode(config, seed) for every (config, seed) lane at once.

    The lanes must agree on N, M, discount, horizon and policy, esl or
    fcfs.  All lanes advance one slot per step as integer arrays, and the
    rules are the array forms in policies: serve_then_seek_lanes for esl
    and fcfs_lanes for fcfs, fed each location's oldest arrival slot from
    the FIFO book (_fcfs_book), whose cursor advances wherever a robot
    serves.  LockstepLanes.step checks feasibility every slot, and the
    metrics are accumulated with the
    same float operations in the same order as run_episode's slot loop and
    built by the same _metrics, so each lane's EpisodeMetrics equals
    run_episode's exactly.
    """
    if not group:
        return []
    first = _shared_config(group)
    if first.policy == "cyclic":
        raise ValueError("cyclic lanes run through run_cyclic_scan")
    m = first.model.num_robots
    horizon, beta = first.horizon, first.model.discount
    table = _group_arrivals(group)
    fcfs = first.policy == "fcfs"
    if fcfs:
        stamps, cursor = _fcfs_book(table)
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
        if fcfs:
            serve, end = fcfs_lanes(
                lanes.robots, lanes.queues, stamps.take(cursor)
            )
            cursor.reshape(-1)[lanes.pos[serve]] += 1
        else:
            serve, end = serve_then_seek_lanes(
                lanes.robots, lanes.queues, longest_first=True
            )
        serve_ct += serve
        switch_ct += end != lanes.robots
        lanes.step(serve, end, table[t])
    return _lane_metrics(
        group, discounted, queue_total_sum,
        serve_ct.sum(axis=1), switch_ct.sum(axis=1),
    )


# The cyclic scan runs its lanes in time chunks of about
# _SCAN_CHUNK_ENTRIES (slot, lane, location) entries, which bound its
# temporaries, but of at least _SCAN_MIN_ROWS slots, which bound the number
# of chunks: each costs a fixed few dozen numpy calls.
_SCAN_CHUNK_ENTRIES = 16384
_SCAN_MIN_ROWS = 16


def _lindley(
    queues: np.ndarray, serve: np.ndarray, arrivals: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Start-of-slot queues over one time chunk, and the queues after it.

    queues (R, N) holds q(t0); serve and arrivals are the chunk's (C, R, N)
    service indicators s(t) and arrivals a(t).  q(t + 1) =
    max(q(t) - s(t), 0) + a(t) is a Lindley recursion: with S the running
    sum of q(t0) - s(t0), a(t0) - s(t0 + 1), ..., the queue after service,
    max(q(t) - s(t), 0), is S - min(running minimum of S, 0).
    """
    dtype = queues.dtype
    left = np.empty(serve.shape, dtype)
    np.subtract(queues, serve[0], out=left[0], dtype=dtype)
    np.subtract(arrivals[:-1], serve[1:], out=left[1:], dtype=dtype)
    np.cumsum(left, axis=0, out=left)
    low = np.minimum.accumulate(left, axis=0)
    np.minimum(low, 0, out=low)
    left -= low
    # low's buffer takes the start-of-slot queues
    start = low
    start[0] = queues
    np.add(left[:-1], arrivals[:-1], out=start[1:], dtype=dtype)
    return start, left[-1] + arrivals[-1]


class _CyclicScan:
    """The cyclic lanes of one group between two time chunks of the scan:
    the patrol's legs and each lane's dwell, and what one chunk hands the
    next (queues, end positions, discount weight, discounted sums) along
    with the running sums of queue totals, switches and departures."""

    def __init__(self, group: Sequence[tuple[ExperimentConfig, int]]):
        first = group[0][0]
        horizon, n = first.horizon, first.model.num_locations
        self.num_robots = first.model.num_robots
        self.beta = first.model.discount
        # the legs depend on N, M and the start state, which lanes share
        patrol = make_policy("cyclic", first.model, **first.policy_params)
        start = initial_state(first.model)
        patrol.reset(start)
        # every slot index, location, queue length and dwell period fits
        self.dtype = dtype = np.min_scalar_type(-max(horizon, n) - 2)
        self.legs = np.array(patrol.legs, dtype).T
        # a dwell longer than the horizon never ends within it
        self.dwell = np.array(
            [[min(c.policy_params["t_dwell"], horizon)] for c, _ in group],
            dtype,
        )
        num_lanes = len(group)
        self.locations = np.arange(n, dtype=dtype)
        self.queues = np.zeros((num_lanes, n), dtype)
        self.ends = np.array([start.robots] * num_lanes, dtype)
        self.weight = 1.0
        self.discounted = np.zeros(num_lanes)
        self.queued = np.zeros(num_lanes, dtype=np.int64)
        self.switched = np.zeros(num_lanes, dtype=np.int64)
        self.departed = np.zeros((num_lanes, n), dtype=np.int64)

    def advance(self, t0: int, arrivals: np.ndarray) -> None:
        """Run slots t0, t0 + 1, ... with the chunk's (C, R, N) arrivals."""
        m, locations = self.num_robots, self.locations
        size = len(arrivals)
        slots = np.arange(t0, t0 + size, dtype=self.dtype)[:, None, None]
        end = patrol_end(slots, *self.legs, self.dwell)
        if not lane_collision_free(end.reshape(-1, m), len(locations)).all():
            raise InfeasibleActionError("infeasible cyclic schedule")
        stay = np.empty(end.shape, dtype=bool)
        np.equal(end[0], self.ends, out=stay[0])
        np.equal(end[1:], end[:-1], out=stay[1:])
        self.ends = end[-1].copy()
        self.switched += m * size - np.count_nonzero(stay, axis=(0, 2))
        # a robot serves where it starts and ends the slot, if tasks wait
        end[~stay] = -1
        serve = np.zeros(arrivals.shape, dtype=bool)
        for r in range(m):
            serve |= end[..., r, None] == locations
        start_q, self.queues = _lindley(self.queues, serve, arrivals)
        total = start_q.sum(axis=2)
        self.queued += total.sum(axis=0)
        serve &= start_q > 0
        self.departed += serve.sum(axis=0)
        weights = np.full(size, self.beta)
        weights[0] = self.weight
        np.multiply.accumulate(weights, out=weights)
        self.weight = weights[-1] * self.beta
        terms = np.empty((size + 1, len(self.discounted)))
        terms[0] = self.discounted
        np.multiply(weights[:, None], total, out=terms[1:])
        np.add.accumulate(terms, axis=0, out=terms)
        self.discounted = terms[-1].copy()


def run_cyclic_scan(
    group: Sequence[tuple[ExperimentConfig, int]],
) -> list[EpisodeMetrics]:
    """run_episode(config, seed) for every cyclic (config, seed) lane at
    once, one time chunk at a time (_CyclicScan.advance).

    The lanes must agree on N, M, discount, horizon and policy; p and the
    dwell may differ.  The patrol never reads the queues, so patrol_end
    gives every robot's end location at every slot, and a location is
    served in slot t when a robot both starts and ends the slot there.
    Each chunk checks that schedule with model.lane_collision_free (every
    end on the map, distinct ends in every slot of every lane;
    InfeasibleActionError otherwise), then
    runs each queue's Lindley recursion (_lindley).  The discount weights
    and the discounted sums accumulate in slot order with run_episode's
    float operations, so each lane's EpisodeMetrics equals run_episode's
    exactly.  At the end every queue must be non-negative and equal its
    arrivals less its departures.
    """
    if not group:
        return []
    first = _shared_config(group)
    if first.policy != "cyclic":
        raise ValueError("the scan runs cyclic lanes only")
    n, horizon = first.model.num_locations, first.horizon
    table = _group_arrivals(group)
    scan = _CyclicScan(group)
    rows = max(_SCAN_MIN_ROWS, _SCAN_CHUNK_ENTRIES // (len(group) * n))
    for t0 in range(0, horizon, rows):
        scan.advance(t0, table[t0:t0 + rows])
    queues = scan.queues
    arrived = table.sum(axis=0)
    if (queues < 0).any() or (queues != arrived - scan.departed).any():
        raise RuntimeError("queue conservation broken inside the cyclic scan")
    return _lane_metrics(
        group, scan.discounted, scan.queued,
        scan.departed.sum(axis=1), scan.switched,
    )


def run_lanes(
    group: Sequence[tuple[ExperimentConfig, int]],
) -> list[EpisodeMetrics]:
    """Metrics of every (config, seed) lane of one group, in order: cyclic
    groups through run_cyclic_scan, any size; esl and fcfs through
    run_lockstep from LOCKSTEP_MIN_LANES lanes up, else run_episode."""
    if group and group[0][0].policy == "cyclic":
        return run_cyclic_scan(group)
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
