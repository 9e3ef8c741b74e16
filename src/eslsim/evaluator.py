"""Episode runner and experiment grid: discounted cost, queue-length and
robot-time metrics with 95% confidence intervals.

Episodes are deterministic functions of (config, seed).  Arrival coins for a
whole episode are drawn up front from the seed, so two policies evaluated
with the same seed face identical arrival sample paths (common random
numbers) no matter how their decisions differ.

run_episode is the reference slot loop and the oracle the kernels are
tested against; run_grid does not call it.  run_grid runs each group of
episodes through run_lanes, the one path of a lane group.  It checks the
group, draws the group's arrivals once (model.arrival_table), sums its
episodes with one of three kernels and builds the metrics with _metrics.
run_cyclic_scan takes cyclic groups of any size: the patrol is a closed
form in the slot index (policies.patrol_end), so each queue is a Lindley
recursion on a known service schedule, solved with array scans one time
chunk at a time.  run_lockstep advances esl and fcfs groups of at least
LOCKSTEP_MIN_LANES lanes together as integer arrays, one slot per step,
with policies.serve_then_seek_lanes and policies.fcfs_lanes as its rules.
run_slot_loop runs smaller esl and fcfs groups one lane at a time on
plain int lists, with policies.serve_then_seek_ends and policies.fcfs_ends,
the integer rules that the scalar deciders render as joint actions.  All
three check feasibility and conservation and reproduce run_episode's
metrics exactly.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from operator import add
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
    lane_rows,
    step,
)
from .policies import (
    POLICY_NAMES,
    block_size,
    dwell_metadata,
    fcfs_ends,
    fcfs_lanes,
    make_policy,
    patrol_blocks,
    patrol_end,
    patrol_legs,
    resolve_dwell,
    serve_then_seek_ends,
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


# An esl or fcfs group with fewer lanes than this runs lane by lane in
# run_slot_loop, a larger one in run_lockstep.  At (6, 3) and 2,000 slots
# on 2 cores, ms per group, slot loop / lockstep (best of 3, lowest of
# three passes):
#
#   lanes            8         10        12        16        20        24
#   esl  alpha 0.2  36 / 78   46 / 81   55 / 83   74 / 83   90 / 85  109 / 85
#   esl  alpha 0.8  34 / 78   42 / 80   51 / 81   68 / 86   85 / 86  101 / 88
#   fcfs alpha 0.2  41 / 132  51 / 136  62 / 141  82 / 145 104 / 149 121 / 149
#   fcfs alpha 0.8  60 / 146  78 / 153  89 / 146 120 / 150 150 / 155 176 / 159
#
# The loop wins everywhere up to 16 lanes.  esl crosses over near 20 lanes
# and fcfs between 20 and 24 (past 24 at alpha 0.2).
LOCKSTEP_MIN_LANES = 20


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
        # flat indexes into the lane's (N, horizon) transpose, location by
        # location and in time order; one index array, not nonzero's two
        slots = np.flatnonzero(table[:, k, :].T)
        np.remainder(slots, len(table), out=slots)
        stamps[lo:lo + len(slots)] = slots
    return stamps, cursor


def _lane_group_key(config: ExperimentConfig) -> tuple:
    """What the lanes of one group must share; p and the cyclic dwell may
    differ from lane to lane."""
    m = config.model
    return (
        m.num_locations,
        m.num_robots,
        m.discount,
        config.horizon,
        config.policy,
    )


def run_slot_loop(
    group: Sequence[tuple[ExperimentConfig, int]], table: np.ndarray
) -> tuple[np.ndarray, ...]:
    """run_lanes' kernel for an esl or fcfs group below LOCKSTEP_MIN_LANES
    and its (horizon, R, N) arrival table: each lane's sums over its
    episode, as run_lockstep's.

    The lanes run one after another on plain int lists, one slot per
    step, with the integer rules serve_then_seek_ends for esl and
    fcfs_ends for fcfs: a robot serves iff it ends the slot on the nonempty
    queue it started on.  fcfs reads each location's head stamp from the
    FIFO book (_fcfs_book), whose cursor advances on each serve.  Every
    slot the end locations must be distinct and on the map
    (InfeasibleActionError otherwise), the sums repeat run_episode's float
    operations in order, and at the end every queue must be non-negative
    and each lane's queue total equal its arrivals less its serves.
    """
    first = group[0][0]
    model = first.model
    m, beta = model.num_robots, model.discount
    board = frozenset(range(model.num_locations))
    start = initial_state(model)
    fcfs = first.policy == "fcfs"
    if fcfs:
        stamps, cursors = _fcfs_book(table)
        book = memoryview(stamps)
    sums = []
    for k in range(len(group)):
        robots, queues = start.robots, list(start.queues)
        if fcfs:
            cursor = cursors[k].tolist()
            heads = [book[c] for c in cursor]
        discounted = 0.0
        weight = 1.0
        queued = served = switched = 0
        for arrivals in lane_rows(table, k):
            total = sum(queues)
            discounted += weight * total
            weight *= beta
            queued += total
            if fcfs:
                ends = fcfs_ends(robots, queues, heads)
            else:
                ends = serve_then_seek_ends(robots, queues, longest_first=True)
            # an end off the board or shared with another robot is missing
            # from the intersection
            if len(board.intersection(ends)) != m:
                raise InfeasibleActionError("infeasible action")
            for loc, end in zip(robots, ends):
                if end != loc:
                    switched += 1
                elif queues[loc] > 0:
                    queues[loc] -= 1
                    served += 1
                    if fcfs:
                        cursor[loc] += 1
                        heads[loc] = book[cursor[loc]]
            robots = ends
            queues = list(map(add, queues, arrivals))
        arrived = int(np.count_nonzero(table[:, k]))
        if min(queues) < 0 or sum(queues) != arrived - served:
            raise RuntimeError(
                "queue conservation broken inside the slot loop"
            )
        sums.append((discounted, queued, served, switched))
    return tuple(np.array(column) for column in zip(*sums))


def run_lockstep(
    group: Sequence[tuple[ExperimentConfig, int]], table: np.ndarray
) -> tuple[np.ndarray, ...]:
    """run_lanes' kernel for an esl or fcfs group and its (horizon, R, N)
    arrival table: each lane's (discounted cost, queue total, serves,
    switches) sums over its episode, as (R,) arrays.

    All lanes advance one slot per step, with serve_then_seek_lanes for
    esl and fcfs_lanes for fcfs, fed each location's oldest arrival slot
    from the FIFO book (_fcfs_book), whose cursor advances wherever a robot
    serves.  LockstepLanes.step checks feasibility every slot, the sums
    repeat run_episode's float operations in order, and at the end every
    queue must be non-negative and each lane's queue total equal its
    arrivals less its serves.
    """
    first = group[0][0]
    beta = first.model.discount
    fcfs = first.policy == "fcfs"
    if fcfs:
        stamps, cursor = _fcfs_book(table)
    lanes = LockstepLanes(len(group), initial_state(first.model))
    discounted = np.zeros(len(group))
    weight = 1.0
    queued = np.zeros(len(group), dtype=np.int64)
    serve_ct = np.zeros(lanes.robots.shape, dtype=np.int64)
    switch_ct = np.zeros(lanes.robots.shape, dtype=np.int64)
    for arrivals in table:
        total = lanes.queues.sum(axis=1)
        discounted += weight * total
        weight *= beta
        queued += total
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
        lanes.step(serve, end, arrivals)
    served = serve_ct.sum(axis=1)
    queues = lanes.queues
    arrived = table.sum(axis=(0, 2))
    if (queues < 0).any() or (queues.sum(axis=1) != arrived - served).any():
        raise RuntimeError("queue conservation broken inside the lockstep")
    return discounted, queued, served, switch_ct.sum(axis=1)


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


def run_cyclic_scan(
    group: Sequence[tuple[ExperimentConfig, int]], table: np.ndarray
) -> tuple[np.ndarray, ...]:
    """run_lanes' kernel for a cyclic group and its (horizon, R, N) arrival
    table: each lane's sums over its episode, as run_lockstep's.

    The patrol never reads the queues, so patrol_end gives every robot's
    end location at every slot, and a location is served in slot t when a
    robot both starts and ends the slot there.  Each time chunk checks
    that schedule with model.lane_collision_free (InfeasibleActionError
    otherwise), runs each queue's Lindley recursion (_lindley) and hands
    the next chunk its queues, end positions, discount weight and sums,
    which repeat run_episode's float operations in order.  At the end every
    queue must be non-negative and equal its arrivals less its departures.
    """
    first = group[0][0]
    horizon, model = first.horizon, first.model
    n, m, beta = model.num_locations, model.num_robots, model.discount
    start = initial_state(model)
    # every slot index, location, queue length and dwell period fits
    dtype = np.min_scalar_type(-max(horizon, n) - 2)
    # the legs depend on N, M and the start state, which lanes share
    legs = np.array(patrol_legs(start, patrol_blocks(n, m)), dtype).T
    # a dwell longer than the horizon never ends within it
    dwell = np.array(
        [[min(c.policy_params["t_dwell"], horizon)] for c, _ in group], dtype
    )
    locations = np.arange(n, dtype=dtype)
    queues = np.zeros((len(group), n), dtype)
    ends = np.array([start.robots] * len(group), dtype)
    weight = 1.0
    discounted = np.zeros(len(group))
    queued = np.zeros(len(group), dtype=np.int64)
    switched = np.zeros(len(group), dtype=np.int64)
    departed = np.zeros((len(group), n), dtype=np.int64)
    rows = max(_SCAN_MIN_ROWS, _SCAN_CHUNK_ENTRIES // (len(group) * n))
    for t0 in range(0, horizon, rows):
        arrivals = table[t0:t0 + rows]
        size = len(arrivals)
        slots = np.arange(t0, t0 + size, dtype=dtype)[:, None, None]
        end = patrol_end(slots, *legs, dwell)
        if not lane_collision_free(end.reshape(-1, m), n).all():
            raise InfeasibleActionError("infeasible cyclic schedule")
        stay = np.empty(end.shape, dtype=bool)
        np.equal(end[0], ends, out=stay[0])
        np.equal(end[1:], end[:-1], out=stay[1:])
        ends = end[-1].copy()
        switched += m * size - np.count_nonzero(stay, axis=(0, 2))
        # a robot serves where it starts and ends the slot, if tasks wait
        end[~stay] = -1
        serve = np.zeros(arrivals.shape, dtype=bool)
        for r in range(m):
            serve |= end[..., r, None] == locations
        start_q, queues = _lindley(queues, serve, arrivals)
        total = start_q.sum(axis=2)
        queued += total.sum(axis=0)
        serve &= start_q > 0
        departed += serve.sum(axis=0)
        weights = np.full(size, beta)
        weights[0] = weight
        np.multiply.accumulate(weights, out=weights)
        weight = weights[-1] * beta
        terms = np.empty((size + 1, len(group)))
        terms[0] = discounted
        np.multiply(weights[:, None], total, out=terms[1:])
        np.add.accumulate(terms, axis=0, out=terms)
        discounted = terms[-1].copy()
    arrived = table.sum(axis=0)
    if (queues < 0).any() or (queues != arrived - departed).any():
        raise RuntimeError("queue conservation broken inside the cyclic scan")
    return discounted, queued, departed.sum(axis=1), switched


def run_lanes(
    group: Sequence[tuple[ExperimentConfig, int]],
) -> list[EpisodeMetrics]:
    """run_episode(config, seed) for every (config, seed) lane of one
    group, in order.  The lanes must share N, M, discount, horizon and
    policy (else ValueError).  The group's arrival table is drawn once and
    a kernel sums each lane's episode: run_cyclic_scan for cyclic, and for
    esl and fcfs run_lockstep from LOCKSTEP_MIN_LANES lanes up and
    run_slot_loop below.  _metrics turns the sums into run_episode's
    EpisodeMetrics exactly."""
    if not group:
        return []
    first = group[0][0]
    key = _lane_group_key(first)
    if any(_lane_group_key(c) != key for c, _ in group):
        raise ValueError(
            "the lanes of a group must share N, M, discount, horizon and "
            "policy"
        )
    if first.policy == "cyclic":
        kernel = run_cyclic_scan
    elif len(group) < LOCKSTEP_MIN_LANES:
        kernel = run_slot_loop
    else:
        kernel = run_lockstep
    table = arrival_table(
        [seed for _, seed in group],
        [config.model.arrival_probs for config, _ in group],
        first.horizon,
    )
    sums = kernel(group, table)
    return [
        _metrics(config, *lane)
        for (config, _), *lane in zip(group, *(a.tolist() for a in sums))
    ]


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
