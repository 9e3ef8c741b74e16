"""Episode runner and experiment grid: discounted cost, queue-length and
robot-time metrics with 95% confidence intervals.

Episodes are deterministic functions of (config, seed).  Arrival coins for a
whole episode are drawn up front from the seed, so two policies evaluated
with the same seed face identical arrival sample paths (common random
numbers) no matter how their decisions differ.
"""

from __future__ import annotations

import math
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .model import (
    SERVE,
    SWITCH,
    ModelConfig,
    SlotDelta,
    SlotLedger,
    SystemState,
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
    with a symmetric arrival vector p = alpha * M / N.
    """

    model: ModelConfig
    policy: str
    horizon: int
    episodes: int
    base_seed: int
    alpha: float | None = None
    policy_params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be at least one slot")
        if self.episodes < 1:
            raise ValueError("episode count must be at least 1")
        if self.policy not in POLICY_NAMES:
            raise ValueError(f"unknown policy name: {self.policy!r}")
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


@dataclass
class EpisodeTrace:
    """run_episode plus the per-slot series needed for audits: queue totals,
    joint actions, raw arrival/departure vectors and the cumulative ledger."""

    metrics: EpisodeMetrics
    queue_totals: list[int]
    actions: list[tuple]
    arrivals: list[tuple[int, ...]]
    departures: list[tuple[int, ...]]
    ledger: SlotLedger
    final_state: SystemState


def _pregen_arrivals(
    model: ModelConfig, horizon: int, seed: int
) -> list[list[int]]:
    """Draw the whole episode's arrival indicators at once.

    One uniform per (slot, location) in row-major order, which matches what
    per-slot sample_arrivals calls on the same generator would consume.
    """
    rng = np.random.default_rng(seed)
    u = rng.random((horizon, model.num_locations))
    return (u < np.asarray(model.arrival_probs)).astype(np.int8).tolist()


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
    return _episode_loop(config, seed, arrivals, None)[0]


def trace_episode(
    config: ExperimentConfig,
    seed: int,
    arrivals: Sequence[Sequence[int]] | None = None,
) -> EpisodeTrace:
    """run_episode with full per-slot bookkeeping.

    Runs the same slot loop as run_episode, with a recorder that keeps each
    slot's queue total, joint action and arrival/departure vectors.
    """
    slots: list[tuple[int, tuple, SlotDelta]] = []
    metrics, state = _episode_loop(config, seed, arrivals, slots.append)
    ledger = SlotLedger.empty(config.model.num_locations)
    for _, _, delta in slots:
        ledger.record(delta)
    return EpisodeTrace(
        metrics,
        [total for total, _, _ in slots],
        [joint for _, joint, _ in slots],
        [delta.arrivals for _, _, delta in slots],
        [delta.departures for _, _, delta in slots],
        ledger,
        state,
    )


def _episode_loop(
    config: ExperimentConfig,
    seed: int,
    arrivals: Sequence[Sequence[int]] | None,
    record: Callable[[tuple[int, tuple, SlotDelta]], None] | None,
) -> tuple[EpisodeMetrics, SystemState]:
    """The slot loop behind run_episode and trace_episode.

    Returns the metrics and the final state.  record, when given, is called
    once per slot with the tuple (queue total at the start of the slot,
    joint action, slot delta).
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
        if record is not None:
            record((total, joint, delta))
        for act in joint:
            kind = act.kind
            if kind == SERVE:
                serve_ct += 1
            elif kind == SWITCH:
                switch_ct += 1
    robot_slots = model.num_robots * horizon
    idle_ct = robot_slots - serve_ct - switch_ct
    metrics = EpisodeMetrics(
        discounted_cost=discounted,
        mean_queue_length=queue_total_sum / (horizon * model.num_locations),
        serve_frac=serve_ct / robot_slots,
        switch_frac=switch_ct / robot_slots,
        idle_frac=idle_ct / robot_slots,
    )
    return metrics, state


def _ci_half_width(values: Sequence[float]) -> float:
    # normal 1.96 multiplier; R is large enough that Student-t is moot
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
    """
    results: list[AggregateResult] = []
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for config in grid:
            seeds = range(config.base_seed, config.base_seed + config.episodes)
            if pool is None:
                metrics = [run_episode(config, seed) for seed in seeds]
            else:
                configs = [config] * config.episodes
                metrics = list(
                    pool.map(run_episode, configs, seeds, chunksize=4)
                )
            results.append(
                aggregate(
                    metrics,
                    num_locations=config.model.num_locations,
                    num_robots=config.model.num_robots,
                    alpha=config.alpha,
                    p=config.symmetric_p,
                    policy=config.policy,
                )
            )
    finally:
        if pool is not None:
            pool.shutdown()
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
    numbers).  The cyclic dwell is resolved here, once per cell, so episode
    workers never re-run the tuning.
    """
    grid: list[ExperimentConfig] = []
    for m in robots:
        n_block = block_size(num_locations, m)
        for alpha in alphas:
            p = alpha * m / num_locations
            model = ModelConfig.symmetric(num_locations, m, p, discount)
            for name in policies:
                params: dict = {}
                if name == "cyclic":
                    params["t_dwell"] = resolve_dwell(
                        dwell, p, n_block, search_max
                    )
                grid.append(
                    ExperimentConfig(
                        model=model,
                        policy=name,
                        horizon=horizon,
                        episodes=episodes,
                        base_seed=base_seed,
                        alpha=alpha,
                        policy_params=params,
                    )
                )
    return grid


def grid_dwell_metadata(
    grid: Sequence[ExperimentConfig], search_max: int = 1000
) -> list[dict]:
    """Dwell tuning records (both conventions) for each cyclic cell of a
    grid built by make_grid."""
    out = []
    for c in grid:
        if c.policy == "cyclic":
            m = c.model.num_robots
            rec = {"num_robots": m, "alpha": c.alpha}
            rec.update(
                dwell_metadata(
                    c.symmetric_p,
                    block_size(c.model.num_locations, m),
                    search_max,
                )
            )
            out.append(rec)
    return out
