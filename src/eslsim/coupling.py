"""Paired sample-path experiments behind the policy-structure results.

Each scenario runs two systems, G and PI, slot by slot on one random seed.
G takes a single deviating move at slot 0 (idle instead of serve, switch
away instead of serve, idle instead of switch, or switch to the shorter of
two queues); PI takes the reference move.  Both then follow the scenario's
scripted continuation.  Two scenarios feed PI a relabeled copy of the
arrival draw (the streams of locations 0 and 1 swapped), which preserves
the joint law because those two locations share an arrival probability.

The object of interest is the cumulative departure gap
gap(t) = D_PI(t) - D_G(t), which by work conservation equals the backlog
difference sum x_G(t) - sum x_PI(t) on every path; the harness asserts that
identity every slot.  Each scenario predicts an exact piecewise shape for
gap and a slot at which the two systems merge (possibly after relabeling),
after which the gap is frozen and the discounted-cost difference can be
closed in geometric form.

Scenario codes (fixed identifiers in configs and reports):
  prop1A  deviation: switch away from a nonempty queue instead of serving.
  prop1B  deviation: idle at a nonempty queue instead of serving.
  prop2   deviation: idle at an empty queue instead of switching to a
          nonempty one; PI runs on swapped streams.
  prop4   deviation: switch to the shorter of two nonempty queues; PI runs
          on swapped streams.

Robot 0 is always the protagonist.  Any other robots are parked: they
serve their own location when it is nonempty and idle otherwise, behave
identically in both systems, and must sit away from the locations the
scenario manipulates.

Seed s's arrivals at slot t are row t of default_rng(s).random((horizon,
N)), each uniform compared with its location's probability: the draw
model.sample_arrivals makes one slot at a time.  coupled_runs, the one
engine, takes a list of scenarios and advances the seeds together as
lanes, one chunk of seeds at a time: integer arrays stepped by
LockstepLanes, which checks every lane's moves each slot as step does.
All scenarios read the same seeds, so each seed's generator is built once
per chunk and its first block of uniforms is shared by every scenario;
lanes that outlive that block draw on with model.arrival_table, the draw
every lane engine shares.  coupled_run is its one-scenario, one-seed call.
Everything particular to a scenario (its default instance, precondition,
scripted moves and meeting test, and predicted gap shape) sits in one
_Script subclass, looked up by code in _SCRIPTS.  tests/scalar_coupling.py
keeps the paired slot loop over SystemState tuples and model.step as the
oracle the lanes are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from .model import (
    LockstepLanes,
    ModelConfig,
    SystemState,
    arrival_table,
    sample_arrivals,  # noqa: F401  bound here for perfbench/tracer.py
    step,  # noqa: F401  bound here for perfbench/tracer.py
    validate_state,
)


class ScenarioPreconditionError(ValueError):
    """Initial state or rates do not satisfy the scenario hypothesis."""


@dataclass(frozen=True)
class CouplingScenario:
    """A scenario code with a concrete instance and start state."""

    name: str
    model: ModelConfig
    initial_state: SystemState

    def __post_init__(self) -> None:
        validate_scenario(self)


@dataclass
class CouplingReport:
    """Outcome of one paired run.

    gap[t] is the departure gap at slot-start t; gap[0] = 0.  tau is the
    scenario's landmark slot: the deviator's return slot (prop1A), the
    catch-up slot (prop1B), the slot the working queues first agree
    (prop2), or the slot the shorter queue first empties (prop4).  k is the
    prop4 catch-up length, None elsewhere.  Once coupled, the gap is frozen
    at terminal_gap and discounted_diff includes the geometric tail; for an
    uncoupled run (horizon too short) discounted_diff is the truncated sum.
    """

    scenario: str
    seed: int
    horizon: int
    discount: float
    initial_state: SystemState
    gap: tuple[int, ...]
    tau: int | None
    k: int | None
    coupling_time: int | None
    coupled: bool
    terminal_gap: int
    discounted_diff: float


def _swap01_index(n: int) -> np.ndarray:
    """Locations 0..n-1 with 0 and 1 exchanged, as an index array."""
    return np.array([1, 0, *range(2, n)])


def _serve_or_idle_lanes(lanes: LockstepLanes):
    """Robot 0 serves if its queue is nonempty and stays put: in every
    lane, as (serve, end) arrays."""
    return lanes.local()[:, 0] > 0, lanes.robots[:, 0]


def _same_lanes(
    g: LockstepLanes, robots: np.ndarray, queues: np.ndarray
) -> np.ndarray:
    """Per lane: G's state equals (robots, queues)."""
    return (g.robots == robots).all(axis=1) & (g.queues == queues).all(axis=1)


def _next_free(loc: int, n: int, parked) -> int:
    """The next location after loc in cyclic order that no parked robot
    holds."""
    j = (loc + 1) % n
    while j in parked:
        j = (j + 1) % n
    return j


class _Script:
    """One scenario's rules; an instance carries one run's landmarks.

    default is the canonical instance (locations, robot positions, queues),
    and swap says PI reads the draw with streams 0 and 1 swapped.  holds is
    the precondition on a state validate_state accepts.  shape yields the
    ways a coupled report's gap departs from the predicted form.

    lane_moves and lane_met run the scenario over LockstepLanes g and pi,
    one lane per seed.  lane_moves gives robot 0's moves in G and PI at
    slot t (at slot 0 both sides are the start state), as (serve, end)
    arrays for each side.  lane_met says, as a bool per lane, whether the
    pair has met after slot t, and raises RuntimeError where the
    scenario's argument says it must have.  An instance keeps its
    landmarks as per-lane arrays (tau -1 until set) named in lane_fields,
    which keep filters when met lanes drop out.
    """

    default: tuple[int, tuple[int, ...], tuple[int, ...]]
    swap = False
    k: np.ndarray | None = None
    lane_fields: tuple[str, ...] = ("tau",)

    def keep(self, mask: np.ndarray) -> None:
        for name in self.lane_fields:
            setattr(self, name, getattr(self, name)[mask])


class _Prop1A(_Script):
    """Switch away from a nonempty queue versus serving it first.

    G leaves at slot 0 and then follows serve-if-nonempty, else move to the
    next free location in cyclic order.  PI serves at slot 0 and replays
    G's moves one slot late, which is always admissible: the replayed
    serves happen away from the start location, where PI's queue leads G's
    by that location's latest arrival.  When G first returns to the start
    (slot tau), PI's replay is G's return switch; one slot later the two
    states meet, and from then on both would follow the same feedback rule.
    """

    default = (2, (0,), (2, 1))
    lane_fields = ("tau", "last_serve", "last_end")

    @staticmethod
    def holds(model: ModelConfig, state: SystemState) -> bool:
        # robot 0 must have local work to skip, a second location to visit,
        # and an exit rate below one so it returns
        robots, _ = state
        free = model.num_locations - (len(robots) - 1)
        return _Prop1B.holds(model, state) and free >= 2

    def lane_moves(self, t, g, pi):
        loc = g.robots[:, 0]
        if t == 0:
            n, parked = g.num_locations, set(g.robots[0, 1:].tolist())
            self.home = loc[0]
            self.next_free = np.array(
                [_next_free(j, n, parked) for j in range(n)]
            )
        else:
            self.tau[(self.tau < 0) & (loc == self.home)] = t
        g_serve = (g.local()[:, 0] > 0) & (t > 0)
        g_end = np.where(g_serve, loc, self.next_free[loc])
        if t == 0:
            pi_serve, pi_end = ~g_serve, pi.robots[:, 0]
        else:
            pi_serve = self.last_serve
            pi_end = np.where(pi_serve, pi.robots[:, 0], self.last_end)
        self.last_serve, self.last_end = g_serve, g_end
        return g_serve, g_end, pi_serve, pi_end

    def lane_met(self, t, g, pi):
        met = self.tau == t
        if (met & ~_same_lanes(g, pi.robots, pi.queues)).any():
            raise RuntimeError(
                "paired states failed to meet at the return slot"
            )
        return met

    @staticmethod
    def shape(report, gap, tau, tc):
        if gap[1] != 1:
            yield f"slot 1: expected gap 1, got {gap[1]}"
        for t in range(2, tau + 1):
            if not 0 <= gap[t] <= 1:
                yield f"slot {t}: expected gap in {{0,1}}, got {gap[t]}"
        if gap[tc] != 0:
            yield f"slot {tc}: expected gap 0, got {gap[tc]}"


class _Prop1B(_Script):
    """Idle versus serve at a nonempty queue; shared arrivals.

    G skips one service at slot 0 and serves thereafter; PI serves from the
    start.  G trails by exactly one departure until the first slot PI's
    queue is empty while G still works, which squares them up; states are
    equal from the next slot on.
    """

    default = (2, (0,), (3, 0))

    @staticmethod
    def holds(model: ModelConfig, state: SystemState) -> bool:
        robots, queues = state
        start = robots[0]
        return queues[start] >= 1 and model.arrival_probs[start] < 1.0

    def lane_moves(self, t, g, pi):
        g_serve, g_end = _serve_or_idle_lanes(g)
        return g_serve & (t > 0), g_end, *_serve_or_idle_lanes(pi)

    def lane_met(self, t, g, pi):
        met = _same_lanes(g, pi.robots, pi.queues)
        self.tau[met] = t
        return met

    @staticmethod
    def shape(report, gap, tau, tc):
        for t in range(1, tau + 1):
            if gap[t] != 1:
                yield f"slot {t}: expected gap 1, got {gap[t]}"
        if gap[tc] != 0:
            yield f"slot {tc}: expected gap 0, got {gap[tc]}"


class _Prop2(_Script):
    """Idle at an empty location versus switching to a nonempty one.

    PI consumes the draw with streams 0 and 1 swapped, so PI's robot at
    location 1 works the same coin flips G's robot sees at location 0, just
    with m2 extra tasks up front.  The departure gap climbs from 0 to m2,
    one unit on each slot G sits empty while PI still works, and freezes at
    m2 the first slot the two working queues agree; tau is that meeting.
    """

    default = (2, (0,), (0, 3))
    swap = True

    @staticmethod
    def holds(model: ModelConfig, state: SystemState) -> bool:
        # robot 0 idles at an empty location 0; the alternative is the
        # nonempty, unoccupied location 1; the two streams must be
        # exchangeable for the relabeling to preserve the law
        robots, queues = state
        probs = model.arrival_probs
        return (
            model.num_locations >= 2
            and robots[0] == 0
            and queues[0] == 0
            and queues[1] >= 1
            and 1 not in robots
            and probs[0] == probs[1] < 1.0
        )

    def lane_moves(self, t, g, pi):
        if t == 0:
            stay = np.zeros(len(g.robots), dtype=bool)
            return stay, g.robots[:, 0], stay, np.ones_like(g.robots[:, 0])
        return *_serve_or_idle_lanes(g), *_serve_or_idle_lanes(pi)

    def lane_met(self, t, g, pi):
        met = g.queues[:, 0] == pi.queues[:, 1]
        self.tau[met] = t + 1
        return met

    @staticmethod
    def shape(report, gap, tau, tc):
        m2 = report.initial_state.queues[1]
        for t in range(1, tc + 1):
            step_up = gap[t] - gap[t - 1]
            if step_up not in (0, 1):
                yield f"slot {t}: gap must climb by 0 or 1, got {step_up}"
        if gap[tc] != m2 or report.terminal_gap != m2:
            yield f"slot {tc}: expected terminal gap {m2}, got {gap[tc]}"


class _Prop4(_Script):
    """Switch to the shorter of two nonempty queues versus the longer.

    G heads to the shorter queue (location 0), drains it, then crosses to
    the longer one.  PI, on the swapped draw, heads to the longer queue
    (location 1): its queue there tracks G's shorter queue plus
    k = x_1 - x_0, so PI drains in lockstep, spends the k slots G loses to
    its second move still serving, then crosses to location 0.  After PI's
    crossing the two systems are equal up to swapping the labels of
    locations 0 and 1, and the gap returns to zero having been 1 on exactly
    the k slots tau+1 .. tau+k.
    """

    default = (3, (2,), (1, 3, 0))
    swap = True
    lane_fields = ("tau", "k")

    @staticmethod
    def holds(model: ModelConfig, state: SystemState) -> bool:
        # locations 0 (shorter) and 1 (longer) both nonempty and free;
        # robot 0 watches from an empty third location
        robots, queues = state
        probs = model.arrival_probs
        return (
            model.num_locations >= 3
            and not {0, 1} & set(robots)
            and 0 < queues[0] < queues[1]
            and queues[robots[0]] == 0
            and probs[0] == probs[1] < 1.0
        )

    def lane_moves(self, t, g, pi):
        if t == 0:
            self.k = g.queues[:, 1] - g.queues[:, 0]
            self.mirror = _swap01_index(g.num_locations)
            stay = np.zeros(len(g.robots), dtype=bool)
            short = np.zeros_like(self.k)
            return stay, short, stay, short + 1
        g_serve, g_end = _serve_or_idle_lanes(g)
        crossing = (g_end == 0) & ~g_serve
        if (crossing & (self.tau >= 0)).any():
            raise RuntimeError(
                "short queue emptied twice before the crossing"
            )
        self.tau[crossing] = t
        pi_serve = (self.tau < 0) | (t < self.tau + self.k)
        if (pi_serve & (pi.queues[:, 1] <= 0)).any():
            raise RuntimeError("long queue ran dry before the crossing")
        return (
            g_serve,
            np.where(crossing, 1, g_end),
            pi_serve,
            np.where(pi_serve, pi.robots[:, 0], 0),
        )

    def lane_met(self, t, g, pi):
        met = (self.tau >= 0) & (self.tau + self.k == t)
        mirrored = _same_lanes(
            g, self.mirror[pi.robots], pi.queues[:, self.mirror]
        )
        if (met & ~mirrored).any():
            raise RuntimeError(
                "paired states failed to meet after the crossing"
            )
        return met

    @staticmethod
    def shape(report, gap, tau, tc):
        x = report.initial_state.queues
        if report.k != x[1] - x[0]:
            yield "catch-up length disagrees with the start state"
        for t in range(1, tau + 1):
            if gap[t] != 0:
                yield f"slot {t}: expected gap 0, got {gap[t]}"
        for t in range(tau + 1, tau + report.k + 1):
            if gap[t] != 1:
                yield f"slot {t}: expected gap 1, got {gap[t]}"
        if gap[tc] != 0:
            yield f"slot {tc}: expected gap 0, got {gap[tc]}"


_SCRIPTS: dict[str, type[_Script]] = {
    "prop1A": _Prop1A,
    "prop1B": _Prop1B,
    "prop2": _Prop2,
    "prop4": _Prop4,
}
SCENARIO_NAMES = tuple(_SCRIPTS)


def make_scenario(
    name: str,
    *,
    p: float = 0.1,
    discount: float = 0.9,
    model: ModelConfig | None = None,
    initial_state: SystemState | None = None,
) -> CouplingScenario:
    """Scenario with canonical defaults; overrides are validated."""
    if name not in _SCRIPTS:
        raise ScenarioPreconditionError("scenario precondition")
    n, robots, queues = _SCRIPTS[name].default
    if model is None:
        model = ModelConfig.symmetric(n, len(robots), p, discount)
    if initial_state is None:
        initial_state = SystemState(robots, queues)
    return CouplingScenario(name, model, initial_state)


def validate_scenario(scenario: CouplingScenario) -> None:
    """Raise ScenarioPreconditionError unless the hypothesis holds."""
    try:
        validate_state(scenario.initial_state, scenario.model)
    except ValueError as exc:
        raise ScenarioPreconditionError("scenario precondition") from exc
    script = _SCRIPTS.get(scenario.name)
    if script is None or not script.holds(
        scenario.model, scenario.initial_state
    ):
        raise ScenarioPreconditionError("scenario precondition")


def coupled_run(
    scenario: CouplingScenario, horizon: int, seed: int
) -> CouplingReport:
    """Run one paired experiment: coupled_runs on one scenario and one
    seed.  See the module docstring for the semantics."""
    return next(coupled_runs([scenario], horizon, [seed]))[1]


# Seeds run as lanes in chunks of _CHUNK, so memory does not grow with the
# seed count.  Each seed's first _BLOCK slots of uniforms are drawn up front,
# once for all scenarios, enough for nearly every run at moderate load; the
# few lanes still running then draw further.
_CHUNK = 512
_BLOCK = 32


def coupled_runs(
    scenarios: Sequence[CouplingScenario],
    horizon: int,
    seeds: Iterable[int],
) -> Iterator[tuple[int, CouplingReport]]:
    """(k, report) for the paired run of scenarios[k] on each seed, up to
    horizon slots: chunk by chunk of the seeds, and within a chunk scenario
    by scenario in list order, so each scenario's reports come in seed
    order.

    Each seed's generator is built once per chunk for all the scenarios:
    its first block is one row of uniforms from default_rng(seed), as many
    as the widest scenario reads, and a scenario on N locations reads the
    row's first N per slot, which is what random((slots, N)) would have
    drawn.  The seeds then run together as lanes of LockstepLanes, one G
    and one PI per scenario, through the scenario's lane_moves and
    lane_met; a lane drops out once it has met, and a lane that outlives
    its first block draws on from its own default_rng(seed), advanced
    past the slots it has read, through model.arrival_table.  Every slot
    LockstepLanes.step checks each lane's moves as step does, and the
    conservation identity is asserted per lane.  _finish builds each
    report from the lane's gap row and landmarks.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least one slot")
    return _chunk_reports(list(scenarios), horizon, list(seeds))


def _chunk_reports(
    scenarios: list[CouplingScenario], horizon: int, seeds: list[int]
) -> Iterator[tuple[int, CouplingReport]]:
    if not scenarios:
        return
    width = max(len(s.model.arrival_probs) for s in scenarios)
    size = min(horizon, _BLOCK) * width
    for i in range(0, len(seeds), _CHUNK):
        chunk = seeds[i:i + _CHUNK]
        uniforms = _first_uniforms(chunk, size)
        for k, scenario in enumerate(scenarios):
            for report in _lane_reports(scenario, horizon, chunk, uniforms):
                yield k, report


def _first_uniforms(seeds: list[int], size: int) -> np.ndarray:
    """(lanes, size) floats, row i the first size uniforms of
    default_rng(seeds[i]); PCG64 fills doubles in stream order, so a
    row's first slots * N values are random((slots, N)) row-major."""
    out = np.empty((len(seeds), size))
    for row, seed in zip(out, seeds):
        np.random.default_rng(seed).random(out=row)
    return out


def _lane_step(
    lanes: LockstepLanes,
    serve: np.ndarray,
    end: np.ndarray,
    arrivals: np.ndarray,
) -> np.ndarray:
    """Step every lane with robot 0's (serve, end) while each parked robot
    serves its own queue if nonempty; returns each lane's departures."""
    serves = lanes.local() > 0
    serves[:, 0] = serve
    ends = lanes.robots.copy()
    ends[:, 0] = end
    lanes.step(serves, ends, arrivals)
    return serves.sum(axis=1)


def _lane_reports(
    scenario: CouplingScenario,
    horizon: int,
    seeds: list[int],
    uniforms: np.ndarray,
) -> list[CouplingReport]:
    """The report of scenario's paired run on each seed, the first
    min(horizon, _BLOCK) slots' arrivals read from uniforms
    (_first_uniforms)."""
    script = _SCRIPTS[scenario.name]()
    probs = np.array(scenario.model.arrival_probs)
    n = len(probs)
    beta = scenario.model.discount
    powers: list[float] = []
    script.tau = np.full(len(seeds), -1)
    g = LockstepLanes(len(seeds), scenario.initial_state)
    pi = LockstepLanes(len(seeds), scenario.initial_state)
    pi_cols = _swap01_index(n) if script.swap else np.arange(n)
    live = np.arange(len(seeds))  # each live lane's index in seeds
    gap = np.zeros(len(seeds), dtype=np.int64)
    start, stop = 0, min(horizon, _BLOCK)
    block = uniforms[:, :stop * n].reshape(len(seeds), stop, n) < probs
    history = np.zeros((len(seeds), stop + 1), dtype=np.int64)
    reports: list = [None] * len(seeds)

    def settle(mask, coupling_time):
        # reports of the lanes in mask, whose gap runs to slot t + 1
        _extend_powers(powers, beta, t + 2)
        ks = repeat(None) if script.k is None else script.k[mask].tolist()
        for i, row, tau, k in zip(
            live[mask].tolist(),
            history[mask, :t + 2].tolist(),
            script.tau[mask].tolist(),
            ks,
        ):
            reports[i] = _finish(
                scenario, seeds[i], horizon, row,
                None if tau < 0 else tau, k, coupling_time, powers,
            )

    for t in range(horizon):
        if t == stop:
            # the live lanes outlived their block: draw their streams on
            start, stop = t, min(horizon, 2 * t)
            block = arrival_table(
                [seeds[i] for i in live.tolist()], probs, stop, start
            ).swapaxes(0, 1)
            history = np.pad(history, ((0, 0), (0, stop - start)))
        arrivals = block[:, t - start]
        g_serve, g_end, pi_serve, pi_end = script.lane_moves(t, g, pi)
        gap -= _lane_step(g, g_serve, g_end, arrivals)
        gap += _lane_step(pi, pi_serve, pi_end, arrivals[:, pi_cols])
        backlog_diff = g.queues.sum(axis=1) - pi.queues.sum(axis=1)
        if (backlog_diff != gap).any():
            raise RuntimeError(
                "conservation identity broken inside the coupling harness"
            )
        history[:, t + 1] = gap
        met = script.lane_met(t, g, pi)
        if met.any():
            settle(met, t + 1)
            if met.all():
                break
            stay = ~met
            for part in (g, pi, script):
                part.keep(stay)
            live, gap = live[stay], gap[stay]
            block, history = block[stay], history[stay]
    else:
        settle(np.ones(len(live), dtype=bool), None)
    return reports


def _extend_powers(
    powers: list[float], beta: float, count: int
) -> list[float]:
    """powers, which holds beta**0, beta**1, ..., extended to count terms."""
    powers.extend(beta**t for t in range(len(powers), count))
    return powers


def _finish(
    scenario: CouplingScenario,
    seed: int,
    horizon: int,
    gap: list[int],
    tau: int | None,
    k: int | None,
    coupling_time: int | None,
    powers: list[float],
) -> CouplingReport:
    """The report of one run; powers holds beta**t for every slot of gap."""
    beta = scenario.model.discount
    coupled = coupling_time is not None
    if coupled:
        terminal = gap[coupling_time]
        diff = sum(p * g for p, g in zip(powers[:coupling_time], gap))
        diff += powers[coupling_time] * terminal / (1.0 - beta)
    else:
        terminal = gap[-1]
        diff = sum(p * g for p, g in zip(powers, gap))
    return CouplingReport(
        scenario=scenario.name,
        seed=seed,
        horizon=horizon,
        discount=beta,
        initial_state=scenario.initial_state,
        gap=tuple(gap),
        tau=tau,
        k=k,
        coupling_time=coupling_time,
        coupled=coupled,
        terminal_gap=terminal,
        discounted_diff=diff,
    )


def check_gap_pattern(report: CouplingReport) -> list[str]:
    """Compare a report's gap sequence against its scenario's exact shape.

    Returns human-readable problems; an empty list means the path matches.
    Runs that never coupled within their horizon are flagged rather than
    judged on the truncated pattern.
    """
    if not report.coupled:
        return [f"{report.scenario}: run did not couple within the horizon"]
    problems = [] if report.gap[0] == 0 else ["gap must start at 0"]
    script = _SCRIPTS.get(report.scenario)
    if script is None:
        problems.append(f"unknown scenario {report.scenario!r}")
    else:
        problems.extend(
            script.shape(
                report, report.gap, report.tau, report.coupling_time
            )
        )
    return problems
