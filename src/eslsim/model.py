"""Core dynamics for M mobile robots serving N task queues in discrete time.

Time advances in unit slots.  Each location holds an unbounded FIFO queue of
tasks.  A robot parked at a nonempty location may complete exactly one task
per slot; moving to another location costs one full slot during which the
robot does nothing.  New tasks arrive as independent Bernoulli coin flips per
location per slot, and a task arriving in slot t can be worked on from slot
t+1 at the earliest (late arrivals).  Robots may never share a location, and
joint actions must keep that true one slot ahead.

LockstepLanes is step's array form: many runs of one instance advanced
together, with the same feasibility checks (lane_feasible; the cyclic
scan checks its schedule with its collision half, lane_collision_free).
arrival_table draws the arrivals of every engine, one lane or many.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

SERVE = "serve"
IDLE = "idle"
SWITCH = "switch"


class InfeasibleActionError(RuntimeError):
    """A joint action violated admissibility or the collision rule."""


class RobotAction(NamedTuple):
    """One robot's move for the current slot.

    kind is "serve", "idle" or "switch".  dest is the target location for a
    switch and must be None otherwise.  Locations are indexed from 0 in code;
    serialized output uses 1-based labels.
    """

    kind: str
    dest: int | None = None


SERVE_ACTION = RobotAction(SERVE)
IDLE_ACTION = RobotAction(IDLE)


def switch_to(dest: int) -> RobotAction:
    return RobotAction(SWITCH, dest)


# A joint action is one RobotAction per robot, indexed like state.robots.
JointAction = tuple[RobotAction, ...]


class SystemState(NamedTuple):
    """Robot positions and queue lengths at the start of a slot.

    robots[r] is the location of robot r; entries are distinct.  queues[i]
    is the number of waiting tasks at location i, never negative.
    """

    robots: tuple[int, ...]
    queues: tuple[int, ...]


class SlotDelta(NamedTuple):
    """Per-location departures and arrivals realized in one slot."""

    departures: tuple[int, ...]
    arrivals: tuple[int, ...]


@dataclass(frozen=True)
class ModelConfig:
    """Static problem instance: sizes, arrival rates, discount factor."""

    num_locations: int
    num_robots: int
    arrival_probs: tuple[float, ...]
    discount: float

    def __post_init__(self) -> None:
        if self.num_locations < 1:
            raise ValueError("need at least one location")
        if not 1 <= self.num_robots <= self.num_locations:
            raise ValueError("robot count must be in [1, num_locations]")
        if len(self.arrival_probs) != self.num_locations:
            raise ValueError("arrival_probs length must match num_locations")
        for p in self.arrival_probs:
            if not 0.0 <= p <= 1.0:
                raise ValueError("arrival probabilities must lie in [0, 1]")
        if not 0.0 < self.discount < 1.0:
            raise ValueError("discount must lie strictly between 0 and 1")

    @classmethod
    def symmetric(
        cls, num_locations: int, num_robots: int, p: float, discount: float
    ) -> "ModelConfig":
        """Instance with the same arrival probability at every location."""
        return cls(num_locations, num_robots, (p,) * num_locations, discount)


def validate_state(state: SystemState, model: ModelConfig) -> None:
    """Raise ValueError unless state satisfies the standing invariants."""
    robots, queues = state
    if len(queues) != model.num_locations:
        raise ValueError("queue vector length must match num_locations")
    if len(robots) != model.num_robots:
        raise ValueError("robot vector length must match num_robots")
    for loc in robots:
        if not 0 <= loc < model.num_locations:
            raise ValueError("robot location out of range")
    if len(set(robots)) != len(robots):
        raise ValueError("robots may not share a location")
    for q in queues:
        if q < 0:
            raise ValueError("queue lengths must be non-negative")


def initial_state(model: ModelConfig) -> SystemState:
    """Canonical start: all queues empty, robot r parked at location r."""
    return SystemState(
        tuple(range(model.num_robots)), (0,) * model.num_locations
    )


def is_feasible(state: SystemState, joint: JointAction) -> bool:
    """True iff every per-robot action is admissible and no two robots end
    the slot headed for the same location.

    A robot that serves or idles stays put, so the check reduces to: the
    multiset of end-of-slot locations (stayers plus switch targets) has no
    repeats.  Counting is done with a bitmask since N is small.
    """
    robots, queues = state
    if len(joint) != len(robots):
        return False
    n = len(queues)
    occupied = 0
    for loc, act in zip(robots, joint):
        kind = act.kind
        if kind == SWITCH:
            dest = act.dest
            if dest is None or dest == loc or not 0 <= dest < n:
                return False
            loc = dest
        elif kind == SERVE:
            if act.dest is not None or queues[loc] <= 0:
                return False
        elif kind == IDLE:
            if act.dest is not None:
                return False
        else:
            return False
        bit = 1 << loc
        if occupied & bit:
            return False
        occupied |= bit
    return True


def sample_arrivals(
    probs: Sequence[float], rng: np.random.Generator
) -> tuple[int, ...]:
    """Draw one Bernoulli arrival indicator per location.

    Uses one uniform per location in location order, so a caller that
    pre-generates a (T, N) uniform block gets the same stream.
    """
    u = rng.random(len(probs)).tolist()
    return tuple(1 if u[i] < probs[i] else 0 for i in range(len(probs)))


def step(
    state: SystemState, joint: JointAction, arrivals: Sequence[int]
) -> tuple[SystemState, SlotDelta]:
    """Advance one slot: serve, move, then add the slot's arrivals.

    Raises InfeasibleActionError for any inadmissible or colliding joint
    action; nothing is ever silently repaired.  Arrivals land after service,
    so a task arriving this slot cannot depart before the next one.
    """
    if not is_feasible(state, joint):
        raise InfeasibleActionError("infeasible action")
    robots, queues = state
    n = len(queues)
    if len(arrivals) != n:
        raise ValueError("arrival vector length must match num_locations")
    departures = [0] * n
    new_robots = robots
    moved = False
    for r, act in enumerate(joint):
        kind = act.kind
        if kind == SERVE:
            departures[robots[r]] = 1
        elif kind == SWITCH:
            if not moved:
                new_robots = list(robots)
                moved = True
            new_robots[r] = act.dest
    new_queues = []
    for i in range(n):
        a = arrivals[i]
        if a != 0 and a != 1:
            raise ValueError("arrival indicators must be 0 or 1")
        new_queues.append(queues[i] - departures[i] + a)
    next_state = SystemState(
        tuple(new_robots) if moved else robots, tuple(new_queues)
    )
    return next_state, SlotDelta(tuple(departures), tuple(arrivals))


# Arrival-table rows drawn per generator call; PCG64 yields the same stream
# whether the rows come at once or in chunks.
_ARRIVAL_CHUNK_ROWS = 1024


def arrival_table(seeds, probs, stop: int, start: int = 0) -> np.ndarray:
    """(stop - start, R, N) bool arrival indicators of slots start..stop-1:
    lane k compares default_rng(seeds[k])'s uniforms, one random(N) row
    per slot as sample_arrivals draws them, with probs, an (N,) vector or
    one row per lane.  Each distinct seed's generator is built once,
    advanced past the start * N uniforms before slot start, and drawn in
    row chunks that serve every lane with that seed."""
    probs = np.broadcast_to(probs, (len(seeds), np.shape(probs)[-1]))
    n = probs.shape[1]
    table = np.empty((stop - start, len(seeds), n), dtype=bool)
    lanes_of: dict[int, list[int]] = {}
    for k, seed in enumerate(seeds):
        lanes_of.setdefault(seed, []).append(k)
    for seed, lanes in lanes_of.items():
        rng = np.random.default_rng(seed)
        rng.bit_generator.advance(start * n)
        for t0 in range(0, len(table), _ARRIVAL_CHUNK_ROWS):
            chunk = table[t0:t0 + _ARRIVAL_CHUNK_ROWS]
            uniforms = rng.random((len(chunk), n))
            for k in lanes:
                np.less(uniforms, probs[k], out=chunk[:, k])
    return table


def lane_collision_free(end, num_locations: int) -> np.ndarray:
    """The collision rule in every lane: end is an (R, M) array, end[k, r]
    where robot r of lane k ends the slot.  Returns an (R,) bool array,
    False where an end is off the map or two robots end on one location."""
    good = (end >= 0) & (end < num_locations)
    # column by column: numpy reduces a short last axis slowly
    ok = good[:, 0].copy()
    for r in range(1, end.shape[1]):
        ok &= good[:, r]
        for other in range(r):
            ok &= end[:, r] != end[:, other]
    return ok


def lane_feasible(
    robots, local, serve, end, num_locations: int
) -> np.ndarray:
    """is_feasible in every lane: robots, local (the queue where each robot
    stands), serve and end are (R, M) arrays, serve[k, r] saying robot r of
    lane k serves and end[k, r] where it ends the slot.  Returns an (R,)
    bool array, False where a robot serves an empty queue or serves while
    moving, or where lane_collision_free fails."""
    good = ~(serve & ((local <= 0) | (end != robots)))
    # a robot that serves where it may not fails as an end off the map
    return lane_collision_free(np.where(good, end, -1), num_locations)


class LockstepLanes:
    """R runs of one (N, M) instance, advanced together one slot at a time:
    robots is an (R, M) and queues an (R, N) integer array, each row one
    lane's SystemState.  Every lane starts from start; keep drops lanes."""

    def __init__(self, num_lanes: int, start: SystemState):
        self.num_locations = len(start.queues)
        self.robots = np.tile(np.array(start.robots), (num_lanes, 1))
        self.queues = np.tile(
            np.array(start.queues, dtype=np.int64), (num_lanes, 1)
        )
        self._index()

    def _index(self) -> None:
        self._flat = self.queues.reshape(-1)
        # offset of each lane's row in the flattened queue array
        self.base = np.arange(len(self.queues))[:, None] * self.num_locations
        self.pos = self.base + self.robots

    def keep(self, mask: np.ndarray) -> None:
        """Drop the lanes where the (R,) bool mask is False."""
        self.robots = self.robots[mask]
        self.queues = self.queues[mask]
        self._index()

    def local(self) -> np.ndarray:
        """(R, M) queue length where each robot stands."""
        return self._flat.take(self.pos)

    def step(
        self, serve: np.ndarray, end: np.ndarray, arrivals: np.ndarray
    ) -> None:
        """Serve, move, then add the slot's (R, N) arrivals, in every lane.

        serve[k, r] says robot r of lane k serves where it stands; end[k, r]
        is where it ends the slot (its own location unless it switches).
        Raises InfeasibleActionError, as step does, when any lane fails
        lane_feasible; nothing is applied then.
        """
        local = self.local()
        if not lane_feasible(
            self.robots, local, serve, end, self.num_locations
        ).all():
            raise InfeasibleActionError("infeasible action")
        pos = self.base + end
        self._flat[self.pos] = local - serve
        self.robots = end
        self.pos = pos
        np.add(self.queues, arrivals, out=self.queues)

