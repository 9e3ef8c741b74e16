"""Allocation policies: exhaustive-serve-longest, oldest-task-first, and
fixed-dwell cyclic patrol, plus dwell tuning for the cyclic family.

All deciders return feasible joint actions for the state they are given;
they never emit colliding moves.  The decide functions are pure: fcfs_decide
reads the waiting tasks' arrival slots from its arguments, and cyclic_decide
the slot index, since a patrolling robot's location depends on the slot
alone.  FcfsPolicy holds the waiting tasks for one episode and CyclicPolicy
each robot's patrol leg; reset sets them from the start state.

esl and fcfs each have one rule body in integer form,
serve_then_seek_ends and fcfs_ends: from the robots' locations and the
queue lengths (and, for fcfs, the head stamps) they give each robot's end
location, and a robot serves iff it stays on a nonempty queue.  The slot
loop kernel runs them as they are; serve_then_seek and fcfs_decide render
them as joint actions (_joint_of_ends).  serve_then_seek_lanes and
fcfs_lanes are the same rules over arrays of lanes: the lockstep engine's
esl and fcfs rules, the first also the rule the exact solver's audit
checks.
"""

from __future__ import annotations

import math
from collections import deque
from functools import partial
from typing import Sequence

import numpy as np

from .model import (
    IDLE_ACTION,
    SERVE_ACTION,
    JointAction,
    ModelConfig,
    RobotAction,
    SlotDelta,
    SystemState,
    switch_to,
)

POLICY_NAMES = ("esl", "fcfs", "cyclic")


class AgeBookDesyncError(RuntimeError):
    """Per-location age lists disagree with the queue lengths."""


class DegenerateRateError(ValueError):
    """Dwell tuning needs an arrival probability strictly inside (0, 1)."""


def serve_then_seek_ends(
    robots: Sequence[int], queues: Sequence[int], *, longest_first: bool
) -> list[int]:
    """Serve wherever you stand if tasks wait; send the idle robots to
    unclaimed nonempty queues in target order.  Returns each robot's end
    location; a robot serves iff it stays on a nonempty queue.

    Robots at nonempty locations stay and serve.  The rest are matched, in
    increasing robot index, to distinct unoccupied nonempty locations
    ordered by queue length (longest first, or shortest first when
    longest_first is false; ties to the lower location index).  Robots
    left over after the nonempty locations run out idle in place.
    """
    ends = list(robots)
    targets = None
    for r, loc in enumerate(robots):
        if queues[loc] <= 0:
            if targets is None:
                targets = []
                for i, q in enumerate(queues):
                    if q > 0 and i not in robots:
                        targets.append(i)
                # a stable sort keeps ties in index order, reversed or not
                targets.sort(key=queues.__getitem__, reverse=longest_first)
                targets = iter(targets)
            ends[r] = next(targets, loc)
    return ends


def _joint_of_ends(
    robots: Sequence[int], queues: Sequence[int], ends: Sequence[int]
) -> JointAction:
    """The RobotAction joint of end locations: a robot that stays serves
    if its queue is nonempty and idles otherwise; one that moves switches."""
    return tuple(
        switch_to(end) if end != loc
        else SERVE_ACTION if queues[loc] > 0 else IDLE_ACTION
        for loc, end in zip(robots, ends)
    )


def serve_then_seek(state: SystemState, *, longest_first: bool) -> JointAction:
    """serve_then_seek_ends as a joint action."""
    robots, queues = state
    return _joint_of_ends(
        robots,
        queues,
        serve_then_seek_ends(robots, queues, longest_first=longest_first),
    )


_LAST = np.iinfo(np.int64).max


def serve_then_seek_lanes(
    robots: np.ndarray, queues: np.ndarray, *, longest_first: bool
) -> tuple[np.ndarray, np.ndarray]:
    """serve_then_seek_ends in every lane: robots is an (R, M) and queues an
    (R, N) integer array, each row one lane's state.  Returns the (R, M)
    served flags and end locations.

    Robots on nonempty queues serve.  The k-th remaining robot (by index)
    takes the k-th unoccupied nonempty location ordered by queue length,
    longest or shortest first, ties to the lower index; robots past the
    last target end where they stand, idle.
    """
    # each lane's offset into the flattened queues
    base = np.arange(0, queues.size, queues.shape[1])[:, None]
    pos = base + robots
    serve = queues.reshape(-1).take(pos) > 0
    seek = ~serve
    if not seek.any():
        return serve, robots
    free = queues > 0
    free.reshape(-1)[pos] = False
    # occupied and empty locations rank after every free one
    order = np.argsort(
        np.where(free, -queues if longest_first else queues, _LAST),
        axis=1,
        kind="stable",
    )
    rank = np.cumsum(seek, axis=1) - 1
    gets = seek & (rank < free.sum(axis=1, keepdims=True))
    dest = order.reshape(-1).take(base + rank)
    return serve, np.where(gets, dest, robots)


# The paper's exhaustive-serve-longest rule.
esl_decide = partial(serve_then_seek, longest_first=True)

# Deliberately bad variant that targets the shortest nonempty queues; it
# exists so the exact-solver optimality checker can be shown to catch a rule
# that breaks the longest-first preference.
switch_to_shortest_decide = partial(serve_then_seek, longest_first=False)


def fcfs_ends(
    robots: Sequence[int], queues: Sequence[int], heads: Sequence[int]
) -> list[int]:
    """Chase the globally oldest waiting tasks, first come first served.
    heads[i] is the arrival slot of the oldest task waiting at location i
    (read only where one waits).  Returns each robot's end location; a
    robot serves iff it stays on a nonempty queue.

    Nonempty locations are ranked by their head (earlier first); ties
    prefer a location already hosting a robot, then the lower location
    index.  Walking the first M of the ranking, a location whose host is
    still unmatched keeps it (the host serves in place); otherwise the
    lowest-indexed unmatched robot switches there.  That move is always
    collision-free: when the target hosts a robot at all, that robot was
    matched earlier in the walk, necessarily as a switcher, so it is
    leaving.  Robots left unmatched stay, serving their own queue if it is
    nonempty and idling otherwise.
    """
    n = len(queues)
    # rank key (head, not hosted, index) packed into one integer
    ranked = []
    for i, q in enumerate(queues):
        if q > 0:
            ranked.append((heads[i] * 2 + (i not in robots)) * n + i)
    ranked.sort()
    ends = list(robots)
    unmatched = list(range(len(robots)))
    for key in ranked[:len(robots)]:
        loc = key % n
        if loc in robots:
            host = robots.index(loc)
            if host in unmatched:
                unmatched.remove(host)
                continue
        ends[unmatched.pop(0)] = loc
    return ends


def fcfs_decide(
    state: SystemState, waiting: Sequence[deque[int]]
) -> JointAction:
    """fcfs_ends as a joint action.  waiting[i] holds the arrival slots of
    the tasks waiting at location i, oldest first; its length must equal
    queues[i], else AgeBookDesyncError."""
    robots, queues = state
    for i, q in enumerate(queues):
        if len(waiting[i]) != q:
            raise AgeBookDesyncError("age book desync")
    heads = [w[0] if w else 0 for w in waiting]
    return _joint_of_ends(robots, queues, fcfs_ends(robots, queues, heads))


def fcfs_lanes(
    robots: np.ndarray, queues: np.ndarray, heads: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """fcfs_ends in every lane: robots is an (R, M) and queues an (R, N)
    integer array, each row one lane's state, and heads[k, i] the arrival
    slot of the oldest task waiting at location i of lane k (read only
    where one waits).  Returns the (R, M) served flags and end locations.
    """
    n = queues.shape[1]
    num_robots = robots.shape[1]
    # flat offsets, since flat takes cost less here than 2-d indexing
    base = np.arange(0, queues.size, n)
    pos = base[:, None] + robots
    robot_base = np.arange(0, robots.size, num_robots)
    nonempty = queues > 0
    waiting = nonempty.sum(axis=1)
    host = np.full(queues.shape, -1)
    host.reshape(-1)[pos] = np.arange(num_robots)
    # rank key (head, not hosted, index) packed into one integer
    key = heads * np.int64(2 * n) + (host < 0) * n + np.arange(n)
    order = np.argsort(np.where(nonempty, key, _LAST), axis=1, kind="stable")
    assigned = np.zeros(robots.size, dtype=bool)
    end = robots.copy()
    # walk the ranking: each of the first min(M, waiting) locations takes
    # its host if still unmatched, else the lowest unmatched robot
    for k in range(num_robots):
        active = waiting > k
        if not active.any():
            break
        loc = order[:, k]
        h = host.reshape(-1).take(base + loc)
        own = (h >= 0) & ~assigned.take(robot_base + h)
        r = robot_base + np.where(
            own, h, assigned.reshape(end.shape).argmin(axis=1)
        )
        switch = active & ~own
        end.reshape(-1)[r[switch]] = loc[switch]
        assigned[r[active]] = True
    # a switcher never targets its own location, so the robots that stay
    # put are the hosts kept in place and the unmatched ones
    serve = (end == robots) & (queues.reshape(-1).take(pos) > 0)
    return serve, end


def patrol_blocks(
    num_locations: int, num_robots: int
) -> list[tuple[int, int]]:
    """(first location, size) of each robot's patrol block: 0..N-1 split
    into contiguous, nearly equal blocks, the larger ones first."""
    size, extra = divmod(num_locations, num_robots)
    return [
        (r * size + min(r, extra), size + (r < extra))
        for r in range(num_robots)
    ]


def patrol_legs(
    state: SystemState, blocks: Sequence[tuple[int, int]]
) -> tuple[tuple[int, int, int], ...]:
    """Each robot's leg (lead, block start, block size) of the patrol over
    blocks (patrol_blocks) from state: lead is 1 when the robot starts off
    its block head."""
    return tuple(
        (int(loc != start), start, size)
        for loc, (start, size) in zip(state.robots, blocks)
    )


def patrol_end(now, leads, starts, sizes, dwell):
    """Where fixed-dwell patrol puts a robot at the end of slot now, from
    its leg (lead, block start, block size) and its dwell:
    start + (now + 1 - lead) // (dwell + 1) % size.  Elementwise, on ints
    or on numpy arrays that broadcast together."""
    return starts + (now + 1 - leads) // (dwell + 1) % sizes


def cyclic_decide(
    state: SystemState,
    now: int,
    t_dwell: int,
    legs: Sequence[tuple[int, int, int]],
) -> JointAction:
    """Slot now of fixed-dwell patrol; legs[r] is robot r's (lead, block
    start, block size).

    Each robot stays t_dwell slots at each location of its block, serving
    whatever is present (idling on empty slots), then spends one slot
    travelling to the next.  lead is 1 when the robot began the episode off
    its block head, whose first slot is then the trip there.  The patrol
    never reads the queues, so a robot ends slot now at patrol_end; it
    switches there if it stands elsewhere.  Blocks are disjoint, so the
    ends are distinct and the joint is feasible in any state.
    """
    robots, queues = state
    actions: list[RobotAction] = []
    for loc, (lead, start, size) in zip(robots, legs):
        end = patrol_end(now, lead, start, size, t_dwell)
        if end != loc:
            actions.append(switch_to(end))
        else:
            actions.append(SERVE_ACTION if queues[loc] > 0 else IDLE_ACTION)
    return tuple(actions)


def dwell_objective(p: float, n: int, total_time: float) -> float:
    """Expected cost proxy for patrolling n symmetric queues for total_time
    slots per sweep: time per location is total_time / n.

    Trades residual work left behind at departure against the share of the
    sweep lost to travel.  Smaller is better.
    """
    if not 0.0 < p < 1.0:
        raise DegenerateRateError("degenerate rate")
    if n < 1:
        raise ValueError("block size must be at least 1")
    if total_time <= 0.0:
        raise ValueError("total monitoring time must be positive")
    u = total_time / n
    g = (1.0 - p) ** u
    return (total_time + n - u + u * g) / (1.0 - g)


def block_size(num_locations: int, num_robots: int) -> int:
    """Locations in the largest patrol block, ceil(N / M): the block the
    cyclic dwell is tuned for."""
    return patrol_blocks(num_locations, num_robots)[0][1]


def _dwell_scan(p: float, n: int, search_max: int) -> tuple[int, float]:
    """Integer dwell t in [1, search_max] minimizing the patrol objective at
    total_time = n * t, preferring the smaller t on ties, with its value.
    The first dwell_objective call checks p and n."""
    best_t = 1
    best_f = dwell_objective(p, n, float(n))
    if search_max < 1:
        raise ValueError("search_max must be at least 1")
    for t in range(2, search_max + 1):
        f = dwell_objective(p, n, float(n * t))
        if f < best_f:
            best_t, best_f = t, f
    return best_t, best_f


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section(f, lo: float, hi: float, xatol: float) -> float:
    """Minimizer of a unimodal f on [lo, hi], to within xatol."""
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > xatol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
    return (lo + hi) / 2.0


def dwell_metadata(p: float, n: int, search_max: int = 1000) -> dict:
    """Both dwell tuning conventions with their objective values, for run
    manifests: the integer scan argmin and the floored continuous argmin.

    The continuous argmin u* polishes the scan's argmin t* by golden-section
    search over [t* - 1, t* + 1], clipped to (0, search_max].
    """
    t_scan, f_scan = _dwell_scan(p, n, search_max)
    u_star = _golden_section(
        lambda u: dwell_objective(p, n, n * u),
        max(t_scan - 1, 1e-6),
        min(t_scan + 1, float(search_max)),
        1e-9,
    )
    t_floor = max(1, math.floor(u_star))
    t_ceil = t_floor + 1
    return {
        "p": p,
        "block_size": n,
        "scan_t": t_scan,
        "scan_objective": f_scan,
        "continuous_u": u_star,
        "floor_t": t_floor,
        "floor_objective": dwell_objective(p, n, float(n * t_floor)),
        "ceil_t": t_ceil,
        "ceil_objective": dwell_objective(p, n, float(n * t_ceil)),
    }


def optimize_dwell(p: float, n: int, search_max: int = 1000) -> int:
    """Best whole-slot dwell per location by direct scan over
    [1, search_max], preferring the smaller dwell on ties."""
    return _dwell_scan(p, n, search_max)[0]


def continuous_dwell(p: float, n: int, search_max: int = 1000) -> float:
    """Real-valued per-location dwell u* (total sweep time divided by n)
    minimizing the patrol objective."""
    return dwell_metadata(p, n, search_max)["continuous_u"]


def tuned_dwell(p: float, n: int, search_max: int = 1000) -> int:
    """Whole-slot dwell used by the benchmark cyclic policy: minimize the
    patrol objective over continuous dwell, then round down (floor, but
    never below one slot)."""
    return dwell_metadata(p, n, search_max)["floor_t"]


def resolve_dwell(rule, meta: dict) -> int:
    """Turn a dwell rule into whole slots: an integer is taken as-is,
    "tuned" floors the continuous argmin, "scan" scans integer dwells.
    meta is the cell's dwell_metadata record, which holds both."""
    if isinstance(rule, int) and not isinstance(rule, bool):
        if rule < 1:
            raise ValueError("fixed dwell must be at least one slot")
        return rule
    if rule == "tuned":
        return meta["floor_t"]
    if rule == "scan":
        return meta["scan_t"]
    raise ValueError(f"unknown dwell rule: {rule!r}")


class EslPolicy:
    """Stateless wrapper around esl_decide."""

    name = "esl"

    def reset(self, state: SystemState) -> None:
        pass

    def decide(self, state: SystemState, now: int) -> JointAction:
        return esl_decide(state)

    def observe(self, delta: SlotDelta, now: int) -> None:
        pass


class FcfsPolicy:
    """Oldest-task-first policy.  waiting[i] holds the arrival slots of the
    tasks waiting at location i, oldest first: a departure pops the head
    (FIFO service) and an arrival appends the slot index."""

    name = "fcfs"

    def __init__(self, num_locations: int) -> None:
        self.waiting = [deque() for _ in range(num_locations)]

    def reset(self, state: SystemState) -> None:
        # Tasks present before the first slot all get arrival slot 0.
        self.waiting = [deque([0] * q) for q in state.queues]

    def decide(self, state: SystemState, now: int) -> JointAction:
        return fcfs_decide(state, self.waiting)

    def observe(self, delta: SlotDelta, now: int) -> None:
        waiting = self.waiting
        for i, d in enumerate(delta.departures):
            if d:
                waiting[i].popleft()
        for i, a in enumerate(delta.arrivals):
            if a:
                waiting[i].append(now)


class CyclicPolicy:
    """Fixed-dwell patrol; reset reads each robot's leg of the patrol from
    the start state."""

    name = "cyclic"

    def __init__(
        self, num_locations: int, num_robots: int, t_dwell: int
    ) -> None:
        if t_dwell < 1:
            raise ValueError("dwell must be at least one slot")
        self.t_dwell = t_dwell
        self.blocks = patrol_blocks(num_locations, num_robots)
        self.legs = None

    def reset(self, state: SystemState) -> None:
        self.legs = patrol_legs(state, self.blocks)

    def decide(self, state: SystemState, now: int) -> JointAction:
        return cyclic_decide(state, now, self.t_dwell, self.legs)

    def observe(self, delta: SlotDelta, now: int) -> None:
        pass


def make_policy(name: str, model: ModelConfig, **params):
    """Instantiate a policy by its public name: esl, fcfs or cyclic.

    cyclic needs t_dwell, its dwell in whole slots (make_grid tunes it);
    esl and fcfs take no parameters.  An unknown name, an unknown
    parameter or a missing t_dwell is a ValueError that names it.
    """
    if name not in POLICY_NAMES:
        raise ValueError(f"unknown policy name: {name!r}")
    allowed = {"t_dwell"} if name == "cyclic" else set()
    unknown = sorted(params.keys() - allowed)
    if unknown:
        raise ValueError(f"{name} policy: unknown parameter {unknown[0]!r}")
    if name == "esl":
        return EslPolicy()
    if name == "fcfs":
        return FcfsPolicy(model.num_locations)
    if "t_dwell" not in params:
        raise ValueError("cyclic policy: missing parameter 't_dwell'")
    return CyclicPolicy(
        model.num_locations, model.num_robots, params["t_dwell"]
    )
