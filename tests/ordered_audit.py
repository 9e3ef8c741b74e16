"""The optimality audit and the monotonicity check over ordered states,
kept as the oracle that the orbit versions in eslsim.mdp must match, with
the joint-action enumeration they and tests/scalar_mdp.py read.

iter_joint_actions lists an ordered state's feasible joints from each
robot's menu (admissible_robot_actions); q_values reads each one's Q from
the orbit solver as cost + beta * W[orbit(post)].  lift spreads an orbit
table over the ordered (placement x queue-digit) grid.
check_esl_optimality_ordered walks every ordered interior state,
placement-major with the queues in itertools.product order, and runs the
same three clauses as eslsim.mdp.check_esl_optimality, with a scalar rule
and a dict of Q per joint; its feasible joints come from one
iter_joint_actions call per (placement, mask of robots on nonempty
queues).  monotonicity_violations_ordered lists every ordered (state,
location) pair where one more task lowers the lifted value.  Both hold
every ordered state in memory, so they suit small instances only.
"""

import itertools
import math
from typing import Iterator

import numpy as np

from eslsim.mdp import (
    TruncatedMdp,
    ValueTable,
    Violation,
    _ids,
    bellman_update,
    expected_values,
)
from eslsim.model import (
    IDLE_ACTION,
    SERVE,
    SERVE_ACTION,
    SWITCH,
    JointAction,
    RobotAction,
    SystemState,
    is_feasible,
    switch_to,
)
from eslsim.policies import esl_decide


def admissible_robot_actions(
    state: SystemState, robot: int
) -> tuple[RobotAction, ...]:
    """Actions robot may take on its own: serve only where tasks wait,
    idle always, switch to any other location.

    Joint feasibility (the collision rule) is checked separately by
    is_feasible; this enumerates the per-robot menu only.
    """
    loc = state.robots[robot]
    out: list[RobotAction] = []
    if state.queues[loc] > 0:
        out.append(SERVE_ACTION)
    out.append(IDLE_ACTION)
    for dest in range(len(state.queues)):
        if dest != loc:
            out.append(switch_to(dest))
    return tuple(out)


def iter_joint_actions(state: SystemState) -> Iterator[JointAction]:
    """All feasible joint actions, in deterministic per-robot menu order."""
    menus = [
        admissible_robot_actions(state, r) for r in range(len(state.robots))
    ]
    for joint in itertools.product(*menus):
        if is_feasible(state, joint):
            yield joint


def _moves(placement, joints, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Served counts (J, n) and end-of-slot occupancy (J, n) of each joint
    action taken from placement."""
    served = np.zeros((len(joints), n), dtype=np.int64)
    ends = np.zeros((len(joints), n), dtype=bool)
    for j, joint in enumerate(joints):
        for loc, act in zip(placement, joint):
            if act.kind == SWITCH:
                ends[j, act.dest] = True
            else:
                ends[j, loc] = True
                served[j, loc] = act.kind == SERVE
    return served, ends


def q_row(
    mdp: TruncatedMdp, w: np.ndarray, state: SystemState
) -> dict[JointAction, float]:
    """Q(a) = stage cost + beta * w[orbit(post)] for every feasible joint
    of an ordered state, in iter_joint_actions order, w the expected next
    value per post-service orbit (expected_values)."""
    joints = list(iter_joint_actions(state))
    served, ends = _moves(state.robots, joints, mdp.config.num_locations)
    post = _ids(mdp, np.array(state.queues) - served, ends)
    q = float(sum(state.queues)) + mdp.config.discount * w[post]
    return dict(zip(joints, q.tolist()))


def q_values(
    mdp: TruncatedMdp, table: ValueTable, state: SystemState
) -> dict[JointAction, float]:
    """Q(a) = stage cost + beta * E[V(next)] for every feasible joint of an
    ordered state, in iter_joint_actions order, read as
    cost + beta * W[orbit(post)]."""
    return q_row(mdp, expected_values(mdp, table.values), state)


def _robot_deviations(state: SystemState, robot: int):
    """Idle and every switch for one robot, excluding its current action."""
    loc = state.robots[robot]
    yield IDLE_ACTION
    for dest in range(len(state.queues)):
        if dest != loc:
            yield RobotAction(SWITCH, dest)


def _digits(base: int, n: int) -> np.ndarray:
    """Every length-n digit vector in itertools.product order."""
    return np.indices((base,) * n).reshape(n, -1).T


def lift(mdp: TruncatedMdp, per_orbit: np.ndarray) -> np.ndarray:
    """per_orbit on the ordered grid: axis 0 the placement, in
    itertools.permutations order, axis 1 + i the length of queue i.
    Flattened, its index is the ordered state id, placement-major with the
    queues read as base-(cap+1) digits, location 0 most significant."""
    n, m, radix = mdp.config.num_locations, mdp.config.num_robots, mdp.cap + 1
    queues = _digits(radix, n)
    grid = np.empty((math.perm(n, m), len(queues)), dtype=per_orbit.dtype)
    by_set: dict[tuple[int, ...], np.ndarray] = {}
    for i, placement in enumerate(itertools.permutations(range(n), m)):
        occupied = tuple(sorted(placement))
        if occupied not in by_set:
            flags = np.zeros(n, dtype=bool)
            flags[list(occupied)] = True
            by_set[occupied] = per_orbit[_ids(mdp, queues, flags)]
        grid[i] = by_set[occupied]
    return grid.reshape((-1,) + (radix,) * n)


def interior_states(mdp: TruncatedMdp, margin: int):
    """(placement, queue rows, orbit ids) for every placement, the rows
    being the ordered interior's queue vectors in itertools.product
    order."""
    n, m = mdp.config.num_locations, mdp.config.num_robots
    interior = _digits(mdp.cap - margin + 1, n)
    for placement in itertools.permutations(range(n), m):
        occupied = np.zeros(n, dtype=bool)
        occupied[list(placement)] = True
        yield placement, interior, _ids(mdp, interior, occupied)


def check_esl_optimality_ordered(
    mdp: TruncatedMdp,
    table: ValueTable,
    margin: int,
    tie_tol: float = 1e-9,
    rule=esl_decide,
) -> list[Violation]:
    """check_esl_optimality's clauses at every ordered interior state, in
    ordered state id order, each failure with members 1."""
    if margin < 1 or margin >= mdp.cap:
        raise ValueError("margin must satisfy 1 <= margin < cap")
    n, m = mdp.config.num_locations, mdp.config.num_robots
    beta = mdp.config.discount
    w = expected_values(mdp, table.values)
    orbit_min = bellman_update(mdp, table.values)
    bits = 1 << np.arange(m, dtype=np.int64)
    violations: list[Violation] = []
    for placement, interior, ids in interior_states(mdp, margin):
        cost = interior.sum(axis=1).astype(np.float64)
        own_min = orbit_min[ids].tolist()
        held = interior[:, list(placement)] > 0
        masks = held @ bits
        rows: list = [None] * len(interior)
        for mask in np.unique(masks).tolist():
            sel = np.flatnonzero(masks == mask)
            probe = [0] * n
            for r, loc in enumerate(placement):
                probe[loc] = mask >> r & 1
            joints = list(
                iter_joint_actions(SystemState(placement, tuple(probe)))
            )
            served, ends = _moves(placement, joints, n)
            post = _ids(mdp, interior[sel, None, :] - served, ends)
            q_sel = cost[sel, None] + beta * w[post]
            for s, q_row in zip(sel.tolist(), q_sel.tolist()):
                rows[s] = (joints, q_row)
        for s, queues in enumerate(map(tuple, interior.tolist())):
            state = SystemState(placement, queues)
            q = dict(zip(*rows[s]))
            chosen = rule(state)
            if chosen not in q:
                violations.append(
                    Violation(state, "rule-action-infeasible", math.inf)
                )
                continue
            q_star = q[chosen]
            q_min = own_min[s]
            if q_star > q_min + tie_tol:
                violations.append(
                    Violation(state, "not-argmin", q_star - q_min)
                )
            for r, loc in enumerate(placement):
                here = chosen[r]
                if queues[loc] > 0:
                    # local work: serving must strictly beat leaving or idling
                    for alt_act in _robot_deviations(state, r):
                        alt = chosen[:r] + (alt_act,) + chosen[r + 1:]
                        alt_q = q.get(alt)
                        if alt_q is not None and alt_q <= q_star + tie_tol:
                            violations.append(
                                Violation(
                                    state,
                                    "serve-not-strict",
                                    q_star - alt_q,
                                    robot=r,
                                    alternative=alt,
                                )
                            )
                elif here.kind == SWITCH:
                    target_len = queues[here.dest]
                    alt = chosen[:r] + (IDLE_ACTION,) + chosen[r + 1:]
                    alt_q = q.get(alt)
                    if alt_q is not None and alt_q <= q_star + tie_tol:
                        violations.append(
                            Violation(
                                state,
                                "idle-not-strict",
                                q_star - alt_q,
                                robot=r,
                                alternative=alt,
                            )
                        )
                    for j in range(n):
                        if j == loc or not 0 < queues[j] < target_len:
                            continue
                        alt = (
                            chosen[:r]
                            + (RobotAction(SWITCH, j),)
                            + chosen[r + 1:]
                        )
                        alt_q = q.get(alt)
                        if alt_q is not None and alt_q <= q_star + tie_tol:
                            violations.append(
                                Violation(
                                    state,
                                    "shorter-not-strict",
                                    q_star - alt_q,
                                    robot=r,
                                    alternative=alt,
                                )
                            )
    return violations


def monotonicity_violations_ordered(
    mdp: TruncatedMdp, table: ValueTable, tol: float = 1e-9
) -> list[tuple[SystemState, int]]:
    """Every ordered (state, location) pair where one more task at the
    location lowers the lifted value by more than tol, in ordered state id
    then location order."""
    n, m, cap = mdp.config.num_locations, mdp.config.num_robots, mdp.cap
    grid = lift(mdp, table.values)
    dips = np.zeros(grid.shape + (n,), dtype=bool)
    for i in range(n):
        low = [slice(None)] * grid.ndim
        high = [slice(None)] * grid.ndim
        low[1 + i], high[1 + i] = slice(0, cap), slice(1, cap + 1)
        dips[(*low, i)] = grid[tuple(high)] - grid[tuple(low)] < -tol
    placements = list(itertools.permutations(range(n), m))
    return [
        (SystemState(placements[p], tuple(queues)), loc)
        for p, *queues, loc in np.argwhere(dips).tolist()
    ]
