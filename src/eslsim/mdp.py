"""Exact solver on a truncated copy of the allocation problem.

Queues are capped at C tasks; an arrival to a full queue is discarded, with
its probability mass folded into the no-arrival branch, which keeps every
transition row stochastic.  Every state and feasible joint action is kept.
Arrivals land after service and travel, so a state-action's next-state
distribution depends only on its post-service state: the kernel stores one
arrival row per post-service state, and each state-action points at its
row.  It is built with numpy from action templates and arrival patterns,
with no Python loop per state-action or transition (tests/scalar_mdp.py
keeps the state-by-state builder of the explicit per-state-action kernel
as the oracle it must match byte for byte once expanded).  Value iteration
stops on MacQueen's bounds, which certify the error of the values it
returns.  q_table computes every state-action's Q in one pass; the sweep
takes each state's minimum over it, and the optimality checker reads the
same table to compare the serve-longest rule against every single-robot
deviation.  Conclusions are read only at interior states (all queues at
least `margin` below the cap) so boundary distortion from dropped
arrivals cannot leak in.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    IDLE_ACTION,
    SERVE,
    SWITCH,
    JointAction,
    ModelConfig,
    RobotAction,
    SystemState,
    iter_joint_actions,
)
from .policies import esl_decide

DEFAULT_STATE_BUDGET = 5_000_000


class StateSpaceTooLargeError(RuntimeError):
    """Enumeration would exceed the configured state budget."""


class ConvergenceError(RuntimeError):
    """Value iteration used every sweep it was allowed without reaching
    the tolerance."""


@dataclass(frozen=True)
class TruncatedMdp:
    """Flattened enumeration of the capped problem.

    states[i] owns actions[sa_offsets[i]:sa_offsets[i+1]] in the
    state-action axis.  sa_cost[k] is the stage cost of the owning state
    (cost does not depend on the action), and sa_post[k] is the id of the
    post-service state, after service, travel and the forced arrivals of
    p = 1.  Post-service states share the ids of states.  Post-service
    state j owns the arrival row tr_offsets[j]:tr_offsets[j+1] in
    (tr_next, tr_prob), so state-action k moves to tr_next[a:b] with
    probabilities tr_prob[a:b], where a, b bound the row of sa_post[k].
    """

    config: ModelConfig
    cap: int
    states: tuple[SystemState, ...]
    index: dict
    actions: tuple[JointAction, ...]
    sa_offsets: np.ndarray
    sa_cost: np.ndarray
    sa_post: np.ndarray
    tr_offsets: np.ndarray
    tr_next: np.ndarray
    tr_prob: np.ndarray

    def state_actions(self, state_id: int) -> tuple[JointAction, ...]:
        lo, hi = self.sa_offsets[state_id], self.sa_offsets[state_id + 1]
        return self.actions[lo:hi]


@dataclass(frozen=True)
class ValueTable:
    """Converged values plus the iteration trail.

    residual is the sup-norm of the last sweep's change; error_bound
    bounds |values - V*| at every state, V* the capped model's fixed point.
    """

    values: np.ndarray
    iterations: int
    residual: float
    residual_history: tuple[float, ...]
    error_bound: float


def count_states(config: ModelConfig, cap: int) -> int:
    placements = math.perm(config.num_locations, config.num_robots)
    return placements * (cap + 1) ** config.num_locations


def build_truncated_mdp(
    config: ModelConfig,
    cap: int,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> TruncatedMdp:
    """Enumerate states, feasible joint actions and the transition kernel.

    A state's id is its placement's id (itertools.permutations order)
    times (cap+1)^N plus its queues read as base-(cap+1) digits, location 0
    most significant.  A state's feasible joint actions depend only on its
    placement and on which robot-held queues are nonempty, so
    iter_joint_actions runs once per such template, whose rows keep the
    joint, next placement and served locations.  Each state-action gets
    its post-service state id, sa_post, with the forced arrivals of p = 1.
    Every id then owns one arrival row, in id order, whose branch code is
    read from the id's queue digits: bit i is set when location i is below
    the cap with 0 < p_i < 1.  The rows are written one branch code at a
    time, arrival patterns in itertools.product order ("no arrival"
    first), each probability multiplied left to right from 1.0, so a
    state-action's row holds what its explicit row held.

    Raises StateSpaceTooLargeError before allocating anything when the
    count of placements times queue vectors exceeds the budget, and
    RuntimeError if a next-state id falls outside the state space.
    """
    if cap < 1:
        raise ValueError("queue cap must be at least 1")
    if count_states(config, cap) > state_budget:
        raise StateSpaceTooLargeError("state space too large")
    n, m = config.num_locations, config.num_robots
    probs = config.arrival_probs
    placements = list(itertools.permutations(range(n), m))
    queue_vectors = list(itertools.product(range(cap + 1), repeat=n))
    states = tuple(
        SystemState(placement, queues)
        for placement in placements
        for queues in queue_vectors
    )
    width = len(queue_vectors)
    weight = (cap + 1) ** np.arange(n - 1, -1, -1, dtype=np.int64)
    queue_mat = np.array(queue_vectors, dtype=np.int64)

    # template t = placement id * 2^M + mask of robots on nonempty queues
    place_id = {placement: i for i, placement in enumerate(placements)}
    joints, row_start, row_place, row_served = [], [], [], []
    for placement in placements:
        for mask in range(1 << m):
            probe = [0] * n
            for r, loc in enumerate(placement):
                probe[loc] = mask >> r & 1
            template = list(
                iter_joint_actions(SystemState(placement, tuple(probe)))
            )
            joints.append(template)
            row_start.append(len(row_place))
            for joint in template:
                served = [0] * n
                movers = list(placement)
                for r, act in enumerate(joint):
                    if act.kind == SWITCH:
                        movers[r] = act.dest
                    elif act.kind == SERVE:
                        served[placement[r]] = 1
                row_place.append(place_id[tuple(movers)])
                row_served.append(served)
    bits = 1 << np.arange(m, dtype=np.int64)
    state_template = np.concatenate([
        (queue_mat[:, list(placement)] > 0) @ bits + (i << m)
        for i, placement in enumerate(placements)
    ])

    # per state-action: template row and post-service state id
    counts = np.array([len(t) for t in joints], dtype=np.int64)[state_template]
    sa_offsets = np.concatenate(([0], np.cumsum(counts)))
    sa_state = np.repeat(np.arange(len(states)), counts)
    sa_row = np.arange(sa_offsets[-1]) + np.repeat(
        np.array(row_start)[state_template] - sa_offsets[:-1], counts
    )
    sa_queues = sa_state % width
    base = queue_mat[sa_queues] - np.array(row_served).reshape(-1, n)[sa_row]
    sa_post = np.array(row_place)[sa_row] * width + base @ weight
    for i, p in enumerate(probs):
        if p == 1.0:
            sa_post += weight[i] * (base[:, i] < cap)
    del base, sa_row, sa_state

    # one arrival row per post-service id; its branch code depends only on
    # the queue digits, so it repeats across placements
    code = np.zeros(width, dtype=np.int64)
    for i, p in enumerate(probs):
        if 0.0 < p < 1.0:
            code |= (queue_mat[:, i] < cap).astype(np.int64) << i
    code = np.tile(code, len(placements))
    fan_out = np.array([1 << c.bit_count() for c in range(1 << n)])
    tr_offsets = np.concatenate(([0], np.cumsum(fan_out[code])))
    tr_next = np.empty(tr_offsets[-1], dtype=np.int64)
    tr_prob = np.empty(tr_offsets[-1], dtype=np.float64)
    for c in np.unique(code).tolist():
        branching = [i for i in range(n) if c >> i & 1]
        offsets, pattern_probs = [], []
        for pattern in itertools.product((0, 1), repeat=len(branching)):
            prob, offset = 1.0, 0
            for i, arrival in zip(branching, pattern):
                prob *= probs[i] if arrival else 1.0 - probs[i]
                offset += weight[i] * arrival
            pattern_probs.append(prob)
            offsets.append(offset)
        posts = np.flatnonzero(code == c)
        slots = tr_offsets[posts][:, None] + np.arange(len(offsets))
        tr_next[slots] = posts[:, None] + np.array(offsets)
        tr_prob[slots] = pattern_probs
    for ids in (sa_post, tr_next):
        if not 0 <= ids.min() <= ids.max() < len(states):
            raise RuntimeError("kernel points outside the state space")
    return TruncatedMdp(
        config=config,
        cap=cap,
        states=states,
        index={state: i for i, state in enumerate(states)},
        actions=tuple(itertools.chain.from_iterable(
            joints[t] for t in state_template.tolist()
        )),
        sa_offsets=sa_offsets,
        sa_cost=queue_mat.sum(axis=1)[sa_queues].astype(np.float64),
        sa_post=sa_post,
        tr_offsets=tr_offsets,
        tr_next=tr_next,
        tr_prob=tr_prob,
    )


def q_table(mdp: TruncatedMdp, values: np.ndarray) -> np.ndarray:
    """Q = stage cost + beta * E[v(next)] for every state-action, read from
    the table v.  E[v(next)] is reduced once per post-service arrival row,
    then each state-action reads the row of its post-service state."""
    expected = np.add.reduceat(
        mdp.tr_prob * values[mdp.tr_next], mdp.tr_offsets[:-1]
    )
    return mdp.sa_cost + mdp.config.discount * expected[mdp.sa_post]


def bellman_update(mdp: TruncatedMdp, values: np.ndarray) -> np.ndarray:
    """One Bellman sweep: the table T v, each state's minimum Q over v."""
    return np.minimum.reduceat(q_table(mdp, values), mdp.sa_offsets[:-1])


def _queue_grid(mdp: TruncatedMdp, per_state: np.ndarray) -> np.ndarray:
    """per_state, indexed by state id, viewed as placement x queue digits:
    axis 0 the placement, axis 1 + i the length of queue i."""
    n = mdp.config.num_locations
    return per_state.reshape((-1,) + (mdp.cap + 1,) * n)


def value_iteration(
    mdp: TruncatedMdp, tol: float, max_sweeps: int = 100_000
) -> ValueTable:
    """Two-buffer Bellman iteration stopped on MacQueen's bounds.

    Each sweep reads the previous table v and writes a fresh one, T v.
    With d = T v - v and k = beta / (1 - beta), the truncated fixed point
    lies between T v + k * min(d) and T v + k * max(d) at every state
    (MacQueen, J. Math. Anal. Appl. 14, 1966).  Iteration stops once that
    band is narrower than tol and returns its midpoint, which is within
    k * (max d - min d) / 2 < tol / 2 of the fixed point everywhere.

    error_bound adds the rounding of float arithmetic to that half-width.
    One computed sweep is within (L + N + 3) * u * (max cost + max |T v|)
    of the exact one, L the longest arrival row, N the locations and u
    the unit roundoff (products, row sums, the probabilities' N factors and
    the scaled add), and the bounds carry that error times 1 / (1 - beta).
    The allowance matters only at large beta and a tol near the rounding
    floor; there a float fixed point of the sweep can stop the iteration
    with d = 0 while the values still differ from the fixed point.

    residual_history keeps the sup-norm of d for each sweep.  Raises
    ConvergenceError when max_sweeps pass without the band closing.
    """
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    beta = mdp.config.discount
    k = beta / (1.0 - beta)
    row_max = int(np.diff(mdp.tr_offsets).max())
    rounding = (
        (row_max + mdp.config.num_locations + 3)
        * np.finfo(np.float64).eps / 2
        / (1.0 - beta)
    )
    max_cost = float(mdp.sa_cost.max())
    values = np.zeros(len(mdp.states))
    history: list[float] = []
    for sweep in range(1, max_sweeps + 1):
        new_values = bellman_update(mdp, values)
        diff = new_values - values
        lo, hi = float(diff.min()), float(diff.max())
        history.append(max(hi, -lo))
        values = new_values
        if k * (hi - lo) < tol:
            return ValueTable(
                values + k * (hi + lo) / 2,
                sweep,
                history[-1],
                tuple(history),
                k * (hi - lo) / 2
                + rounding * (max_cost + float(np.abs(values).max())),
            )
    raise ConvergenceError(
        f"value iteration did not converge within {max_sweeps} sweeps "
        f"(last residual {history[-1] if history else float('nan'):.3g}, "
        f"tol {tol:.3g})"
    )


def q_values(
    mdp: TruncatedMdp, table: ValueTable, state: SystemState
) -> dict[JointAction, float]:
    """Q(a) = stage cost + beta * E[V(next)] for every feasible joint."""
    state_id = mdp.index[state]
    lo, hi = mdp.sa_offsets[state_id], mdp.sa_offsets[state_id + 1]
    q = q_table(mdp, table.values)[lo:hi]
    return dict(zip(mdp.actions[lo:hi], q.tolist()))


@dataclass(frozen=True)
class Violation:
    """One failed optimality comparison at one interior state."""

    state: SystemState
    kind: str
    gap: float
    robot: int | None = None
    alternative: JointAction | None = None


def check_esl_optimality(
    mdp: TruncatedMdp,
    table: ValueTable,
    margin: int,
    tie_tol: float = 1e-9,
    rule=esl_decide,
) -> list[Violation]:
    """Audit the serve-longest rule against the exact Q-values.

    The Q-values are q_table over the solved values, the table whose
    per-state minimum the sweep takes.  At every interior state, in id
    order, the rule's joint action must (a) attain the minimum Q up to
    tie_tol, (b) for each robot with local work, beat every single-robot
    deviation to idle or switch strictly, and (c) for each robot the rule
    sends to a queue, beat both idling and switching to any strictly
    shorter nonempty queue.  Equal-length targets may tie (the arrival
    rates are symmetric in the instances we check), which is why only
    strictly shorter targets are compared.  Returns all failures; empty
    list means the rule passed.
    """
    if margin < 1 or margin >= mdp.cap:
        raise ValueError("margin must satisfy 1 <= margin < cap")
    n = mdp.config.num_locations
    inner = (slice(None),) + (slice(None, mdp.cap - margin + 1),) * n
    interior = _queue_grid(mdp, np.arange(len(mdp.states)))[inner].ravel()
    q_all = q_table(mdp, table.values)
    violations: list[Violation] = []
    starts = mdp.sa_offsets[interior].tolist()
    ends = mdp.sa_offsets[interior + 1].tolist()
    for state_id, lo, hi in zip(interior.tolist(), starts, ends):
        state = mdp.states[state_id]
        q = dict(zip(mdp.actions[lo:hi], q_all[lo:hi].tolist()))
        chosen = rule(state)
        if chosen not in q:
            violations.append(
                Violation(state, "rule-action-infeasible", math.inf)
            )
            continue
        q_star = q[chosen]
        q_min = min(q.values())
        if q_star > q_min + tie_tol:
            violations.append(Violation(state, "not-argmin", q_star - q_min))
        robots, queues = state
        for r, loc in enumerate(robots):
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


def _robot_deviations(state: SystemState, robot: int):
    """Idle and every switch for one robot, excluding its current action."""
    loc = state.robots[robot]
    yield IDLE_ACTION
    for dest in range(len(state.queues)):
        if dest != loc:
            yield RobotAction(SWITCH, dest)


def monotonicity_violations(
    mdp: TruncatedMdp, table: ValueTable, tol: float = 1e-9
) -> list[tuple[SystemState, int]]:
    """States where adding one task at some location lowers the value.

    The optimal cost must be coordinate-wise non-decreasing in the queue
    vector; returns the (state, location) pairs that break that by more
    than tol, in state id then location order.
    """
    grid = _queue_grid(mdp, table.values)
    n = mdp.config.num_locations
    # the appended +inf keeps a queue at the cap from counting as a dip
    rises = [np.diff(grid, axis=1 + i, append=np.inf) for i in range(n)]
    dips = np.stack(rises, axis=-1).reshape(len(mdp.states), n) < -tol
    return [(mdp.states[s], i) for s, i in np.argwhere(dips).tolist()]
