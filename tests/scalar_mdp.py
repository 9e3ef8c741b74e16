"""The state-by-state builder of the exact solver's kernel, kept as the
oracle that eslsim.mdp.build_truncated_mdp must match byte for byte.

It walks every state, every feasible joint action and every arrival
branch one Python tuple at a time and looks each next state up in the
index, so it is slow but plain.  It stores the explicit kernel, one
transition row per state-action; test_mdp.py expands the fast builder's
post-service rows back to that form and compares the two builders on
states, actions and all five kernel arrays.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from eslsim.mdp import (
    DEFAULT_STATE_BUDGET,
    StateSpaceTooLargeError,
    count_states,
)
from eslsim.model import (
    SERVE,
    SWITCH,
    JointAction,
    ModelConfig,
    SystemState,
    iter_joint_actions,
)


def stage_cost(state: SystemState) -> int:
    """Per-slot holding cost: total number of waiting tasks."""
    return sum(state.queues)


@dataclass(frozen=True)
class ExplicitMdp:
    """TruncatedMdp's enumeration with an explicit kernel: state-action k
    owns transition entries tr_offsets[k]:tr_offsets[k+1] in
    (tr_next, tr_prob)."""

    config: ModelConfig
    cap: int
    states: tuple[SystemState, ...]
    index: dict
    actions: tuple[JointAction, ...]
    sa_offsets: np.ndarray
    sa_cost: np.ndarray
    tr_offsets: np.ndarray
    tr_next: np.ndarray
    tr_prob: np.ndarray


def build_truncated_mdp_scalar(
    config: ModelConfig,
    cap: int,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> ExplicitMdp:
    """Enumerate states, feasible joint actions and the explicit kernel.

    Raises StateSpaceTooLargeError before allocating anything when the
    count of placements times queue vectors exceeds the budget.
    """
    if cap < 1:
        raise ValueError("queue cap must be at least 1")
    if count_states(config, cap) > state_budget:
        raise StateSpaceTooLargeError("state space too large")
    n = config.num_locations
    probs = config.arrival_probs
    states: list[SystemState] = []
    for placement in itertools.permutations(range(n), config.num_robots):
        for queues in itertools.product(range(cap + 1), repeat=n):
            states.append(SystemState(placement, queues))
    index = {state: i for i, state in enumerate(states)}

    actions: list[JointAction] = []
    sa_offsets = [0]
    sa_cost: list[float] = []
    tr_offsets = [0]
    tr_next: list[int] = []
    tr_prob: list[float] = []
    for state in states:
        robots, queues = state
        cost = float(stage_cost(state))
        for joint in iter_joint_actions(state):
            base = list(queues)
            movers = list(robots)
            for r, act in enumerate(joint):
                if act.kind == SWITCH:
                    movers[r] = act.dest
                elif act.kind == SERVE:
                    base[robots[r]] -= 1
            next_robots = tuple(movers)
            # per-location arrival branches; full queues drop the arrival
            options = []
            for i in range(n):
                p = probs[i]
                if base[i] >= cap or p == 0.0:
                    options.append(((0, 1.0),))
                elif p == 1.0:
                    options.append(((1, 1.0),))
                else:
                    options.append(((0, 1.0 - p), (1, p)))
            for combo in itertools.product(*options):
                prob = 1.0
                for _, q in combo:
                    prob *= q
                next_queues = tuple(
                    base[i] + combo[i][0] for i in range(n)
                )
                tr_next.append(index[SystemState(next_robots, next_queues)])
                tr_prob.append(prob)
            tr_offsets.append(len(tr_next))
            actions.append(joint)
            sa_cost.append(cost)
        sa_offsets.append(len(actions))
    return ExplicitMdp(
        config=config,
        cap=cap,
        states=tuple(states),
        index=index,
        actions=tuple(actions),
        sa_offsets=np.asarray(sa_offsets, dtype=np.int64),
        sa_cost=np.asarray(sa_cost, dtype=np.float64),
        tr_offsets=np.asarray(tr_offsets, dtype=np.int64),
        tr_next=np.asarray(tr_next, dtype=np.int64),
        tr_prob=np.asarray(tr_prob, dtype=np.float64),
    )
