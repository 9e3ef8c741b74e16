"""Slot-level dynamics: admissibility, collision rule, stepping, bookkeeping."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_feasible_joint, system_states
from ordered_audit import admissible_robot_actions, iter_joint_actions
from scalar_mdp import stage_cost
from eslsim import (
    IDLE_ACTION,
    SERVE_ACTION,
    InfeasibleActionError,
    ModelConfig,
    RobotAction,
    SlotDelta,
    SystemState,
    initial_state,
    is_feasible,
    sample_arrivals,
    step,
    switch_to,
    validate_state,
)
from eslsim.model import arrival_table


def test_admissible_menu_with_local_work():
    state = SystemState((0,), (3, 0))
    assert set(admissible_robot_actions(state, 0)) == {
        SERVE_ACTION,
        IDLE_ACTION,
        switch_to(1),
    }


def test_admissible_menu_at_empty_location():
    state = SystemState((1,), (5, 0))
    assert set(admissible_robot_actions(state, 0)) == {
        IDLE_ACTION,
        switch_to(0),
    }


def test_admissible_menu_excludes_own_location():
    state = SystemState((0, 1), (1, 1, 0, 0))
    assert set(admissible_robot_actions(state, 1)) == {
        SERVE_ACTION,
        IDLE_ACTION,
        switch_to(0),
        switch_to(2),
        switch_to(3),
    }


def test_two_serves_at_distinct_locations_feasible():
    state = SystemState((0, 1), (1, 1))
    assert is_feasible(state, (SERVE_ACTION, SERVE_ACTION))


def test_two_switchers_into_same_target_collide():
    state = SystemState((0, 1), (0, 0, 0))
    assert not is_feasible(state, (switch_to(2), switch_to(2)))


def test_stayer_blocks_incoming_switcher():
    state = SystemState((0, 1), (1, 0))
    assert not is_feasible(state, (IDLE_ACTION, switch_to(0)))


def test_position_swap_is_feasible():
    # only end-of-slot locations must be distinct, so a crossing is legal
    state = SystemState((0, 1), (0, 0))
    assert is_feasible(state, (switch_to(1), switch_to(0)))


@pytest.mark.parametrize(
    "joint",
    [
        (SERVE_ACTION,),              # serve with no local work
        (RobotAction("serve", 1),),   # serve carrying a destination
        (RobotAction("idle", 0),),    # idle carrying a destination
        (switch_to(0),),              # switch to own location
        (switch_to(9),),              # switch out of range
        (RobotAction("wait"),),       # unknown kind
    ],
)
def test_malformed_actions_rejected(joint):
    state = SystemState((0,), (0, 2))
    assert not is_feasible(state, joint)


def test_wrong_arity_rejected():
    state = SystemState((0, 1), (1, 1))
    assert not is_feasible(state, (SERVE_ACTION,))


def test_zero_rates_never_arrive():
    rng = np.random.default_rng(0)
    for _ in range(50):
        assert sample_arrivals((0.0, 0.0, 0.0), rng) == (0, 0, 0)


def test_unit_rates_always_arrive():
    rng = np.random.default_rng(1)
    for _ in range(50):
        assert sample_arrivals((1.0, 1.0), rng) == (1, 1)


def test_arrivals_reproducible_from_seed():
    r1, r2 = np.random.default_rng(42), np.random.default_rng(42)
    seq1 = [sample_arrivals((0.5, 0.3), r1) for _ in range(200)]
    seq2 = [sample_arrivals((0.5, 0.3), r2) for _ in range(200)]
    assert seq1 == seq2


def test_arrival_frequency_matches_rate():
    """Law of large numbers over one million indicator draws at p = 0.5."""
    rng = np.random.default_rng(2024)
    hits = 0
    for _ in range(200_000):
        hits += sum(sample_arrivals((0.5,) * 5, rng))
    assert abs(hits / 1_000_000 - 0.5) < 0.002


@pytest.mark.parametrize("seeds", [[4, 4, 4], [4, 9, 2], [9, 4, 9]])
@pytest.mark.parametrize("n", [2, 3, 6])
def test_arrival_table_from_a_later_start_is_its_tail(monkeypatch, seeds, n):
    """arrival_table(..., start=s) is rows s: of the table drawn from slot
    0, for starts before, at and after chunk boundaries, whether lanes
    share a seed or not; the table from 0 is each seed's plain draw."""
    monkeypatch.setattr("eslsim.model._ARRIVAL_CHUNK_ROWS", 5)
    probs = np.linspace(0.2, 0.7, len(seeds) * n).reshape(len(seeds), n)
    whole = arrival_table(seeds, probs, 23)
    for k, seed in enumerate(seeds):
        want = np.random.default_rng(seed).random((23, n)) < probs[k]
        assert (whole[:, k] == want).all()
    for start in (1, 4, 5, 6, 10, 17, 22, 23):
        tail = arrival_table(seeds, probs, 23, start=start)
        assert tail.shape == (23 - start, len(seeds), n)
        assert (tail == whole[start:]).all()
    # one probs vector serves every lane
    assert (arrival_table(seeds, probs[0], 23, start=6)
            == arrival_table(seeds, [probs[0]] * len(seeds), 23)[6:]).all()


def test_step_serve_with_arrival_elsewhere():
    state = SystemState((0,), (3, 0))
    nxt, delta = step(state, (SERVE_ACTION,), (0, 1))
    assert nxt == SystemState((0,), (2, 1))
    assert delta == SlotDelta((1, 0), (0, 1))


def test_step_travel_slot_serves_nothing():
    state = SystemState((0,), (0, 2))
    nxt, delta = step(state, (switch_to(1),), (1, 0))
    assert nxt == SystemState((1,), (1, 2))
    assert delta.departures == (0, 0)


def test_step_simultaneous_switch_and_serve():
    state = SystemState((0, 2), (0, 0, 1))
    nxt, _ = step(state, (switch_to(1), SERVE_ACTION), (0, 0, 0))
    assert nxt == SystemState((1, 2), (0, 0, 0))


def test_step_rejects_infeasible_joint():
    state = SystemState((0,), (0, 0))
    with pytest.raises(InfeasibleActionError, match="infeasible action"):
        step(state, (SERVE_ACTION,), (0, 0))


def test_step_rejects_bad_arrival_vectors():
    state = SystemState((0,), (1, 0))
    with pytest.raises(ValueError):
        step(state, (SERVE_ACTION,), (0,))
    with pytest.raises(ValueError):
        step(state, (SERVE_ACTION,), (0, 2))


@pytest.mark.parametrize(
    "queues,expected",
    [((0, 0, 0, 0), 0), ((2, 3, 0), 5), ((1, 1, 1, 1, 1, 1), 6)],
)
def test_stage_cost_sums_queues(queues, expected):
    assert stage_cost(SystemState((0,), queues)) == expected


def test_conservation_over_random_walk():
    """Backlog equals initial work plus arrivals minus departures, exactly,
    along a long random feasible trajectory."""
    rng = random.Random(7)
    model = ModelConfig.symmetric(4, 2, 0.3, 0.9)
    state = initial_state(model)
    base = sum(state.queues)
    arrived = departed = 0
    for _ in range(20_000):
        joint = random_feasible_joint(rng, state)
        arrivals = tuple(1 if rng.random() < 0.3 else 0 for _ in range(4))
        state, delta = step(state, joint, arrivals)
        arrived += sum(delta.arrivals)
        departed += sum(delta.departures)
        assert sum(state.queues) == base + arrived - departed
        assert len(set(state.robots)) == 2
        assert min(state.queues) >= 0
        assert all(d in (0, 1) for d in delta.departures)
        assert sum(delta.departures) <= 2


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_step_preserves_invariants(data):
    state = data.draw(system_states())
    n = len(state.queues)
    joint = data.draw(st.sampled_from(list(iter_joint_actions(state))))
    arrivals = tuple(
        data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    )
    nxt, delta = step(state, joint, arrivals)
    again = step(state, joint, arrivals)
    assert again == (nxt, delta)
    assert len(set(nxt.robots)) == len(nxt.robots)
    assert min(nxt.queues) >= 0
    assert sum(nxt.queues) == (
        sum(state.queues) - sum(delta.departures) + sum(arrivals)
    )
    assert sum(delta.departures) <= len(state.robots)


def test_joint_action_enumeration_counts():
    assert len(list(iter_joint_actions(SystemState((0,), (1, 0))))) == 3
    assert len(list(iter_joint_actions(SystemState((0, 1), (1, 1))))) == 5


def test_validate_state_rejects_bad_states():
    model = ModelConfig.symmetric(3, 2, 0.1, 0.9)
    validate_state(SystemState((0, 2), (0, 1, 0)), model)
    bad_states = [
        SystemState((0, 0), (0, 0, 0)),   # shared location
        SystemState((0, 3), (0, 0, 0)),   # location out of range
        SystemState((0,), (0, 0, 0)),     # robot count mismatch
        SystemState((0, 1), (0, 0)),      # queue vector length mismatch
        SystemState((0, 1), (0, -1, 0)),  # negative queue
    ]
    for bad in bad_states:
        with pytest.raises(ValueError):
            validate_state(bad, model)


def test_model_config_validation():
    with pytest.raises(ValueError):
        ModelConfig.symmetric(3, 4, 0.1, 0.9)
    with pytest.raises(ValueError):
        ModelConfig.symmetric(3, 1, 1.5, 0.9)
    with pytest.raises(ValueError):
        ModelConfig.symmetric(3, 1, 0.1, 1.0)
    with pytest.raises(ValueError):
        ModelConfig(3, 1, (0.1, 0.2), 0.9)


def test_initial_state_parks_robots_at_low_indices():
    model = ModelConfig.symmetric(5, 3, 0.2, 0.95)
    assert initial_state(model) == SystemState((0, 1, 2), (0, 0, 0, 0, 0))
