"""Decision rules and dwell tuning: serve-longest, oldest-task-first, patrol."""

import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyclic_oracle
from conftest import random_state, system_states
from eslsim import (
    IDLE_ACTION,
    SERVE_ACTION,
    SWITCH,
    AgeBookDesyncError,
    CyclicPolicy,
    DegenerateRateError,
    FcfsPolicy,
    ModelConfig,
    SlotDelta,
    SystemState,
    continuous_dwell,
    cyclic_decide,
    dwell_metadata,
    dwell_objective,
    esl_decide,
    fcfs_decide,
    initial_state,
    is_feasible,
    make_policy,
    optimize_dwell,
    patrol_blocks,
    step,
    switch_to,
    switch_to_shortest_decide,
    tuned_dwell,
)
from eslsim.policies import (
    block_size,
    fcfs_lanes,
    patrol_end,
    serve_then_seek,
    serve_then_seek_lanes,
)


def test_esl_sends_idle_robot_to_longest_free_queue():
    state = SystemState((0, 1), (0, 4, 7, 2, 0, 0))
    assert esl_decide(state) == (switch_to(2), SERVE_ACTION)


def test_esl_idles_everyone_when_nothing_waits():
    state = SystemState((0, 1), (0,) * 6)
    assert esl_decide(state) == (IDLE_ACTION, IDLE_ACTION)


def test_esl_tie_break_and_distinct_targets():
    state = SystemState((0, 1, 2), (0, 0, 0, 5, 5, 1))
    assert esl_decide(state) == (switch_to(3), switch_to(4), switch_to(5))


@given(system_states(max_locations=5))
@settings(max_examples=300, deadline=None)
def test_esl_structure(state):
    """Serve all local work; cover exactly the longest free queues; idle
    only once the free nonempty locations run out."""
    joint = esl_decide(state)
    assert is_feasible(state, joint)
    robots, queues = state
    targets = [act.dest for act in joint if act.kind == SWITCH]
    free = sorted(
        (
            queues[i]
            for i in range(len(queues))
            if queues[i] > 0 and i not in robots
        ),
        reverse=True,
    )
    for r, act in enumerate(joint):
        if queues[robots[r]] > 0:
            assert act == SERVE_ACTION
    if any(act == IDLE_ACTION for act in joint):
        assert len(targets) == len(free)
    assert sorted((queues[j] for j in targets), reverse=True) == (
        free[: len(targets)]
    )


@given(system_states(max_locations=5))
@settings(max_examples=150, deadline=None)
def test_shortest_variant_is_feasible_and_targets_shortest(state):
    joint = switch_to_shortest_decide(state)
    assert is_feasible(state, joint)
    robots, queues = state
    targets = [act.dest for act in joint if act.kind == SWITCH]
    free = sorted(
        queues[i]
        for i in range(len(queues))
        if queues[i] > 0 and i not in robots
    )
    assert sorted(queues[j] for j in targets) == free[: len(targets)]


def assert_lane_is_joint(serve, end, state, joint):
    """One lane's served flags and ends say what joint does in state:
    serve where it serves, end at its switch target or the robot's own
    location."""
    assert serve.tolist() == [act == SERVE_ACTION for act in joint]
    assert end.tolist() == [
        loc if act.dest is None else act.dest
        for loc, act in zip(state.robots, joint)
    ]


def assert_lanes_match_scalar(robots, queues, longest_first):
    """serve_then_seek_lanes agrees with serve_then_seek in every lane."""
    robots, queues = np.array(robots), np.array(queues)
    serve, end = serve_then_seek_lanes(
        robots, queues, longest_first=longest_first
    )
    assert serve.shape == end.shape == robots.shape
    for k in range(len(robots)):
        state = SystemState(
            tuple(robots[k].tolist()), tuple(queues[k].tolist())
        )
        joint = serve_then_seek(state, longest_first=longest_first)
        assert_lane_is_joint(serve[k], end[k], state, joint)


@st.composite
def lane_batches(draw):
    """Lanes of one (N, M) instance with short queues, so that equal
    lengths and seekers without a target are common."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, n))
    lanes = draw(st.lists(
        st.tuples(
            st.permutations(range(n)),
            st.lists(st.integers(0, 3), min_size=n, max_size=n),
        ),
        min_size=1,
        max_size=6,
    ))
    return [p[:m] for p, _ in lanes], [q for _, q in lanes]


@given(lane_batches(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_array_rule_matches_scalar_rule(batch, longest_first):
    assert_lanes_match_scalar(*batch, longest_first)


@pytest.mark.parametrize("longest_first", [True, False])
def test_array_rule_on_ties_idlers_and_spare_seekers(longest_first):
    """Lanes where free targets tie on length, where every robot idles,
    where seekers outnumber the free targets, where robots serve and seek
    at once, and where the only nonempty queues are occupied."""
    robots = [[0, 1, 2]] * 5
    queues = [
        [0, 0, 0, 5, 5, 1],
        [0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 2, 0],
        [3, 0, 0, 1, 4, 4],
        [2, 1, 1, 0, 0, 0],
    ]
    assert_lanes_match_scalar(robots, queues, longest_first)
    serve, end = serve_then_seek_lanes(
        np.array(robots), np.array(queues), longest_first=longest_first
    )
    assert end.tolist() == (
        [[3, 4, 5], [0, 1, 2], [4, 1, 2], [0, 4, 5], [0, 1, 2]]
        if longest_first
        else [[5, 3, 4], [0, 1, 2], [4, 1, 2], [0, 3, 4], [0, 1, 2]]
    )
    assert serve.tolist() == [[False] * 3] * 3 + [
        [True, False, False], [True] * 3
    ]


def book_with(stamps_by_loc):
    """fcfs_decide's waiting argument: per location, the arrival slots of
    the waiting tasks, oldest first."""
    return [deque(s) for s in stamps_by_loc]


def test_fcfs_chases_the_older_task_elsewhere():
    state = SystemState((0,), (1, 1))
    book = book_with([[4], [0]])
    assert fcfs_decide(state, book) == (switch_to(1),)


def test_fcfs_tie_prefers_staying():
    state = SystemState((0,), (1, 1))
    book = book_with([[3], [3]])
    assert fcfs_decide(state, book) == (SERVE_ACTION,)


def test_fcfs_equal_ages_both_serve():
    state = SystemState((0, 1), (1, 1, 0))
    book = book_with([[2], [2], []])
    assert fcfs_decide(state, book) == (SERVE_ACTION, SERVE_ACTION)


def test_fcfs_incomer_may_take_a_leaving_hosts_location():
    # the oldest task pulls robot 0 away from location 0; the next-oldest
    # sits at 0, which robot 1 may enter because its host is leaving
    state = SystemState((0, 1), (1, 1, 1))
    book = book_with([[3], [7], [0]])
    joint = fcfs_decide(state, book)
    assert joint == (switch_to(2), switch_to(0))
    assert is_feasible(state, joint)


def test_fcfs_detects_age_book_desync():
    state = SystemState((0,), (2, 0))
    book = book_with([[1], []])
    with pytest.raises(AgeBookDesyncError, match="age book desync"):
        fcfs_decide(state, book)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_fcfs_decisions_feasible(data):
    state = data.draw(system_states(max_locations=5))
    stamps = [
        sorted(data.draw(st.lists(st.integers(0, 30), min_size=q, max_size=q)))
        for q in state.queues
    ]
    joint = fcfs_decide(state, book_with(stamps))
    assert is_feasible(state, joint)


@st.composite
def fcfs_lane_batches(draw):
    """Lanes of one (N, M) instance, each with a consistent age book: up
    to three sorted arrival slots per location from a short range, so
    equal oldest slots at several locations are common."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, n))
    lanes = draw(st.lists(
        st.tuples(
            st.permutations(range(n)),
            st.lists(
                st.lists(st.integers(0, 4), max_size=3),
                min_size=n,
                max_size=n,
            ),
        ),
        min_size=1,
        max_size=6,
    ))
    return (
        [p[:m] for p, _ in lanes],
        [[sorted(stamps) for stamps in book] for _, book in lanes],
    )


@given(fcfs_lane_batches())
@settings(max_examples=300, deadline=None)
def test_fcfs_array_rule_matches_scalar_rule(batch):
    """fcfs_lanes, given each book's first slot per location as heads,
    agrees with fcfs_decide in every lane.  An empty location's head is
    -1, which would rank first if the rule read it."""
    robots, books = batch
    queues = [[len(stamps) for stamps in book] for book in books]
    heads = [[stamps[0] if stamps else -1 for stamps in book]
             for book in books]
    serve, end = fcfs_lanes(np.array(robots), np.array(queues),
                            np.array(heads))
    assert serve.shape == end.shape == np.shape(robots)
    for k, book in enumerate(books):
        state = SystemState(tuple(robots[k]), tuple(queues[k]))
        joint = fcfs_decide(state, book_with(book))
        assert_lane_is_joint(serve[k], end[k], state, joint)


def test_age_book_tracks_service_and_arrivals():
    policy = FcfsPolicy(2)
    policy.reset(SystemState((1,), (0, 0)))
    policy.observe(SlotDelta((0, 0), (1, 0)), 0)
    policy.observe(SlotDelta((0, 0), (1, 1)), 1)
    assert list(policy.waiting[0]) == [0, 1]
    assert list(policy.waiting[1]) == [1]
    policy.observe(SlotDelta((1, 0), (0, 0)), 2)
    assert list(policy.waiting[0]) == [1]  # the oldest task departed first
    # location 0's task (slot 1) is no older than location 1's (slot 1),
    # so the robot at 1 stays and serves
    assert policy.decide(SystemState((1,), (1, 1)), 3) == (SERVE_ACTION,)
    with pytest.raises(AgeBookDesyncError):
        policy.decide(SystemState((1,), (2, 1)), 3)


def test_age_book_from_state_matches_queue_lengths():
    state = SystemState((0,), (2, 0, 1))
    policy = FcfsPolicy(3)
    policy.reset(state)
    assert [list(w) for w in policy.waiting] == [[0, 0], [], [0]]
    assert policy.decide(state, 0) == (SERVE_ACTION,)


def legs_at(state, t_dwell=1):
    """cyclic_decide's legs for an episode that starts at state, as
    CyclicPolicy.reset reads them."""
    policy = CyclicPolicy(len(state.queues), len(state.robots), t_dwell)
    policy.reset(state)
    return policy.legs


def test_single_location_block_never_switches():
    state = SystemState((0, 1), (2, 0))
    legs = legs_at(state)
    for now in range(8):
        joint = cyclic_decide(state, now, 3, legs)
        assert joint == (SERVE_ACTION, IDLE_ACTION)


def test_dwell_then_travel_cadence_on_empty_block():
    state = SystemState((0,), (0, 0, 0))
    legs = legs_at(state)
    seen = []
    for now in range(6):
        joint = cyclic_decide(state, now, 2, legs)
        seen.append(joint[0])
        state = step(state, joint, (0, 0, 0))[0]
    assert seen == [
        IDLE_ACTION,
        IDLE_ACTION,
        switch_to(1),
        IDLE_ACTION,
        IDLE_ACTION,
        switch_to(2),
    ]


def test_serves_during_dwell_when_work_is_present():
    state = SystemState((0,), (4, 0, 0))
    assert cyclic_decide(state, 0, 2, legs_at(state)) == (SERVE_ACTION,)


def test_off_post_robot_travels_without_spending_dwell():
    state = SystemState((3, 1), (1, 1, 1, 1))
    legs = legs_at(state)
    assert legs == ((1, 0, 2), (1, 2, 2))
    joint = cyclic_decide(state, 0, 1, legs)
    assert joint == (switch_to(0), switch_to(2))
    # the trip took the first slot; the whole dwell follows it
    state = step(state, joint, (0, 0, 0, 0))[0]
    assert cyclic_decide(state, 1, 1, legs) == (SERVE_ACTION, SERVE_ACTION)
    assert cyclic_decide(state, 2, 1, legs) == (switch_to(1), switch_to(3))


def test_cyclic_ignores_queues_elsewhere():
    legs = legs_at(SystemState((0,), (0, 0, 0, 0)))
    ja = cyclic_decide(SystemState((0,), (0, 9, 0, 0)), 0, 2, legs)
    jb = cyclic_decide(SystemState((0,), (0, 0, 0, 99)), 0, 2, legs)
    assert ja == jb == (IDLE_ACTION,)


def test_cyclic_policy_rejects_bad_dwell():
    with pytest.raises(ValueError, match="dwell"):
        CyclicPolicy(3, 1, t_dwell=0)
    model = ModelConfig.symmetric(3, 1, 0.2, 0.9)
    with pytest.raises(ValueError, match="dwell"):
        make_policy("cyclic", model, t_dwell=0)


def test_block_partition_is_contiguous_and_covers():
    assert patrol_blocks(7, 3) == [(0, 3), (3, 2), (5, 2)]
    for n in range(1, 9):
        for m in range(1, n + 1):
            blocks = patrol_blocks(n, m)
            assert [start for start, _ in blocks] == [
                sum(size for _, size in blocks[:r]) for r in range(m)
            ]
            assert sum(size for _, size in blocks) == n
            assert blocks[0][1] == block_size(n, m) == -(-n // m)


def test_cyclic_decisions_always_feasible():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(2, 5)
        m = rng.randint(1, n)
        legs = [
            (rng.randint(0, 1), start, size)
            for start, size in patrol_blocks(n, m)
        ]
        state = random_state(rng, n, m)
        joint = cyclic_decide(state, rng.randrange(50), rng.randint(1, 3), legs)
        assert is_feasible(state, joint)


def patrol_pairs(state, t_dwell, slots, rng, p=0.3):
    """(closed form, oracle) joints along one episode from state, stepped
    on the oracle's joints with Bernoulli(p) arrivals."""
    n, m = len(state.queues), len(state.robots)
    policy = CyclicPolicy(n, m, t_dwell)
    policy.reset(state)
    plan = cyclic_oracle.CyclicPlan.build(n, m, t_dwell)
    for now in range(slots):
        want, plan = cyclic_oracle.cyclic_decide(state, plan)
        yield policy.decide(state, now), want
        arrivals = tuple(int(rng.random() < p) for _ in range(n))
        state = step(state, want, arrivals)[0]


PATROL_GRID = [
    (n, m, d) for n in range(1, 9) for m in range(1, n + 1) for d in range(1, 7)
]


def test_closed_form_matches_oracle_from_start():
    """N <= 8, every M <= N, dwells 1-6, 400 slots from initial_state."""
    rng = random.Random(5)
    slots = 0
    for n, m, d in PATROL_GRID:
        start = initial_state(ModelConfig.symmetric(n, m, 0.3, 0.9))
        for got, want in patrol_pairs(start, d, 400, rng):
            assert got == want, (n, m, d)
            slots += 1
    assert slots == 86_400


def test_closed_form_matches_oracle_from_random_starts():
    """Two random start states per grid point, robots on or off their
    block heads, 100 slots each."""
    rng = random.Random(8)
    for n, m, d in PATROL_GRID:
        for _ in range(2):
            start = random_state(rng, n, m)
            for got, want in patrol_pairs(start, d, 100, rng):
                assert got == want, (start, d)


def test_patrol_end_is_the_same_on_ints_and_on_arrays():
    """The scan's (slot, lane, robot) array call agrees with the scalar
    call cyclic_decide makes, entry by entry."""
    legs = [(1, 0, 3), (0, 3, 2), (1, 5, 2)]
    leads, starts, sizes = (np.array(col) for col in zip(*legs))
    dwells = [1, 2, 5]
    slots = np.arange(40)[:, None, None]
    ends = patrol_end(slots, leads, starts, sizes, np.array(dwells)[:, None])
    assert ends.shape == (40, 3, 3)
    for now in range(40):
        for k, dwell in enumerate(dwells):
            assert ends[now, k].tolist() == [
                patrol_end(now, lead, start, size, dwell)
                for lead, start, size in legs
            ]


def test_dwell_objective_pinned_value():
    # one dwell slot per location, p = 0.0667, block of three
    assert abs(dwell_objective(0.0667, 3, 3.0) - 88.95502248875565) < 1e-9


def scan_argmin(p, n, search_max):
    values = [
        dwell_objective(p, n, float(n * t)) for t in range(1, search_max + 1)
    ]
    return min(range(1, search_max + 1), key=lambda t: (values[t - 1], t))


@pytest.mark.parametrize("p,n", [(0.0667, 3), (0.5, 1)])
def test_optimizer_matches_exhaustive_scan(p, n):
    assert optimize_dwell(p, n, 1000) == scan_argmin(p, n, 1000)


def test_optimizer_matches_scan_on_random_rates():
    rng = random.Random(11)
    for _ in range(12):
        p = rng.uniform(0.02, 0.95)
        n = rng.randint(1, 6)
        assert optimize_dwell(p, n, 400) == scan_argmin(p, n, 400)


@pytest.mark.parametrize("func", [optimize_dwell, tuned_dwell, continuous_dwell])
def test_degenerate_rates_rejected(func):
    for p in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(DegenerateRateError, match="degenerate rate"):
            func(p, 2)


def test_benchmark_dwells():
    """Floored continuous argmin across the six benchmark cells."""
    assert [tuned_dwell(a / 3, 3) for a in (0.2, 0.5, 0.8)] == [7, 4, 3]
    assert [tuned_dwell(a / 2, 2) for a in (0.2, 0.5, 0.8)] == [8, 4, 2]


@pytest.mark.parametrize(
    "func", [optimize_dwell, tuned_dwell, continuous_dwell, dwell_metadata]
)
def test_search_max_checked(func):
    with pytest.raises(ValueError, match="search_max must be at least 1"):
        func(0.1, 2, 0)


def test_continuous_dwell_pinned():
    """Continuous argmin to 6 significant digits on the six benchmark cells,
    as the scipy bounded minimizer found them."""
    got = [f"{continuous_dwell(a / 3, 3):.6g}" for a in (0.2, 0.5, 0.8)]
    assert got == ["7.49821", "4.22468", "3.05767"]
    got = [f"{continuous_dwell(a / 2, 2):.6g}" for a in (0.2, 0.5, 0.8)]
    assert got == ["8.0488", "4.07545", "2.75171"]


def test_dwell_metadata_consistent():
    meta = dwell_metadata(0.1, 2)
    assert meta["scan_t"] == optimize_dwell(0.1, 2)
    assert meta["floor_t"] == tuned_dwell(0.1, 2)
    assert meta["floor_t"] <= meta["continuous_u"] < meta["floor_t"] + 1
    assert meta["ceil_t"] == meta["floor_t"] + 1
    assert meta["scan_objective"] <= meta["floor_objective"] + 1e-12


def test_make_policy_names_and_params():
    model = ModelConfig.symmetric(6, 2, 0.1, 0.99)
    assert make_policy("esl", model).name == "esl"
    assert make_policy("fcfs", model).name == "fcfs"
    assert make_policy("cyclic", model, t_dwell=5).t_dwell == 5
    with pytest.raises(ValueError):
        make_policy("lifo", model)


def test_make_policy_rejects_a_misnamed_cyclic_dwell():
    model = ModelConfig.symmetric(6, 2, 0.1, 0.99)
    with pytest.raises(ValueError, match="unknown parameter 'dwell'"):
        make_policy("cyclic", model, dwell=2)
    with pytest.raises(ValueError, match="missing parameter 't_dwell'"):
        make_policy("cyclic", model)


def test_make_policy_rejects_parameters_of_other_policies():
    model = ModelConfig.symmetric(6, 2, 0.1, 0.99)
    for name in ("esl", "fcfs"):
        with pytest.raises(ValueError, match="unknown parameter 't_dwell'"):
            make_policy(name, model, t_dwell=2)
