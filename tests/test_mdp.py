"""Exact solver: enumeration counts, value iteration, Q-value audits."""

import dataclasses
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scalar_mdp import build_truncated_mdp_scalar

from eslsim import (
    IDLE_ACTION,
    SERVE_ACTION,
    ModelConfig,
    StateSpaceTooLargeError,
    SystemState,
    bellman_update,
    build_truncated_mdp,
    check_esl_optimality,
    count_states,
    esl_decide,
    monotonicity_violations,
    q_table,
    q_values,
    switch_to,
    switch_to_shortest_decide,
    value_iteration,
)


def oracle_finite_horizon(n, m, cap, probs, beta, horizon):
    """Brute-force finite-horizon backup written independently of the
    library: dict-valued, explicit action filtering, arrivals at capped
    queues dropped.  Returns a map from (placement, queues) to value."""
    states = [
        (placement, queues)
        for placement in itertools.permutations(range(n), m)
        for queues in itertools.product(range(cap + 1), repeat=n)
    ]

    def robot_menu(loc, queues):
        menu = []
        if queues[loc] > 0:
            menu.append(("serve", loc))
        menu.append(("idle", loc))
        menu.extend(("switch", j) for j in range(n) if j != loc)
        return menu

    def outcomes(placement, queues, combo):
        served = list(queues)
        for (kind, _), loc in zip(combo, placement):
            if kind == "serve":
                served[loc] -= 1
        ends = tuple(end for _, end in combo)
        per_loc = []
        for i in range(n):
            if served[i] >= cap:
                per_loc.append(((served[i], 1.0),))
            else:
                per_loc.append(
                    ((served[i], 1.0 - probs[i]), (served[i] + 1, probs[i]))
                )
        for branch in itertools.product(*per_loc):
            prob = 1.0
            nxt = []
            for q, pr in branch:
                prob *= pr
                nxt.append(q)
            yield (ends, tuple(nxt)), prob

    transitions = {}
    for placement, queues in states:
        acts = []
        for combo in itertools.product(
            *(robot_menu(loc, queues) for loc in placement)
        ):
            ends = [end for _, end in combo]
            if len(set(ends)) == m:
                acts.append(list(outcomes(placement, queues, combo)))
        transitions[(placement, queues)] = acts

    values = {s: 0.0 for s in states}
    for _ in range(horizon):
        new = {}
        for s in states:
            cost = float(sum(s[1]))
            new[s] = min(
                cost + beta * sum(pr * values[nxt] for nxt, pr in act)
                for act in transitions[s]
            )
        values = new
    return values


def test_state_count_formula():
    model = ModelConfig.symmetric(2, 1, 0.1, 0.9)
    assert count_states(model, 1) == 8
    mdp = build_truncated_mdp(model, cap=1)
    assert len(mdp.states) == 8
    assert len(mdp.index) == 8


def test_two_robot_placement_count():
    model = ModelConfig.symmetric(2, 2, 0.1, 0.9)
    assert len(build_truncated_mdp(model, cap=2).states) == 2 * 9


def test_kernel_rows_are_stochastic():
    # rates include the 0 and 1 edge cases on purpose
    model = ModelConfig(3, 2, (0.3, 0.0, 1.0), 0.9)
    mdp = build_truncated_mdp(model, cap=2)
    sums = np.add.reduceat(mdp.tr_prob, mdp.tr_offsets[:-1])
    assert float(np.max(np.abs(sums - 1.0))) < 1e-12


def test_budget_guard_fires_before_allocation():
    model = ModelConfig.symmetric(6, 3, 0.1, 0.9)
    assert count_states(model, 9) == 120 * 10**6
    with pytest.raises(StateSpaceTooLargeError, match="state space too large"):
        build_truncated_mdp(model, cap=9)
    with pytest.raises(ValueError):
        build_truncated_mdp(ModelConfig.symmetric(2, 1, 0.1, 0.9), cap=0)


def test_deterministic_drain_value():
    model = ModelConfig.symmetric(2, 1, 0.0, 0.5)
    mdp = build_truncated_mdp(model, cap=3)
    table = value_iteration(mdp, tol=1e-12)
    v = table.values[mdp.index[SystemState((0,), (2, 0))]]
    # drain two tasks: cost 2 now, 1 next slot, empty thereafter
    assert v == pytest.approx(2.5, abs=1e-9)


def test_no_arrivals_empty_system_is_free():
    model = ModelConfig.symmetric(2, 1, 0.0, 0.5)
    mdp = build_truncated_mdp(model, cap=2)
    table = value_iteration(mdp, tol=1e-12)
    for loc in (0, 1):
        assert table.values[mdp.index[SystemState((loc,), (0, 0))]] == 0.0


def test_value_iteration_matches_independent_backup():
    model = ModelConfig.symmetric(2, 1, 0.1, 0.9)
    mdp = build_truncated_mdp(model, cap=4)
    table = value_iteration(mdp, tol=1e-12)
    oracle = oracle_finite_horizon(2, 1, 4, (0.1, 0.1), 0.9, horizon=300)
    probe = SystemState((0,), (0, 3))
    assert abs(table.values[mdp.index[probe]] - oracle[((0,), (0, 3))]) < 1e-8
    for state in mdp.states:
        v = table.values[mdp.index[state]]
        assert abs(v - oracle[(state.robots, state.queues)]) < 1e-8


def test_q_values_structure():
    model = ModelConfig.symmetric(2, 1, 0.0, 0.9)
    mdp = build_truncated_mdp(model, cap=3)
    table = value_iteration(mdp, tol=1e-12)
    empty = q_values(mdp, table, SystemState((0,), (0, 0)))
    assert all(abs(q) < 1e-12 for q in empty.values())
    busy = q_values(mdp, table, SystemState((0,), (2, 0)))
    assert busy[(SERVE_ACTION,)] < busy[(IDLE_ACTION,)]


def test_bellman_consistency_everywhere():
    model = ModelConfig.symmetric(2, 1, 0.15, 0.9)
    mdp = build_truncated_mdp(model, cap=4)
    tol = 1e-10
    table = value_iteration(mdp, tol=tol)
    for state in mdp.states:
        q = q_values(mdp, table, state)
        assert abs(min(q.values()) - table.values[mdp.index[state]]) <= tol


def test_symmetric_targets_tie():
    model = ModelConfig.symmetric(3, 1, 0.1, 0.9)
    mdp = build_truncated_mdp(model, cap=4)
    table = value_iteration(mdp, tol=1e-12)
    q = q_values(mdp, table, SystemState((0,), (0, 2, 2)))
    assert abs(q[(switch_to(1),)] - q[(switch_to(2),)]) <= 1e-9


def test_longer_queue_is_the_better_target():
    model = ModelConfig.symmetric(3, 1, 0.1, 0.9)
    mdp = build_truncated_mdp(model, cap=4)
    table = value_iteration(mdp, tol=1e-12)
    q = q_values(mdp, table, SystemState((0,), (0, 2, 1)))
    assert q[(switch_to(1),)] < q[(switch_to(2),)]


def test_serve_longest_rule_passes_small_instance():
    model = ModelConfig.symmetric(2, 1, 0.1, 0.9)
    mdp = build_truncated_mdp(model, cap=5)
    table = value_iteration(mdp, tol=1e-10)
    assert check_esl_optimality(mdp, table, margin=2) == []


def test_checker_flags_switch_to_shortest():
    model = ModelConfig.symmetric(3, 1, 0.1, 0.9)
    mdp = build_truncated_mdp(model, cap=4)
    table = value_iteration(mdp, tol=1e-10)
    violations = check_esl_optimality(
        mdp, table, margin=2, rule=switch_to_shortest_decide
    )
    assert violations
    assert {v.kind for v in violations} == {"not-argmin"}
    assert all(v.gap > 1e-9 for v in violations)


@pytest.mark.parametrize("cap,margin", [(7, 4), (8, 5)])
def test_checker_flags_serve_longest_past_queue_one(cap, margin):
    """Serve-longest is not optimal on (3, 2) once the audited interior
    reaches queues of 3: at robots (0, 1), queues (1, 1, 3), moving one
    robot to the 3-task queue beats serving by the same gap at either cap,
    so the finding is not a truncation artifact."""
    model = ModelConfig.symmetric(3, 2, 0.2, 0.9)
    mdp = build_truncated_mdp(model, cap=cap)
    table = value_iteration(mdp, tol=1e-10)
    violations = check_esl_optimality(mdp, table, margin=margin)
    assert Counter(v.kind for v in violations) == {
        "not-argmin": 6,
        "serve-not-strict": 12,
    }
    state = SystemState((0, 1), (1, 1, 3))
    gaps = [v.gap for v in violations if v.state == state]
    assert len(gaps) == 3
    assert all(gap == pytest.approx(0.165062, abs=1e-4) for gap in gaps)
    q = q_values(mdp, table, state)
    assert esl_decide(state) == (SERVE_ACTION, SERVE_ACTION)
    assert q[(SERVE_ACTION, SERVE_ACTION)] - min(q.values()) == pytest.approx(
        0.165062, abs=1e-4
    )


def test_margin_bounds_checked():
    model = ModelConfig.symmetric(2, 1, 0.1, 0.9)
    mdp = build_truncated_mdp(model, cap=3)
    table = value_iteration(mdp, tol=1e-10)
    for bad in (0, 3, 5):
        with pytest.raises(ValueError):
            check_esl_optimality(mdp, table, margin=bad)


@pytest.mark.parametrize(
    "n,m,counts",
    [
        (3, 1, {"serve-not-strict": 162, "idle-not-strict": 24,
                "shorter-not-strict": 6}),
        (4, 2, {"serve-not-strict": 3888, "idle-not-strict": 528,
                "shorter-not-strict": 96}),
    ],
)
def test_every_eligible_comparison_fires_at_huge_tie_tol(n, m, counts):
    """With tie_tol = 1e9 every deviation the audit compares counts as a
    tie, so each clause reports exactly the comparisons it is eligible
    for: serving robots against each single-robot idle or switch, and
    robots the rule sends to a queue against idling and against each
    strictly shorter nonempty queue.  not-argmin cannot fire."""
    model = ModelConfig.symmetric(n, m, 0.2, 0.9)
    mdp = build_truncated_mdp(model, cap=4)
    table = value_iteration(mdp, tol=1e-10)
    violations = check_esl_optimality(mdp, table, margin=2, tie_tol=1e9)
    assert Counter(v.kind for v in violations) == counts


def test_residual_history_contracts_geometrically():
    for beta in (0.9, 0.99):
        model = ModelConfig.symmetric(2, 1, 0.3, beta)
        mdp = build_truncated_mdp(model, cap=5)
        table = value_iteration(mdp, tol=1e-10)
        h = table.residual_history
        reference = value_iteration(mdp, tol=1e-13)
        error = np.abs(table.values - reference.values)
        assert table.residual == h[-1]
        assert np.all(error <= table.error_bound) and table.error_bound < 1e-10
        assert table.iterations == len(h)
        # absolute epsilon: late residuals sit at float rounding scale
        for a, b in zip(h, h[1:]):
            assert b <= beta * a + 1e-12


def test_value_iteration_returns_the_certified_midpoint():
    """At beta 0.99 and a loose tol the bounds close while the sweep's
    sup-norm change is still far above tol, so a stop on that residual
    would run on; T v itself sits near k * min(d) off the fixed point,
    far outside the bound that the midpoint keeps."""
    model = ModelConfig.symmetric(2, 1, 0.3, 0.99)
    mdp = build_truncated_mdp(model, cap=5)
    tol = 1e-6
    table = value_iteration(mdp, tol=tol)
    reference = value_iteration(mdp, tol=1e-12)
    assert table.residual > 1000 * tol
    assert 0.0 < table.error_bound < tol / 2
    error = np.abs(table.values - reference.values)
    assert float(error.max()) <= table.error_bound


def test_value_monotone_in_queue_lengths():
    model = ModelConfig.symmetric(2, 1, 0.2, 0.9)
    mdp = build_truncated_mdp(model, cap=4)
    table = value_iteration(mdp, tol=1e-10)
    assert monotonicity_violations(mdp, table) == []


def test_monotonicity_flags_a_planted_dip():
    """Lowering one state's value below its neighbours' flags exactly
    the two states one task short of it, each at the location whose bump
    lands on the dip, in state id order; the dip's own bumps stay above."""
    model = ModelConfig.symmetric(2, 1, 0.2, 0.9)
    mdp = build_truncated_mdp(model, cap=4)
    table = value_iteration(mdp, tol=1e-10)
    values = table.values.copy()
    values[mdp.index[SystemState((0,), (2, 1))]] -= 100.0
    dipped = dataclasses.replace(table, values=values)
    assert monotonicity_violations(mdp, dipped) == [
        (SystemState((0,), (1, 1)), 0),
        (SystemState((0,), (2, 0)), 1),
    ]


def test_value_iteration_guards():
    model = ModelConfig.symmetric(2, 1, 0.1, 0.9)
    mdp = build_truncated_mdp(model, cap=2)
    with pytest.raises(ValueError):
        value_iteration(mdp, tol=0.0)
    with pytest.raises(RuntimeError):
        value_iteration(mdp, tol=1e-300, max_sweeps=5)


def test_values_non_negative():
    model = ModelConfig.symmetric(2, 1, 0.25, 0.9)
    mdp = build_truncated_mdp(model, cap=3)
    table = value_iteration(mdp, tol=1e-9)
    assert float(np.min(table.values)) >= 0.0


def test_state_actions_slices_align():
    model = ModelConfig.symmetric(2, 1, 0.1, 0.9)
    mdp = build_truncated_mdp(model, cap=1)
    acts = mdp.state_actions(mdp.index[SystemState((0,), (1, 0))])
    assert (SERVE_ACTION,) in acts
    assert (IDLE_ACTION,) in acts
    assert (switch_to(1),) in acts


KERNEL_ARRAYS = ("sa_offsets", "sa_cost", "tr_offsets", "tr_next", "tr_prob")


def expand_kernel(mdp):
    """The explicit kernel of a TruncatedMdp: every state-action gets a
    copy of its post-service state's arrival row."""
    rows = [
        range(mdp.tr_offsets[j], mdp.tr_offsets[j + 1])
        for j in mdp.sa_post.tolist()
    ]
    entries = np.array([e for row in rows for e in row], dtype=np.int64)
    return {
        "sa_offsets": mdp.sa_offsets,
        "sa_cost": mdp.sa_cost,
        "tr_offsets": np.cumsum([0] + [len(row) for row in rows]),
        "tr_next": mdp.tr_next[entries],
        "tr_prob": mdp.tr_prob[entries],
    }


def assert_same_as_scalar(model, cap):
    fast = build_truncated_mdp(model, cap)
    slow = build_truncated_mdp_scalar(model, cap)
    assert fast.states == slow.states
    assert fast.index == slow.index
    assert fast.actions == slow.actions
    # one arrival row per post-service state, in id order
    assert len(fast.tr_offsets) == len(fast.states) + 1
    explicit = expand_kernel(fast)
    for name in KERNEL_ARRAYS:
        got, want = explicit[name], getattr(slow, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize(
    "n,m,cap,probs",
    [
        (1, 1, 5, (0.1,)),
        (2, 1, 6, (0.1, 0.35)),
        (2, 2, 4, (0.1, 0.35)),
        (3, 1, 4, (0.1, 0.35, 0.6)),
        (3, 2, 4, (0.1, 0.35, 0.6)),
        (3, 3, 3, (0.1, 0.35, 0.6)),
        (4, 2, 3, (0.1, 0.35, 0.6, 0.85)),
        (4, 3, 3, (0.1, 0.35, 0.6, 0.85)),
        # rates of 0 (never branches) and 1 (forced arrival below the cap)
        (3, 2, 3, (0.3, 0.0, 1.0)),
        (3, 1, 4, (1.0, 0.25, 0.0)),
        (4, 2, 2, (0.0, 1.0, 0.7, 1.0)),
        (2, 2, 3, (0.0, 0.0)),
        (2, 1, 3, (1.0, 1.0)),
        (1, 1, 2, (1.0,)),
    ],
)
def test_template_build_matches_scalar_oracle(n, m, cap, probs):
    assert_same_as_scalar(ModelConfig(n, m, probs, 0.9), cap)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 4),
    m_draw=st.integers(1, 4),
    cap=st.integers(1, 4),
    probs=st.lists(
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        min_size=4,
        max_size=4,
    ),
)
def test_template_build_matches_scalar_oracle_fuzzed(n, m_draw, cap, probs):
    model = ModelConfig(n, min(m_draw, n), tuple(probs[:n]), 0.9)
    # keeps the scalar oracle's per-transition loop to well under a second
    assume(count_states(model, cap) <= 1000)
    assert_same_as_scalar(model, cap)


def explicit_q(mdp, values):
    """Every state-action's Q over a per-state-action kernel."""
    expected = np.add.reduceat(
        mdp.tr_prob * values[mdp.tr_next], mdp.tr_offsets[:-1]
    )
    return mdp.sa_cost + mdp.config.discount * expected


def explicit_sweep(mdp, values):
    """One Bellman sweep over a per-state-action kernel."""
    return np.minimum.reduceat(explicit_q(mdp, values), mdp.sa_offsets[:-1])


@pytest.mark.parametrize(
    "n,m,cap,probs",
    [
        (2, 1, 4, (0.3, 0.3)),
        (3, 2, 4, (0.1, 0.35, 0.6)),
        (4, 2, 2, (0.1, 0.35, 0.6, 0.85)),
        (3, 2, 3, (0.3, 0.0, 1.0)),
        (4, 2, 2, (0.0, 1.0, 0.7, 1.0)),
    ],
)
def test_bellman_update_matches_explicit_kernel(n, m, cap, probs):
    """The Q table and the sweep on the post-service rows equal, bit for
    bit, those over the scalar oracle's explicit kernel: along the
    iteration from zero and from a random table."""
    model = ModelConfig(n, m, probs, 0.9)
    fast = build_truncated_mdp(model, cap)
    slow = build_truncated_mdp_scalar(model, cap)
    values = np.zeros(len(slow.states))
    for _ in range(3):
        assert q_table(fast, values).tobytes() == (
            explicit_q(slow, values).tobytes()
        )
        want = explicit_sweep(slow, values)
        assert bellman_update(fast, values).tobytes() == want.tobytes()
        values = want
    values = np.random.default_rng(7).uniform(0.0, 40.0, len(slow.states))
    want = explicit_q(slow, values)
    assert q_table(fast, values).tobytes() == want.tobytes()
    want = explicit_sweep(slow, values)
    assert bellman_update(fast, values).tobytes() == want.tobytes()


def test_q_values_read_the_q_table():
    model = ModelConfig.symmetric(3, 2, 0.3, 0.9)
    mdp = build_truncated_mdp(model, cap=3)
    table = value_iteration(mdp, tol=1e-10)
    q = q_table(mdp, table.values)
    for i, state in enumerate(mdp.states):
        lo, hi = mdp.sa_offsets[i], mdp.sa_offsets[i + 1]
        got = q_values(mdp, table, state)
        assert list(got) == list(mdp.state_actions(i))
        assert list(got.values()) == q[lo:hi].tolist()
