"""Exact solver: enumeration counts, value iteration, Q-value audits."""

import dataclasses
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from ordered_audit import (
    check_esl_optimality_ordered,
    interior_states,
    iter_joint_actions,
    lift,
    monotonicity_violations_ordered,
    q_row,
    q_values,
)
from scalar_mdp import build_truncated_mdp_scalar

import eslsim.mdp as mdp_module
from eslsim.mdp import min_tolerance

from eslsim import (
    IDLE_ACTION,
    SERVE_ACTION,
    ModelConfig,
    StateSpaceTooLargeError,
    SystemState,
    ValueTable,
    bellman_update,
    build_truncated_mdp,
    check_esl_optimality,
    count_orbits,
    count_states,
    esl_decide,
    initial_state,
    monotonicity_violations,
    orbit_id,
    q_table,
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


def ordered_states(model, cap):
    """Every ordered state of the capped model, in ordered id order."""
    n = model.num_locations
    return [
        SystemState(placement, queues)
        for placement in itertools.permutations(range(n), model.num_robots)
        for queues in itertools.product(range(cap + 1), repeat=n)
    ]


def test_state_count_formula():
    model = ModelConfig.symmetric(2, 1, 0.1, 0.9)
    assert count_states(model, 1) == 8
    mdp = build_truncated_mdp(model, cap=1)
    assert lift(mdp, np.zeros(len(mdp.states))).size == 8
    # orbits: (occupied queue | unoccupied queue)
    assert len(mdp.states) == count_orbits(model, 1) == 4


def test_two_robot_placement_count():
    model = ModelConfig.symmetric(2, 2, 0.1, 0.9)
    mdp = build_truncated_mdp(model, cap=2)
    assert lift(mdp, np.zeros(len(mdp.states))).shape == (2, 3, 3)
    assert len(mdp.states) == 6  # sorted pairs of queues in 0..2


@pytest.mark.parametrize(
    "probs,cap",
    [
        ((0.2,) * 4, 5),
        ((0.2, 0.5, 0.2, 0.5), 3),
        ((0.1, 0.35, 0.6, 0.85), 2),
        ((0.0, 1.0, 0.7, 1.0), 3),
    ],
)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_orbit_count_formula(probs, cap, m):
    """count_orbits is the number of canonical forms of the ordered
    states: relabelling within each class of equal rate."""
    model = ModelConfig(4, m, probs, 0.9)
    mdp = build_truncated_mdp(model, cap)
    ids = lift(mdp, np.arange(len(mdp.states)))
    assert len(np.unique(ids)) == len(mdp.states) == count_orbits(model, cap)
    if len(set(probs)) == 1:
        assert count_orbits(model, cap) == (
            math.comb(cap + m, m) * math.comb(cap + 4 - m, 4 - m)
        )


def test_kernel_rows_are_stochastic():
    # rates include the 0 and 1 edge cases on purpose
    model = ModelConfig(3, 2, (0.3, 0.0, 1.0), 0.9)
    mdp = build_truncated_mdp(model, cap=2)
    sums = np.add.reduceat(mdp.tr_prob, mdp.tr_offsets[:-1])
    assert float(np.max(np.abs(sums - 1.0))) < 1e-12


def test_budget_guard_fires_before_allocation():
    model = ModelConfig.symmetric(6, 3, 0.1, 0.9)
    assert count_states(model, 9) == 120 * 10**6
    # the budget counts solver states: 5,456^2 orbits at cap 30
    assert count_orbits(model, 30) == 5456**2
    with pytest.raises(StateSpaceTooLargeError, match="state space too large"):
        build_truncated_mdp(model, cap=30)
    with pytest.raises(ValueError):
        build_truncated_mdp(ModelConfig.symmetric(2, 1, 0.1, 0.9), cap=0)


def test_deterministic_drain_value():
    model = ModelConfig.symmetric(2, 1, 0.0, 0.5)
    mdp = build_truncated_mdp(model, cap=3)
    table = value_iteration(mdp, tol=1e-12)
    v = table.values[orbit_id(mdp, SystemState((0,), (2, 0)))]
    # drain two tasks: cost 2 now, 1 next slot, empty thereafter
    assert v == pytest.approx(2.5, abs=1e-9)


def test_no_arrivals_empty_system_is_free():
    model = ModelConfig.symmetric(2, 1, 0.0, 0.5)
    mdp = build_truncated_mdp(model, cap=2)
    table = value_iteration(mdp, tol=1e-12)
    for loc in (0, 1):
        assert table.values[orbit_id(mdp, SystemState((loc,), (0, 0)))] == 0.0


def test_value_iteration_matches_independent_backup():
    model = ModelConfig.symmetric(2, 1, 0.1, 0.9)
    mdp = build_truncated_mdp(model, cap=4)
    table = value_iteration(mdp, tol=1e-12)
    oracle = oracle_finite_horizon(2, 1, 4, (0.1, 0.1), 0.9, horizon=300)
    probe = SystemState((0,), (0, 3))
    v = table.values[orbit_id(mdp, probe)]
    assert abs(v - oracle[((0,), (0, 3))]) < 1e-8
    for state in oracle:
        v = table.values[orbit_id(mdp, SystemState(*state))]
        assert abs(v - oracle[state]) < 1e-8


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
    for state in ordered_states(model, cap=4):
        q = q_values(mdp, table, state)
        assert abs(min(q.values()) - table.values[orbit_id(mdp, state)]) <= tol


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


def ordered_counts(violations):
    """Findings per kind over ordered states: each representative's
    findings weighted by its orbit's members."""
    counts = Counter()
    for v in violations:
        counts[v.kind] += v.members
    return counts


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
        mdp, table, margin=2, longest_first=False
    )
    assert violations
    assert {v.kind for v in violations} == {"not-argmin"}
    assert all(v.gap > 1e-9 for v in violations)


def test_audit_flags_an_infeasible_rule_action_at_its_orbit(monkeypatch):
    """A rule that sends robot 1 onto robot 0's location at one orbit's
    representative is flagged there as rule-action-infeasible, that
    orbit's only finding, with its members; every other orbit keeps its
    findings.  tie_tol 1e9 makes every compared deviation a finding."""
    model = ModelConfig.symmetric(4, 2, 0.2, 0.9)
    mdp = build_truncated_mdp(model, cap=4)
    table = value_iteration(mdp, tol=1e-10)
    state = SystemState((0, 1), (1, 2, 0, 3))
    real = mdp_module.serve_then_seek_lanes

    def colliding(robots, queues, *, longest_first):
        serve, end = real(robots, queues, longest_first=longest_first)
        at = (queues == state.queues).all(axis=1)
        assert at.sum() == 1
        serve, end = serve.copy(), end.copy()
        serve[at, 1], end[at, 1] = False, 0
        return serve, end

    clean = check_esl_optimality(mdp, table, 1, 1e9)
    monkeypatch.setattr(mdp_module, "serve_then_seek_lanes", colliding)
    found = check_esl_optimality(mdp, table, 1, 1e9)
    members = {v.members for v in clean if v.state == state}
    assert len(members) == 1
    assert [v for v in found if v.state == state] == [
        mdp_module.Violation(
            state, "rule-action-infeasible", math.inf, members=members.pop()
        )
    ]
    assert [v for v in found if v.state != state] == [
        v for v in clean if v.state != state
    ]


@pytest.mark.parametrize("cap,margin", [(7, 4), (8, 5)])
def test_checker_flags_serve_longest_past_queue_one(cap, margin):
    """Serve-longest is not optimal on (3, 2) once the audited interior
    reaches queues of 3: at robots (0, 1), queues (1, 1, 3), moving one
    robot to the 3-task queue beats serving by the same gap at either cap,
    so the finding is not a truncation artifact.  That state stands for
    its orbit's 6 ordered states, and no other orbit violates."""
    model = ModelConfig.symmetric(3, 2, 0.2, 0.9)
    mdp = build_truncated_mdp(model, cap=cap)
    table = value_iteration(mdp, tol=1e-10)
    violations = check_esl_optimality(mdp, table, margin=margin)
    assert ordered_counts(violations) == {
        "not-argmin": 6,
        "serve-not-strict": 12,
    }
    state = SystemState((0, 1), (1, 1, 3))
    assert {v.state for v in violations} == {state}
    assert [v.members for v in violations] == [6, 6, 6]
    gaps = [v.gap for v in violations]
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
    strictly shorter nonempty queue.  not-argmin cannot fire.  The counts
    are over ordered states: each orbit's findings times its members."""
    model = ModelConfig.symmetric(n, m, 0.2, 0.9)
    mdp = build_truncated_mdp(model, cap=4)
    table = value_iteration(mdp, tol=1e-10)
    violations = check_esl_optimality(mdp, table, margin=2, tie_tol=1e9)
    assert ordered_counts(violations) == counts


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


def test_tolerance_just_above_the_floor_is_honoured():
    """Just above min_tolerance the band closes and error_bound stays
    below tol.  At tol 1e-13 this instance ran 3,218 sweeps into a float
    fixed point and returned an error_bound 240 times tol."""
    model = ModelConfig.symmetric(2, 1, 0.3, 0.99)
    tol = 1.01 * min_tolerance(model, 5)
    assert 1e-13 < tol < 1e-9
    table = value_iteration(build_truncated_mdp(model, 5), tol)
    assert table.error_bound < tol
    assert table.iterations < 1000


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
    """Lowering one orbit's value below its neighbours' flags exactly the
    orbits one task short of it, each at the location whose bump lands on
    the dip, in orbit id order; the dip's own bumps stay above.  The orbit
    of robot at 0, queues (2, 1) also holds robot at 1, queues (1, 2), and
    each flagged orbit holds 2 ordered states: 4 ordered dips, as the
    ordered listing finds."""
    model = ModelConfig.symmetric(2, 1, 0.2, 0.9)
    mdp = build_truncated_mdp(model, cap=4)
    table = value_iteration(mdp, tol=1e-10)
    values = table.values.copy()
    values[orbit_id(mdp, SystemState((0,), (2, 1)))] -= 100.0
    dipped = dataclasses.replace(table, values=values)
    found = monotonicity_violations(mdp, dipped)
    assert found == [
        (SystemState((0,), (2, 0)), 1, 2),
        (SystemState((0,), (1, 1)), 0, 2),
    ]
    assert monotonicity_violations_ordered(mdp, dipped) == [
        (SystemState((0,), (1, 1)), 0),
        (SystemState((0,), (2, 0)), 1),
        (SystemState((1,), (0, 2)), 0),
        (SystemState((1,), (1, 1)), 1),
    ]


def test_monotonicity_lists_a_dip_without_lifting_the_grid():
    """(10, 2, cap 3) has 94M ordered states, a 750 MB lifted grid, in
    1,650 orbits.  A dip planted at the orbit with queues 3 and 1 under the
    robots and no task elsewhere is reached from 360 ordered states, one
    task short at either robot's location.  They fall in two orbits of 180
    ordered states each, which are reported once each with that count."""
    n, cap = 10, 3
    mdp = build_truncated_mdp(ModelConfig.symmetric(n, 2, 0.2, 0.9), cap)
    assert count_states(mdp.config, cap) == 90 * 4**10
    # the total queue: every added task raises it by one
    values = (mdp.states % (cap + 1)).sum(axis=1).astype(np.float64)
    table = ValueTable(values, 0, 0.0, (), 0.0)
    assert monotonicity_violations(mdp, table) == []
    dip = SystemState((0, 1), (3, 1) + (0,) * (n - 2))
    values[orbit_id(mdp, dip)] -= 100.0
    want = Counter()
    for placement in itertools.permutations(range(n), 2):
        for held in ((3, 1), (1, 3)):
            for loc in placement:
                queues = [0] * n
                for other, q in zip(placement, held):
                    queues[other] = q
                queues[loc] -= 1
                state = SystemState(placement, tuple(queues))
                want[orbit_id(mdp, state)] += 1
    assert sum(want.values()) == 360
    found = monotonicity_violations(mdp, table)
    rest = (0,) * (n - 2)
    assert found == [
        (SystemState((0, 1), (1, 2) + rest), 1, 180),
        (SystemState((0, 1), (0, 3) + rest), 0, 180),
    ]
    assert {
        orbit_id(mdp, state): members for state, _, members in found
    } == want


def assert_same_findings(got, want):
    """Two lists of (kind, gap) are the same multiset, gaps within
    1e-12."""
    got, want = sorted(got), sorted(want)
    assert [kind for kind, _ in got] == [kind for kind, _ in want]
    for (_, a), (_, b) in zip(got, want):
        assert a == b or abs(a - b) <= 1e-12


def assert_orbit_audit_matches_ordered(mdp, table, margin, tie_tol, rule):
    """The orbit audit, given rule's longest_first flag, against the
    ordered oracle, given the scalar rule: the same violating orbits; at
    every member of one, the representative's (kind, gap) findings; each
    representative's members the number of ordered interior states in
    its orbit; and per kind, the members summing to the ordered count."""
    orbit = check_esl_optimality(
        mdp, table, margin, tie_tol, rule.keywords["longest_first"]
    )
    ordered = check_esl_optimality_ordered(mdp, table, margin, tie_tol, rule)
    at_orbit, at_state = {}, {}
    for v in orbit:
        at_orbit.setdefault(orbit_id(mdp, v.state), []).append(
            (v.kind, v.gap)
        )
    for v in ordered:
        at_state.setdefault(v.state, []).append((v.kind, v.gap))
    assert set(at_orbit) == {orbit_id(mdp, state) for state in at_state}
    members = Counter()
    for placement, interior, ids in interior_states(mdp, margin):
        for row in np.flatnonzero(np.isin(ids, list(at_orbit))).tolist():
            state = SystemState(placement, tuple(interior[row].tolist()))
            members[int(ids[row])] += 1
            assert_same_findings(
                at_state.get(state, []), at_orbit[int(ids[row])]
            )
    assert all(v.members == members[orbit_id(mdp, v.state)] for v in orbit)
    assert ordered_counts(orbit) == Counter(v.kind for v in ordered)


def assert_orbit_dips_match_ordered(mdp, table):
    """The orbit dip listing against the ordered oracle: the same dipping
    orbits; at every dipping ordered state, the representative's dips, by
    the queue and occupancy at the dipping location; and per orbit, the
    members summing to its ordered dips, so every member dips."""
    orbit = monotonicity_violations(mdp, table)
    ordered = monotonicity_violations_ordered(mdp, table)
    at_orbit, weighted = {}, Counter()
    for state, loc, members in orbit:
        i = orbit_id(mdp, state)
        at_orbit.setdefault(i, []).append(
            (state.queues[loc], loc in state.robots)
        )
        weighted[i] += members
    at_state = {}
    for state, loc in ordered:
        at_state.setdefault(state, []).append(
            (state.queues[loc], loc in state.robots)
        )
    for state, found in at_state.items():
        assert sorted(found) == sorted(at_orbit[orbit_id(mdp, state)])
    assert Counter(orbit_id(mdp, state) for state, _ in ordered) == weighted
    return orbit


def planted_dip(mdp, table):
    """table with the middle orbit's value lowered by 100."""
    values = table.values.copy()
    values[len(values) // 2] -= 100.0
    return dataclasses.replace(table, values=values)


@pytest.mark.parametrize(
    "n,m,cap,p,beta,margin,tie_tol,rule",
    [
        # configs/verify.yaml and the verify-shipped workload
        (2, 1, 6, 0.1, 0.9, 3, 1e-9, esl_decide),
        (2, 1, 6, 0.3, 0.9, 3, 1e-9, esl_decide),
        (3, 2, 4, 0.1, 0.9, 3, 1e-9, esl_decide),
        (3, 2, 4, 0.3, 0.9, 3, 1e-9, esl_decide),
        (3, 1, 4, 0.1, 0.9, 2, 1e-9, esl_decide),
        # the solve-large workload
        (4, 2, 5, 0.1, 0.9, 3, 1e-9, esl_decide),
        # serve-longest beaten past queues of one
        (3, 2, 7, 0.2, 0.9, 4, 1e-9, esl_decide),
        (3, 2, 8, 0.2, 0.9, 5, 1e-9, esl_decide),
        (4, 3, 5, 0.2, 0.9, 2, 1e-9, esl_decide),
        # the wrong rule, and every eligible comparison a tie
        (3, 1, 4, 0.1, 0.9, 2, 1e-9, switch_to_shortest_decide),
        (3, 1, 4, 0.2, 0.9, 2, 1e9, esl_decide),
        (4, 2, 4, 0.2, 0.9, 2, 1e9, esl_decide),
        # a six-location benchmark cell: alpha 0.2, p = alpha * M / N
        (6, 2, 6, 0.2 * 2 / 6, 0.99, 3, 1e-9, esl_decide),
    ],
)
def test_orbit_audit_matches_ordered_oracle(
    n, m, cap, p, beta, margin, tie_tol, rule
):
    """On the shipped, benchmark and pinned instances, the orbit audit
    and dip listing agree with the ordered oracles, on the solved values
    and with a dip planted."""
    model = ModelConfig.symmetric(n, m, p, beta)
    mdp = build_truncated_mdp(model, cap)
    table = value_iteration(mdp, tol=1e-10 if beta < 0.99 else 1e-7)
    assert_orbit_audit_matches_ordered(
        mdp, table, margin, tie_tol=tie_tol, rule=rule
    )
    assert assert_orbit_dips_match_ordered(mdp, table) == []
    assert assert_orbit_dips_match_ordered(mdp, planted_dip(mdp, table))


def test_orbit_audit_refuses_several_rate_classes():
    """With two rate classes, esl's index tie-break between equal-length
    targets in different classes reaches different orbits, so the audit
    refuses the instance.  The dip listing reads only values and runs:
    its members count arrangements within each class."""
    model = ModelConfig(4, 2, (0.2, 0.5, 0.2, 0.5), 0.9)
    mdp = build_truncated_mdp(model, cap=3)
    table = value_iteration(mdp, tol=1e-10)
    with pytest.raises(ValueError, match="one rate class"):
        check_esl_optimality(mdp, table, margin=1)
    assert assert_orbit_dips_match_ordered(mdp, table) == []
    assert assert_orbit_dips_match_ordered(mdp, planted_dip(mdp, table))


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
    table = value_iteration(mdp, tol=1e-10)
    acts = list(q_values(mdp, table, SystemState((0,), (1, 0))))
    assert (SERVE_ACTION,) in acts
    assert (IDLE_ACTION,) in acts
    assert (switch_to(1),) in acts


def explicit_q(mdp, values):
    """Every state-action's Q over a per-state-action kernel."""
    expected = np.add.reduceat(
        mdp.tr_prob * values[mdp.tr_next], mdp.tr_offsets[:-1]
    )
    return mdp.sa_cost + mdp.config.discount * expected


def explicit_sweep(mdp, values):
    """One Bellman sweep over a per-state-action kernel."""
    return np.minimum.reduceat(explicit_q(mdp, values), mdp.sa_offsets[:-1])


def explicit_value_iteration(mdp, sweeps):
    """Value iteration on the explicit kernel from zero for a set number of
    sweeps, returning MacQueen's midpoint as value_iteration does."""
    k = mdp.config.discount / (1.0 - mdp.config.discount)
    values = np.zeros(len(mdp.states))
    for _ in range(sweeps):
        new_values = explicit_sweep(mdp, values)
        diff = new_values - values
        values = new_values
    return values + k * (float(diff.max()) + float(diff.min())) / 2


def lifted_q(mdp, table, states):
    """The orbit solver's Q at every ordered state-action, in the order of
    the states and of iter_joint_actions, with the joints."""
    w = mdp_module.expected_values(mdp, table.values)
    rows = [q_row(mdp, w, state) for state in states]
    joints = tuple(joint for row in rows for joint in row)
    return joints, np.array([q for row in rows for q in row.values()])


def assert_lifted_matches_scalar(model, cap):
    """Lifted values within 1e-12 of the explicit kernel's value iteration
    run for as many sweeps, and lifted Q within 1e-12 of the explicit Q at
    every ordered state-action."""
    fast = build_truncated_mdp(model, cap)
    slow = build_truncated_mdp_scalar(model, cap)
    table = value_iteration(fast, tol=1e-10)
    lifted = lift(fast, table.values).ravel()
    assert len(lifted) == len(slow.states)
    want = explicit_value_iteration(slow, table.iterations)
    assert float(np.max(np.abs(lifted - want))) <= 1e-12
    joints, q = lifted_q(fast, table, slow.states)
    assert joints == slow.actions
    assert float(np.max(np.abs(q - explicit_q(slow, lifted)))) <= 1e-12


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
    assert_lifted_matches_scalar(ModelConfig(n, m, probs, 0.9), cap)


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
    assert_lifted_matches_scalar(model, cap)


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
    """Lifted, the Q-values and the sweep on the orbit rows are within
    1e-12 of those over the scalar oracle's explicit kernel, along the
    iteration from zero and on a random orbit table, where orbits seldom
    share a value.  Each orbit's minimum Q is the minimum of its ordered
    states' Q-values, which take exactly the orbit's Q-values."""
    model = ModelConfig(n, m, probs, 0.9)
    fast = build_truncated_mdp(model, cap)
    slow = build_truncated_mdp_scalar(model, cap)
    def sweep_matches(values):
        lifted = lift(fast, values).ravel()
        table = ValueTable(values, 0, 0.0, (), 0.0)
        _, q = lifted_q(fast, table, slow.states)
        assert float(np.max(np.abs(q - explicit_q(slow, lifted)))) <= 1e-12
        want = explicit_sweep(slow, lifted)
        values = bellman_update(fast, values)
        got = lift(fast, values).ravel()
        assert float(np.max(np.abs(got - want))) <= 1e-12
        assert got.tobytes() == np.minimum.reduceat(
            q, slow.sa_offsets[:-1]
        ).tobytes()
        return values

    values = np.zeros(len(fast.states))
    for _ in range(3):
        values = sweep_matches(values)
    sweep_matches(np.random.default_rng(7).uniform(0.0, 40.0, len(values)))


def test_q_values_read_the_q_table():
    """Every ordered state's Q-values are exactly its orbit's q_table
    entries (each reached post-service orbit once), in
    iter_joint_actions order."""
    model = ModelConfig.symmetric(3, 2, 0.3, 0.9)
    mdp = build_truncated_mdp(model, cap=3)
    table = value_iteration(mdp, tol=1e-10)
    q = q_table(mdp, table.values)
    for state in ordered_states(model, cap=3):
        i = orbit_id(mdp, state)
        lo, hi = mdp.sa_offsets[i], mdp.sa_offsets[i + 1]
        got = q_values(mdp, table, state)
        assert list(got) == list(iter_joint_actions(state))
        assert set(got.values()) == set(q[lo:hi].tolist())


def test_values_follow_a_relabelling_of_the_locations():
    """Permuting the locations of an instance with two classes of equal
    rate permutes its lifted values with them.  Moving a robot or a queue
    across the classes changes the value."""
    probs = (0.2, 0.5, 0.2, 0.5)
    perm = (1, 3, 0, 2)  # new location j is old location perm[j]
    new_of = {old: new for new, old in enumerate(perm)}
    solved = []
    for rates in (probs, tuple(probs[old] for old in perm)):
        mdp = build_truncated_mdp(ModelConfig(4, 2, rates, 0.9), cap=3)
        solved.append((mdp, value_iteration(mdp, tol=1e-11)))
    (old_mdp, old), (new_mdp, new) = solved
    model = old_mdp.config
    for state in ordered_states(model, cap=3):
        moved = SystemState(
            tuple(new_of[loc] for loc in state.robots),
            tuple(state.queues[old] for old in perm),
        )
        assert abs(
            new.values[orbit_id(new_mdp, moved)]
            - old.values[orbit_id(old_mdp, state)]
        ) <= 1e-12
    value = old.values[orbit_id(old_mdp, SystemState((0, 2), (0, 3, 0, 0)))]
    across = old.values[orbit_id(old_mdp, SystemState((0, 2), (3, 0, 0, 0)))]
    assert abs(value - across) > 1e-3
    robot = old.values[orbit_id(old_mdp, SystemState((0, 1), (0, 3, 0, 0)))]
    assert abs(value - robot) > 1e-3


@pytest.mark.parametrize(
    "m,orbits,pin", [(2, 5880, 70.230355), (3, 7056, 92.673831)]
)
def test_exact_start_value_at_six_locations(m, orbits, pin):
    """V*(start) of the six-location benchmark cell at alpha 0.2,
    p = alpha * M / N, beta 0.99, cap 6: 3.5M and 14.1M ordered states
    fit in 5,880 and 7,056 orbits."""
    model = ModelConfig.symmetric(6, m, 0.2 * m / 6, 0.99)
    mdp = build_truncated_mdp(model, cap=6)
    assert len(mdp.states) == orbits
    table = value_iteration(mdp, tol=1e-7)
    start = table.values[orbit_id(mdp, initial_state(model))]
    assert start == pytest.approx(pin, abs=1e-5)
