"""Certify serve-longest decisions against the exact solution of small
capped instances, then show the audit catching a deliberately wrong rule.

Run with:  python3 demos/optimality_check.py
"""

from eslsim import (
    ModelConfig,
    SystemState,
    build_truncated_mdp,
    check_esl_optimality,
    count_states,
    orbit_id,
    q_table,
    value_iteration,
)

# Two locations, one robot, queues capped at 6 tasks.
model = ModelConfig.symmetric(2, 1, 0.3, 0.9)
mdp = build_truncated_mdp(model, cap=6)
table = value_iteration(mdp, tol=1e-10)
print(f"solved {len(table.values)} location orbits (for "
      f"{count_states(model, mdp.cap)} ordered states) in {table.iterations} "
      f"sweeps, certified error bound {table.error_bound:.2e}")

# Q-values at one state: robot at an empty location 0, work piling at 1.
# The solver keeps one action per post-service orbit of the state's orbit,
# as location bitmasks on its representative: where robots serve and where
# they end the slot.
state = SystemState((0,), (0, 4))
s = orbit_id(mdp, state)
lo, hi = mdp.sa_offsets[s], mdp.sa_offsets[s + 1]
q = q_table(mdp, table.values)[lo:hi].tolist()
print(f"orbit of {state}:")
for (served, ends), value in sorted(
    zip(mdp.actions[lo:hi].tolist(), q), key=lambda kv: kv[1]
):
    serve_at = [i for i in range(model.num_locations) if served >> i & 1]
    end_at = [i for i in range(model.num_locations) if ends >> i & 1]
    print(f"  serve at {serve_at}, end at {end_at}: {value:.6f}")
print("cheapest action is the switch toward the backlog, as expected")

# Audit every state far enough from the cap that truncation cannot bias
# the comparison: the interior, queues <= cap - margin.  Zero violations
# certifies serve-longest on this instance's interior only, not in
# general: at 3 locations, 2 robots and p = 0.2 it is beaten at queues
# (1, 1, 3) (tests/test_mdp.py::test_checker_flags_serve_longest_past_queue_one).
margin = 3
violations = check_esl_optimality(mdp, table, margin=margin, tie_tol=1e-9)
print(f"\nserve-longest audit on queues <= {mdp.cap - margin}: "
      f"{len(violations)} violations")
print("  this instance's interior only: at 3 locations, 2 robots and\n"
      "  p = 0.2, serve-longest is beaten at queues (1, 1, 3)")

# Same machinery, wrong rule: chase the SHORTEST nonempty queue instead.
# The audit flags every interior orbit where that choice is strictly
# suboptimal, with the Q-value gap it pays.  It checks one representative
# per orbit; members counts the ordered states, mirror images of one
# another, that fail the same way.
model3 = ModelConfig.symmetric(3, 1, 0.3, 0.9)
mdp3 = build_truncated_mdp(model3, cap=4)
table3 = value_iteration(mdp3, tol=1e-10)
bad = check_esl_optimality(
    mdp3, table3, margin=2, tie_tol=1e-9, longest_first=False
)
print(f"switch-to-shortest audit: {sum(v.members for v in bad)} violations "
      f"at {len(bad)} representative(s):")
for v in bad:
    print(f"  state {v.state} and its {v.members - 1} mirror images: "
          f"{v.kind}, overpays by {v.gap:.4f}")
