"""Compare the three service policies on a shared random workload.

Runs a reduced copy of the benchmark grid (shorter horizon, fewer
episodes, so it finishes in well under a minute) and prints one table
per robot count.  The policies inside a cell share arrival draws, so
differences in a row are policy differences, not sampling noise.

Run with:  python3 demos/policy_comparison.py
"""

from eslsim import make_grid, run_grid

grid = make_grid(horizon=2000, episodes=10, base_seed=7)
results = run_grid(grid)

by_cell = {}
for cfg, res in zip(grid, results):
    by_cell[(cfg.model.num_robots, cfg.alpha, cfg.policy)] = res

for m in (2, 3):
    print(f"\n6 locations, {m} robots, discount 0.99")
    print(f"{'load':>5} {'policy':>7} {'cost':>10} {'mean queue':>11} "
          f"{'serve':>6} {'switch':>7} {'idle':>5}")
    for alpha in (0.2, 0.5, 0.8):
        for policy in ("esl", "fcfs", "cyclic"):
            r = by_cell[(m, alpha, policy)]
            print(f"{alpha:>5} {policy:>7} {r.discounted_cost_mean:>10.2f} "
                  f"{r.mean_q_mean:>11.4f} {r.serve:>6.3f} "
                  f"{r.switch:>7.3f} {r.idle:>5.3f}")

print("""
Serve-longest wins every cell on both cost and backlog.  At load 0.8 the
two rivals are unstable (queues grow without bound over the horizon) and
their ranking flips between the 2-robot and 3-robot systems.  The flip
rests on the cyclic dwell rule used here, the floored continuous argmin
of the patrol objective: on the full benchmark grid, cyclic run at the
dwell that minimises its exact cost beats fcfs at 3 robots and load 0.8
too, so the ranking there is not cadence against age-chasing as such.
""")
