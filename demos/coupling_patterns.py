"""Watch the exchange arguments behind serve-longest play out on paths.

Each scenario pairs a system G, whose robot takes one deviating move at
slot 0, with a reference system PI that takes the move serve-longest
prescribes; both then follow the scenario's scripted continuation.  gap(t)
is the departure gap D_PI(t) - D_G(t), the tasks PI has completed beyond
G by slot t, which equals G's extra backlog.  It follows an exact shape in
the random landmark slots (tau, and k for prop4), so every path is
checkable; once the pair meets, the gap freezes and the discounted cost
difference G - PI closes in geometric form.

  prop1A  G switches away from a nonempty queue instead of serving it
  prop1B  G idles at a nonempty queue instead of serving it
  prop2   G idles at an empty queue instead of switching to a nonempty one
  prop4   G switches to the shorter of two nonempty queues, PI the longer

prop1A and prop1B run both systems on one arrival stream.  prop2 and prop4
give PI the same draw with the streams of locations 0 and 1 swapped, which
keeps the joint law because those two locations share an arrival
probability.

Run with:  python3 demos/coupling_patterns.py
"""

from statistics import fmean

from eslsim import (
    SCENARIO_NAMES,
    check_gap_pattern,
    coupled_run,
    coupled_runs,
    make_scenario,
)

for name in SCENARIO_NAMES:
    scenario = make_scenario(name)
    report = coupled_run(scenario, horizon=400, seed=3)
    print(f"\n{name}: start {scenario.initial_state}, "
          f"rates {scenario.model.arrival_probs}")
    print(f"  tau={report.tau} k={report.k} "
          f"coupled at t={report.coupling_time}")
    shown = report.gap[: report.coupling_time + 2]
    print("  gap(t):", " ".join(f"{g:+d}" for g in shown), "...")
    print(f"  discounted cost diff G-PI = {report.discounted_diff:+.6f}")
    assert check_gap_pattern(report) == []

# The per-path form is not a fluke of one seed.  Sweep many streams and
# check each one; the deviation never pays.  coupled_runs gives the same
# reports as coupled_run seed by seed, but advances all seeds together.
print("\nsweeping 200 seeds per scenario:")
for name in SCENARIO_NAMES:
    scenario = make_scenario(name)
    diffs = []
    for report in coupled_runs(scenario, 2000, range(200)):
        assert check_gap_pattern(report) == [], (name, report.seed)
        diffs.append(report.discounted_diff)
    print(f"  {name}: every path matched its pattern, "
          f"mean diff {fmean(diffs):+.4f}, min {min(diffs):+.4f}")
