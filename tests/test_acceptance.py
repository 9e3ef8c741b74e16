"""Acceptance gate: one test per shipped claim, at its stated tolerance.

Criteria 2 and 3 read from a shared full-grid run (6 locations, 2 and 3
robots, loads 0.2/0.5/0.8, all three policies, 10000 slots, 100 episodes,
discount 0.99, common random numbers per cell).  Criterion 1 times its own
fresh cell.  Everything else is self-contained.
"""

import math
import random
import statistics
import time
from collections import deque
from pathlib import Path

import pytest

from conftest import random_feasible_joint, random_state
from eslsim import (
    SCENARIO_NAMES,
    ExperimentConfig,
    ModelConfig,
    SystemState,
    build_truncated_mdp,
    check_esl_optimality,
    check_gap_pattern,
    coupled_runs,
    cyclic_decide,
    dwell_objective,
    esl_decide,
    fcfs_decide,
    is_feasible,
    make_scenario,
    make_grid,
    optimize_dwell,
    patrol_blocks,
    run_episode,
    run_grid,
    step,
    value_iteration,
)
from eslsim.cli import RESULT_COLUMNS, _fmt, _write_csv
from eslsim.cli import main as cli_main

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def full_grid():
    grid = make_grid()
    results = run_grid(grid)
    return {
        (c.model.num_robots, c.alpha, c.policy): r
        for c, r in zip(grid, results)
    }


def test_criterion_1_light_load_cell():
    """Serve-longest at 6 locations, 2 robots, load 0.2: mean queue length
    within 5% of 0.1191 and the cost interval overlapping [68.9, 72.8]."""
    start = time.monotonic()
    cfg = ExperimentConfig(
        model=ModelConfig.symmetric(6, 2, 0.2 * 2 / 6, 0.99),
        policy="esl",
        horizon=10_000,
        episodes=100,
        base_seed=20260801,
        alpha=0.2,
    )
    res = run_grid([cfg])[0]
    elapsed = time.monotonic() - start
    lo = res.discounted_cost_mean - res.discounted_cost_ci
    hi = res.discounted_cost_mean + res.discounted_cost_ci
    print(
        f"criterion 1: mean_q={res.mean_q_mean:.4f} "
        f"cost={res.discounted_cost_mean:.4f}+-{res.discounted_cost_ci:.4f} "
        f"elapsed={elapsed:.1f}s"
    )
    assert abs(res.mean_q_mean - 0.1191) <= 0.05 * 0.1191
    assert lo <= 72.8 and hi >= 68.9
    assert elapsed < 30.0


def test_criterion_2_heavy_load_cell(full_grid):
    """3 robots at load 0.8: serve-longest holds mean queue near 1.4522 and
    serve fraction near 0.7995 while both rivals blow past 100."""
    esl = full_grid[(3, 0.8, "esl")]
    fcfs = full_grid[(3, 0.8, "fcfs")]
    cyc = full_grid[(3, 0.8, "cyclic")]
    print(
        f"criterion 2: esl mean_q={esl.mean_q_mean:.4f} serve={esl.serve:.4f} "
        f"fcfs mean_q={fcfs.mean_q_mean:.1f} cyclic mean_q={cyc.mean_q_mean:.1f}"
    )
    assert abs(esl.mean_q_mean - 1.4522) <= 0.10 * 1.4522
    assert abs(esl.serve - 0.7995) <= 0.01
    assert fcfs.mean_q_mean > 100
    assert cyc.mean_q_mean > 100


def test_criterion_3_dominance_and_crossover(full_grid):
    """Serve-longest wins every cell on both metrics; the two rivals swap
    rank between the two-robot and three-robot heavy cells."""
    for m in (2, 3):
        for alpha in (0.2, 0.5, 0.8):
            esl = full_grid[(m, alpha, "esl")]
            for rival in ("fcfs", "cyclic"):
                other = full_grid[(m, alpha, rival)]
                assert esl.discounted_cost_mean < other.discounted_cost_mean
                assert esl.mean_q_mean < other.mean_q_mean
    assert (
        full_grid[(2, 0.8, "cyclic")].discounted_cost_mean
        < full_grid[(2, 0.8, "fcfs")].discounted_cost_mean
    )
    assert (
        full_grid[(3, 0.8, "fcfs")].discounted_cost_mean
        < full_grid[(3, 0.8, "cyclic")].discounted_cost_mean
    )
    print("criterion 3: dominance and crossover hold in all cells")


def test_full_grid_output_pinned(full_grid, tmp_path):
    """The full grid's 18 rows, formatted as results.csv formats them,
    equal the rows the cursor-and-counter patrol wrote."""
    out = tmp_path / "results.csv"
    _write_csv(
        str(out),
        RESULT_COLUMNS,
        [
            [_fmt(getattr(r, col)) for col in RESULT_COLUMNS]
            for r in full_grid.values()
        ],
    )
    assert out.read_bytes() == (
        DATA / "benchmark_grid_results.csv"
    ).read_bytes()


def test_criterion_4_exact_optimality_audit():
    """Zero serve-longest violations at interior states of both capped
    instances, rates 0.1 and 0.3, sup-norm 1e-10, margin 3, ties 1e-9."""
    for locations, robots, cap in ((2, 1, 6), (3, 2, 4)):
        for p in (0.1, 0.3):
            start = time.monotonic()
            model = ModelConfig.symmetric(locations, robots, p, 0.9)
            mdp = build_truncated_mdp(model, cap)
            table = value_iteration(mdp, tol=1e-10)
            violations = check_esl_optimality(mdp, table, margin=3, tie_tol=1e-9)
            elapsed = time.monotonic() - start
            print(
                f"criterion 4: N={locations} M={robots} C={cap} p={p}: "
                f"{len(violations)} violations in {elapsed:.1f}s"
            )
            assert violations == []
            assert elapsed < 120.0


def test_criterion_5_coupling_patterns():
    """Every sampled path matches its scenario's piecewise gap shape; the
    shorter-target cost gap is positive with mean within three standard
    errors of the discounted catch-up window from the same paths."""
    for name in SCENARIO_NAMES:
        scenario = make_scenario(name)
        beta = scenario.model.discount
        diffs = []
        refs = []
        for _, report in coupled_runs([scenario], 2000, range(1000)):
            assert check_gap_pattern(report) == [], (name, report.seed)
            if name == "prop4":
                diffs.append(report.discounted_diff)
                refs.append(
                    sum(
                        beta**t
                        for t in range(report.tau + 1, report.tau + report.k + 1)
                    )
                )
        if name == "prop4":
            assert min(diffs) > 0
            se = statistics.stdev(refs) / math.sqrt(len(refs))
            gap = abs(statistics.fmean(diffs) - statistics.fmean(refs))
            print(f"criterion 5: prop4 mean diff gap {gap:.2e} vs 3*se {3 * se:.2e}")
            assert gap <= 3 * se
    print("criterion 5: all 4 scenarios x 1000 seeds matched")


def test_criterion_6_invariant_suites():
    # conservation, exactly, over one million random feasible steps
    rng = random.Random(20260814)
    state = SystemState((0, 1), (2, 0, 1))
    base = sum(state.queues)
    arrived = departed = 0
    for _ in range(1_000_000):
        joint = random_feasible_joint(rng, state)
        arrivals = tuple(1 if rng.random() < 0.3 else 0 for _ in range(3))
        state, delta = step(state, joint, arrivals)
        arrived += sum(delta.arrivals)
        departed += sum(delta.departures)
        assert sum(state.queues) == base + arrived - departed
        assert len(set(state.robots)) == 2
    print("criterion 6: conservation held over 1e6 steps")

    # every policy decision feasible over 1e5 fuzzed states per policy
    for _ in range(100_000):
        n = rng.randint(2, 6)
        m = rng.randint(1, n)
        s = random_state(rng, n, m)
        assert is_feasible(s, esl_decide(s))
    for _ in range(100_000):
        n = rng.randint(2, 6)
        m = rng.randint(1, n)
        s = random_state(rng, n, m)
        waiting = [
            deque(sorted(rng.randint(0, 30) for _ in range(q))) for q in s.queues
        ]
        assert is_feasible(s, fcfs_decide(s, waiting))
    for _ in range(100_000):
        n = rng.randint(2, 6)
        m = rng.randint(1, n)
        legs = [
            (rng.randint(0, 1), start, size)
            for start, size in patrol_blocks(n, m)
        ]
        now = rng.randrange(10_000)
        t_dwell = rng.randint(1, 4)
        s = random_state(rng, n, m)
        assert is_feasible(s, cyclic_decide(s, now, t_dwell, legs))
    print("criterion 6: 3e5 fuzzed decisions all feasible")

    # action fractions partition robot time within 1e-12
    for policy, params in (
        ("esl", {}),
        ("fcfs", {}),
        ("cyclic", {"t_dwell": 3}),
    ):
        for p in (0.1, 0.45):
            cfg = ExperimentConfig(
                model=ModelConfig.symmetric(4, 2, p, 0.95),
                policy=policy,
                horizon=1500,
                episodes=2,
                base_seed=17,
                policy_params=params,
            )
            m = run_episode(cfg, seed=17)
            assert abs(m.serve_frac + m.switch_frac + m.idle_frac - 1.0) <= 1e-12

    # residual contraction ratio bounded by the discount factor; late
    # residuals carry float rounding at eps * |V| scale, hence the 1e-12
    for model, cap in (
        (ModelConfig.symmetric(2, 1, 0.1, 0.9), 6),
        (ModelConfig.symmetric(3, 2, 0.3, 0.9), 4),
    ):
        table = value_iteration(build_truncated_mdp(model, cap), tol=1e-10)
        h = table.residual_history
        for a, b in zip(h, h[1:]):
            assert b <= 0.9 * a + 1e-12
    print("criterion 6: residual ratios within discount factor")

    # integer dwell tuning equals the exhaustive scan on 50 random pairs
    for _ in range(50):
        p = rng.uniform(0.01, 0.99)
        n = rng.randint(1, 8)
        values = [dwell_objective(p, n, float(n * t)) for t in range(1, 301)]
        scan = min(range(1, 301), key=lambda t: (values[t - 1], t))
        assert optimize_dwell(p, n, 300) == scan
    print("criterion 6: dwell optimizer matched the scan on 50 pairs")


def test_criterion_7_byte_identical_csv(tmp_path):
    """Two simulate runs from one manifest emit byte-identical results.csv."""
    cfg = tmp_path / "grid.yaml"
    cfg.write_text(
        "locations: 6\n"
        "robots: [2]\n"
        "alphas: [0.2, 0.8]\n"
        "policies: [esl, fcfs, cyclic]\n"
        "horizon: 1500\n"
        "episodes: 8\n"
        "beta: 0.99\n"
        "base_seed: 424242\n"
        "cyclic:\n"
        "  dwell: tuned\n",
        encoding="utf-8",
    )
    out1, out2 = tmp_path / "first", tmp_path / "second"
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    first = (out1 / "results.csv").read_bytes()
    assert first == (out2 / "results.csv").read_bytes()
    assert first.count(b"\n") == 7  # header plus 2 cells x 3 policies
    print("criterion 7: results.csv reruns byte-identical")
