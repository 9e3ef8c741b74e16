"""Mutation check: break the exact solver, the coupling engine and its
oracle, the shared arrival table, the array serve-then-seek and fcfs
rules, the lane feasibility check and the cyclic patrol and its scan on
purpose and show that the tests notice.

Each mutant is one textual edit to a file under src/, or to an oracle
under tests/ that a fast path is tested against; MUTANTS lists them with
the file each one edits.  For each, the script copies src/ and tests/ to a
temporary directory, applies the edit there, runs the tests in TESTS
against the copy, and reports the mutant killed (the tests fail) or
survived (they pass).  An unmutated copy runs first and must pass, so
that a broken suite cannot count as killing every mutant.  The working
tree is never modified.

Run with:  python3 tools/mutants.py
Exit status 0 when every mutant is killed, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
# the fast tests first, so that -x stops most mutants early
TESTS = ["tests/test_coupling.py", "tests/test_coupling_pin.py",
         "tests/test_policies.py", "tests/test_evaluator.py",
         "tests/test_audit_pin.py", "tests/test_mdp.py"]

# (name, file under the repo, text to replace, replacement)
MUTANTS = [
    (
        "monotonicity compares against v - 1e9",
        "src/eslsim/mdp.py",
        "dips[:, i] = below[:, i] & (rise < -tol)",
        "dips[:, i] = below[:, i] & (rise < -tol - 1e9)",
    ),
    (
        "audit reads Q with W at the neighbouring orbit id",
        "src/eslsim/mdp.py",
        "return cost[k] + beta * w[post]",
        "return cost[k] + beta * w[post - 1]",
    ),
    (
        "canonical form sorts occupied and unoccupied queues as one multiset",
        "src/eslsim/mdp.py",
        "part = np.sort(keys[..., cols], axis=-1)",
        "part = np.sort(keys[..., cols] % self.radix, axis=-1)"
        " + self.radix * np.sort(keys[..., cols] // self.radix, axis=-1)",
    ),
    (
        "audit skips clause (c)",
        "src/eslsim/mdp.py",
        "seeks = ~work & (moved != here.T)",
        "seeks = np.zeros_like(work)",
    ),
    (
        "audit: clause (c) never compares idling (no idle-not-strict)",
        "src/eslsim/mdp.py",
        "(loc == here) | (at_j > 0)",
        "(at_j > 0)",
    ),
    (
        "orbit audit counts each violating orbit once",
        "src/eslsim/mdp.py",
        "_orbit_size(mdp, mdp.states[interior[s]]),",
        "1,",
    ),
    (
        "coupling oracle: _record_gap never raises",
        "tests/scalar_coupling.py",
        "if backlog_diff != gap[-1]:",
        "if False:",
    ),
    (
        "coupling oracle: PI reads the unswapped draw",
        "tests/scalar_coupling.py",
        "if script.swap:",
        "if False:",
    ),
    (
        "coupling oracle: prop1A never checks the meeting at the return "
        "slot",
        "tests/scalar_coupling.py",
        "if g != pi:\n            raise",
        "if False:\n            raise",
    ),
    (
        "coupling oracle: prop4 never checks the meeting after the "
        "crossing",
        "tests/scalar_coupling.py",
        "if mirrored != g:",
        "if False:",
    ),
    (
        "coupling: scenarios are not validated when made",
        "src/eslsim/coupling.py",
        "def __post_init__(self) -> None:\n        validate_scenario(self)",
        "def __post_init__(self) -> None:\n        pass",
    ),
    (
        "coupling: the geometric tail divides before it scales",
        "src/eslsim/coupling.py",
        "diff += powers[coupling_time] * terminal / (1.0 - beta)",
        "diff += powers[coupling_time] * (terminal / (1.0 - beta))",
    ),
    (
        "coupling lanes: the conservation check never raises",
        "src/eslsim/coupling.py",
        "if (backlog_diff != gap).any():",
        "if False:",
    ),
    (
        "coupling lanes: PI reads the unswapped draw",
        "src/eslsim/coupling.py",
        "pi_cols = _swap01_index(n) if script.swap else np.arange(n)",
        "pi_cols = np.arange(n)",
    ),
    (
        "arrival table: a lane drawn from a later slot re-reads its first "
        "rows",
        "src/eslsim/model.py",
        "rng.bit_generator.advance(start * n)",
        "rng.bit_generator.advance(0)",
    ),
    (
        "coupling lanes: a narrower scenario reads the shared first block "
        "column-strided",
        "src/eslsim/coupling.py",
        "uniforms[:, :stop * n].reshape(len(seeds), stop, n)",
        "uniforms.reshape(len(seeds), stop, -1)[..., :n]",
    ),
    (
        "coupling lanes: prop1A never checks the meeting at the return slot",
        "src/eslsim/coupling.py",
        "if (met & ~_same_lanes(g, pi.robots, pi.queues)).any():",
        "if False:",
    ),
    (
        "coupling lanes: prop4 never checks the meeting after the crossing",
        "src/eslsim/coupling.py",
        "if (met & ~mirrored).any():",
        "if False:",
    ),
    (
        "check_gap_pattern skips prop2's terminal gap",
        "src/eslsim/coupling.py",
        "if gap[tc] != m2 or report.terminal_gap != m2:",
        "if False:",
    ),
    (
        "check_gap_pattern skips prop4's catch-up slots",
        "src/eslsim/coupling.py",
        "for t in range(tau + 1, tau + report.k + 1):",
        "for t in ():",
    ),
    (
        "array fcfs rule: ties no longer prefer a hosted location",
        "src/eslsim/policies.py",
        "key = heads * np.int64(2 * n) + (host < 0) * n + np.arange(n)",
        "key = heads * np.int64(2 * n) + np.arange(n)",
    ),
    (
        "array rule: seekers take free queues in index order",
        "src/eslsim/policies.py",
        "np.where(free, -queues if longest_first else queues, _LAST)",
        "np.where(free, 0, _LAST)",
    ),
    (
        "array rule: the seeker rank is off by one",
        "src/eslsim/policies.py",
        "rank = np.cumsum(seek, axis=1) - 1",
        "rank = np.cumsum(seek, axis=1)",
    ),
    (
        "array fcfs rule: the walk stops one rank short",
        "src/eslsim/policies.py",
        "for k in range(num_robots):",
        "for k in range(num_robots - 1):",
    ),
    (
        "lane feasibility: two robots may end on one location",
        "src/eslsim/model.py",
        "ok &= end[:, r] != end[:, other]",
        "pass",
    ),
    (
        "lane feasibility: an end may sit one past the map",
        "src/eslsim/model.py",
        "(end < num_locations)",
        "(end <= num_locations)",
    ),
    (
        "lane feasibility: a robot may serve while it moves",
        "src/eslsim/model.py",
        "good = ~(serve & ((local <= 0) | (end != robots)))",
        "good = ~(serve & (local <= 0))",
    ),
    (
        "cyclic: a robot ends slot t where it should end slot t - 1",
        "src/eslsim/policies.py",
        "return starts + (now + 1 - leads) // (dwell + 1) % sizes",
        "return starts + (now - leads) // (dwell + 1) % sizes",
    ),
    (
        "cyclic: reset ignores a robot that starts off its block head",
        "src/eslsim/policies.py",
        "(int(loc != start), start, size)",
        "(0, start, size)",
    ),
    (
        "scan: serves any nonempty queue, moving or not",
        "src/eslsim/evaluator.py",
        "end[~stay] = -1",
        "end[~stay] = end[~stay]",
    ),
    (
        "scan: the schedule collision check never fires",
        "src/eslsim/evaluator.py",
        "if not lane_collision_free(end.reshape(-1, m), "
        "len(locations)).all():",
        "if False:",
    ),
    (
        "scan: the carried queue is dropped at a chunk boundary",
        "src/eslsim/evaluator.py",
        "start_q, self.queues = _lindley(self.queues, serve, arrivals)",
        "start_q, _ = _lindley(self.queues, serve, arrivals)",
    ),
]


def run_tests(root: Path) -> bool:
    """True when the selected tests pass against the copy at root."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *TESTS],
        cwd=root,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    return proc.returncode == 0


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(REPO / name, dest / name, ignore=ignore)


def main() -> int:
    t0 = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="eslsim-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        if not run_tests(clean):
            print("unmutated tests fail; no mutant can be judged")
            return 1
        survivors = 0
        for i, (name, rel, old, new) in enumerate(MUTANTS):
            root = Path(tmp) / f"mutant{i}"
            copy_tree(root)
            path = root / rel
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                print(f"{name}: the text to mutate is not in {rel} exactly "
                      "once; update the mutant")
                return 1
            path.write_text(text.replace(old, new), encoding="utf-8")
            killed = not run_tests(root)
            survivors += not killed
            print(f"{'killed' if killed else 'SURVIVED'}: {name}")
    print(f"{len(MUTANTS) - survivors}/{len(MUTANTS)} killed in "
          f"{time.monotonic() - t0:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
