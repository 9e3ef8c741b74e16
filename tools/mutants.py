"""Mutation check: break the audit and the coupling harness on purpose and
show that the tests notice.

Each mutant is one textual edit to a file under src/.  For each, the
script copies src/ and tests/ to a temporary directory, applies the edit
there, runs the tests in TESTS against the
copy, and reports the mutant killed (the tests fail) or survived (they
pass).  An unmutated copy runs first and must pass, so that a broken
suite cannot count as killing every mutant.  The working tree is never
modified.

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
# the fast coupling tests first, so that -x stops a coupling mutant early
TESTS = ["tests/test_coupling.py", "tests/test_coupling_pin.py",
         "tests/test_mdp.py"]

# (name, file under the repo, text to replace, replacement)
MUTANTS = [
    (
        "monotonicity compares against v - 1e9",
        "src/eslsim/mdp.py",
        "reshape(len(mdp.states), n) < -tol",
        "reshape(len(mdp.states), n) < -tol - 1e9",
    ),
    (
        "audit skips clause (c)",
        "src/eslsim/mdp.py",
        "elif here.kind == SWITCH:",
        "elif False:",
    ),
    (
        "idle-not-strict fires only above a gap of 1.0",
        "src/eslsim/mdp.py",
        "alt = chosen[:r] + (IDLE_ACTION,) + chosen[r + 1:]\n"
        "                alt_q = q.get(alt)\n"
        "                if alt_q is not None and alt_q <= q_star + tie_tol:",
        "alt = chosen[:r] + (IDLE_ACTION,) + chosen[r + 1:]\n"
        "                alt_q = q.get(alt)\n"
        "                if alt_q is not None and q_star - alt_q > 1.0:",
    ),
    (
        "coupling._record_gap never raises",
        "src/eslsim/coupling.py",
        "if backlog_diff != gap[-1]:",
        "if False:",
    ),
    (
        "coupling: PI reads the unswapped draw",
        "src/eslsim/coupling.py",
        "if script.swap:",
        "if False:",
    ),
    (
        "coupling: prop1A never checks the meeting at the return slot",
        "src/eslsim/coupling.py",
        "if g != pi:\n            raise",
        "if False:\n            raise",
    ),
    (
        "coupling: prop4 never checks the meeting after the crossing",
        "src/eslsim/coupling.py",
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
        "diff += beta**coupling_time * terminal / (1.0 - beta)",
        "diff += beta**coupling_time * (terminal / (1.0 - beta))",
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
