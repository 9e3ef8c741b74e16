"""Regression pin for the orbit audit where the ordered oracle cannot reach.

On (6, 3, cap 7, p 0.1, beta 0.99, tol 1e-8, margin 1) the interior holds
8.6M ordered states, too many for tests/ordered_audit.py.
tests/data/audit_pin.json holds the full list check_esl_optimality
returned there when it still walked each interior orbit in a Python loop
over every joint action: 645 entries standing for 323,280 not-argmin,
547,560 serve-not-strict and 69,120 shorter-not-strict ordered states.
Each entry is [robots, queues, kind, repr(gap), robot, alternative,
members], alternative a list of [kind, dest] pairs, so the gaps are
compared to the last bit.

Print the fixture with:  PYTHONPATH=src python3 tests/test_audit_pin.py
"""

import json
import sys
from collections import Counter
from pathlib import Path

from eslsim import (
    ModelConfig,
    build_truncated_mdp,
    check_esl_optimality,
    value_iteration,
)

FIXTURE = Path(__file__).resolve().parent / "data" / "audit_pin.json"


def audit_records() -> list:
    model = ModelConfig.symmetric(6, 3, 0.1, 0.99)
    mdp = build_truncated_mdp(model, cap=7)
    table = value_iteration(mdp, tol=1e-8)
    return [
        [
            list(v.state.robots),
            list(v.state.queues),
            v.kind,
            repr(v.gap),
            v.robot,
            None if v.alternative is None
            else [list(act) for act in v.alternative],
            v.members,
        ]
        for v in check_esl_optimality(mdp, table, 1)
    ]


def test_audit_matches_the_pin():
    want = json.loads(FIXTURE.read_text())
    assert len(want) == 645
    counts = Counter()
    for *_, kind, _, _, _, members in want:
        counts[kind] += members
    assert counts == {
        "not-argmin": 323_280,
        "serve-not-strict": 547_560,
        "shorter-not-strict": 69_120,
    }
    assert audit_records() == want


if __name__ == "__main__":
    json.dump(audit_records(), sys.stdout, separators=(",", ":"))
    print()
