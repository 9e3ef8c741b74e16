"""Output checks for the benchmark workloads, and a self-test that shows
they reject a result changed in its last printed digit.

An operation is one results.csv row for ``simulate`` and one instance or
one coupling scenario for ``verify``.  Each check returns
``(attempted, failed, problems)``.

Run ``python3 perfbench/check.py`` to run the self-test alone.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math
import sys
from pathlib import Path

MEAN_COLUMNS = ("discounted_cost_mean", "mean_q_mean", "serve", "switch", "idle")
CI_COLUMNS = (
    "discounted_cost_ci",
    "mean_q_ci",
    "serve_ci",
    "switch_ci",
    "idle_ci",
)
KEY_COLUMNS = ("alpha", "p", "policy")
# serve + switch + idle is 1 before printing; at 6 significant digits each
# printed fraction below 1 is off by at most 5e-7
FRACTION_SUM_TOL = 3 * 5e-7 + 1e-12

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def pinned_rows(text: str) -> list[list[str]]:
    """The columns a reference pins, per results.csv row, as printed."""
    return [
        [row[c] for c in KEY_COLUMNS + MEAN_COLUMNS]
        for row in csv.DictReader(io.StringIO(text))
    ]


def _finite(text: str) -> float | None:
    try:
        value = float(text)
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


def check_simulate(text: str, expected_keys, reference_rows=None):
    """Check a results.csv text.

    expected_keys lists (alpha, p, policy) per row as printed, in order.
    With reference_rows (from pinned_rows) every mean must match as
    printed; without, the invariants apply: every value finite, means and
    CIs non-negative, and the three action fractions summing to 1 within
    print precision.  CI columns are only required finite and >= 0.
    """
    attempted = len(expected_keys)
    problems: list[str] = []
    try:
        rows = list(csv.DictReader(io.StringIO(text)))
    except csv.Error as exc:
        return attempted, attempted, [f"results.csv unreadable: {exc}"]
    failed = 0
    for i, keys in enumerate(expected_keys):
        if i >= len(rows):
            failed += 1
            problems.append(f"row {i}: missing")
            continue
        row = rows[i]
        bad = []
        got_keys = [row.get(c) for c in KEY_COLUMNS]
        if got_keys != list(keys):
            bad.append(f"keys {got_keys} != {list(keys)}")
        for col in MEAN_COLUMNS + CI_COLUMNS:
            value = _finite(row.get(col))
            if value is None or value < 0.0:
                bad.append(f"{col}={row.get(col)!r} not finite and >= 0")
        if reference_rows is not None:
            want = reference_rows[i][len(KEY_COLUMNS):]
            for col, pinned in zip(MEAN_COLUMNS, want):
                if row.get(col) != pinned:
                    bad.append(f"{col}={row.get(col)!r} != pinned {pinned!r}")
        elif not bad:
            total = sum(float(row[c]) for c in ("serve", "switch", "idle"))
            if abs(total - 1.0) > FRACTION_SUM_TOL:
                bad.append(f"serve+switch+idle={total!r} != 1")
        if bad:
            failed += 1
            problems.append(f"row {i} {list(keys)}: " + "; ".join(bad))
    if len(rows) > attempted:
        problems.append(f"{len(rows) - attempted} unexpected extra rows")
        failed = attempted
    return attempted, failed, problems


def check_verify(payload: dict, reference: dict):
    """Check a verify.json payload against the pinned instance state counts
    and coupling means: ok, zero violations, zero pattern failures and
    uncoupled runs, and mean_discounted_diff exactly as printed."""
    want_inst = reference["instances"]
    want_coup = reference["coupling"]
    attempted = len(want_inst) + len(want_coup)
    problems: list[str] = []
    if payload.get("ok") is not True:
        return attempted, attempted, ["verify reported ok != true"]
    failed = 0
    got_inst = payload.get("instances", [])
    for i, want in enumerate(want_inst):
        got = got_inst[i] if i < len(got_inst) else {}
        bad = []
        if got.get("violation_count") != 0 or got.get("violations") != []:
            bad.append(f"violations {got.get('violation_count')!r}")
        if got.get("states") != want["states"]:
            bad.append(f"states {got.get('states')!r} != {want['states']}")
        if bad:
            failed += 1
            problems.append(f"instance {i}: " + "; ".join(bad))
    got_coup = payload.get("coupling", [])
    for i, want in enumerate(want_coup):
        got = got_coup[i] if i < len(got_coup) else {}
        bad = []
        if got.get("scenario") != want["scenario"]:
            bad.append(f"scenario {got.get('scenario')!r}")
        for key in ("pattern_failures", "uncoupled_runs"):
            if got.get(key) != 0:
                bad.append(f"{key} {got.get(key)!r}")
        printed = repr(got.get("mean_discounted_diff"))
        if printed != want["mean_discounted_diff"]:
            bad.append(
                f"mean_discounted_diff {printed} != "
                f"{want['mean_discounted_diff']}"
            )
        if bad:
            failed += 1
            problems.append(f"coupling {want['scenario']}: " + "; ".join(bad))
    if len(got_inst) != len(want_inst) or len(got_coup) != len(want_coup):
        problems.append("instance or scenario count differs from reference")
        failed = attempted
    return attempted, failed, problems


def bump_last_digit(text: str) -> str:
    """Change the last printed mantissa digit: 850.678 -> 850.679."""
    mantissa, sep, exponent = text.partition("e")
    for i in range(len(mantissa) - 1, -1, -1):
        if mantissa[i].isdigit():
            digit = int(mantissa[i])
            new = str(digit + 1 if digit < 9 else digit - 1)
            return mantissa[:i] + new + mantissa[i + 1:] + sep + exponent
    raise ValueError(f"no digit in {text!r}")


def _replace_cell(text: str, row: int, column: str, value: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    col = rows[0].index(column)
    rows[row + 1][col] = value
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def self_test(reference: dict) -> list[str]:
    """Problems with the checks themselves; empty means they have teeth.

    The pinned sample outputs must pass, and every copy changed in one
    place (each mean's last printed digit, a negative or non-finite CI, a
    nonzero failure count, an extra state) must fail exactly one operation.
    """
    problems: list[str] = []
    sim = reference["samples"]["simulate"]
    text = sim["results_csv"]
    pinned = reference["workloads"][sim["workload"]]["seeds"][sim["seed"]]
    keys = [row[: len(KEY_COLUMNS)] for row in pinned]

    def expect(label, got_failed, want_failed):
        if got_failed != want_failed:
            problems.append(
                f"self-test {label}: {got_failed} failed ops, "
                f"want {want_failed}"
            )

    expect("simulate sample", check_simulate(text, keys, pinned)[1], 0)
    expect("simulate sample (invariants)", check_simulate(text, keys)[1], 0)
    rows = list(csv.DictReader(io.StringIO(text)))
    for i, col in enumerate(MEAN_COLUMNS):
        row = i % len(rows)
        bumped = _replace_cell(text, row, col, bump_last_digit(rows[row][col]))
        failed = check_simulate(bumped, keys, pinned)[1]
        expect(f"simulate {col} +1 digit", failed, 1)
    for bad in ("-0.1", "nan", "inf"):
        broken = _replace_cell(text, 0, "serve_ci", bad)
        expect(f"simulate serve_ci={bad}", check_simulate(broken, keys)[1], 1)
    broken = _replace_cell(text, 0, "idle", f"{float(rows[0]['idle']) + 1e-5:.6g}")
    expect("simulate fractions off by 1e-5", check_simulate(broken, keys)[1], 1)

    ver = reference["samples"]["verify"]
    payload = ver["verify_json"]
    want = reference["workloads"][ver["workload"]]
    expect("verify sample", check_verify(payload, want)[1], 0)
    changed = copy.deepcopy(payload)
    diff = changed["coupling"][0]["mean_discounted_diff"]
    changed["coupling"][0]["mean_discounted_diff"] = float(
        bump_last_digit(repr(diff))
    )
    expect("verify mean diff +1 digit", check_verify(changed, want)[1], 1)
    for key in ("pattern_failures", "uncoupled_runs"):
        changed = copy.deepcopy(payload)
        changed["coupling"][-1][key] = 1
        expect(f"verify {key}=1", check_verify(changed, want)[1], 1)
    changed = copy.deepcopy(payload)
    changed["instances"][0]["states"] += 1
    expect("verify states+1", check_verify(changed, want)[1], 1)
    changed = copy.deepcopy(payload)
    changed["ok"] = False
    every = len(want["instances"]) + len(want["coupling"])
    expect("verify ok=false", check_verify(changed, want)[1], every)
    return problems


if __name__ == "__main__":
    found = self_test(load_reference())
    for line in found:
        print(line)
    print("self-test: " + ("FAILED" if found else "ok"))
    sys.exit(1 if found else 0)
