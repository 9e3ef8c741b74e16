"""The benchmark's tracer (perfbench/tracer.py) wraps eslsim names from
outside the package and reports a metric as null when a name it wraps is
gone.  This runs a tiny verify and a tiny simulate under that tracer, in a
fresh interpreter, and checks that every wrapped name was found."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

VERIFY = """\
rule: esl
instances:
  - {locations: 2, robots: 1, cap: 3, p: 0.1, margin: 1}
coupling:
  scenarios: [prop1A]
  seeds: 2
  horizon: 50
"""

SIMULATE = """\
locations: 3
robots: [1]
alphas: [0.5]
policies: [esl, fcfs, cyclic]
horizon: 50
episodes: 2
"""

SCRIPT = """\
import json, sys
src, perfbench, verify_cfg, simulate_cfg, out = sys.argv[1:]
sys.path[:0] = [src, perfbench]
import eslsim.cli
from tracer import Tracer, layer_metrics

tracer = Tracer()
tracer.install()
rcs = [
    eslsim.cli.main(["verify", "--config", verify_cfg, "--out", out + "/v"]),
    eslsim.cli.main(["simulate", "--config", simulate_cfg, "--out", out + "/s"]),
]
data = tracer.dump()
metrics = layer_metrics(data, 1.0, 1.0)
print(json.dumps({"rcs": rcs, "absent": data["absent"], "counts": data["counts"],
                  "metrics": metrics}, allow_nan=False))
"""


def test_benchmark_tracer_finds_every_wrapped_name(tmp_path):
    verify_cfg = tmp_path / "verify.yaml"
    verify_cfg.write_text(VERIFY)
    simulate_cfg = tmp_path / "simulate.yaml"
    simulate_cfg.write_text(SIMULATE)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"),
         str(ROOT / "perfbench"), str(verify_cfg), str(simulate_cfg),
         str(tmp_path)],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["rcs"] == [0, 0]
    assert report["absent"] == {}
    assert report["counts"]["mdp.transitions"] > 0
    assert report["counts"]["mdp.kernel_mb"] > 0
    nulls = [k for k, v in report["metrics"].items() if v["value"] is None]
    assert nulls == []
