"""One workload call in a fresh interpreter.

Usage: python3 -E -s child.py SRC_DIR [--trace TRACE_JSON] [-- CLI ARGS...]

Imports eslsim.cli from SRC_DIR and prints one JSON line: the monotonic
time at which the CLI was ready (the caller subtracts its own spawn time to
get set-up time) and, when CLI arguments follow ``--``, the exit code, wall
time and CPU time of ``eslsim.cli.main(args)`` and the process's peak RSS.
With --trace the wrappers of tracer.py are installed after the ready mark
and their counts, times and spans are written to TRACE_JSON.
"""

import sys
import time

src = sys.argv[1]
sys.path.insert(0, src)
import eslsim.cli  # noqa: E402

ready = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

if not os.path.abspath(eslsim.cli.__file__).startswith(os.path.abspath(src)):
    sys.exit(f"eslsim imported from {eslsim.cli.__file__}, not from {src}")

rest = sys.argv[2:]
trace_path = None
if rest[:1] == ["--trace"]:
    trace_path, rest = rest[1], rest[2:]
cli_args = rest[1:] if rest[:1] == ["--"] else []

report = {"ready": ready}
if cli_args:
    tracer = None
    if trace_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cpu0 = time.process_time()
    t0 = time.monotonic()
    rc = eslsim.cli.main(cli_args)
    wall = time.monotonic() - t0
    report.update(
        rc=rc,
        wall_s=wall,
        cpu_s=time.process_time() - cpu0,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
print(json.dumps(report))
