"""One benchmark pass in a fresh interpreter: import the CLI, answer the set.

    python3 bench/child.py ROOT WORKLOAD SEED TRACE [SPANS_PATH]
    python3 bench/child.py ROOT --setup-only

The import of frobsplit.cli is timed before anything else is loaded, so it
is what a fresh `frobsplit` invocation pays.  Each query goes through
frobsplit.cli.run(argv + ["--json"]) with stdout and stderr captured, one
after the other.  The pass prints one JSON document on the real stdout.

Before every query, and around the import, the pass also times a fixed
pure-Python reference loop: its time says how fast the shared host is
running Python at that moment, which bench/run.py uses to scale the
timings to a fixed host speed.
"""

import os
import sys
import time


def reference_s() -> float:
    """Seconds for a fixed loop of dict and int work, about 1 ms."""
    started = time.perf_counter()
    acc = {}
    for i in range(3000):
        k = (i * 40503) & 1023
        acc[k] = (acc.get(k, 0) + i * k) % 65521
    return time.perf_counter() - started


root = os.path.abspath(sys.argv[1])
src = os.path.join(root, "src")
sys.path.insert(0, src)
setup_ref = [reference_s() for _ in range(3)]
started = time.perf_counter()
import frobsplit.cli as cli  # noqa: E402
setup_s = time.perf_counter() - started
setup_ref += [reference_s() for _ in range(3)]

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

if not os.path.abspath(cli.__file__).startswith(src + os.sep):
    sys.exit(f"frobsplit was imported from {cli.__file__}, not from {src}")
if sys.argv[2] == "--setup-only":
    print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref}))
    sys.exit(0)

from workloads import queries  # noqa: E402

workload, seed, traced = sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1"
qs = queries(workload, seed)
tracer = None
if traced:
    from spans import Tracer
    tracer = Tracer()
    tracer.install()

answers, refs = [], []
for i, q in enumerate(qs):
    out, err = io.StringIO(), io.StringIO()
    if tracer:
        tracer.query = i
    refs.append(reference_s())
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code, _ = cli.run(q["argv"] + ["--json"])
    except Exception:  # a crash is an answer to report, not a reason to stop
        code = -1
        err.write(traceback.format_exc())
    latency = time.perf_counter() - t0
    answers.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                    "latency_s": latency})
refs.append(reference_s())

result = {"setup_s": setup_s, "setup_ref_s": setup_ref, "answers": answers, "ref_s": refs,
          "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
if tracer:
    result["trace"] = tracer.summary()
    if len(sys.argv) > 5:
        tracer.write(sys.argv[5])
sys.__stdout__.write(json.dumps(result) + "\n")
