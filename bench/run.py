"""frobsplit benchmark: one command for every metric of one workload.

    python3 bench/run.py --workload p1-couples --seed 1 --seconds 40 --trace 0

Closed loop, one client: each pass is a fresh interpreter (bench/child.py)
that imports frobsplit.cli and sends the workload's queries one after the
other through frobsplit.cli.run.  Passes repeat, one at a time, until
--seconds is spent.

Timings are scaled to a fixed host speed.  On a shared host the neighbours'
load changes how fast this process runs Python by half or more, for seconds
to minutes at a time, so raw times of one run can differ from the next by
more than any change worth measuring.  Each pass therefore times a fixed
reference loop before every query (bench/child.py), and a query's latency
is scaled by REF_UNIT_S over the median of the four readings around it:
the figures are seconds on a host that runs that loop in REF_UNIT_S.  The
unscaled wall-clock figures are printed beside them.  A query's latency is
the median of its scaled latencies over the passes; p50 and p90 are taken
over the queries.

Every answer of the first pass is checked, untimed, against the oracles in
bench/oracles.py, and every later pass (traced or not) must print
byte-identical answers.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics; the traced pass's spans
go to .bench_out/.  The last stdout line is the JSON result; the lines
before it name every metric with its unit and give each query's verdict.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

from oracles import check_answer
from workloads import WORKLOADS, queries

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CHILD = os.path.join(BENCH, "child.py")
SETUP_SAMPLES = 7       # import-only interpreters per run, besides one per pass
MIN_PASSES = 3          # untraced passes under --trace 0, time allowing
MIN_PAIRS = 2           # untraced + traced pairs under --trace 1, time allowing
RUN_CAP_S = 150         # no pass starts that would end the run later than this
CHILD_TIMEOUT_S = 170
REF_UNIT_S = 1e-3       # the reference loop's time on the host the figures are scaled to

# every per-layer metric the traced run prints; BENCHMARK.json lists the ones
# whose value is measured on every workload
PER_LAYER = [
    "cli.self_s", "cli.build_parser.calls",
    "fibration.self_s", "fibration.is_kgfr_legendre.self_s", "fibration.total_space_gfs.calls",
    "gsplit.self_s", "gsplit.gfr_p1_bounded.calls", "gsplit.gfr_p1_bounded.self_s",
    "gsplit.gfs_p1_level.calls", "gsplit.gfs_p1_level.per_gfr", "gsplit.P1Divisor.new",
    "gsplit.gfs_cy_hypersurface.self_s", "gsplit.gfs_bigraded_hypersurface.self_s",
    "elliptic.self_s", "elliptic.hasse_coeff_symbolic.self_s",
    "elliptic.supersingular_report.self_s",
    "mpoly.self_s", "mpoly.MPoly.__mul__.calls", "mpoly.MPoly.__mul__.self_s",
    "mpoly.MPoly.power_qm1.self_s", "mpoly.univ_roots.self_s", "mpoly.parse_poly.self_s",
    "fedder.self_s", "fedder.nu.calls", "fedder.nu.self_s", "fedder.fpt_bounds.self_s",
    "fedder.is_fpure_pair.self_s",
    "arith.elem_new", "trace.overhead_frac",
]


class BenchError(RuntimeError):
    pass


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("query_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_frac", ".per_gfr")):
        return "ratio"
    return "count"


def run_child(args: list[str]) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    try:
        proc = subprocess.run([sys.executable, CHILD, ROOT, *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {args} timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: int, trace: bool):
    """Setup samples, untraced passes and (under trace) traced passes."""
    started = time.perf_counter()
    run_child(["--setup-only"])  # untimed warm-up: writes the bytecode caches
    setup = [run_child(["--setup-only"]) for _ in range(SETUP_SAMPLES)]
    plain, traced = [], []
    out_dir = os.path.join(ROOT, ".bench_out")
    spans_path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl")
    if trace:
        os.makedirs(out_dir, exist_ok=True)
    loop_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(run_child([workload, str(seed), "0"]))
        if trace:
            traced.append(run_child([workload, str(seed), "1"]
                                    + ([spans_path] if not traced else [])))
        cost = time.perf_counter() - t0
        now = time.perf_counter()
        if now - started + cost > RUN_CAP_S:
            break
        if (len(plain) >= (MIN_PAIRS if trace else MIN_PASSES)
                and now - loop_start + cost > seconds):
            break
    return setup + plain + traced, plain, traced


def nearest_rank(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def check_passes(qs, plain, traced):
    """Oracle verdicts for the first pass; every later pass must match it byte for byte."""
    first = plain[0]["answers"]
    verdicts = []
    for i, (q, a) in enumerate(zip(qs, first)):
        try:
            report = json.loads(a["stdout"]) if a["code"] == 0 else None
            problems, decided = check_answer(q, a["code"], report)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problems, decided = [f"unreadable answer: {type(exc).__name__}: {exc}"], False
        if a["stderr"]:
            problems.append(f"stderr: {a['stderr'].strip()[:200]}")
        for label, passes in (("untraced", plain[1:]), ("traced", traced)):
            for other in passes:
                b = other["answers"][i]
                if (b["code"], b["stdout"]) != (a["code"], a["stdout"]):
                    problems.append(f"a {label} pass answered differently")
                    break
        verdicts.append((problems, decided))
    return verdicts


def scaled(seconds: float, refs: list[float]) -> float:
    return seconds * REF_UNIT_S / statistics.median(refs)


def query_latencies(passes, scale=True) -> list[float]:
    """Per query, the median over passes of its latency, scaled by the
    reference readings taken just before and after it unless scale is off."""
    return [statistics.median(
        scaled(p["answers"][i]["latency_s"], p["ref_s"][max(0, i - 1):i + 3])
        if scale else p["answers"][i]["latency_s"] for p in passes)
        for i in range(len(passes[0]["answers"]))]


def end_to_end(setup, plain, verdicts, scale=True) -> dict:
    n = len(verdicts)
    per_query = query_latencies(plain, scale)
    return {
        "setup_s": statistics.median(scaled(s["setup_s"], s["setup_ref_s"]) if scale
                                     else s["setup_s"] for s in setup),
        "wall_s": sum(per_query),
        "query_ms.p50": 1000 * statistics.median(per_query),
        "query_ms.p90": 1000 * nearest_rank(per_query, 90),
        "decided_frac": sum(d for _, d in verdicts) / n,
        "error_frac": sum(bool(p) for p, _ in verdicts) / n,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }


def per_layer_one(summary: dict, scale: float) -> dict:
    out = {}
    for name in PER_LAYER:
        prefix, _, kind = name.rpartition(".")
        if kind == "per_gfr":
            base = summary["calls"].get("gsplit.gfr_p1_bounded", 0)
            out[name] = summary["calls"].get(prefix, 0) / base if base else 0.0
        elif kind == "calls":
            out[name] = summary["calls"].get(prefix, 0)
        elif kind == "self_s":
            out[name] = summary["self_s"].get(prefix, 0.0) * scale
        else:
            out[name] = summary["counts"].get(name, 0)
    return out


def per_layer(plain, traced) -> dict:
    """Medians over the traced passes, self times scaled by each pass's
    median reference reading; the overhead compares wall_s both ways."""
    rows = [per_layer_one(t["trace"], REF_UNIT_S / statistics.median(t["ref_s"]))
            for t in traced]
    out = {name: statistics.median(r[name] for r in rows) for name in PER_LAYER}
    out["trace.overhead_frac"] = sum(query_latencies(traced)) / sum(query_latencies(plain)) - 1
    return out


def git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "n/a (not a git checkout)"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(ref_path):
        with open(ref_path) as fh:
            return fh.read().strip()
    return f"unresolved {ref[5:]}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "frobsplit", "cli.py")):
        print(f"error: no frobsplit sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    qs = queries(args.workload, args.seed)
    try:
        setup, plain, traced = run_passes(args.workload, args.seed, args.seconds,
                                          bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    verdicts = check_passes(qs, plain, traced)

    print(f"workload {args.workload}  seed {args.seed}  python {platform.python_version()}"
          f"  nproc {os.cpu_count()}  git {git_sha()}")
    print(f"closed loop, 1 client; {len(qs)} queries per pass; {len(plain)} untraced"
          f" passes, {len(traced)} traced; {len(setup)} setup samples")
    latencies = query_latencies(plain)
    for i, (q, (problems, decided)) in enumerate(zip(qs, verdicts)):
        status = "FAIL" if problems else "ok"
        print(f"  q{i:03d} {status:4} {'decided' if decided else 'unknown':7}"
              f" {1000 * latencies[i]:9.2f} ms  {' '.join(q['argv'])}"
              + (f"  <- {'; '.join(problems)}" if problems else ""))
    refs = [r for p in plain for r in p["ref_s"]]
    print(f"host reference loop: median {1000 * statistics.median(refs):.3f} ms"
          f" (min {1000 * min(refs):.3f}, max {1000 * max(refs):.3f}); the figures"
          f" below are scaled to {1000 * REF_UNIT_S:g} ms")
    raw = end_to_end(setup, plain, verdicts, scale=False)
    print("unscaled wall clock: " + "  ".join(
        f"{k} = {raw[k]:.6g} {unit_of(k)}" for k in ("setup_s", "wall_s", "query_ms.p50",
                                                     "query_ms.p90")))
    metrics = end_to_end(setup, plain, verdicts)
    if args.trace:
        metrics.update(per_layer(plain, traced))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit_of(name)}")
    missing = [m for m in wanted if m not in metrics]
    if missing:
        print(f"error: BENCHMARK.json names unknown metrics {missing}", file=sys.stderr)
        return 1
    failed = sum(bool(p) for p, _ in verdicts)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(qs),
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": unit_of(m)} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
