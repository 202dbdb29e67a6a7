"""gabrielq benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload membership --seed 1 --seconds 40 --trace 0

Run from the repository root.  The seed fixes one list of ops
(inputs.op_list).  Five short worker processes (worker.py) time the
workload's set-up; then worker processes, each of which imports only
gabrielq, sets up once and runs the whole list once with one caller in a
closed loop, make passes over the list while the next one is expected to
end within --seconds of op time (at least MIN_PASSES).  Each op's latency is its median
over the passes.  This process then checks every op's output with the
sympy oracle (oracle.py) and prints the metrics, last of all one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the
list is run twice, untraced and then traced, and the metrics are the
per-layer counts and times of the traced pass (see tracing.py), plus the
traced/untraced time ratio.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

WORKLOADS = ("membership", "saturation", "filters")

# Every pass is a fresh process, so that no op's later run can be served
# from a cache its first run filled; three give each op a median even if
# the program gets much slower.
MIN_PASSES = 3

WORKER_TIMEOUT_S = 150

# setup_s is the median over this many worker processes, each timing
# repeated set-ups: one set-up takes 1-2 ms on two workloads, and its
# time moved by a third from one process to the next on a shared machine.
SETUP_PROCESSES = 5


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of n values beyond it."""
    return max(50, math.floor(100.0 * (n - 10) / n))


def run_worker(args, out_path: str, *extra: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--out", out_path, *extra]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"worker ran past {WORKER_TIMEOUT_S} s")
    if code != 0:
        raise SystemExit(f"worker exited with code {code}")
    with open(out_path) as fh:
        return json.load(fh)


def run_passes(args, stem: str) -> list[dict]:
    """Whole passes while the next, at the mean pass time so far, would end
    within --seconds of op time."""
    passes = []
    busy = 0.0
    while len(passes) < MIN_PASSES or busy + busy / len(passes) <= args.seconds:
        doc = run_worker(args, f"{stem}-pass{len(passes)}.json")
        passes.append(doc)
        busy += doc["busy_s"]
    return passes


def check_ops(ops: list[dict]) -> tuple[int, int]:
    """(failed, wrong): ops that raised, and ops the oracle rejects."""
    import oracle  # sympy stays out of the worker process

    failed = wrong = 0
    for op in ops:
        if "error" in op["out"]:
            failed += 1
            print(f"failed: {op['spec']} -> {op['out']['error']}", file=sys.stderr)
        elif not oracle.check(op["spec"], op["out"]):
            wrong += 1
            print(f"wrong: {op['spec']} -> {op['out']}", file=sys.stderr)
    broken = oracle.self_test()
    for name in broken:
        print(f"oracle self-test failed: {name}", file=sys.stderr)
    return failed, wrong + len(broken)


def op_latencies(passes: list[dict]) -> list[float]:
    """Each op's median latency over the passes in which it did not fail,
    sorted."""
    out = []
    for i in range(len(passes[0]["ops"])):
        ms = [p["ops"][i]["ms"] for p in passes if "error" not in p["ops"][i]["out"]]
        if ms:
            out.append(statistics.median(ms))
    return sorted(out)


def end_to_end(passes: list[dict], setup_s: float) -> dict:
    lat = op_latencies(passes)
    return {
        "ops_per_s": (len(lat) / (sum(lat) / 1000.0), "ops/s"),
        "latency_p50_ms": (percentile(lat, 50), "ms"),
        "latency_tail_ms": (percentile(lat, tail_percentile(len(lat))), "ms"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
        "setup_s": (setup_s, "s"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "gabrielq")):
        print("src/gabrielq not found: run from the repository root",
              file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
    if args.trace:
        plain = run_worker(args, stem + "-untraced.json", "--probe")
        doc = run_worker(args, stem + "-traced.json", "--probe", "--trace")
        import tracing

        units = tracing.metric_units()
        metrics = {name: (doc["trace"][name], unit) for name, unit in units.items()}
        metrics["trace.time_ratio"] = (doc["busy_s"] / plain["busy_s"], "ratio")
        ops = plain["ops"] + doc["ops"]
        print(f"traced {len(doc['ops'])} ops; spans in {stem}-traced.json.spans.json")
    else:
        setup_s = statistics.median(
            run_worker(args, f"{stem}-setup{i}.json", "--setup-only")["setup_s"]
            for i in range(SETUP_PROCESSES))
        passes = run_passes(args, stem)
        metrics = end_to_end(passes, setup_s)
        ops = [op for p in passes for op in p["ops"]]
        n = len(passes[0]["ops"])
        print(f"{len(passes)} passes of {n} ops in "
              f"{sum(p['busy_s'] for p in passes):.2f} s; tail = "
              f"p{tail_percentile(n)}")

    t0 = time.perf_counter()
    failed, wrong = check_ops(ops)
    print(f"checked {len(ops)} ops with the oracle in "
          f"{time.perf_counter() - t0:.1f} s: {failed} failed, {wrong} wrong")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
