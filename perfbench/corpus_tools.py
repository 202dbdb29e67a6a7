"""Build the stored corpora that the workloads walk.

Two steps, run from the repository root:

    python3 perfbench/corpus_tools.py screen membership R2 > m_R2.jsonl
    python3 perfbench/corpus_tools.py rank membership m_R1.jsonl m_R2.jsonl ...

`screen` times every member of one ring's pool (inputs.pool), one op at a
time, and stops an op once it passes SCREEN_LIMIT_S.  `rank` drops the ops
that passed the limit, so that no single input sets a run's figures, lists
them on stderr, and writes corpus/<workload>.jsonl: the remaining ops in
order of screened time, cheapest first, the order that inputs.stratified
cuts into cost strata.
"""
from __future__ import annotations

import ast
import json
import os
import signal
import sys
import time

import inputs

SCREEN_LIMIT_S = 2.0  # a sixth of a pass


class _Overrun(Exception):
    pass


def _alarm(signum, frame):
    raise _Overrun()


def screen(workload: str, ring: str) -> None:
    import worker  # imports gabrielq

    state = worker.setup(workload)
    signal.signal(signal.SIGALRM, _alarm)
    for op in inputs.pool(workload, ring):
        run = worker.prepare(op, state)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SCREEN_LIMIT_S)
        try:
            run()
            over = False
        except _Overrun:
            over = True
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        print(json.dumps({"s": time.perf_counter() - t0, "over": over,
                          "key": inputs.op_key(op)}), flush=True)


def rank(workload: str, paths: list[str]) -> None:
    rows = []
    for path in paths:
        with open(path) as fh:
            rows += [json.loads(line) for line in fh if line.strip()]
    expected = {inputs.op_key(op) for ring in inputs.POOL_SIZES[workload]
                for op in inputs.pool(workload, ring)}
    got = {row["key"] for row in rows}
    if got != expected:
        raise SystemExit(f"timings do not cover the {workload} pools exactly")
    kept = []
    for row in rows:
        if row["over"] or row["s"] > SCREEN_LIMIT_S:
            print(json.dumps({"s": round(row["s"], 2), "op": row["key"]}),
                  file=sys.stderr)
        else:
            kept.append(row)
    kept.sort(key=lambda row: (row["s"], row["key"]))
    os.makedirs(inputs.CORPUS_DIR, exist_ok=True)
    with open(os.path.join(inputs.CORPUS_DIR, f"{workload}.jsonl"), "w") as fh:
        for row in kept:
            op = dict(ast.literal_eval(row["key"]))
            fh.write(json.dumps(op, sort_keys=True) + "\n")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[0] == "screen":
        screen(argv[1], argv[2])
    elif len(argv) >= 3 and argv[0] == "rank":
        rank(argv[1], argv[2:])
    else:
        raise SystemExit(__doc__)
    return 0


if __name__ == "__main__":
    sys.exit(main())
