"""Benchmark worker: one pass of one workload against gabrielq and nothing else.

This process imports only gabrielq, the standard library and the
benchmark's own standard-library modules, so its peak RSS is the
program's.  It sets up once, runs every op of the seed's op list
(inputs.op_list) once, in order, with one caller, and writes one JSON
document to --out:

    {"ops": [{"spec": ..., "out": ..., "ms": ...}, ...],
     "busy_s": ..., "peak_rss_mb": ..., "trace": {...} | null}

An op that raises is recorded with out = {"error": ...} and the pass goes
on.  With --setup-only it only times repeated set-ups and writes
{"setup_s": median}.

Usage (normally started by run.py):

    python3 perfbench/worker.py --workload membership --seed 1 \
        --out result.json [--trace] [--probe] | [--setup-only]

--probe runs worker.probe after set-up, before the ops.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402

from gabrielq.corpus import load_ring_file  # noqa: E402
from gabrielq.dim_filtration import sat_g  # noqa: E402
from gabrielq.dimension import module_dim  # noqa: E402
from gabrielq.ext_contr import contract_subq, extend_ideal, rm_generators  # noqa: E402
from gabrielq.filters import in_c, in_cm, in_g, in_h, in_v, in_vm, in_w  # noqa: E402
from gabrielq.quotient_ring import RmContext, in_Rm, rm_add  # noqa: E402

M = 1  # every workload works at m = 1
# With --setup-only, set-up is repeated for at least this long and this
# often, and the median kept.
SETUP_MIN_S = 0.4
SETUP_MIN_REPEATS = 3

WORKLOAD_RINGS = {
    "membership": ("R1", "R2", "R3"),
    "saturation": ("R1", "R2", "R3"),
    "filters": ("R1", "R2", "R3"),
}


def setup(workload: str) -> dict:
    """Load the rings, build each RmContext, and for saturation the R(m)
    module approximation: everything the timed ops share."""
    state = {}
    for ring in WORKLOAD_RINGS[workload]:
        ctx = RmContext(load_ring_file(ring), M)
        module = rm_generators(ctx) if workload == "saturation" else None
        state[ring] = (ctx, module)
    return state


def _ideal(dom, text: str):
    return dom.ideal([dom.parse(g) for g in text.split(";") if g.strip()])


def prepare(spec: dict, state: dict):
    """Parse one op spec into a zero-argument callable (untimed)."""
    ctx, module = state[spec["ring"]]
    dom = ctx.R
    kind = spec["kind"]
    if kind == "membership":
        q = dom.fraction(spec["num"], spec["den"])
        return lambda: {"verdict": in_Rm(q, ctx).verdict}
    if kind == "saturation":
        f = dom.parse(spec["f"])
        point = [int(p) for p in spec["point"].split(",")]
        N = dom.ideal([dom.parse(f"{v} - ({p})") for v, p in zip(dom.vars, point)])
        fN = dom.ideal([f * g for g in N.gens])

        def saturation():
            S = sat_g(fN, ctx)
            C = contract_subq(extend_ideal(dom.ideal([f]), module, ctx).subq)
            return {"sat": [str(g) for g in S.gens],
                    "contract": [str(g) for g in C.gens]}
        return saturation
    if kind == "ideal":
        I = _ideal(dom, spec["gens"])
        rng = random.Random(spec["gens"])

        def ideal_filters():
            return {"in_g": in_g(I, ctx), "in_c": in_c(I, ctx, rng),
                    "in_v": in_v(I, ctx, rng), "in_h": in_h(I, ctx),
                    "in_w": in_w(I, ctx, rng)}
        return ideal_filters
    if kind == "element":
        c = dom.parse(spec["elem"])
        return lambda: {"in_cm": in_cm(c, ctx), "in_vm": in_vm(c, ctx)}
    raise ValueError(f"unknown op kind {kind!r}")


def probe() -> None:
    """One call into every traced layer, on fixed R2 inputs.

    Both passes of a traced run make it before their ops: so that no
    per-layer figure is zero merely because a workload never reaches that
    layer, and so that the two passes, whose time ratio is reported, do
    the same work before their ops.
    """
    ctx = RmContext(load_ring_file("R2"), M)
    dom = ctx.R
    q = dom.fraction("b^2", "a")
    rm_add(q, dom.fraction("c^2", "d"), ctx)
    q.in_R()
    a = dom.parse("a")
    maximal = dom.ideal([dom.parse(v) for v in dom.vars])
    in_c(maximal, ctx, random.Random(0))
    in_h(maximal, ctx)
    in_vm(a, ctx)
    module_dim(maximal, dom.ideal([a]))
    module = rm_generators(ctx)
    sat_g(dom.ideal([a * g for g in maximal.gens]), ctx)
    contract_subq(extend_ideal(dom.ideal([a]), module, ctx).subq)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.LIST_SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    if args.setup_only:
        times = []
        first = time.perf_counter()
        while (len(times) < SETUP_MIN_REPEATS
               or time.perf_counter() - first < SETUP_MIN_S):
            t0 = time.perf_counter()
            setup(args.workload)
            times.append(time.perf_counter() - t0)
        with open(args.out, "w") as fh:
            json.dump({"setup_s": statistics.median(times)}, fh)
        return 0

    state = setup(args.workload)
    if args.probe:
        probe()

    ops = []
    for spec in inputs.op_list(args.workload, args.seed):
        if tracer:
            tracer.enabled = False  # parsing the op is not the op
            run = prepare(spec, state)
            tracer.enabled = True
            tracer.op = len(ops)
        else:
            run = prepare(spec, state)
        t0 = time.perf_counter()
        try:
            out = run()
        except Exception as exc:  # a failed op is counted, not fatal
            out = {"error": f"{type(exc).__name__}: {exc}"}
        t1 = time.perf_counter()
        ops.append({"spec": spec, "out": out, "ms": (t1 - t0) * 1000.0})
    if tracer:
        tracer.uninstall()

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    doc = {
        "ops": ops,
        "busy_s": sum(op["ms"] for op in ops) / 1000.0,
        "peak_rss_mb": peak_kb / 1024.0,
        "trace": tracer.summary() if tracer else None,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh)
    if tracer:
        tracer.write_spans(args.out + ".spans.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
