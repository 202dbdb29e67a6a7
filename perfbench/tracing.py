"""Spans and counters around the calls into each layer of gabrielq.

The benchmark installs wrappers from its own files: each listed function
is replaced, at every module attribute (and class attribute) that binds
it, by a wrapper that records a span (name, start, end, parent, op) and
updates the layer's counters.  Modules import by name (`dimension` holds
its own `ideal_quotient`), so every binding is replaced, not just the
defining one.  Spans stay in memory until the run ends.
"""
from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

# span name -> (module, attribute path) of each function it wraps
LAYERS = {
    "poly.mul": [("gabrielq.poly", "Polynomial.__mul__")],
    "groebner.buchberger": [("gabrielq.groebner", "buchberger")],
    "groebner.normal_form": [("gabrielq.groebner", "normal_form")],
    "groebner.ideal_quotient": [("gabrielq.groebner", "ideal_quotient")],
    "groebner.ideal_intersect": [("gabrielq.groebner", "ideal_intersect")],
    "groebner.ideal_product": [("gabrielq.groebner", "ideal_product")],
    "groebner.saturate_rabinowitsch": [("gabrielq.groebner", "saturate_rabinowitsch")],
    "dimension.krull_dim": [("gabrielq.dimension", "krull_dim")],
    "dimension.module_dim": [("gabrielq.dimension", "module_dim")],
    "domain.ideal": [("gabrielq.domain", "AffineDomain.ideal")],
    "domain.transform": [("gabrielq.domain", "transform")],
    "domain.in_R": [("gabrielq.domain", "FractionQ.in_R")],
    "filters.in_g": [("gabrielq.filters", "in_g")],
    "filters.in_c": [("gabrielq.filters", "in_c")],
    "filters.in_h": [("gabrielq.filters", "in_h")],
    "filters.in_vm": [("gabrielq.filters", "in_vm")],
    "dim_filtration.unmixed_split": [("gabrielq.dim_filtration", "unmixed_split")],
    "dim_filtration.sat_g": [("gabrielq.dim_filtration", "sat_g")],
    "quotient_ring.conductor": [("gabrielq.quotient_ring", "conductor")],
    "quotient_ring.in_Rm": [("gabrielq.quotient_ring", "in_Rm")],
    "quotient_ring.rm_op": [("gabrielq.quotient_ring", "rm_add"),
                            ("gabrielq.quotient_ring", "rm_sub"),
                            ("gabrielq.quotient_ring", "rm_mul")],
    "ext_contr.rm_generators": [("gabrielq.ext_contr", "rm_generators")],
    "ext_contr.extend_ideal": [("gabrielq.ext_contr", "extend_ideal")],
    "ext_contr.contract_subq": [("gabrielq.ext_contr", "contract_subq")],
}
# wrapped for its counters only; not one of the reported layers
EXTRA = {"groebner.ideal_groebner": [("gabrielq.groebner", "Ideal.groebner")]}

EXTRA_METRICS = {
    "groebner.buchberger.elim.calls": "calls",
    "groebner.buchberger.elim.time_s": "s",
    "groebner.buchberger.degrevlex.time_s": "s",
    "groebner.buchberger.distinct_inputs": "count",
    "groebner.buchberger.max_coeff_bits": "bits",
    "groebner.buchberger.basis_terms": "terms",
    "groebner.ideal_groebner.calls": "calls",
    "groebner.ideal_groebner.cache_hits": "count",
    "groebner.ideal_quotient.elim_route": "count",
    "domain.ideal.distinct": "count",
    "quotient_ring.in_Rm.distinct": "count",
    "dim_filtration.unmixed_split.pieces": "count",
}

MAX_SPANS = 200_000  # spans kept for the JSON dump; counters see every call


def metric_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for name in LAYERS:
        units[f"{name}.calls"] = "calls"
        units[f"{name}.time_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(EXTRA_METRICS)
    return units


def _coeff_bits(c: Fraction) -> int:
    return max(c.numerator.bit_length(), c.denominator.bit_length())


class _Frame:
    __slots__ = ("name", "start", "child", "span", "flag")

    def __init__(self, name, start, span):
        self.name = name
        self.start = start
        self.child = 0.0
        self.span = span
        self.flag = False


class Tracer:
    def __init__(self):
        self.stack: list[_Frame] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op = -1
        self.enabled = True
        self.calls = {name: 0 for name in [*LAYERS, *EXTRA]}
        self.time = {name: 0.0 for name in [*LAYERS, *EXTRA]}
        self.self_time = {name: 0.0 for name in [*LAYERS, *EXTRA]}
        self.depth = {name: 0 for name in [*LAYERS, *EXTRA]}
        self.counts = {name: 0 for name in EXTRA_METRICS}
        self.times = {name: 0.0 for name in EXTRA_METRICS if name.endswith("time_s")}
        self.bb_inputs: set = set()
        self.ideals: set = set()
        self.fractions: set = set()
        self._undo: list = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for name, targets in [*LAYERS.items(), *EXTRA.items()]:
            for module_name, path in targets:
                owner = sys.modules[module_name]
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(owner, cls_name)
                    orig = cls.__dict__[attr]
                    self._bind(cls, attr, orig, self._wrap(name, orig))
                    continue
                orig = getattr(owner, path)
                wrapper = self._wrap(name, orig)
                # every module that imported the function by name
                for module in list(sys.modules.values()):
                    namespace = getattr(module, "__dict__", None)
                    if not namespace:
                        continue
                    for attr, value in list(namespace.items()):
                        if value is orig:
                            self._bind(module, attr, orig, wrapper)

    def _bind(self, owner, attr, orig, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, orig):
        tracer = self
        clock = time.perf_counter
        note = getattr(self, "_note_" + name.split(".")[-1], None)

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return orig(*args, **kwargs)
            if note is not None:
                args = note(args, before=True)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            if len(tracer.spans) < MAX_SPANS:
                span_id = len(tracer.spans)
                tracer.spans.append(None)  # filled in when the call ends
            else:
                span_id = None
                tracer.dropped += 1
            frame = _Frame(name, clock(), span_id)
            if parent is not None and name == "groebner.ideal_intersect" \
                    and parent.name == "groebner.ideal_quotient":
                parent.flag = True  # the quotient took the elimination route
            if name == "groebner.buchberger":
                for open_frame in stack:
                    if open_frame.name == "groebner.ideal_groebner":
                        open_frame.flag = True  # not answered from cache
            tracer.depth[name] += 1
            stack.append(frame)
            try:
                result = orig(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.depth[name] -= 1
                duration = end - frame.start
                tracer.calls[name] += 1
                if tracer.depth[name] == 0:
                    tracer.time[name] += duration
                tracer.self_time[name] += duration - frame.child
                if parent is not None:
                    parent.child += duration
                if span_id is not None:
                    tracer.spans[span_id] = (name, frame.start, end,
                                             parent.span if parent else None,
                                             tracer.op)
                tracer._after(name, frame, args, duration)
            if note is not None:
                note((args, result), before=False)
            return result
        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", name)
        return wrapper

    def _after(self, name, frame, args, duration) -> None:
        counts = self.counts
        if name == "groebner.buchberger":
            if args[1].kind == "elim":
                counts["groebner.buchberger.elim.calls"] += 1
                self.times["groebner.buchberger.elim.time_s"] += duration
            elif args[1].kind == "degrevlex":
                self.times["groebner.buchberger.degrevlex.time_s"] += duration
        elif name == "groebner.ideal_groebner" and not frame.flag:
            counts["groebner.ideal_groebner.cache_hits"] += 1
        elif name == "groebner.ideal_quotient" and frame.flag:
            counts["groebner.ideal_quotient.elim_route"] += 1

    # argument and result notes; `args` may be replaced before the call

    def _note_buchberger(self, payload, before):
        if before:
            gens, order = tuple(payload[0]), payload[1]
            self.bb_inputs.add((frozenset(gens), order))
            return (gens, order) + tuple(payload[2:])
        basis = payload[1]
        bits = self.counts["groebner.buchberger.max_coeff_bits"]
        terms = 0
        for g in basis:
            terms += len(g.terms)
            for c in g.terms.values():
                b = _coeff_bits(c)
                if b > bits:
                    bits = b
        self.counts["groebner.buchberger.max_coeff_bits"] = bits
        self.counts["groebner.buchberger.basis_terms"] += terms
        return None

    def _note_ideal(self, payload, before):
        if before:
            dom, gens = payload[0], tuple(payload[1])
            self.ideals.add((dom.vars, frozenset(gens)))
            return (dom, gens) + tuple(payload[2:])
        return None

    def _note_in_Rm(self, payload, before):
        if before:
            q = payload[0]
            self.fractions.add((q.dom.vars, q.num, q.den))
            return payload
        return None

    def _note_unmixed_split(self, payload, before):
        if not before:
            self.counts["dim_filtration.unmixed_split.pieces"] += len(payload[1])
        return payload if before else None

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        metrics = {}
        for name in LAYERS:
            metrics[f"{name}.calls"] = self.calls[name]
            metrics[f"{name}.time_s"] = self.time[name]
            metrics[f"{name}.self_s"] = self.self_time[name]
        counts = dict(self.counts)
        counts["groebner.buchberger.distinct_inputs"] = len(self.bb_inputs)
        counts["groebner.ideal_groebner.calls"] = self.calls["groebner.ideal_groebner"]
        counts["domain.ideal.distinct"] = len(self.ideals)
        counts["quotient_ring.in_Rm.distinct"] = len(self.fractions)
        counts.update(self.times)
        for name in EXTRA_METRICS:
            metrics[name] = counts[name]
        return metrics

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "dropped": self.dropped, "spans": self.spans}, fh)
