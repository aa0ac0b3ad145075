"""Spans around the calls into each layer, recorded from outside the package.

A public function is wrapped at the module attribute its caller resolves
(``gallai.cli.realize``, ``gallai.construct.color_degrees``, ...), so a
call from ``cli`` into ``construct`` and one from ``construct`` into
``coloring`` each open a span.  A span's self time is its duration minus
the time of the spans it encloses, and the wrapper's own bookkeeping is
charged to no layer.

Two modes, never mixed in one cycle, because tracemalloc slows the
package several times over and would distort self times:

* ``timing``: every site below; spans are kept in memory.
* ``memory``: only the layers that report a peak; tracemalloc runs
  inside their outermost calls and each call records its own peak.
"""

from __future__ import annotations

import itertools
import json
import sys
import tracemalloc
from collections import defaultdict, namedtuple
from time import perf_counter

import referee as ref

# module -> {attribute: span name}; the span name's first part is the layer.
SITES = {
    "cli": {
        "main": "cli",
        "check_sequence": "feasibility",
        "realize": "construct",
        "chain_coloring": "construct",
        "uniform_coloring": "construct",
        "find_rainbow_triangle": "coloring.scan",
        "color_degrees": "coloring.degrees",
        "parse_document": "document.parse",
        "render_document": "document.render",
        "render_dot": "document.render",
        "crosscheck": "oracle.crosscheck",
        "brute_force_gallai_partition": "oracle.partition",
    },
    "construct": {
        "check_sequence": "feasibility",
        "color_degrees": "coloring.degrees",
        "normalize_colors": "coloring.normalize",
    },
    "structure": {
        "find_rainbow_triangle": "coloring.scan",
        "color_degrees": "coloring.degrees",
        # called by the benchmark itself
        "find_disconnected_color": "structure",
        "compress_component": "structure",
        "recover_chain_order": "structure",
        "prefix_color_bound_report": "structure",
    },
    "oracle": {
        "find_rainbow_triangle": "coloring.scan",
        "color_degrees": "coloring.degrees",
        "check_sequence": "feasibility",
    },
}

LAYERS = ("cli", "feasibility", "construct", "coloring", "document", "structure", "oracle")
MEMORY_LAYERS = ("feasibility", "construct", "document")


# Work counts of one call, from its arguments, result and the stdout
# position when it started.
WORK = {
    "cli": lambda args, result, before: {"out_bytes": sys.stdout.tell() - before},
    "feasibility": lambda args, result, before: {
        "terms": result.n, "slack_bits": sum(s.bit_length() for s in result.slacks)},
    "construct": lambda args, result, before: {"pairs_out": len(result.colors)},
    "coloring.scan": lambda args, result, before: {
        "triples": ref.triples_scanned(args[0].n, result and result.vertices)},
    "document.render": lambda args, result, before: {"bytes": len(result)},
    "document.parse": lambda args, result, before: {"bytes": len(args[0])},
}
WORK_KEYS = {"cli": ("out_bytes",), "feasibility": ("terms", "slack_bits"), "construct": ("pairs_out",),
             "coloring.scan": ("triples",), "document.render": ("bytes",), "document.parse": ("bytes",)}


Span = namedtuple("Span", "request id parent name start end self_s ok work")


class Tracer:
    def __init__(self, gallai, mode: str):
        self.mode = mode
        self.modules = {name: getattr(gallai, name) for name in SITES}
        self.spans: list[tuple] = []
        self.request = None  # identifier shared by the spans of one request
        self._stack: list[list] = []
        self._saved: list[tuple] = []
        self._ids = itertools.count()

    def __enter__(self):
        for mod_name, attrs in SITES.items():
            module = self.modules[mod_name]
            for attr, name in attrs.items():
                if self.mode == "memory" and name.split(".")[0] not in MEMORY_LAYERS:
                    continue
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                wrap = self._timed if self.mode == "timing" else self._measured
                setattr(module, attr, wrap(name, fn))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _timed(self, name, fn):
        stack, spans, ids = self._stack, self.spans, self._ids

        def traced(*args, **kwargs):
            enter = perf_counter()
            frame = [0.0, next(ids)]  # time inside child wrappers, span id
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            before = sys.stdout.tell() if name == "cli" else 0
            ok = result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                work = WORK[name](args, result, before) if ok and name in WORK else {}
                spans.append(Span(self.request, frame[1], parent, name, t0, t1, t1 - t0 - frame[0], bool(ok), work))
                if stack:
                    stack[-1][0] += perf_counter() - enter

        return traced

    def _measured(self, name, fn):
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            outermost = not stack
            if outermost:
                tracemalloc.start()
            else:
                # the enclosing call keeps the peak it reached so far
                stack[-1][1] = max(stack[-1][1], tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            frame = [tracemalloc.get_traced_memory()[0], 0]  # start, peak seen
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                peak = max(frame[1], tracemalloc.get_traced_memory()[1])
                spans.append((self.request, name, peak - frame[0]))
                if outermost:
                    tracemalloc.stop()
                else:
                    stack[-1][1] = max(stack[-1][1], peak)

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span._asdict()) + "\n")


def layer_metrics(timing: Tracer, memory: Tracer, cycles: int, overhead: float, names) -> dict:
    """The per-layer metrics ``names``, per cycle, from one timing and one
    memory tracer.  For a span name or layer x they are x.calls, x.self_s,
    x.errors, x.peak_alloc_kb (largest single call, in KiB) and the work
    counts x.<key> of WORK."""
    spans = {name for attrs in SITES.values() for name in attrs.values()}
    totals = {f"{x}.{m}": 0.0 for x in spans | set(LAYERS) for m in ("calls", "self_s", "errors")}
    totals.update({f"{x}.{key}": 0.0 for x, keys in WORK_KEYS.items() for key in keys})
    for span in timing.spans:
        for x in {span.name, span.name.split(".")[0]}:
            totals[f"{x}.calls"] += 1
            totals[f"{x}.self_s"] += span.self_s
            totals[f"{x}.errors"] += not span.ok
        for key, value in span.work.items():
            totals[f"{span.name}.{key}"] += value
    out = {key: value / cycles for key, value in totals.items()}
    out.update({f"{layer}.peak_alloc_kb": 0.0 for layer in MEMORY_LAYERS})
    for _req, name, size in memory.spans:
        key = name.split(".")[0] + ".peak_alloc_kb"
        out[key] = max(out[key], size / 1024)
    out["trace.overhead_ratio"] = overhead
    unknown = set(names) - set(out)
    if unknown:
        raise KeyError(f"no per-layer metric {sorted(unknown)}")
    return {name: out[name] for name in names}


def layer_shares(timing: Tracer) -> dict:
    """Each layer's share of all self time, for the run report."""
    own = defaultdict(float)
    for span in timing.spans:
        own[span.name.split(".")[0]] += span.self_s
    total = sum(own.values()) or 1.0
    return {layer: round(own[layer] / total, 4) for layer in LAYERS}
