"""In-process tracing of qfiber's layers, installed from outside the program.

The layers are the package modules.  `install` replaces every public
function that one layer imports from another (for example `cli.residue_sums`,
`verify.reconstruct`, `heisenberg.count_by_residue`) with a wrapper, because
a `from .x import f` binding is not affected by patching the defining
module.  It also wraps `qbinomial.gaussian_coefficients` where `residue_sums`
calls it, so that the kernel's output size is seen on both commands.

Per-command calls get a span (name, layer, start, end, parent, op id and the
time covered by child calls).  The per-element calls of the covering round
trip only add to an aggregate count and time.  Spans stay in memory until
`Tracer.dump`; `summarize` turns dumps into per-layer metrics.
"""

from __future__ import annotations

import importlib
import inspect
from time import perf_counter

LAYERS = ("partitions", "qbinomial", "surjections", "heisenberg", "verify", "cli")

# Called once per covering point; a span each would cost more than the call.
ELEMENT_CALLS = {"CoveringPoint", "reconstruct", "relative_positions", "shift_action"}

# Bindings inside the layer that defines them and still wrapped: the kernel
# behind `residue_sums`, and the enumerator behind `orbits`.
INTRA_LAYER = {("qbinomial", "gaussian_coefficients"), ("surjections", "enumerate_step_sequences")}

# Generators whose yielded items are counted, by the counter they feed.
COUNTED_GENERATORS = {"enumerate_step_sequences": "surjections.sequences_enumerated"}

# Span fields.
NAME, LAYER, START, END, PARENT, OP, CHILD = range(7)


def _count_result(counters: dict, name: str, result) -> None:
    """Work counts read off a layer's return value.  A result of another
    shape than the seed commit's is not counted rather than breaking the
    traced command."""
    try:
        if name == "gaussian_coefficients":
            counters["qbinomial.coeffs_out"] += len(result)
        elif name == "delta_fiber_sizes":
            counters["heisenberg.gap_vectors_enumerated"] += sum(result)
        elif name == "orbits":
            counters["surjections.orbits_out"] += len(result)
        elif name == "run_suite":
            counters["verify.checks"] += len(result)
            counters["verify.checks_failed"] += sum(1 for report in result if report.status != "pass")
    except (TypeError, AttributeError):
        pass


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.elements = {layer: [0, 0.0] for layer in LAYERS}
        self.counters = {
            "qbinomial.coeffs_out": 0,
            "heisenberg.gap_vectors_enumerated": 0,
            "surjections.orbits_out": 0,
            "surjections.sequences_enumerated": 0,
            "verify.checks": 0,
            "verify.checks_failed": 0,
        }
        self.memoized: dict[str, list] = {layer: [] for layer in LAYERS}

    def span(self, layer: str, name: str, fn):
        spans, stack, counters = self.spans, self.stack, self.counters

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, layer, 0.0, 0.0, parent, self.op, 0.0]
            stack.append(len(spans))
            spans.append(record)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                record[START], record[END] = start, end
                if parent >= 0:
                    spans[parent][CHILD] += end - start
            _count_result(counters, name, result)
            return result

        return traced

    def element(self, layer: str, fn):
        spans, stack, aggregate = self.spans, self.stack, self.elements[layer]

        def counted(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            aggregate[0] += 1
            aggregate[1] += elapsed
            if stack:
                spans[stack[-1]][CHILD] += elapsed
            return result

        return counted

    def yielded(self, counter: str, fn):
        counters = self.counters

        def counting(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counters[counter] += 1
                yield item

        return counting

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"qfiber.{layer}") for layer in LAYERS}
        owners = {module.__name__: layer for layer, module in modules.items()}
        for layer, module in modules.items():
            self.memoized[layer] = [f for f in vars(module).values() if hasattr(f, "cache_info")]
        for caller, module in modules.items():
            for name, value in list(vars(module).items()):
                owner = owners.get(getattr(value, "__module__", None))
                if name.startswith("_") or owner is None:
                    continue
                if owner == caller and (caller, name) not in INTRA_LAYER:
                    continue
                if name in ELEMENT_CALLS:
                    setattr(module, name, self.element(owner, value))
                elif name in COUNTED_GENERATORS:
                    setattr(module, name, self.yielded(COUNTED_GENERATORS[name], value))
                elif callable(value) and not inspect.isclass(value) and not inspect.isgeneratorfunction(value):
                    setattr(module, name, self.span(owner, name, value))

    def dump(self) -> dict:
        memo = {}
        for layer, functions in self.memoized.items():
            infos = [f.cache_info() for f in functions]
            memo[layer] = [sum(i.hits for i in infos), sum(i.misses for i in infos)]
        return {
            "spans": self.spans,
            "elements": self.elements,
            "counters": self.counters,
            "memo": memo,
        }


def summarize(dumps: list[dict]) -> dict[str, float]:
    """Per-layer calls, busy time and self time, work counters and memo hit
    ratios over the dumps of several traced interpreters.

    A layer's calls are the spans entered from another layer plus its
    per-element calls; its busy time is their duration; its self time is
    the duration of all its spans less the time their child calls cover.
    """
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = 0
        metrics[f"{layer}.busy_s"] = 0.0
        metrics[f"{layer}.self_s"] = 0.0
    memo = {layer: [0, 0] for layer in LAYERS}
    for dump in dumps:
        spans = dump["spans"]
        for span in spans:
            layer, duration = span[LAYER], span[END] - span[START]
            metrics[f"{layer}.self_s"] += duration - span[CHILD]
            if span[PARENT] < 0 or spans[span[PARENT]][LAYER] != layer:
                metrics[f"{layer}.calls"] += 1
                metrics[f"{layer}.busy_s"] += duration
        for layer, (calls, seconds) in dump["elements"].items():
            metrics[f"{layer}.calls"] += calls
            metrics[f"{layer}.busy_s"] += seconds
            metrics[f"{layer}.self_s"] += seconds
        for name, value in dump["counters"].items():
            metrics[name] = metrics.get(name, 0) + value
        for layer, (hits, misses) in dump["memo"].items():
            memo[layer][0] += hits
            memo[layer][1] += misses
    for layer in ("qbinomial", "partitions"):
        hits, misses = memo[layer]
        metrics[f"{layer}.memo_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["heisenberg.point_ops"] = sum(dump["elements"]["heisenberg"][0] for dump in dumps)
    return metrics
