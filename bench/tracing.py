"""In-memory spans and the per-layer figures derived from them.

A span is recorded around each call from the benchmark into a layer:
name "<layer>.<function>", start, end, parent span, operation id.  Spans
come only from the benchmark's own files, so a call is opaque: a CLI
command, or a verify_solution_free call, charges all the work inside it to
its own layer.
"""
from __future__ import annotations

import statistics
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op_id: str | None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.duration - covered(children.get(i, [])) for i, s in enumerate(spans)]


def percentile(values: list[float], q: float) -> float:
    """The q-quantile by linear interpolation (statistics.quantiles, inclusive)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def op_fastest(spans: list[Span]) -> dict[int, tuple[str, float, float]]:
    """For each operation index: (layer, fastest duration, fastest self time)."""
    out: dict[int, tuple[str, float, float]] = {}
    for s, self_s in zip(spans, self_times(spans)):
        if s.parent is None:
            continue
        i = int(s.op_id.split(":")[1])
        _, d, x = out.get(i, (s.layer, s.duration, self_s))
        out[i] = (s.layer, min(d, s.duration), min(x, self_s))
    return out


def layer_figures(spans: list[Span], layers: list[str]) -> dict[str, dict]:
    """Per layer: busy_s and self_s (sums over its operations of their fastest
    time), operations per iteration, and call percentiles over all spans."""
    out = {name: {"busy_s": 0.0, "self_s": 0.0, "calls": 0, "samples": []} for name in layers}
    for layer, d, x in op_fastest(spans).values():
        out[layer]["busy_s"] += d
        out[layer]["self_s"] += x
        out[layer]["calls"] += 1
    for s in spans:
        if s.parent is not None:
            out[s.layer]["samples"].append(s.duration)
    for fig in out.values():
        d = fig.pop("samples")
        fig["samples"] = len(d)
        fig["call_p50_ms"] = 1e3 * percentile(d, 0.5) if d else 0.0
        fig["call_p90_ms"] = 1e3 * percentile(d, 0.9) if d else 0.0
    return out
