"""Trace summarization: turn a JSONL trace into human-readable analytics.

``repro obs report TRACE.jsonl`` is the read side of the tracing layer: it
ranks spans by name (count, cumulative and max duration, share of the run),
surfaces the counter and gauge totals, and derives throughput figures such
as configs/sec for sweep runs.  Spans, counters and gauges come from the
``manifest`` event, whose aggregates include the spans that ran in worker
processes; a truncated trace without one falls back to its own span events
and to summing its per-job events.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

__all__ = ["TraceSummary", "summarize_trace", "render_summary"]


@dataclass
class TraceSummary:
    """Aggregated view of one JSONL trace."""

    path: str
    events: int = 0
    duration_s: Optional[float] = None
    argv: List[str] = field(default_factory=list)
    #: span name -> {"count", "total_s", "max_s"}
    spans: Dict[str, Dict[str, float]] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    truncated: bool = False

    def top_spans(self, limit: int = 10) -> List[tuple]:
        """Spans ranked by cumulative time: ``(name, count, total_s, max_s)``."""
        ranked = sorted(self.spans.items(), key=lambda kv: -kv[1]["total_s"])
        return [
            (name, int(v["count"]), v["total_s"], v["max_s"])
            for name, v in ranked[:limit]
        ]

    @property
    def configs_per_sec(self) -> Optional[float]:
        """Sweep throughput, when the trace carries the sweep counters."""
        resolved = self.counters.get("sweeps.configs_resolved")
        if not resolved or not self.duration_s:
            return None
        return resolved / self.duration_s


def summarize_trace(path: Union[str, Path]) -> TraceSummary:
    """Parse one JSONL trace file into a :class:`TraceSummary`.

    Unparseable lines are tolerated (a crashed run can leave a torn final
    line); a trace without a ``manifest`` event is summarized from its span
    and job events alone and marked ``truncated``.  Span events are written
    by the tracing process only, so with a manifest the span table comes from
    its merged ``timings`` instead, which cover worker processes too.
    """
    path = Path(path)
    summary = TraceSummary(path=str(path))
    event_spans: Dict[str, Dict[str, float]] = {}
    job_counters: Dict[str, int] = {}
    job_gauges: Dict[str, float] = {}
    saw_manifest = False
    with path.open() as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                summary.truncated = True
                continue
            summary.events += 1
            kind = event.get("type")
            if kind == "begin":
                summary.argv = list(event.get("argv", []))
            elif kind == "span":
                entry = event_spans.setdefault(
                    event.get("name", "?"),
                    {"count": 0, "total_s": 0.0, "max_s": 0.0},
                )
                dur = float(event.get("dur_s", 0.0))
                entry["count"] += 1
                entry["total_s"] += dur
                if dur > entry["max_s"]:
                    entry["max_s"] = dur
            elif kind == "job":
                for name, value in event.get("counters", {}).items():
                    job_counters[name] = job_counters.get(name, 0) + int(value)
                for name, value in event.get("gauges", {}).items():
                    job_gauges[name] = job_gauges.get(name, 0.0) + float(value)
            elif kind == "manifest":
                saw_manifest = True
                summary.duration_s = float(event.get("duration_s", 0.0))
                summary.counters = {
                    k: int(v) for k, v in event.get("counters", {}).items()
                }
                summary.gauges = {
                    k: float(v) for k, v in event.get("gauges", {}).items()
                }
                summary.spans = {
                    name: dict(v) for name, v in event.get("timings", {}).items()
                }
                if not summary.argv:
                    summary.argv = list(event.get("argv", []))
    if not saw_manifest:
        summary.truncated = True
        summary.counters = job_counters
        summary.gauges = job_gauges
        summary.spans = event_spans
    return summary


def render_summary(summary: TraceSummary, *, top: int = 10) -> str:
    """Format a :class:`TraceSummary` as the ``repro obs report`` output."""
    from repro.reporting.tables import TextTable

    lines = [f"trace   : {summary.path}"]
    if summary.argv:
        lines.append(f"command : {' '.join(summary.argv)}")
    lines.append(f"events  : {summary.events}")
    if summary.duration_s is not None:
        lines.append(f"duration: {summary.duration_s:.3f}s")
    rate = summary.configs_per_sec
    if rate is not None:
        lines.append(f"sweep   : {rate:,.2f} configs/sec")
    if summary.truncated:
        lines.append("WARNING : trace has no manifest event (truncated run?)")

    if summary.spans:
        total = sum(v["total_s"] for v in summary.spans.values())
        table = TextTable(["span", "count", "total s", "max s", "share"])
        for name, count, total_s, max_s in summary.top_spans(top):
            share = 0.0 if total == 0 else 100.0 * total_s / total
            table.add_row(
                [name, count, f"{total_s:.4f}", f"{max_s:.4f}", f"{share:.1f}%"]
            )
        lines += ["", "top spans by cumulative time:", table.render()]

    if summary.counters:
        table = TextTable(["counter", "total"])
        for name in sorted(summary.counters):
            table.add_row([name, summary.counters[name]])
        lines += ["", "counter totals:", table.render()]

    if summary.gauges:
        table = TextTable(["gauge (scheduling-dependent)", "total"])
        for name in sorted(summary.gauges):
            value = summary.gauges[name]
            table.add_row([name, f"{value:g}"])
        lines += ["", "gauge totals:", table.render()]
    return "\n".join(lines)
