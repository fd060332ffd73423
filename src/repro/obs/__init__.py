"""repro.obs — causal span tracing, metrics, export, critical path.

The observability layer the paper's argument needs: *where does the
time go*? Flat counters (``sim/trace.py``) can say how many fences were
issued; only causally-linked spans can show that a strided get stalled
because the target's progress engine was busy computing (the default-
mode story) or that the async thread serviced it immediately (the AT
story, Section III-D).

Sub-modules:

- :mod:`repro.obs.span` — :class:`Span` / :class:`Obs`: causal spans
  with parent links that survive the AM request/reply handoff, wait-for
  edges, and per-rank lane bookkeeping.
- :mod:`repro.obs.export` — Chrome/Perfetto ``trace_event`` JSON,
  flat JSONL span dumps, metrics snapshots; all byte-stable.
- :mod:`repro.obs.critical_path` — walk the finished span DAG and
  attribute the full simulated makespan to categories.

Metrics have one home: the job's :class:`repro.sim.trace.Trace`. Span
durations land there as ``obs.span.<category>`` histograms, next to the
runtime's counters, dwell times and serving latency histograms.

The whole subsystem is gated by :class:`ObsConfig`: with
``enabled=False`` (the default) nothing is allocated and every hot-path
check is a single ``x.obs is None`` test.
"""

from .critical_path import CriticalPathReport, critical_path
from .export import (
    to_trace_events,
    validate_trace_events,
    write_metrics_json,
    write_perfetto,
    write_spans_jsonl,
)
from .span import Obs, ObsConfig, Span, context_lane

__all__ = [
    "Obs",
    "ObsConfig",
    "Span",
    "context_lane",
    "to_trace_events",
    "validate_trace_events",
    "write_perfetto",
    "write_spans_jsonl",
    "write_metrics_json",
    "critical_path",
    "CriticalPathReport",
]
