"""Observability: structured tracing, a metrics registry, and exporters.

Three pillars (see ``docs/observability.md``):

* :mod:`repro.obs.tracer`  -- the tracer protocol, the zero-cost null
  tracer, and the in-memory recording tracer;
* :mod:`repro.obs.metrics` -- named counters/histograms/timers folded
  into one stable dict, with views over the existing stats dataclasses;
* :mod:`repro.obs.export` / :mod:`repro.obs.stall` -- Chrome
  trace-event (Perfetto) JSON, JSONL event logs, and the per-processor
  per-cause stall tables that turn Figure 3 into numbers.

Plus the live-campaign plane:

* :mod:`repro.obs.progress` -- worker heartbeats (sent over the fleet's
  pipes, or folded in place by the parent) and their exactly-once fold,
  completion/ETA/straggler arithmetic, and the :class:`CampaignMonitor`
  that writes the atomically-replaced ``--status-json`` snapshot the
  ``status``/``top`` CLI renders;
* :mod:`repro.obs.lines`    -- the checksummed JSONL line codec of the
  verdict store.
"""

from repro import _lazy_exports

_EXPORTS = {
    "export": (
        "chrome_trace", "validate_chrome_trace", "validate_chrome_trace_file",
        "validate_status", "validate_status_file", "write_chrome_trace",
        "write_jsonl",
    ),
    "metrics": (
        "Counter", "Histogram", "MetricsRegistry", "Timer", "explorer_metrics",
        "run_metrics", "stream_metrics",
    ),
    "progress": (
        "CampaignMonitor", "ProgressEngine", "STATUS_SCHEMA", "StreamFold",
        "render_status",
    ),
    "stall": (
        "CAUSE_ORDER", "render_event_stream", "render_stall_comparison",
        "render_stall_table", "stall_breakdown",
    ),
    "tracer": (
        "NULL_TRACER", "NullTracer", "OBS_CLOCK", "OBS_CLOCK_EPOCH",
        "RecordingTracer", "TraceEvent", "Tracer", "now_us",
    ),
}
__all__ = _lazy_exports(__name__, _EXPORTS)
