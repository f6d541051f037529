"""Experiment point functions and evaluation harnesses.

- :mod:`~repro.analysis.trace_eval` — trace-driven evaluation of
  routing policies (locality / load balance without the engine), used
  by the Fig. 10–12 experiments.
- :mod:`~repro.analysis.experiments` — one point function per
  experiment: what one cell of its campaign grid computes
  (``python -m repro.campaign run campaigns/<name>.yaml`` runs it).
- :mod:`~repro.analysis.telemetry` — loader for the JSONL telemetry
  the observability layer exports (spans, snapshots, metric dumps).
- :mod:`~repro.analysis.report` — plain-text table formatting, plus
  ``python -m repro.analysis.report <telemetry.jsonl>`` to render a
  run summary and per-round timelines from exported telemetry.
"""

from repro.analysis.telemetry import SpanRecord, TelemetryLog
from repro.analysis.trace_eval import (
    EvalResult,
    TwoHopEvaluator,
    weekly_series,
)

__all__ = [
    "TwoHopEvaluator",
    "EvalResult",
    "weekly_series",
    "TelemetryLog",
    "SpanRecord",
]
