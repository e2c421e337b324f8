"""Observability: tracing, live metrics, records and per-commit history.

Everything here *watches* the pipeline without perturbing it:

- :class:`~repro.observe.instruments.Instruments` bundles the observers
  of one run (tracer, metrics registry, network model) and attaches them
  to the ledger in one place; the invisibility contract they share is
  the "Invisibility contract" section of docs/OBSERVABILITY.md;
- the default :data:`~repro.observe.tracer.NULL_TRACER` makes tracing a
  single no-op method call when it is off;
- :mod:`repro.observe.records` renders result tables
  (:func:`~repro.observe.records.format_table`);
- history reporting (:mod:`repro.observe.history`) is *report-only*: it
  flags soft wall-time regressions across commits but never gates
  (``repro compare`` on metrics is the gate).

See ``docs/OBSERVABILITY.md`` for the span taxonomy and how it maps onto
the paper's stages.
"""

from repro.observe.cells import cell_label, print_timings
from repro.observe.history import (
    DEFAULT_MIN_SECONDS,
    DEFAULT_THRESHOLD,
    HISTORY_DIR,
    ServiceDrift,
    Slowdown,
    append_entry,
    detect_service_drift,
    detect_slowdowns,
    entry_from_artifact,
    history_path,
    list_suites,
    load_history,
    render_history,
    service_trend_rows,
    trend_rows,
)
from repro.observe.instruments import NO_INSTRUMENTS, Instruments
from repro.observe.metrics import (
    Counter,
    Gauge,
    LogHistogram,
    MetricsRegistry,
    WindowedSeries,
    exact_percentiles,
)
from repro.observe.records import ExperimentRecord, format_table
from repro.observe.tracer import (
    NULL_TRACER,
    NullTracer,
    SpanRecord,
    Tracer,
    aggregate_stage_rows,
    stage_rows,
)

__all__ = [
    "Instruments",
    "NO_INSTRUMENTS",
    "ExperimentRecord",
    "format_table",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "SpanRecord",
    "stage_rows",
    "aggregate_stage_rows",
    "cell_label",
    "print_timings",
    "Counter",
    "Gauge",
    "LogHistogram",
    "MetricsRegistry",
    "WindowedSeries",
    "exact_percentiles",
    "Slowdown",
    "ServiceDrift",
    "detect_service_drift",
    "service_trend_rows",
    "entry_from_artifact",
    "append_entry",
    "load_history",
    "list_suites",
    "history_path",
    "detect_slowdowns",
    "trend_rows",
    "render_history",
    "HISTORY_DIR",
    "DEFAULT_THRESHOLD",
    "DEFAULT_MIN_SECONDS",
]
