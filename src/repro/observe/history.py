"""Append-only per-commit performance history (Perun-style profile store).

``repro compare`` gates two artifacts by hand; the history store makes the
system *remember*: every appended sweep artifact becomes one JSON line in
``benchmarks/history/<suite>.jsonl`` carrying the commit, per-cell wall
times, and (when the sweep was traced) the per-stage breakdown.  The trend
report then shows each cell's wall time across the last N commits and
flags *soft* regressions -- latest wall time above the median of the
preceding entries by more than a relative threshold AND an absolute floor.

Soft means soft: wall time measures the machine as much as the algorithm,
so history reporting never gates (exit code 0 always; ``repro compare``
remains the metric gate).  Entry schema::

    {"kind": "history", "schema": "repro.observe.history",
     "schema_version": 1, "suite": ..., "spec_hash": ..., "commit": ...,
     "created_utc": ..., "total_wall_time_s": ...,
     "cells": [{"key": ..., "label": ..., "status": ...,
                "wall_time_s": ..., "stages": {name: {"wall_time_s": ...,
                "rounds_h": ..., "rounds_g": ..., "message_bits": ...}},
                "service": {"repair_ms_p50": ..., "repair_ms_p95": ...,
                "repair_ms_p99": ..., "updates_per_sec": ...,
                "queue_ms_p99": ..., "violation_batches": ...,
                "slo_pass": ...}}]}

``stages`` is present only for cells that carried a ``trace`` section
(``repro sweep --trace``); its names are the top-level span names of
:mod:`repro.observe.tracer`.  ``service`` is present only for cells whose
metrics carried latency percentiles (stream and service cells) -- an
*additive* extension, so version-1 entries written before it existed
still load and render.  Service drift detection mirrors the wall-time
soft regressions: ``repair_ms_p99`` rising or ``updates_per_sec``
falling against the recent median is flagged, report-only.
"""

from __future__ import annotations

import json
import pathlib
import statistics
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.observe.records import format_table

if TYPE_CHECKING:  # import cycle: experiments.runner itself uses the tracer
    from repro.experiments.artifacts import Artifact

HISTORY_SCHEMA = "repro.observe.history"
HISTORY_SCHEMA_VERSION = 1

#: Default store location, next to the sweep artifacts.
HISTORY_DIR = (
    pathlib.Path(__file__).resolve().parents[3] / "benchmarks" / "history"
)

#: Soft-regression defaults: latest must exceed the baseline median by 25%
#: *and* by 50 ms before it is flagged (tiny cells are all machine noise).
DEFAULT_THRESHOLD = 0.25
DEFAULT_MIN_SECONDS = 0.05


def _cell_label(cell: dict[str, Any]) -> str:
    from repro.experiments.spec import Cell

    return Cell.from_dict(cell).label()


def _stage_breakdown(trace: dict[str, Any] | None) -> dict[str, Any] | None:
    """Collapse a cell's trace section to per-stage totals (top-level spans
    merged by name; repeated spans -- e.g. ``stream.batch`` -- sum)."""
    if not trace:
        return None
    from repro.observe.tracer import aggregate_stage_rows, stage_rows

    stages: dict[str, Any] = {}
    for row in aggregate_stage_rows(stage_rows(trace)):
        stages[row["stage"]] = {
            "wall_time_s": round(row["wall_s"], 6),
            "rounds_h": row["rounds_h"],
            "rounds_g": row["rounds_g"],
            "message_bits": row["bits"],
        }
        if row.get("makespan_ms"):
            # hetnet cells only -- absent keys keep homogeneous history
            # entries byte-identical to pre-hetnet ones
            stages[row["stage"]]["makespan_ms"] = round(row["makespan_ms"], 6)
    return stages or None


#: Metrics lifted from a cell's metrics dict into its history ``service``
#: sub-dict (when present): the latency/throughput scalars the service
#: trend report tracks across commits.
SERVICE_HISTORY_METRICS = (
    "repair_ms_p50",
    "repair_ms_p95",
    "repair_ms_p99",
    "updates_per_sec",
    "queue_ms_p99",
    "latency_ms_p99",
    "violation_batches",
    "slo_pass",
)


def _service_fields(metrics: dict[str, Any] | None) -> dict[str, Any] | None:
    """The service sub-dict of one cell (None when the cell has no
    latency percentiles -- one-shot cells)."""
    if not metrics or metrics.get("repair_ms_p99") is None:
        return None
    return {
        k: metrics[k] for k in SERVICE_HISTORY_METRICS if metrics.get(k) is not None
    }


def entry_from_artifact(artifact: Artifact) -> dict[str, Any]:
    """Convert one sweep artifact into a history entry (no I/O)."""
    header = artifact.header
    cells = []
    total = 0.0
    for record in artifact.records:
        wall = record.get("wall_time_s")
        cell = {
            "key": record.get("key"),
            "label": _cell_label(record.get("cell", {})),
            "status": record.get("status"),
            "wall_time_s": wall,
        }
        stages = _stage_breakdown(record.get("trace"))
        if stages:
            cell["stages"] = stages
        service = _service_fields(record.get("metrics"))
        if service:
            cell["service"] = service
        cells.append(cell)
        if record.get("status") == "ok" and wall is not None:
            total += float(wall)
    return {
        "kind": "history",
        "schema": HISTORY_SCHEMA,
        "schema_version": HISTORY_SCHEMA_VERSION,
        "suite": artifact.suite,
        "spec_hash": artifact.spec_hash,
        "commit": header.get("git_rev", "unknown"),
        "created_utc": header.get("created_utc"),
        "total_wall_time_s": round(total, 4),
        "cells": cells,
    }


def history_path(suite: str, history_dir: str | pathlib.Path | None = None) -> pathlib.Path:
    """``<history_dir>/<suite>.jsonl`` (default dir: ``benchmarks/history``)."""
    directory = pathlib.Path(history_dir) if history_dir else HISTORY_DIR
    return directory / f"{suite}.jsonl"


def append_entry(
    entry: dict[str, Any], history_dir: str | pathlib.Path | None = None
) -> pathlib.Path:
    """Append one entry to its suite's history file (append-only store)."""
    path = history_path(entry["suite"], history_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as sink:
        sink.write(json.dumps(entry, sort_keys=True) + "\n")
    return path


def load_history(
    suite: str, history_dir: str | pathlib.Path | None = None
) -> list[dict[str, Any]]:
    """All entries of a suite's history file, oldest first (empty list when
    the suite has no history yet)."""
    path = history_path(suite, history_dir)
    if not path.is_file():
        return []
    entries = []
    with open(path) as source:
        for lineno, line in enumerate(source, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON ({exc})") from exc
            if obj.get("schema") != HISTORY_SCHEMA:
                raise ValueError(
                    f"{path}:{lineno}: schema {obj.get('schema')!r} is not "
                    f"{HISTORY_SCHEMA!r}"
                )
            if obj.get("schema_version") != HISTORY_SCHEMA_VERSION:
                raise ValueError(
                    f"{path}:{lineno}: schema_version "
                    f"{obj.get('schema_version')} unsupported"
                )
            entries.append(obj)
    return entries


def list_suites(history_dir: str | pathlib.Path | None = None) -> list[str]:
    """Suites that have a history file in the store."""
    directory = pathlib.Path(history_dir) if history_dir else HISTORY_DIR
    if not directory.is_dir():
        return []
    return sorted(p.stem for p in directory.glob("*.jsonl"))


# ---- trend + soft regression detection --------------------------------------


@dataclass
class Slowdown:
    """One flagged soft regression: a cell (or the suite total) whose latest
    wall time exceeds the baseline median of the preceding entries."""

    label: str
    baseline_s: float  #: median wall time over the preceding entries
    latest_s: float
    commits: int  #: number of history entries the baseline summarizes

    @property
    def relative(self) -> float:
        """Fractional slowdown of latest over baseline."""
        if self.baseline_s <= 0:
            return float("inf") if self.latest_s > 0 else 0.0
        return self.latest_s / self.baseline_s - 1.0


def _wall_series(entries: list[dict[str, Any]]) -> dict[str, list[float | None]]:
    """Per-cell wall-time series across entries (None where a cell is
    missing or not ok), keyed by cell key; plus the ``__total__`` series."""
    series: dict[str, list[float | None]] = {"__total__": []}
    labels: dict[str, str] = {}
    for i, entry in enumerate(entries):
        for cell in entry.get("cells", ()):
            key = cell.get("key") or cell.get("label")
            labels[key] = cell.get("label", key)
            column = series.setdefault(key, [None] * i)
            wall = cell.get("wall_time_s")
            column.append(
                float(wall)
                if cell.get("status") == "ok" and wall is not None
                else None
            )
        total = entry.get("total_wall_time_s")
        series["__total__"].append(float(total) if total is not None else None)
        for column in series.values():  # pad cells absent from this entry
            while len(column) <= i:
                column.append(None)
    series_labels = {k: labels.get(k, k) for k in series}
    series_labels["__total__"] = "(suite total)"
    return {series_labels[k] if k != "__total__" else "(suite total)": v
            for k, v in series.items()}


def detect_slowdowns(
    entries: list[dict[str, Any]],
    *,
    last_n: int = 10,
    threshold: float = DEFAULT_THRESHOLD,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> list[Slowdown]:
    """Flag cells whose latest wall time regressed against recent history.

    The baseline is the *median* of each cell's ok wall times over the
    preceding ``last_n - 1`` entries (median shrugs off one noisy commit);
    the latest entry regresses softly when it exceeds the baseline by both
    the relative ``threshold`` and the absolute ``min_seconds`` floor.
    Needs at least two entries; returns the flags sorted worst-first.
    """
    if len(entries) < 2:
        return []
    window = entries[-last_n:]
    flags: list[Slowdown] = []
    for label, column in _wall_series(window).items():
        latest = column[-1]
        prior = [w for w in column[:-1] if w is not None]
        if latest is None or not prior:
            continue
        baseline = statistics.median(prior)
        if latest > baseline * (1 + threshold) and latest - baseline > min_seconds:
            flags.append(
                Slowdown(
                    label=label,
                    baseline_s=baseline,
                    latest_s=latest,
                    commits=len(prior),
                )
            )
    flags.sort(key=lambda s: s.relative, reverse=True)
    return flags


@dataclass
class ServiceDrift:
    """One flagged service-metric drift: a cell whose latest latency
    percentile rose (or throughput fell) against the recent median.
    Report-only, like :class:`Slowdown` -- wall-derived metrics never
    gate."""

    label: str
    metric: str  #: e.g. ``repair_ms_p99`` or ``updates_per_sec``
    baseline: float  #: median over the preceding entries
    latest: float
    commits: int
    direction: str  #: ``"up"`` (higher is worse) or ``"down"`` (lower is worse)

    @property
    def relative(self) -> float:
        """Fractional drift of latest against baseline, signed so that
        positive always means worse."""
        if self.baseline <= 0:
            return float("inf") if self.latest > 0 and self.direction == "up" else 0.0
        change = self.latest / self.baseline - 1.0
        return change if self.direction == "up" else -change


def _service_series(
    entries: list[dict[str, Any]], metric: str
) -> dict[str, list[float | None]]:
    """Per-cell series of one service metric across entries, keyed by cell
    label (None where the cell is missing, failed, or pre-service)."""
    series: dict[str, list[float | None]] = {}
    labels: dict[str, str] = {}
    for i, entry in enumerate(entries):
        for cell in entry.get("cells", ()):
            service = cell.get("service")
            if service is None:
                continue
            key = cell.get("key") or cell.get("label")
            labels[key] = cell.get("label", key)
            column = series.setdefault(key, [None] * i)
            value = service.get(metric)
            column.append(
                float(value)
                if cell.get("status") == "ok" and value is not None
                else None
            )
        for column in series.values():
            while len(column) <= i:
                column.append(None)
    return {labels.get(k, k): v for k, v in series.items()}


#: Service metrics drift detection watches, with the direction that is
#: worse: p99 repair latency rising, sustained throughput falling.
SERVICE_DRIFT_METRICS = (
    ("repair_ms_p99", "up"),
    ("updates_per_sec", "down"),
)


def detect_service_drift(
    entries: list[dict[str, Any]],
    *,
    last_n: int = 10,
    threshold: float = DEFAULT_THRESHOLD,
) -> list[ServiceDrift]:
    """Flag service cells whose latency p99 rose or throughput fell beyond
    ``threshold`` against the median of the preceding entries.  Same
    median-of-recent-history shape as :func:`detect_slowdowns`; needs at
    least two entries with service data; report-only by contract."""
    if len(entries) < 2:
        return []
    window = entries[-last_n:]
    flags: list[ServiceDrift] = []
    for metric, direction in SERVICE_DRIFT_METRICS:
        for label, column in _service_series(window, metric).items():
            latest = column[-1]
            prior = [v for v in column[:-1] if v is not None]
            if latest is None or not prior:
                continue
            baseline = statistics.median(prior)
            if baseline <= 0:
                continue
            change = latest / baseline - 1.0
            drifted = (
                change > threshold if direction == "up" else change < -threshold
            )
            if drifted:
                flags.append(
                    ServiceDrift(
                        label=label,
                        metric=metric,
                        baseline=baseline,
                        latest=latest,
                        commits=len(prior),
                        direction=direction,
                    )
                )
    flags.sort(key=lambda d: d.relative, reverse=True)
    return flags


def service_trend_rows(
    entries: list[dict[str, Any]], *, last_n: int = 10
) -> list[dict[str, Any]]:
    """Table-ready per-cell service trend over the last ``last_n`` entries:
    latest p50/p95/p99 repair latency, sustained updates/sec with its
    baseline median, and the SLO verdict.  Empty when no entry carries
    service data (pre-service history files)."""
    window = entries[-last_n:]
    latest_entry = window[-1] if window else {}
    p99_series = _service_series(window, "repair_ms_p99")
    ups_series = _service_series(window, "updates_per_sec")
    latest_cells = {
        (c.get("label") or c.get("key")): c
        for c in latest_entry.get("cells", ())
        if c.get("service") is not None
    }
    rows = []
    for label, cell in sorted(latest_cells.items()):
        service = cell["service"]
        ups_column = ups_series.get(label, [])
        ups_prior = [v for v in ups_column[:-1] if v is not None]
        p99_column = p99_series.get(label, [])
        p99_prior = [v for v in p99_column[:-1] if v is not None]
        rows.append(
            {
                "cell": label,
                "p50_ms": service.get("repair_ms_p50", ""),
                "p95_ms": service.get("repair_ms_p95", ""),
                "p99_ms": service.get("repair_ms_p99", ""),
                "p99_baseline_ms": (
                    f"{statistics.median(p99_prior):.3f}" if p99_prior else ""
                ),
                "updates_per_sec": service.get("updates_per_sec", ""),
                "ups_baseline": (
                    f"{statistics.median(ups_prior):.1f}" if ups_prior else ""
                ),
                "violations": service.get("violation_batches", ""),
                "slo": (
                    ""
                    if service.get("slo_pass") is None
                    else ("ok" if service.get("slo_pass") else "FAIL")
                ),
            }
        )
    return rows


def trend_rows(
    entries: list[dict[str, Any]], *, last_n: int = 10
) -> list[dict[str, Any]]:
    """Table-ready per-cell trend over the last ``last_n`` entries: baseline
    median, latest wall time, and the relative delta (slowest-latest first)."""
    window = entries[-last_n:]
    rows = []
    for label, column in _wall_series(window).items():
        present = [w for w in column if w is not None]
        if not present:
            continue
        latest = column[-1]
        prior = [w for w in column[:-1] if w is not None]
        baseline = statistics.median(prior) if prior else None
        delta = ""
        if baseline and latest is not None and baseline > 0:
            delta = f"{latest / baseline - 1.0:+.1%}"
        rows.append(
            {
                "cell": label,
                "entries": len(present),
                "baseline_s": f"{baseline:.3f}" if baseline is not None else "",
                "latest_s": f"{latest:.3f}" if latest is not None else "--",
                "delta": delta,
                "_sort": latest if latest is not None else -1.0,
            }
        )
    rows.sort(key=lambda r: r["_sort"], reverse=True)
    for row in rows:
        del row["_sort"]
    return rows


def render_history(
    entries: list[dict[str, Any]],
    *,
    last_n: int = 10,
    threshold: float = DEFAULT_THRESHOLD,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> str:
    """Human-readable trend report (the ``repro history`` output): commit
    strip, per-cell trend table, and SOFT REGRESSION lines.  Report-only by
    contract -- callers must not turn this into a gate."""
    if not entries:
        return "no history entries"
    window = entries[-last_n:]
    suite = window[-1].get("suite", "?")
    commits = " -> ".join(
        f"{e.get('commit', '?')}({e.get('total_wall_time_s', '?')}s)"
        for e in window
    )
    lines = [
        f"suite {suite!r}: {len(entries)} history entries "
        f"(showing last {len(window)})",
        f"commits: {commits}",
        format_table(trend_rows(entries, last_n=last_n)),
    ]
    service_rows = service_trend_rows(entries, last_n=last_n)
    if service_rows:
        lines.append("service trend (latency in ms, throughput in updates/s):")
        lines.append(format_table(service_rows))
    slowdowns = detect_slowdowns(
        entries, last_n=last_n, threshold=threshold, min_seconds=min_seconds
    )
    for s in slowdowns:
        lines.append(
            f"SOFT REGRESSION {s.label}: {s.baseline_s:.3f}s -> "
            f"{s.latest_s:.3f}s ({s.relative:+.1%} vs median of "
            f"{s.commits} entr{'y' if s.commits == 1 else 'ies'})"
        )
    drifts = detect_service_drift(entries, last_n=last_n, threshold=threshold)
    for d in drifts:
        arrow = "rose" if d.direction == "up" else "fell"
        lines.append(
            f"SERVICE DRIFT {d.label}: {d.metric} {arrow} "
            f"{d.baseline:.3f} -> {d.latest:.3f} ({d.relative:+.1%} worse "
            f"vs median of {d.commits} entr{'y' if d.commits == 1 else 'ies'})"
        )
    flagged = len(slowdowns) + len(drifts)
    if not flagged:
        lines.append(
            f"no soft regressions (threshold {threshold:.0%} + "
            f"{min_seconds * 1000:.0f}ms floor; report-only, never gates)"
        )
    else:
        lines.append(
            f"{flagged} soft regression(s)/drift(s) flagged "
            "(report-only, never gates)"
        )
    return "\n".join(lines)
