"""Schema-versioned JSONL experiment artifacts.

An artifact file is one header line followed by one line per cell result:

.. code-block:: text

    {"kind": "header", "schema_version": 1, "suite": ..., "spec_hash": ...,
     "git_rev": ..., "created_utc": ...}
    {"kind": "cell", "key": ..., "cell": {...}, "status": "ok",
     "metrics": {...}, "wall_time_s": ...}

The header pins the schema version and the provenance (spec hash + git
revision) so :mod:`repro.experiments.compare` can refuse to gate on
incomparable files.  Legacy :class:`~repro.observe.records.ExperimentRecord`
output is bridged through :func:`append_legacy_record` so the historical
``bench_e*`` scripts produce machine-readable records during the migration.
"""

from __future__ import annotations

import csv
import datetime
import json
import pathlib
import statistics
import subprocess
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

SCHEMA_VERSION = 1
SCHEMA_NAME = "repro.experiments"

#: Default directory for sweep artifacts (shared with the legacy benchmarks).
RESULTS_DIR = pathlib.Path(__file__).resolve().parents[3] / "benchmarks" / "results"

#: Metrics carried by every successful pipeline cell.  Baseline algorithms
#: fill the subset their comparator reports (see runner._CELL_METRICS note).
METRIC_FIELDS = (
    "machines",
    "vertices",
    "delta",
    "dilation",
    "regime_effective",
    "rounds_h",
    "rounds_g",
    "total_message_bits",
    "max_message_bits",
    "bandwidth_cap_bits",
    "colors_used",
    "num_colors",
    "proper",
    "fallbacks",
    "retries",
    "coloring_digest",
    # stream-cell extras (blank for one-shot cells); see
    # repro.dynamic.harness.run_stream
    "batches",
    "stream_updates",
    "repaired_vertices",
    "recolor_fraction_mean",
    "recolor_fraction_max",
    "escalations",
    "delta_rebuilds",
    "bootstrap_wall_time_s",
    "stream_wall_time_s",
    "vertices_final",
    "delta_final",
    # latency/throughput extras every stream and service cell carries; see
    # repro.dynamic.harness.latency_fields
    "violation_batches",
    "repair_ms_p50",
    "repair_ms_p95",
    "repair_ms_p99",
    "updates_per_sec",
    # service-cell extras (blank for plain stream cells); see
    # repro.serve.driver.ColoringService.collect
    "arrival_profile",
    "arrival_rate",
    "queue_ms_p50",
    "queue_ms_p95",
    "queue_ms_p99",
    "latency_ms_p50",
    "latency_ms_p95",
    "latency_ms_p99",
    "trace_duration_s",
    "slo_pass",
    "slo_failed",
)


def git_rev(repo_root: pathlib.Path | None = None) -> str:
    """Short git revision of the working tree, or ``"unknown"``."""
    root = repo_root or pathlib.Path(__file__).resolve().parents[3]
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _utcnow() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


@dataclass
class Artifact:
    """A parsed artifact: the header plus its cell-result records."""

    header: dict[str, Any]
    records: list[dict[str, Any]] = field(default_factory=list)

    @property
    def suite(self) -> str:
        """Suite name recorded in the header (``"?"`` if absent)."""
        return self.header.get("suite", "?")

    @property
    def spec_hash(self) -> str:
        """Scenario spec hash recorded in the header (``"?"`` if absent)."""
        return self.header.get("spec_hash", "?")

    def by_key(self) -> dict[str, dict[str, Any]]:
        """Cell records indexed by their alignment key (last write wins)."""
        return {r["key"]: r for r in self.records}

    def ok_records(self) -> list[dict[str, Any]]:
        """Only the cell records that completed with ``status == "ok"``."""
        return [r for r in self.records if r.get("status") == "ok"]


def make_header(
    suite: str, spec_hash: str, extra: dict[str, Any] | None = None
) -> dict[str, Any]:
    """The provenance line every artifact starts with."""
    header = {
        "kind": "header",
        "schema": SCHEMA_NAME,
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "spec_hash": spec_hash,
        "git_rev": git_rev(),
        "created_utc": _utcnow(),
    }
    if extra:
        header.update(extra)
    return header


def write_artifact(
    path: str | pathlib.Path,
    header: dict[str, Any],
    records: Iterable[dict[str, Any]],
) -> pathlib.Path:
    """Write a complete artifact file (header first, then cell lines)."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as sink:
        sink.write(json.dumps(header, sort_keys=True) + "\n")
        for record in records:
            sink.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def read_artifact(path: str | pathlib.Path) -> Artifact:
    """Parse an artifact file, validating the schema version."""
    path = pathlib.Path(path)
    header: dict[str, Any] | None = None
    records: list[dict[str, Any]] = []
    with open(path) as source:
        for lineno, line in enumerate(source, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON ({exc})") from exc
            kind = obj.get("kind")
            if kind == "header":
                if obj.get("schema") != SCHEMA_NAME:
                    raise ValueError(
                        f"{path}: schema {obj.get('schema')!r} is not {SCHEMA_NAME!r}"
                    )
                if obj.get("schema_version") != SCHEMA_VERSION:
                    raise ValueError(
                        f"{path}: schema_version {obj.get('schema_version')} "
                        f"unsupported (reader understands {SCHEMA_VERSION})"
                    )
                header = obj
            elif kind == "cell":
                records.append(obj)
            # unknown kinds (e.g. legacy_record) are skipped, not fatal:
            # forward compatibility within a schema version.
    if header is None:
        raise ValueError(f"{path}: no header line (not a sweep artifact?)")
    return Artifact(header=header, records=records)


def default_artifact_path(suite: str) -> pathlib.Path:
    """``benchmarks/results/sweep-<suite>-<timestamp>.jsonl``."""
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    return RESULTS_DIR / f"sweep-{suite}-{stamp}.jsonl"


# ---- export ----------------------------------------------------------------


def to_csv(artifact: Artifact, path: str | pathlib.Path) -> pathlib.Path:
    """Flatten cell records to CSV (one row per cell, ok or not)."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    cell_fields = (
        "workload",
        "params",
        "regime",
        "algorithm",
        "seed",
        "instance_seed",
    )
    fieldnames = (
        ["suite", *cell_fields, "workload_kwargs", "status", "wall_time_s"]
        + list(METRIC_FIELDS)
        + ["error"]
    )
    with open(path, "w", newline="") as sink:
        writer = csv.DictWriter(sink, fieldnames=fieldnames, extrasaction="ignore")
        writer.writeheader()
        for record in artifact.records:
            cell = record.get("cell", {})
            row: dict[str, Any] = {
                "suite": cell.get("suite", artifact.suite),
                "workload_kwargs": json.dumps(
                    cell.get("workload_kwargs", {}), sort_keys=True
                ),
                "status": record.get("status"),
                "wall_time_s": record.get("wall_time_s"),
                "error": record.get("error", ""),
            }
            for f in cell_fields:
                row[f] = cell.get(f)
            row.update(record.get("metrics", {}))
            writer.writerow(row)
    return path


# ---- aggregation -----------------------------------------------------------

#: Metrics summarized by :func:`summarize`.  The stream/service extras
#: appear blank for one-shot cells (their records never carry those
#: metrics).
SUMMARY_METRICS = (
    "rounds_h",
    "rounds_g",
    "total_message_bits",
    "wall_time_s",
    "stream_wall_time_s",
    "recolor_fraction_mean",
    "repair_ms_p99",
    "updates_per_sec",
)

#: ``workload_kwargs`` is part of the default grouping: size-sweep suites
#: (e.g. e1's n_vertices grid) differ only in kwargs, and averaging across
#: different problem sizes would erase the very trend the suite measures.
DEFAULT_GROUP_BY = ("workload", "workload_kwargs", "params", "regime", "algorithm")


def _percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(q / 100.0 * (len(ordered) - 1))))
    return float(ordered[rank])


def summarize(
    artifact: Artifact, group_by: Sequence[str] = DEFAULT_GROUP_BY
) -> list[dict[str, Any]]:
    """Aggregate ok-cells into mean/p50/p95 rows per cell group.

    Returns table-ready dict rows (see :func:`repro.observe.format_table`);
    failed cells are counted per group but excluded from the statistics.
    """
    groups: dict[tuple, dict[str, Any]] = {}
    for record in artifact.records:
        cell = record.get("cell", {})
        key = tuple(_group_value(cell, g) for g in group_by)
        bucket = groups.setdefault(key, {"ok": [], "failed": 0})
        if record.get("status") == "ok":
            bucket["ok"].append(record)
        else:
            bucket["failed"] += 1
    # every row carries the full column set (blank when a group has no ok
    # cells): format_table takes its headers from the first row, so a
    # heterogeneous first row would silently drop columns for all groups
    stat_columns = ["proper_rate"] + [
        f"{metric}_{stat}" for metric in SUMMARY_METRICS
        for stat in ("mean", "p50", "p95")
    ]
    rows: list[dict[str, Any]] = []
    for key in sorted(groups):
        bucket = groups[key]
        row: dict[str, Any] = dict(zip(group_by, key))
        ok = bucket["ok"]
        row["n"] = len(ok)
        row["failed"] = bucket["failed"]
        row.update({column: "" for column in stat_columns})
        if ok:
            row["proper_rate"] = sum(
                1 for r in ok if r["metrics"].get("proper")
            ) / len(ok)
        for metric in SUMMARY_METRICS:
            values = [
                float(r["metrics"][metric] if metric != "wall_time_s" else r[metric])
                for r in ok
                if (metric == "wall_time_s" and r.get(metric) is not None)
                or (metric != "wall_time_s" and r["metrics"].get(metric) is not None)
            ]
            if not values:
                continue
            row[f"{metric}_mean"] = statistics.fmean(values)
            row[f"{metric}_p50"] = _percentile(values, 50)
            row[f"{metric}_p95"] = _percentile(values, 95)
        rows.append(row)
    return rows


def _group_value(cell: dict[str, Any], field_name: str) -> str:
    if field_name == "workload_kwargs":
        kwargs = cell.get("workload_kwargs", {})
        return ",".join(f"{k}={v}" for k, v in sorted(kwargs.items()))
    return str(cell.get(field_name, "?"))


# ---- legacy bridge ---------------------------------------------------------

LEGACY_JSONL = "records.jsonl"


def append_legacy_record(
    record: "Any", results_dir: str | pathlib.Path | None = None
) -> pathlib.Path:
    """Append one ``ExperimentRecord`` as a JSON line next to ``records.txt``.

    This is the transition path for the historical ``bench_e*`` scripts:
    their free-form tables become machine-readable without changing their
    interface.  The line carries the same schema version stamp as sweep
    artifacts so downstream tooling can parse both.
    """
    directory = pathlib.Path(results_dir) if results_dir else RESULTS_DIR
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / LEGACY_JSONL
    line = {
        "kind": "legacy_record",
        "schema": SCHEMA_NAME,
        "schema_version": SCHEMA_VERSION,
        "git_rev": git_rev(),
        "created_utc": _utcnow(),
        "experiment": record.experiment,
        "claim": record.claim,
        "params_preset": record.params_preset,
        "rows": record.rows,
        "notes": record.notes,
    }
    with open(path, "a") as sink:
        sink.write(json.dumps(line, sort_keys=True, default=str) + "\n")
    return path
