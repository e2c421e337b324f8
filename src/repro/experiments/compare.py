"""Regression gating between two sweep artifacts (perun-style).

Cells are aligned by their stable key (workload + kwargs + preset + regime +
algorithm + seeds).  For each gated metric the candidate may exceed the
baseline by at most a relative tolerance; anything worse is a regression
and the comparison exits nonzero.  ``proper`` is gated absolutely: a cell
that was proper at baseline must stay proper.

Cells are deterministic given their seeds, so a same-commit comparison
reports exactly zero deltas; across commits the tolerances absorb intended
constant-factor drift while catching complexity-class slips.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.experiments.artifacts import Artifact

#: Relative headroom allowed per metric (candidate <= baseline * (1 + tol)).
#: Wall time is reported but never gated -- it measures the machine, not the
#: algorithm.
DEFAULT_TOLERANCES: dict[str, float] = {
    "rounds_h": 0.05,
    "rounds_g": 0.05,
    "total_message_bits": 0.05,
    "colors_used": 0.0,
    # deterministic service/stream correctness: a batch that ends improper
    # is a hard regression regardless of machine speed
    "violation_batches": 0.0,
    # simulated-clock makespan (hetnet cells only; the metric is absent --
    # and therefore skipped -- on homogeneous cells).  Deterministic: it is
    # a pure function of the charge sequence and the sampled fabric.
    "makespan_ms": 0.05,
}


@dataclass
class Delta:
    """One (cell, metric) comparison."""

    key: str
    label: str
    metric: str
    baseline: float
    candidate: float
    tolerance: float

    @property
    def relative(self) -> float:
        """Fractional change of candidate over baseline (inf from zero)."""
        if self.baseline == 0:
            return 0.0 if self.candidate == 0 else float("inf")
        return self.candidate / self.baseline - 1.0

    @property
    def is_regression(self) -> bool:
        """Whether the relative change exceeds this metric's tolerance."""
        if self.baseline == 0:
            return self.candidate > 0 and self.tolerance < float("inf")
        return self.relative > self.tolerance


@dataclass
class ComparisonReport:
    """Everything ``repro compare`` prints and gates on."""

    baseline_rev: str
    candidate_rev: str
    tolerances: dict[str, float]
    deltas: list[Delta] = field(default_factory=list)
    improperly_colored: list[str] = field(default_factory=list)
    newly_failed: list[str] = field(default_factory=list)
    missing_cells: list[str] = field(default_factory=list)
    extra_cells: list[str] = field(default_factory=list)
    compared_cells: int = 0
    #: (label, baseline_s, candidate_s) per aligned cell -- reported, never
    #: gated (wall time measures the machine, not the algorithm)
    wall_times: list[tuple[str, float, float]] = field(default_factory=list)

    @property
    def regressions(self) -> list[Delta]:
        """Deltas that exceed their metric's tolerance."""
        return [d for d in self.deltas if d.is_regression]

    @property
    def improvements(self) -> list[Delta]:
        """Deltas where the candidate improved on the baseline."""
        return [d for d in self.deltas if d.relative < 0]

    @property
    def exit_code(self) -> int:
        """1 if any gate (regression/properness/new failure) tripped, else 0."""
        gate_failures = (
            self.regressions or self.improperly_colored or self.newly_failed
        )
        return 1 if gate_failures else 0

    def summary_rows(self) -> list[dict[str, Any]]:
        """Per-metric aggregate rows for table rendering."""
        rows = []
        for metric, tol in self.tolerances.items():
            ds = [d for d in self.deltas if d.metric == metric]
            if not ds:
                continue
            worst = max(ds, key=lambda d: d.relative)
            rows.append(
                {
                    "metric": metric,
                    "cells": len(ds),
                    "regressions": sum(1 for d in ds if d.is_regression),
                    "worst_delta": f"{worst.relative:+.1%}",
                    "tolerance": f"{tol:.0%}",
                }
            )
        return rows


#: Metrics a tolerance may gate on: the numeric per-cell metrics.  Anything
#: else (properness, regimes, wall time) is either gated absolutely or
#: deliberately ungated, and a typo'd name must not silently disable a gate.
GATEABLE_METRICS = frozenset(
    {
        "rounds_h",
        "rounds_g",
        "total_message_bits",
        "max_message_bits",
        "colors_used",
        "num_colors",
        "fallbacks",
        "retries",
        # stream cells (repro.dynamic): repair efficiency is a gateable
        # quantity -- a regression here means the engine started recoloring
        # more of the graph per batch
        "repaired_vertices",
        "recolor_fraction_mean",
        "recolor_fraction_max",
        "escalations",
        # service cells (repro.serve): properness-over-the-trace is
        # deterministic and therefore gateable; latency percentiles and
        # updates/sec are wall-derived and deliberately NOT listed here --
        # they are SLO material, not compare gates
        "violation_batches",
        "slo_failed",
        # hetnet cells (repro.network.hetnet): simulated time, deterministic
        # given the seeds like every other simulated quantity
        "makespan_ms",
    }
)


def parse_tolerance_overrides(pairs: list[str]) -> dict[str, float]:
    """Parse ``metric=fraction`` CLI overrides onto the defaults."""
    tolerances = dict(DEFAULT_TOLERANCES)
    for pair in pairs:
        metric, sep, value = pair.partition("=")
        if not sep:
            raise ValueError(f"expected metric=fraction, got {pair!r}")
        metric = metric.strip()
        if metric not in GATEABLE_METRICS:
            raise ValueError(
                f"unknown gateable metric {metric!r}; choose from "
                f"{', '.join(sorted(GATEABLE_METRICS))}"
            )
        tolerances[metric] = float(value)
    return tolerances


def compare_artifacts(
    baseline: Artifact,
    candidate: Artifact,
    tolerances: dict[str, float] | None = None,
) -> ComparisonReport:
    """Align the two artifacts cell-by-cell and gate each metric."""
    tolerances = dict(tolerances) if tolerances is not None else dict(DEFAULT_TOLERANCES)
    report = ComparisonReport(
        baseline_rev=baseline.header.get("git_rev", "?"),
        candidate_rev=candidate.header.get("git_rev", "?"),
        tolerances=tolerances,
    )
    base_by_key = baseline.by_key()
    cand_by_key = candidate.by_key()
    report.extra_cells = sorted(set(cand_by_key) - set(base_by_key))

    for key in sorted(base_by_key):
        base = base_by_key[key]
        label = _label(base)
        cand = cand_by_key.get(key)
        if cand is None:
            report.missing_cells.append(label)
            continue
        base_ok = base.get("status") == "ok"
        cand_ok = cand.get("status") == "ok"
        if base_ok and not cand_ok:
            report.newly_failed.append(f"{label}: {cand.get('status')}")
            continue
        if not base_ok:
            # the baseline has nothing trustworthy to gate against
            continue
        report.compared_cells += 1
        bw, cw = base.get("wall_time_s"), cand.get("wall_time_s")
        if bw is not None and cw is not None:
            report.wall_times.append((label, float(bw), float(cw)))
        bm, cm = base.get("metrics", {}), cand.get("metrics", {})
        if bm.get("proper") and not cm.get("proper"):
            report.improperly_colored.append(label)
        for metric, tol in tolerances.items():
            bv, cv = bm.get(metric), cm.get(metric)
            if bv is None or cv is None:
                continue
            report.deltas.append(
                Delta(
                    key=key,
                    label=label,
                    metric=metric,
                    baseline=float(bv),
                    candidate=float(cv),
                    tolerance=tol,
                )
            )
    return report


def _label(record: dict[str, Any]) -> str:
    from repro.experiments.spec import Cell

    return Cell.from_dict(record["cell"]).label()


def render_report(report: ComparisonReport) -> str:
    """Human-readable comparison text (the ``repro compare`` output)."""
    from repro.observe.records import format_table

    lines = [
        f"baseline rev {report.baseline_rev} vs candidate rev "
        f"{report.candidate_rev}: {report.compared_cells} cells aligned"
    ]
    rows = report.summary_rows()
    if rows:
        lines.append(format_table(rows))
    for delta in report.regressions:
        lines.append(
            f"REGRESSION {delta.label}: {delta.metric} "
            f"{delta.baseline:g} -> {delta.candidate:g} ({delta.relative:+.1%}, "
            f"tolerance {delta.tolerance:.0%})"
        )
    for label in report.improperly_colored:
        lines.append(f"REGRESSION {label}: coloring no longer proper")
    for entry in report.newly_failed:
        lines.append(f"REGRESSION {entry} (was ok at baseline)")
    for label in report.missing_cells:
        lines.append(f"missing in candidate: {label}")
    if report.extra_cells:
        lines.append(f"{len(report.extra_cells)} cells only in candidate (ignored)")
    if report.wall_times:
        total_base = sum(b for _, b, _ in report.wall_times)
        total_cand = sum(c for _, _, c in report.wall_times)
        overall = total_base / total_cand if total_cand > 0 else float("inf")
        lines.append(
            f"wall-time (reported, not gated): {total_base:.1f}s -> "
            f"{total_cand:.1f}s overall ({overall:.2f}x)"
        )
        for label, b, c in sorted(
            report.wall_times, key=lambda w: w[1] / max(w[2], 1e-9), reverse=True
        )[:5]:
            speed = b / c if c > 0 else float("inf")
            lines.append(f"  {speed:5.2f}x  {b:8.2f}s -> {c:8.2f}s  {label}")
    improvements = report.improvements
    if improvements:
        best = min(improvements, key=lambda d: d.relative)
        lines.append(
            f"{len(improvements)} metric improvements; best: {best.label} "
            f"{best.metric} {best.relative:+.1%}"
        )
    verdict = "FAIL" if report.exit_code else "OK"
    lines.append(
        f"{verdict}: {len(report.regressions)} metric regressions, "
        f"{len(report.improperly_colored)} properness losses, "
        f"{len(report.newly_failed)} newly failing cells"
    )
    return "\n".join(lines)
