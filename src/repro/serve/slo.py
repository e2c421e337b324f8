"""Declarative SLO targets checked against collected service metrics.

A service-level objective here is a named bound on one collected metric:
``repair_ms_p99`` at most 250, ``violation_batches`` at most 0,
``updates_per_sec`` at least 1000.  Targets are declarative data
(:class:`SLOTarget`), evaluation is a pure function over the metrics dict
the driver collects (:func:`evaluate_slos`), and the rendered report is
what ``repro serve`` prints at shutdown.

SLO checks are *report-only by default*: wall-clock-derived metrics
(latency percentiles, throughput) measure the machine as much as the
algorithm, so CI gates on ``repro compare``'s deterministic metrics and
prints the SLO report for humans.  ``repro serve --strict`` turns failures
into a nonzero exit for deployments that do want the gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.observe.records import format_table

__all__ = [
    "DEFAULT_SLOS",
    "SLOReport",
    "SLOResult",
    "SLOTarget",
    "evaluate_slos",
    "parse_slo",
    "render_slo_report",
]

#: Comparison operators an SLO may use: ``max`` (observed must stay at or
#: below the threshold) and ``min`` (at or above).
BOUNDS = ("max", "min")


@dataclass(frozen=True)
class SLOTarget:
    """One declarative objective: a bound on a collected metric."""

    metric: str  #: key into the collected metrics dict (e.g. ``repair_ms_p99``)
    bound: str  #: ``"max"`` or ``"min"``
    threshold: float

    def __post_init__(self) -> None:
        """Validate the bound direction."""
        if self.bound not in BOUNDS:
            raise ValueError(f"bound must be one of {BOUNDS}, got {self.bound!r}")

    def check(self, observed: float) -> bool:
        """Whether ``observed`` satisfies this objective."""
        if self.bound == "max":
            return observed <= self.threshold
        return observed >= self.threshold

    def describe(self) -> str:
        """Human-readable form, e.g. ``repair_ms_p99 <= 250``."""
        op = "<=" if self.bound == "max" else ">="
        return f"{self.metric} {op} {self.threshold:g}"


#: Report-only defaults for the service suites and ``repro serve``: zero
#: tolerated properness violations, a generous p99 repair-latency ceiling,
#: and a token throughput floor (real deployments override all three).
DEFAULT_SLOS: tuple[SLOTarget, ...] = (
    SLOTarget("violation_batches", "max", 0.0),
    SLOTarget("repair_ms_p99", "max", 1000.0),
    SLOTarget("updates_per_sec", "min", 1.0),
)


def parse_slo(spec: str) -> SLOTarget:
    """Parse a CLI-style objective: ``metric<=threshold`` or
    ``metric>=threshold`` (``repro serve --slo repair_ms_p99<=250``)."""
    for op, bound in (("<=", "max"), (">=", "min")):
        metric, sep, value = spec.partition(op)
        if sep:
            metric = metric.strip()
            if not metric:
                raise ValueError(f"empty metric in SLO spec {spec!r}")
            try:
                threshold = float(value)
            except ValueError:
                raise ValueError(
                    f"non-numeric threshold in SLO spec {spec!r}"
                ) from None
            return SLOTarget(metric, bound, threshold)
    raise ValueError(
        f"SLO spec {spec!r} needs '<=' or '>=' (e.g. repair_ms_p99<=250)"
    )


@dataclass(frozen=True)
class SLOResult:
    """One evaluated objective: the target, what was observed, the verdict.

    ``observed`` is ``None`` when the metrics dict lacks the target's key
    -- counted as a failure (an objective on a metric nobody collected is a
    configuration bug worth surfacing, not a silent pass)."""

    target: SLOTarget
    observed: float | None

    @property
    def ok(self) -> bool:
        """Whether the objective is met."""
        return self.observed is not None and self.target.check(self.observed)


@dataclass
class SLOReport:
    """Every evaluated objective of one service run."""

    results: list[SLOResult]

    @property
    def passed(self) -> bool:
        """Whether every objective is met."""
        return all(r.ok for r in self.results)

    @property
    def failed(self) -> list[SLOResult]:
        """The objectives that missed."""
        return [r for r in self.results if not r.ok]

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready summary (what service artifacts embed as ``slo``)."""
        return {
            "passed": self.passed,
            "targets": [
                {
                    "slo": r.target.describe(),
                    "observed": r.observed,
                    "ok": r.ok,
                }
                for r in self.results
            ],
        }


def evaluate_slos(
    metrics: Mapping[str, Any], targets: Iterable[SLOTarget] = DEFAULT_SLOS
) -> SLOReport:
    """Check every target against the collected metrics dict."""
    results = []
    for target in targets:
        observed = metrics.get(target.metric)
        results.append(
            SLOResult(
                target=target,
                observed=float(observed) if observed is not None else None,
            )
        )
    return SLOReport(results=results)


def render_slo_report(report: SLOReport) -> str:
    """The final SLO table ``repro serve`` prints (report-only by default)."""
    rows = [
        {
            "slo": r.target.describe(),
            "observed": "--" if r.observed is None else f"{r.observed:g}",
            "status": "ok" if r.ok else "FAIL",
        }
        for r in report.results
    ]
    verdict = (
        "SLO: all objectives met"
        if report.passed
        else f"SLO: {len(report.failed)} objective(s) MISSED"
    )
    return format_table(rows) + "\n" + verdict
