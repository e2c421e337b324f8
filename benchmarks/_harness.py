"""Shared helpers for the benchmark suite (import as ``from _harness import emit``)."""

from __future__ import annotations

import pathlib

import numpy as np

from repro.aggregation import ClusterRuntime
from repro.experiments import artifacts
from repro.observe import ExperimentRecord
from repro.params import scaled

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def emit(record: ExperimentRecord) -> None:
    """Print one experiment record and persist it twice: the legacy
    free-form text file, and a schema-versioned JSON line the experiment
    tooling (``repro report``/``compare``) can parse."""
    text = record.to_text()
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / "records.txt", "a") as sink:
        sink.write(text + "\n\n")
    artifacts.append_legacy_record(record, RESULTS_DIR)


def make_runtime(graph, seed: int = 5) -> ClusterRuntime:
    """Fresh scaled-preset runtime bound to a graph."""
    return ClusterRuntime(graph=graph, params=scaled(), rng=np.random.default_rng(seed))


def run_suite_cells(suite: str, **kwargs):
    """Run one built-in scenario suite serially in-process and return its
    ok-cell records, failing loudly if any cell failed -- the thin-wrapper
    entry point for ``bench_e*`` scripts migrated onto the subsystem."""
    from repro.experiments import SUITES, run_suite
    from repro.experiments.runner import error_summary

    records = run_suite(SUITES[suite], jobs=1, timeout_s=0, **kwargs)
    failed = [r for r in records if r["status"] != "ok"]
    assert not failed, f"suite {suite}: {len(failed)} cells failed: " + "; ".join(
        error_summary(r["error"]) for r in failed
    )
    return records
