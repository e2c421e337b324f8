"""Shared stream execution: one entry point for the CLI and the sweep runner.

:func:`run_stream` consumes a :class:`~repro.workloads.streams.StreamWorkload`
through a :class:`~repro.dynamic.engine.DynamicColoring` in either mode and
returns the artifact-ready metrics dict, so ``repro stream`` and stream
sweep cells report identical quantities.  :func:`summarize_stream` is the
shared summarization step: the always-on service driver
(:mod:`repro.serve`) runs its own batch loop but funnels the finished
engine through the same function, so a served stream and a swept stream
report byte-identical deterministic metrics.
"""

from __future__ import annotations

import time
from typing import Any

from repro.dynamic.engine import DynamicColoring, StreamResult
from repro.observe.instruments import NO_INSTRUMENTS, Instruments
from repro.params import AlgorithmParameters


def latency_fields(
    wall_times_s: list[float], total_updates: int, elapsed_s: float
) -> dict[str, Any]:
    """Latency/throughput scalars from per-batch wall times.

    One source of truth for the percentile math: ``repro stream``,
    stream sweep cells, and the service driver all call this, so the
    ``repair_ms_p*`` a dashboard shows and the one an artifact records
    can never disagree.  Percentiles are exact (numpy linear
    interpolation via :func:`repro.observe.metrics.exact_percentiles`);
    the bounded-error :class:`~repro.observe.metrics.LogHistogram` is
    for live mergeable views only, never for artifact scalars.
    """
    from repro.observe.metrics import exact_percentiles

    fields: dict[str, Any] = {
        "batch_wall_times_s": [round(t, 6) for t in wall_times_s],
        "updates_per_sec": (
            round(total_updates / elapsed_s, 2) if elapsed_s > 0 else 0.0
        ),
    }
    if wall_times_s:
        pcts = exact_percentiles([t * 1000.0 for t in wall_times_s])
        fields.update(
            repair_ms_p50=round(pcts["p50"], 4),
            repair_ms_p95=round(pcts["p95"], 4),
            repair_ms_p99=round(pcts["p99"], 4),
        )
    return fields


def summarize_stream(
    engine: DynamicColoring, result: StreamResult, batches
) -> dict[str, Any]:
    """Artifact-ready metrics dict for a fully consumed stream.

    Covers the static cell fields (sizes, Delta, dilation of the
    *initial* graph), the stream aggregates, and the per-batch latency
    fields (:func:`latency_fields`).  Callers layer on whatever only
    they know: :func:`run_stream` adds bootstrap wall time; the service
    driver adds queueing-delay and SLO fields.
    """
    graph = engine.graph
    ledger = engine.ledger.summary()
    alive_colors = engine.colors[engine.delta.alive_mask]
    wall_times = [r.wall_time_s for r in result.reports]
    total_updates = sum(len(b) for b in batches)
    metrics: dict[str, Any] = {
        "machines": graph.n_machines,
        "vertices": graph.n_vertices,
        "delta": graph.max_degree,
        "dilation": graph.dilation,
        "bandwidth_cap_bits": engine.ledger.bandwidth_bits,
        "num_colors": engine.num_colors,
        "regime_effective": "stream",
        "rounds_h": ledger["rounds_h"],
        "rounds_g": ledger["rounds_g"],
        "total_message_bits": ledger["total_message_bits"],
        "max_message_bits": ledger["max_message_bits"],
        "colors_used": len(set(alive_colors.tolist())),
        "proper": bool(result.all_proper),
        "fallbacks": result.escalations,
        "retries": 0,
        "batches": result.batches,
        "stream_updates": total_updates,
        "repaired_vertices": result.total_repaired,
        "recolor_fraction_mean": result.mean_recolor_fraction,
        "recolor_fraction_max": result.max_recolor_fraction,
        "escalations": result.escalations,
        "violation_batches": sum(1 for r in result.reports if not r.proper),
        "delta_rebuilds": engine.delta.rebuilds,
        "stream_wall_time_s": round(result.wall_time_s, 4),
        "vertices_final": engine.n_alive,
        "delta_final": engine.max_degree,
    }
    metrics.update(engine.instruments.network_fields(ledger))
    metrics.update(latency_fields(wall_times, total_updates, result.wall_time_s))
    return metrics


def run_stream(
    workload,
    *,
    params: AlgorithmParameters | None = None,
    seed: int = 0,
    mode: str = "repair",
    verify_each_batch: bool = True,
    instruments: Instruments = NO_INSTRUMENTS,
) -> tuple[DynamicColoring, StreamResult, dict[str, Any]]:
    """Bootstrap, absorb every batch, and summarize.

    Returns ``(engine, result, metrics)``; ``metrics`` carries the static
    cell fields (sizes, Delta, dilation of the *initial* graph) plus the
    stream-specific ones, including ``batch_wall_times_s`` (every batch's
    measured repair wall time) and the exact ``repair_ms_p50/p95/p99``
    derived from them.  ``wall_time_s`` inside the metrics covers only
    the batch loop (``stream_wall_time_s``); the sweep runner separately
    records whole-cell wall time, which additionally includes workload
    generation and the bootstrap coloring (identical for both modes).
    ``instruments`` go to the engine (see
    :class:`~repro.dynamic.engine.DynamicColoring`); with a network model
    the returned metrics also carry ``makespan_ms`` and ``critical_link``.
    """
    graph = workload.graph
    batches = getattr(workload, "batches", None)
    if batches is None:
        raise ValueError(
            f"workload {workload.name!r} has no update stream; "
            "stream modes need a StreamWorkload"
        )
    bootstrap_start = time.perf_counter()
    # map the cell-algorithm alias; anything unrecognized falls through to
    # DynamicColoring's own mode validation rather than silently running
    # repair under a baseline label
    engine_mode = "scratch" if mode == "recolor_scratch" else mode
    engine = DynamicColoring(
        graph,
        params=params,
        seed=seed,
        mode=engine_mode,
        verify_each_batch=verify_each_batch,
        instruments=instruments,
    )
    bootstrap_s = time.perf_counter() - bootstrap_start
    result = engine.run(batches)
    summary = summarize_stream(engine, result, batches)
    summary["bootstrap_wall_time_s"] = round(bootstrap_s, 4)
    return engine, result, summary
