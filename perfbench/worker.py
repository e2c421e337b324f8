"""One benchmark run, in the process that measures it.

``run.py`` starts this file in a fresh interpreter per run; it can also be
imported (``test_perfbench.py`` runs miniatures in-process).  A run repeats
whole *passes* of its workload -- generate the instance, color it, and for
``churn`` absorb the update stream in a closed loop -- and checks every
pass with the correctness gate.  Each timed phase starts from a collected
heap, so garbage one phase leaves behind cannot land in the next phase's
time or peak memory at a seed-dependent moment.  The last stdout line is a
JSON object.

Usage (from the repository root, ``PYTHONPATH=src``)::

    python3 perfbench/worker.py --workload dense --seed 0 --seconds 20 \\
        [--budget-s 140] [--trace]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import repro
from repro.experiments.runner import coloring_digest
from repro.params import scaled
from repro.verify import checker
from repro.workloads import GENERATORS
from speed import NOMINAL_S, SpeedClock

#: The algorithm's own rng seed is fixed; ``--seed`` varies the instance.
ALGORITHM_SEED = 0

#: Pipeline stages of ``ColoringStats.stage_rounds`` reported per layer.
STAGES = (
    "acd",
    "slack_generation",
    "sparse",
    "noncabals",
    "cabals",
    "low_degree",
    "polylog",
    "pipeline_fallback",
)


@dataclass(frozen=True)
class Spec:
    """A workload: a registered generator and its arguments at full size
    and in miniature (the miniature is what the invisibility test runs)."""

    generator: str
    kwargs: dict
    mini: dict
    #: timed colorings per pass (same seed, same coloring; only the first
    #: is traced) -- more samples where one coloring is short
    colorings: int = 1
    #: fewest passes per run; each pass builds the instance once
    min_passes: int = 2
    stream: bool = False


WORKLOADS = {
    # the `scale` suite's dense cell: Delta ~ 491, dilation 1; instance
    # building (G(n,p) sampling + relabel) and the buddy predicate dominate
    "dense": Spec(
        "high_degree",
        dict(n_vertices=8000, avg_degree=400, cluster_size=1),
        dict(n_vertices=400, avg_degree=60, cluster_size=1),
        # one ~20 s build per run keeps the run near 30 s; two colorings
        # still give the digest check a second sample
        colorings=2,
        min_passes=1,
    ),
    # 48 cabals on 23,040 machines, dilation 2: the only workload that runs
    # colorful matching, put-aside and donation (Sections 6-7)
    "cabals": Spec(
        "cabal",
        dict(n_cabals=48, clique_size=160, anti_degree=4, cluster_size=3,
             topology="tree"),
        dict(n_cabals=4, clique_size=60, anti_degree=4, cluster_size=3,
             topology="tree"),
    ),
    # 128k edge updates in 400 batches; the bootstrap takes the low-degree
    # path and repair works on the frontier, so ACD and buddy are bypassed
    "churn": Spec(
        "sliding_window",
        dict(n_vertices=20000, avg_degree=8, cluster_size=3, topology="tree",
             batches=400, churn_fraction=0.002),
        dict(n_vertices=600, avg_degree=8, cluster_size=3, topology="tree",
             batches=20, churn_fraction=0.01),
        # the ~0.2 s bootstrap is short enough for host noise to show
        colorings=8,
        stream=True,
    ),
}


@dataclass
class Pass:
    """One pass: its ``perf_counter`` intervals, exact counts and gate
    outcome.  ``colors`` holds every timed coloring (static: the one
    ``color_cluster_graph`` call; churn: each bootstrap), ``batches`` every
    ``apply`` call; ``run`` is what one user's pass waits for."""

    setup: tuple[float, float]
    colors: list[tuple[float, float]]
    batches: list[tuple[float, float]]
    run: list[tuple[float, float]]
    work: int
    exact: dict
    digest: str
    attempted: int
    failures: list[str] = field(default_factory=list)
    layers: dict = field(default_factory=dict)


def _phase(probe, name):
    return probe.phase(name) if probe is not None else contextlib.nullcontext()


def _gate_colors(graph, colors, live, delta) -> list[str]:
    """Properness of ``colors`` on ``graph`` and the (Delta+1) palette
    bound on the colors of the ``live`` vertices."""
    problems = []
    if not checker.is_proper(graph, colors):
        problems.append("coloring is not proper")
    used = np.asarray(colors)[live]
    if used.size and (used.min() < 0 or used.max() > delta):
        problems.append(f"a color lies outside [0, Delta={delta}]")
    if np.unique(used).size > delta + 1:
        problems.append(f"more than Delta+1={delta + 1} colors used")
    return problems


def _repeat_failures(digests: set) -> list[str]:
    """Colorings repeated within a pass (same seed) must be identical."""
    if len(digests) > 1:
        return [f"repeated colorings differ: digests {sorted(digests)}"]
    return []


def static_pass(spec: Spec, kwargs: dict, seed: int, probe=None) -> Pass:
    """Generate the instance, then ``color_cluster_graph(verify=True)``."""
    maker = GENERATORS[spec.generator]
    gc.collect()
    start = time.perf_counter()
    with _phase(probe, "setup"):
        workload = maker(np.random.default_rng(seed), **kwargs)
    ready = time.perf_counter()
    graph = workload.graph
    colors = []
    digests = set()
    for repeat in range(spec.colorings):
        gc.collect()
        t0 = time.perf_counter()
        with _phase(probe if repeat == 0 else None, "color"):
            result = repro.color_cluster_graph(
                graph, params=scaled(), seed=ALGORITHM_SEED, verify=True
            )
        colors.append((t0, time.perf_counter()))
        digests.add(coloring_digest(result.colors))
    failures = _repeat_failures(digests)
    if not result.proper:
        failures.append("pipeline reported an improper coloring")
    failures += _gate_colors(graph, result.colors, slice(None), graph.max_degree)
    stats = result.stats
    return Pass(
        setup=(start, ready),
        colors=colors,
        batches=[],
        run=[(start, ready), colors[0]],
        work=graph.n_h_edges,
        exact=dict(
            rounds_h=result.rounds_h,
            rounds_g=result.rounds_g,
            message_bits=result.ledger_summary["total_message_bits"],
        ),
        digest=coloring_digest(result.colors),
        attempted=1,
        failures=failures,
        layers=dict(
            stage_rounds=dict(stats.stage_rounds),
            retries=int(sum(stats.retries.values())),
            fallback_vertices=int(sum(stats.fallbacks.values())),
        ),
    )


def stream_pass(spec: Spec, kwargs: dict, seed: int, probe=None) -> Pass:
    """Generate the stream, bootstrap the engine, then apply every batch
    in a closed loop (one caller, next batch after the previous returns)."""
    from repro.dynamic.engine import DynamicColoring

    maker = GENERATORS[spec.generator]
    gc.collect()
    start = time.perf_counter()
    with _phase(probe, "setup"):
        workload = maker(np.random.default_rng(seed), **kwargs)
    ready = time.perf_counter()
    colors = []
    digests = set()
    for repeat in range(spec.colorings):
        gc.collect()
        t0 = time.perf_counter()
        with _phase(probe if repeat == 0 else None, "color"):
            engine = DynamicColoring(
                workload.graph, params=scaled(), seed=ALGORITHM_SEED,
                mode="repair", verify_each_batch=True,
            )
        colors.append((t0, time.perf_counter()))
        digests.add(coloring_digest(engine.colors))
    batches = []
    reports = []
    gc.collect()
    with _phase(probe, "stream"):
        for batch in workload.batches:
            t0 = time.perf_counter()
            reports.append(engine.apply(batch))
            batches.append((t0, time.perf_counter()))

    failures = _repeat_failures(digests) + [
        f"batch {r.batch_index} left a monochromatic edge"
        for r in reports if not r.proper
    ]
    alive = engine.delta.alive_mask
    failures += _gate_colors(
        engine.snapshot_graph(), engine.colors, alive, engine.max_degree
    )
    ledger = engine.ledger.summary()
    return Pass(
        setup=(start, ready),
        colors=colors,
        batches=batches,
        run=[(start, ready), colors[0], (batches[0][0], batches[-1][1])],
        work=sum(len(b) for b in workload.batches),
        exact=dict(
            rounds_h=ledger["rounds_h"],
            rounds_g=ledger["rounds_g"],
            message_bits=ledger["total_message_bits"],
        ),
        digest=coloring_digest(engine.colors[alive]),
        attempted=len(reports),
        failures=failures,
        layers=dict(
            frontier=sum(r.dirty for r in reports),
            repaired=sum(r.repaired for r in reports),
            greedy_vertices=sum(r.greedy_vertices for r in reports),
            escalations=sum(1 for r in reports if r.escalated),
            compactions=sum(1 for r in reports if r.compacted),
            recolor_fraction=float(np.mean([r.recolor_fraction for r in reports])),
        ),
    )


def run_passes(
    name: str,
    seed: int,
    seconds: float,
    *,
    min_passes: int | None = None,
    mini: bool = False,
    probe=None,
    budget_s: float = math.inf,
) -> list[Pass]:
    """Whole passes until ``seconds`` of them are measured (at least
    ``min_passes``, by default the workload's; no new pass that would
    overrun ``budget_s``, which ``run.py`` derives from its run limit)."""
    spec = WORKLOADS[name]
    if min_passes is None:
        min_passes = spec.min_passes
    kwargs = spec.mini if mini else spec.kwargs
    one_pass = stream_pass if spec.stream else static_pass
    passes: list[Pass] = []
    started = time.perf_counter()
    while True:
        passes.append(one_pass(spec, kwargs, seed, probe))
        elapsed = time.perf_counter() - started
        if len(passes) >= min_passes and (
            elapsed >= seconds or elapsed * (1 + 1 / len(passes)) > budget_s
        ):
            return passes


def gate_failures(passes: list[Pass]) -> list[str]:
    """Per-pass gate misses plus any disagreement between passes: the
    same seed must give the same digest and the same exact counts."""
    problems = [f"pass {i}: {f}" for i, p in enumerate(passes) for f in p.failures]
    first = passes[0]
    for i, p in enumerate(passes[1:], start=1):
        if p.digest != first.digest:
            problems.append(f"pass {i}: digest {p.digest} != {first.digest}")
        if p.exact != first.exact:
            problems.append(f"pass {i}: exact counts {p.exact} != {first.exact}")
    return problems


def end_to_end(passes: list[Pass], clock: SpeedClock) -> dict:
    """Every end-to-end metric except ``peak_rss_mb`` (measured by the
    parent), as ``{name: (value, unit, samples)}``.  Times are reference
    seconds (see ``speed.py``)."""
    def secs(intervals):
        return sum(clock.seconds(a, b) for a, b in intervals)

    colors = [secs([iv]) for p in passes for iv in p.colors]
    latencies = np.asarray(
        [secs([iv]) * 1000.0 for p in passes for iv in (p.batches or p.colors)]
    )
    if passes[0].batches:
        rate = sum(p.work for p in passes) / sum(secs(p.batches) for p in passes)
    else:
        rate = passes[0].work / statistics.median(colors)
    exact = passes[0].exact
    n = len(passes)
    return {
        "setup_s": (statistics.median(secs([p.setup]) for p in passes), "s", n),
        "color_s": (statistics.median(colors), "s", len(colors)),
        "run_s": (statistics.median(secs(p.run) for p in passes), "s", n),
        "batch_ms_p50": (float(np.percentile(latencies, 50)), "ms", latencies.size),
        "batch_ms_p95": (float(np.percentile(latencies, 95)), "ms", latencies.size),
        "updates_per_s": (rate, "1/s", n),
        "rounds_h": (exact["rounds_h"], "count", n),
        "rounds_g": (exact["rounds_g"], "count", n),
        "message_bits": (exact["message_bits"], "bits", n),
    }


def per_layer(probe, passes: list[Pass]) -> dict:
    """Per-layer metrics of a traced run (totals over its passes)."""
    out = {}
    listed = {
        "setup": [
            ("workloads.networkx", ("calls", "s")),
            ("cluster.blowup", ("calls", "s")),
            ("network.CommGraph", ("calls", "s")),
            ("cluster.from_assignment", ("calls", "s")),
            ("cluster.build_forest", ("calls", "s")),
            ("dynamic.DeltaCSR", ("calls", "s")),
        ],
        "color": [
            ("decomposition.compute_acd", ("s",)),
            ("decomposition.buddy_predicate", ("s",)),
            ("decomposition.annotate_with_cabals", ("s",)),
            ("coloring.slack_generation", ("s",)),
            ("coloring.color_noncabals", ("s",)),
            ("coloring.color_cabals", ("s",)),
            ("coloring.color_low_degree", ("s",)),
            ("graphcore.conflict_mask", ("calls", "rows", "s")),
            ("graphcore.used_color_masks", ("calls", "rows", "s")),
            ("graphcore.slack_counts", ("calls", "rows", "s")),
            ("network.charge", ("calls",)),
            # is_proper's own wrapper; the kernel it calls is the next line
            ("verify.is_proper", ("s",)),
            ("graphcore.is_proper_edges", ("s",)),
        ],
        "stream": [
            ("dynamic.DeltaCSR.edge_arrays", ("calls", "s")),
            ("dynamic.DeltaCSR.gather", ("calls", "s")),
            ("dynamic.DeltaCSR.writes", ("calls", "s")),
            ("dynamic.DeltaCSR.maybe_compact", ("calls", "s")),
            ("graphcore.is_proper_edges", ("s",)),
            ("graphcore.used_color_masks_from_flat", ("s",)),
            ("graphcore.conflict_mask_from_flat", ("s",)),
        ],
    }
    for phase, layers in listed.items():
        covered = 0.0
        for layer, stats in layers:
            calls, rows, seconds = probe.layer_totals(phase, layer)
            covered += seconds
            values = {"calls": (calls, "count"), "rows": (rows, "count"),
                      "s": (seconds, "s")}
            for stat in stats:
                out[f"{phase}.{layer}.{stat}"] = values[stat]
        spans = probe.spans_self_s(phase)
        wall = probe.phase_wall[phase]
        out[f"{phase}.s"] = (wall, "s")
        out[f"{phase}.other_s"] = (max(0.0, spans - covered), "s")
        out[f"{phase}.unattributed_s"] = (max(0.0, wall - spans), "s")

    stage_rounds: dict = {}
    for p in passes:
        for stage, rounds in p.layers.get("stage_rounds", {}).items():
            stage_rounds[stage] = stage_rounds.get(stage, 0) + rounds
    for stage in STAGES:
        out[f"color.rounds_h.{stage}"] = (stage_rounds.get(stage, 0), "count")
    for key in ("retries", "fallback_vertices"):
        out[f"color.{key}"] = (sum(p.layers.get(key, 0) for p in passes), "count")
    for key in ("frontier", "repaired", "greedy_vertices", "escalations",
                "compactions"):
        out[f"stream.dynamic.{key}"] = (
            sum(p.layers.get(key, 0) for p in passes), "count"
        )
    out["stream.dynamic.recolor_fraction"] = (
        statistics.mean(p.layers.get("recolor_fraction", 0.0) for p in passes),
        "fraction",
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-passes", type=int, default=None)
    parser.add_argument("--budget-s", type=float, default=math.inf)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    probe = None
    clock = SpeedClock()
    with contextlib.ExitStack() as stack:
        if args.trace:
            from probe import Probe

            probe = stack.enter_context(Probe().installed())
        with clock.running():
            passes = run_passes(
                args.workload, args.seed, args.seconds,
                min_passes=args.min_passes, probe=probe, budget_s=args.budget_s,
            )
    problems = gate_failures(passes)
    for problem in problems:
        print(f"gate: {problem}", file=sys.stderr)
    metrics = (
        per_layer(probe, passes) if probe is not None else end_to_end(passes, clock)
    )
    attempted = sum(p.attempted for p in passes)
    print(json.dumps({
        "attempted": attempted,
        "failed": min(attempted, len(problems)),
        "digest": passes[0].digest,
        "exact": passes[0].exact,
        "passes": len(passes),
        "slowdown": statistics.median(clock.kernel_s) / NOMINAL_S
        if clock.kernel_s else 1.0,
        "run_s": statistics.median(
            sum(clock.seconds(a, b) for a, b in p.run) for p in passes
        ),
        "run_wall_s": statistics.median(
            sum(b - a for a, b in p.run) for p in passes
        ),
        "metrics": {k: list(v) for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
