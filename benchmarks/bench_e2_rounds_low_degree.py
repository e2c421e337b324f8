"""E2 -- Theorem 1.1: O(d · polyloglog n) rounds at low degree.

Claim shape: the Section 9 path (shattering + small-instance finishing)
keeps rounds near-constant in n, with post-shattering components of
polylogarithmic size.
"""

import math

import numpy as np
import pytest

from repro import color_cluster_graph
from repro.observe import ExperimentRecord
from repro.workloads import low_degree_instance

from _harness import emit

SIZES = (250, 500, 1000, 2000, 4000)


@pytest.mark.benchmark(group="e2")
def test_e2_low_degree_rounds(benchmark):
    record = ExperimentRecord(
        experiment="E2 rounds vs n (low degree)",
        claim="Theorem 1.1: O(d log^7 log n) rounds at any Delta",
        params_preset="scaled",
    )
    rounds = {}

    def run_all():
        for n_vertices in SIZES:
            w = low_degree_instance(
                np.random.default_rng(6), n_vertices=n_vertices, target_degree=8,
                cluster_size=2, topology="star",
            )
            result = color_cluster_graph(w.graph, seed=4)
            assert result.proper
            assert result.stats.regime == "low_degree"
            n = w.graph.n_machines
            loglog = math.log2(max(2.0, math.log2(n)))
            rounds[n_vertices] = result.rounds_h
            shatter_note = result.stats.notes[0] if result.stats.notes else ""
            record.add_row(
                machines=n,
                delta=w.graph.max_degree,
                rounds_h=result.rounds_h,
                rounds_over_loglog=round(result.rounds_h / loglog, 1),
                shattering=shatter_note.replace("shattering left ", ""),
                fallbacks=sum(result.stats.fallbacks.values()),
            )

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    # polyloglog shape: 16x growth in n should barely move the rounds
    assert rounds[SIZES[-1]] <= rounds[SIZES[0]] + 12
    emit(record)


@pytest.mark.benchmark(group="e2")
def test_e2_shattered_components(benchmark):
    """With the shattering phase truncated, the post-shattering component
    structure becomes visible: components stay polylog-sized and the
    small-instance finisher completes them in few rounds (the Lemma 9.1
    stand-in of DESIGN.md 3.4)."""
    from repro.coloring.low_degree import (
        shattering,
        small_instance_coloring,
        uncolored_components,
    )
    from repro.coloring.types import PartialColoring
    from repro.verify import is_proper
    from _harness import make_runtime

    record = ExperimentRecord(
        experiment="E2b shattered components",
        claim="[BEPS16] shattering: leftover components are polylog-sized",
        params_preset="scaled",
    )

    def run_all():
        for n_vertices in (1000, 2000, 4000):
            w = low_degree_instance(
                np.random.default_rng(7), n_vertices=n_vertices,
                target_degree=10, cluster_size=1,
            )
            runtime = make_runtime(w.graph, n_vertices)
            coloring = PartialColoring.empty(
                w.graph.n_vertices, w.graph.max_degree + 1
            )
            remaining = shattering(
                runtime, coloring, list(range(w.graph.n_vertices)), rounds=2
            )
            comps = uncolored_components(w.graph, coloring, remaining)
            before = runtime.ledger.rounds_h
            stuck = small_instance_coloring(runtime, coloring, comps)
            finish_rounds = runtime.ledger.rounds_h - before
            assert stuck == []
            assert is_proper(w.graph, coloring.colors)
            max_comp = max((len(c) for c in comps), default=0)
            record.add_row(
                n=n_vertices,
                uncolored_after_2_rounds=len(remaining),
                components=len(comps),
                max_component=max_comp,
                polylog_budget=int(math.log2(n_vertices) ** 3),
                finish_rounds=finish_rounds,
            )
            assert max_comp <= math.log2(n_vertices) ** 3

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    emit(record)
