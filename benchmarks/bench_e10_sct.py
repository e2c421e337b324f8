"""E10 -- Lemma 4.13: the synchronized color trial leaves at most
(24/alpha) max(e_K, ell) participants uncolored, even though |S_K| ~ Delta.

Claim shape: leftovers scale with the *external* degree, not with the
clique size; the measured constant sits far below the lemma's 24/alpha.
"""

import networkx as nx
import numpy as np
import pytest

from repro.cluster import blowup
from repro.coloring.clique_palette import palette_view
from repro.coloring.synchronized_trial import SctPlan, synchronized_color_trial
from repro.coloring.types import PartialColoring
from repro.observe import ExperimentRecord
from repro.params import scaled

from _harness import emit, make_runtime


def _two_cliques_with_cross_edges(size: int, cross: int, seed: int):
    h = nx.Graph()
    a = list(range(size))
    b = list(range(size, 2 * size))
    for grp in (a, b):
        h.add_edges_from(
            (grp[i], grp[j]) for i in range(size) for j in range(i + 1, size)
        )
    rng = np.random.default_rng(seed)
    for _ in range(cross):
        h.add_edge(int(rng.integers(0, size)), int(rng.integers(size, 2 * size)))
    return blowup(h, np.random.default_rng(seed + 1), cluster_size=1), (a, b)


@pytest.mark.benchmark(group="e10")
def test_e10_sct_leftover_bound(benchmark):
    record = ExperimentRecord(
        experiment="E10 synchronized color trial",
        claim="Lemma 4.13: leftover <= (24/alpha) max(e_K, ell)",
        params_preset="scaled",
    )

    def run_all():
        for size, cross in ((100, 5), (100, 25), (200, 25), (200, 100)):
            graph, (a, b) = _two_cliques_with_cross_edges(size, cross, seed=cross)
            runtime = make_runtime(graph, cross + 3)
            coloring = PartialColoring.empty(
                graph.n_vertices, graph.max_degree + 1
            )
            plans = []
            for grp in (a, b):
                view = palette_view(runtime, coloring, grp)
                plans.append(
                    SctPlan(participants=list(grp), palette=view, reserved_floor=0)
                )
            leftover = synchronized_color_trial(runtime, coloring, plans)
            e_k = cross / size  # average external degree per clique
            ell = scaled().ell(graph.n_machines)
            alpha = 1.0  # participants = |K|
            bound = (24 / alpha) * max(e_k, ell)
            record.add_row(
                clique_size=size,
                cross_edges=cross,
                e_K=round(e_k, 2),
                ell=ell,
                leftover=len(leftover),
                lemma_bound=round(bound, 1),
            )
            assert len(leftover) <= bound
            # leftovers track cross edges, not clique size
            assert len(leftover) <= 2 * cross

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    emit(record)
