"""E14 -- Corollary 1.3: distance-2 coloring with Delta_2 + 1 colors via
virtual graphs, at the same round shape as Theorem 1.2.

Claim shape: on growing CONGEST networks, the virtual-graph pipeline
produces proper G^2 colorings within the Delta_2 + 1 budget, with rounds
flat in n and the congestion-2 overhead visible only in G-rounds.
"""

import networkx as nx
import numpy as np
import pytest

from repro import color_cluster_graph
from repro.cluster import distance2_virtual_graph, power_graph_degree_bound
from repro.observe import ExperimentRecord
from repro.network import CommGraph

from _harness import emit

SIZES = (200, 400, 800)


@pytest.mark.benchmark(group="e14")
def test_e14_distance2(benchmark):
    record = ExperimentRecord(
        experiment="E14 distance-2 coloring",
        claim="Cor 1.3: Delta_2+1 coloring of G^2; rounds flat, congestion in G-rounds",
        params_preset="scaled",
    )
    rounds = []

    def run_all():
        for n in SIZES:
            g = nx.connected_watts_strogatz_graph(n, 8, 0.15, seed=19)
            comm = CommGraph.from_networkx(g)
            vg = distance2_virtual_graph(comm)
            result = color_cluster_graph(vg, seed=21)
            assert result.proper
            budget = power_graph_degree_bound(comm) + 1
            assert result.num_colors == budget
            # spot-check the radio constraint on G
            colors = result.colors
            for u in range(0, comm.n, max(1, comm.n // 50)):
                for v in comm.neighbors(u):
                    assert colors[u] != colors[v]
                    for x in comm.neighbors(v):
                        if x != u:
                            assert colors[u] != colors[x]
            rounds.append(result.rounds_h)
            record.add_row(
                machines=n,
                delta2=vg.max_degree,
                colors_budget=budget,
                rounds_h=result.rounds_h,
                rounds_g=result.rounds_g,
                congestion=vg.congestion,
            )

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    assert rounds[-1] < 2.0 * rounds[0]
    emit(record)
