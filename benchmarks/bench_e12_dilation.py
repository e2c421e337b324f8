"""E12 -- the d-dependency of Theorems 1.1/1.2: G-rounds scale linearly
with the cluster dilation while H-rounds stay put.

Claim shape: identical conflict graph, clusters re-wired from stars
(dilation 1) to ever longer paths; rounds_g / rounds_h tracks d.
"""

import networkx as nx
import numpy as np
import pytest

from repro import color_cluster_graph
from repro.cluster import blowup
from repro.observe import ExperimentRecord

from _harness import emit


@pytest.mark.benchmark(group="e12")
def test_e12_dilation_linear(benchmark):
    record = ExperimentRecord(
        experiment="E12 dilation dependency",
        claim="Thm 1.1/1.2: round cost on G is linear in the dilation d",
        params_preset="scaled",
    )
    conflict = nx.erdos_renyi_graph(150, 0.4, seed=13)
    ratios = {}

    def run_all():
        for cluster_size, topology in ((2, "star"), (4, "path"), (8, "path"), (16, "path")):
            graph = blowup(
                conflict, np.random.default_rng(3), cluster_size=cluster_size,
                topology=topology,
            )
            result = color_cluster_graph(graph, seed=12)
            assert result.proper
            d = graph.dilation
            ratio = result.rounds_g / max(1, result.rounds_h)
            ratios[d] = ratio
            record.add_row(
                cluster_size=cluster_size,
                topology=topology,
                dilation=d,
                rounds_h=result.rounds_h,
                rounds_g=result.rounds_g,
                g_over_h=round(ratio, 2),
            )

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    ds = sorted(ratios)
    # ratio grows linearly with d: ratio(d_max)/ratio(d_min) ~ d_max/d_min
    growth = ratios[ds[-1]] / ratios[ds[0]]
    expected = ds[-1] / ds[0]
    record.notes.append(
        f"d grew {expected:.0f}x, G/H round ratio grew {growth:.1f}x"
    )
    assert 0.5 * expected <= growth <= 1.5 * expected
    emit(record)
