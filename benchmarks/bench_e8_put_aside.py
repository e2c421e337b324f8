"""E8 -- Proposition 4.19 / Section 7: put-aside sets are colored in O(1)
rounds by donation, without touching the rest of the graph.

Claim shape: on cabal-heavy instances the full cabal stage finishes with
put-aside sets colored via the Section 7 machinery (free colors or
donation), zero global fallbacks, and the donation stage's round cost is a
small constant independent of Delta.
"""

import numpy as np
import pytest

from repro import color_cluster_graph
from repro.observe import ExperimentRecord
from repro.workloads import cabal_instance

from _harness import emit


@pytest.mark.benchmark(group="e8")
def test_e8_put_aside_donation(benchmark):
    record = ExperimentRecord(
        experiment="E8 put-aside coloring",
        claim="Prop 4.19: put-aside sets colored in O(1) rounds by donation",
        params_preset="scaled",
    )
    donation_rounds = {}

    def run_all():
        for clique_size in (120, 240, 480):
            w = cabal_instance(
                np.random.default_rng(31), n_cabals=2, clique_size=clique_size,
                anti_degree=2, cluster_size=1,
            )
            result = color_cluster_graph(w.graph, seed=8)
            assert result.proper
            per_op = result.stats.stage_rounds
            record.add_row(
                clique_size=clique_size,
                delta=w.graph.max_degree,
                regime=result.stats.regime,
                cabal_stage_rounds=per_op.get("cabals", 0),
                fallbacks=sum(result.stats.fallbacks.values()),
                donation_retries=result.stats.retries.get("cabals_donation", 0),
            )
            donation_rounds[clique_size] = per_op.get("cabals", 0)
            assert result.stats.fallbacks.get("cabals", 0) == 0

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    # O(1)-in-Delta shape: quadrupling the cabal size must not double the
    # cabal-stage round count
    assert donation_rounds[480] < 2.0 * donation_rounds[120]
    emit(record)
