"""E7 -- Lemma 6.2 / Proposition 4.15: FingerprintMatching finds a colorful
matching covering almost every vertex's anti-degree in the densest cabals.

Claim shape: in planted cabals with anti-degree a (where random color
trials would see too few anti-edges), the matching size M_K reaches at
least the typical anti-degree, so >= 90% of vertices satisfy a_v <= M_K.
"""

import numpy as np
import pytest

from repro.coloring.fingerprint_matching import (
    color_anti_edge_matching,
    fingerprint_matching,
)
from repro.coloring.types import PartialColoring
from repro.decomposition import annotate_with_cabals, compute_acd
from repro.observe import ExperimentRecord
from repro.workloads import cabal_instance
from _harness import emit, make_runtime


@pytest.mark.benchmark(group="e7")
def test_e7_fingerprint_matching(benchmark):
    record = ExperimentRecord(
        experiment="E7 colorful matching in cabals",
        claim="Prop 4.15: a_v <= M_K for >= (1-10eps)Delta vertices, w.h.p.",
        params_preset="scaled",
    )

    def run_all():
        for anti in (1, 2, 4):
            w = cabal_instance(
                np.random.default_rng(anti), n_cabals=2, clique_size=160,
                anti_degree=anti, cluster_size=1,
            )
            runtime = make_runtime(w.graph, anti + 40)
            acd = annotate_with_cabals(runtime, compute_acd(runtime))
            coloring = PartialColoring.empty(
                w.graph.n_vertices, w.graph.max_degree + 1
            )
            matchings = [
                fingerprint_matching(runtime, i, m)
                for i, m in enumerate(acd.cliques)
            ]
            colored = color_anti_edge_matching(
                runtime, coloring, matchings, reserved_floor=10
            )
            for i, members in enumerate(acd.cliques):
                m_k = colored[i]
                covered = sum(
                    1
                    for v in members
                    if acd.anti_degree_true(w.graph, v) <= m_k
                )
                frac = covered / len(members)
                record.add_row(
                    planted_anti_degree=anti,
                    clique=i,
                    size=len(members),
                    anti_edges_found=matchings[i].size,
                    M_K=m_k,
                    frac_a_v_covered=round(frac, 3),
                )
                assert frac >= 0.9

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    emit(record)
