"""E9 -- Proposition 4.5: SlackGeneration gives sparse vertices Omega(Delta)
slack and dense vertices Omega(e_v) reuse slack, coloring only a small
fraction of each clique.

Claim shape: measured permanent slack of sparse vertices scales linearly
with Delta across instance sizes; dense cliques keep >= 3/4 of their
members uncolored.
"""

import numpy as np
import pytest

from repro.coloring.slack import slack_generation
from repro.coloring.types import PartialColoring
from repro.decomposition import annotate_with_cabals, compute_acd
from repro.observe import ExperimentRecord
from repro.workloads import planted_acd_instance

from _harness import emit, make_runtime


@pytest.mark.benchmark(group="e9")
def test_e9_slack_generation(benchmark):
    record = ExperimentRecord(
        experiment="E9 slack generation",
        claim="Prop 4.5: sparse slack ~ Delta; cliques stay mostly uncolored",
        params_preset="scaled",
    )
    slack_by_delta = {}

    def run_all():
        for clique_size in (40, 80, 160):
            w = planted_acd_instance(
                np.random.default_rng(41), clique_size=clique_size,
                n_sparse=2 * clique_size, cluster_size=1,
            )
            g = w.graph
            runtime = make_runtime(g, clique_size)
            acd = annotate_with_cabals(runtime, compute_acd(runtime))
            coloring = PartialColoring.empty(g.n_vertices, g.max_degree + 1)
            eligible = [
                v for v in range(g.n_vertices) if not acd.is_cabal_vertex(v)
            ]
            colored = slack_generation(runtime, coloring, eligible)

            sparse_slacks = coloring.slacks(g, acd.sparse).tolist()
            clique_colored_frac = [
                sum(coloring.is_colored(v) for v in m) / len(m)
                for m in acd.cliques
            ] or [0.0]
            reuse = len(colored) - len({coloring.get(v) for v in colored})
            mean_slack = float(np.mean(sparse_slacks)) if sparse_slacks else 0.0
            slack_by_delta[g.max_degree] = mean_slack
            record.add_row(
                delta=g.max_degree,
                sparse_mean_slack=round(mean_slack, 1),
                slack_over_delta=round(mean_slack / g.max_degree, 2),
                max_clique_colored_frac=round(max(clique_colored_frac), 2),
                reuse_pairs=reuse,
            )
            assert max(clique_colored_frac) <= 0.3
            assert mean_slack > 0.2 * g.max_degree

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    deltas = sorted(slack_by_delta)
    ratio = slack_by_delta[deltas[-1]] / slack_by_delta[deltas[0]]
    growth = deltas[-1] / deltas[0]
    record.notes.append(
        f"Delta grew {growth:.1f}x, sparse slack grew {ratio:.1f}x (linear shape)"
    )
    assert ratio > 0.5 * growth
    emit(record)
