"""E6 -- Proposition 4.3 / Lemma 5.8: the fingerprint-based ACD recovers
the almost-clique structure w.h.p. in O(eps^-2) rounds.

Claim shape: across seeds, planted almost-cliques are recovered exactly,
the decomposition satisfies Definition 4.2, agrees with the exact-
friendliness reference, and the round cost is independent of n.
"""

import numpy as np
import pytest

from repro.decomposition import annotate_with_cabals, compute_acd, exact_acd_reference
from repro.observe import ExperimentRecord
from repro.params import scaled
from repro.verify import check_acd
from repro.workloads import planted_acd_instance
from _harness import emit, make_runtime

SEEDS = range(10)


@pytest.mark.benchmark(group="e6")
def test_e6_acd_recovery(benchmark):
    record = ExperimentRecord(
        experiment="E6 almost-clique decomposition quality",
        claim="Prop 4.3: eps-ACD in O(1/eps^2) rounds w.h.p.",
        params_preset="scaled",
    )
    outcomes = {"exact": 0, "valid": 0, "matches_reference": 0}
    rounds = []

    def run_all():
        for seed in SEEDS:
            w = planted_acd_instance(np.random.default_rng(seed))
            runtime = make_runtime(w.graph, seed + 500)
            before = runtime.ledger.rounds_h
            acd = annotate_with_cabals(runtime, compute_acd(runtime))
            rounds.append(runtime.ledger.rounds_h - before)
            found = sorted(tuple(c) for c in acd.cliques)
            planted = sorted(tuple(c) for c in w.planted_cliques)
            outcomes["exact"] += found == planted
            outcomes["valid"] += check_acd(w.graph, acd, scaled().eps) == []
            _s, ref = exact_acd_reference(w.graph, scaled().eps, xi=0.25)
            outcomes["matches_reference"] += found == sorted(
                tuple(c) for c in ref
            )

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    n_seeds = len(list(SEEDS))
    record.add_row(
        seeds=n_seeds,
        exact_recovery=f"{outcomes['exact']}/{n_seeds}",
        definition_4_2_valid=f"{outcomes['valid']}/{n_seeds}",
        matches_exact_reference=f"{outcomes['matches_reference']}/{n_seeds}",
        mean_rounds=round(float(np.mean(rounds)), 1),
    )
    assert outcomes["exact"] >= n_seeds - 1
    assert outcomes["valid"] == n_seeds
    emit(record)
