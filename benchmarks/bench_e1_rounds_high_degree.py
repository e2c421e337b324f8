"""E1 -- Theorem 1.2: O(d · log* n) rounds when Δ ≥ Δ_low.

Claim shape: H-round count stays essentially flat while n (and Δ) grow by
an order of magnitude; a log-n-round algorithm would grow visibly, a
Δ-dependent one drastically.

Thin wrapper over the ``e1_rounds_high_degree`` scenario suite
(:mod:`repro.experiments`): the grid, execution, and metric extraction live
in the subsystem; this script keeps the claim assertion and the
EXPERIMENTS.md table.
"""

import math

import pytest

from repro import log_star
from repro.observe import ExperimentRecord

from _harness import emit, run_suite_cells


@pytest.mark.benchmark(group="e1")
def test_e1_rounds_flat_in_n(benchmark):
    record = ExperimentRecord(
        experiment="E1 rounds vs n (high degree)",
        claim="Theorem 1.2: O(d log* n) rounds for Delta >= Delta_low",
        params_preset="scaled",
    )
    rounds = {}

    def run_all():
        for cell_record in run_suite_cells("e1_rounds_high_degree"):
            n_vertices = cell_record["cell"]["workload_kwargs"]["n_vertices"]
            m = cell_record["metrics"]
            assert m["proper"]
            rounds[n_vertices] = m["rounds_h"]
            record.add_row(
                machines=m["machines"],
                delta=m["delta"],
                regime=m["regime_effective"],
                rounds_h=m["rounds_h"],
                rounds_over_log_n=round(m["rounds_h"] / math.log2(m["machines"]), 1),
                log_star_n=log_star(m["machines"]),
                fallbacks=m["fallbacks"],
            )
        return rounds

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    sizes = sorted(rounds)
    # flat within 40% while n grows 8x (log n would grow 1.6x here, but the
    # point is that rounds do not track Delta, which grows 8x)
    assert rounds[sizes[-1]] < 1.4 * rounds[sizes[0]]
    record.notes.append(
        f"n grew {sizes[-1] // sizes[0]}x, rounds changed "
        f"{rounds[sizes[-1]] / rounds[sizes[0]]:.2f}x -- log*-flat shape holds"
    )
    emit(record)
