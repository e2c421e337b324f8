"""E15 -- regime comparison: the three pipelines on one graph.

The paper dispatches on Δ: shattering below ~log n (Section 9.1), the
Algorithm 13 ordering up to Δ_low (Section 9.2), and the full put-aside
machinery above (Section 4).  Running all three on the same instance shows
what each regime's extra machinery buys (or costs) at that scale -- the
high-degree pipeline's fixed fingerprint overhead is visible, as is the
low-degree path's dependence on palette-bitmap width.

Thin wrapper over the ``e15_cross_regime`` scenario suite: the
workload x regime cross product is the suite's grid.
"""

import pytest

from repro.observe import ExperimentRecord

from _harness import emit, run_suite_cells


@pytest.mark.benchmark(group="e15")
def test_e15_regime_comparison(benchmark):
    record = ExperimentRecord(
        experiment="E15 regime comparison",
        claim="Sections 4 / 9.2 / 9.1: three cost profiles for one problem",
        params_preset="scaled",
    )

    def run_all():
        for cell_record in run_suite_cells("e15_cross_regime"):
            cell, m = cell_record["cell"], cell_record["metrics"]
            assert m["proper"]
            record.add_row(
                workload=cell["workload"],
                delta=m["delta"],
                regime=cell["regime"],
                rounds_h=m["rounds_h"],
                bits=m["total_message_bits"],
                fallbacks=m["fallbacks"],
            )

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    record.notes.append(
        "all three regimes are correct everywhere; the dispatch thresholds "
        "pick the cheapest machinery that still has its w.h.p. headroom"
    )
    emit(record)
