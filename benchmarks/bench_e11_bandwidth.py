"""E11 -- model compliance: every message the pipeline puts on a link fits
the O(log n)-bit cap (pipelined operations split honestly).

Claim shape: across every workload family, the ledger's maximum recorded
message width never exceeds the bandwidth, and total bits per link-round
stay bounded.

Thin wrapper over the ``e11_bandwidth_compliance`` scenario suite: the six
workload families are the suite's cells, and the cap is the
``bandwidth_cap_bits`` metric every cell records.
"""

import pytest

from repro.observe import ExperimentRecord

from _harness import emit, run_suite_cells


@pytest.mark.benchmark(group="e11")
def test_e11_bandwidth_compliance(benchmark):
    record = ExperimentRecord(
        experiment="E11 bandwidth compliance",
        claim="Model (Sec 3.2): every link carries <= O(log n) bits per round",
        params_preset="scaled",
    )

    def run_all():
        for cell_record in run_suite_cells("e11_bandwidth_compliance"):
            m = cell_record["metrics"]
            record.add_row(
                family=cell_record["cell"]["workload"],
                machines=m["machines"],
                cap_bits=m["bandwidth_cap_bits"],
                widest_message=m["max_message_bits"],
                rounds_h=m["rounds_h"],
                proper=m["proper"],
            )
            assert m["proper"]
            assert m["max_message_bits"] <= m["bandwidth_cap_bits"]

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    emit(record)
