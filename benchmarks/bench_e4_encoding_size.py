"""E4 -- Lemmas 5.5/5.6: fingerprints encode in O(t + loglog d) bits.

Claim shape: measured encoded size grows linearly in t with a small
constant (< 6 bits/trial), is nearly independent of d, and beats the naive
per-value encoding once t is moderate.
"""

import numpy as np
import pytest

from repro.observe import ExperimentRecord
from repro.sketch import encoded_size_bits, sample_max_of_geometrics

from _harness import emit


@pytest.mark.benchmark(group="e4")
def test_e4_encoding_size(benchmark):
    record = ExperimentRecord(
        experiment="E4 encoding size",
        claim="Lemma 5.6: t maxima encode in O(t + loglog d) bits w.h.p.",
        params_preset="n/a (pure sketch)",
    )
    rng = np.random.default_rng(23)
    by_t = {}

    def run_all():
        for d in (16, 4096, 10**6, 10**9):
            for t in (128, 512, 2048):
                sizes = [
                    encoded_size_bits(sample_max_of_geometrics(rng, d, t))
                    for _ in range(30)
                ]
                naive = t * int(np.ceil(np.log2(np.log2(d) + 20)))
                mean_bits = float(np.mean(sizes))
                record.add_row(
                    d=d,
                    t=t,
                    mean_bits=round(mean_bits, 1),
                    bits_per_trial=round(mean_bits / t, 2),
                    naive_bits=naive,
                    savings=f"{(1 - mean_bits / naive) * 100:.0f}%",
                )
                assert mean_bits / t < 6.0
                if d == 10**6:
                    by_t[t] = mean_bits

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    ratio = by_t[2048] / by_t[128]
    assert 12 < ratio < 20  # linear in t (16x)
    record.notes.append(f"size(t=2048)/size(t=128) = {ratio:.1f} (linear in t)")
    emit(record)
