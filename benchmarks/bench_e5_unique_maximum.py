"""E5 -- Lemmas 5.3/5.4: the maximum of d geometrics is unique w.p. >= 2/3,
and (given uniqueness) its location is uniform.

These two facts are what turn fingerprints into an anti-edge sampler
(Section 6); the benchmark measures both across d.
"""

import numpy as np
import pytest

from repro.observe import ExperimentRecord
from repro.sketch import argmax_with_uniqueness, non_unique_max_bound, sample_geometric

from _harness import emit

REPS = 6000


@pytest.mark.benchmark(group="e5")
def test_e5_unique_maximum(benchmark):
    record = ExperimentRecord(
        experiment="E5 unique maximum",
        claim="Lemma 5.3: unique max w.p. >= 2/3 (any d); Lemma 5.4: argmax uniform",
        params_preset="n/a (pure sketch)",
    )
    rng = np.random.default_rng(29)

    def run_all():
        for d in (2, 8, 64, 512):
            xs = sample_geometric(rng, (REPS, d))
            unique_count = 0
            argmax_hist = np.zeros(d)
            for row in xs:
                idx, unique = argmax_with_uniqueness(row)
                if unique:
                    unique_count += 1
                    argmax_hist[idx] += 1
            p_unique = unique_count / REPS
            freqs = argmax_hist / max(1, unique_count)
            max_dev = float(np.max(np.abs(freqs - 1.0 / d)))
            record.add_row(
                d=d,
                p_unique=round(p_unique, 3),
                lemma_floor=round(1 - non_unique_max_bound(), 3),
                argmax_max_dev_from_uniform=round(max_dev, 4),
            )
            assert p_unique >= 2 / 3 - 0.03
            assert max_dev < 3.0 / d  # uniform within sampling noise

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    emit(record)
