"""The serial kernel entry point and the shared pool/watchdog machinery.

* :data:`repro.parallel.backend.SERIAL_BACKEND` -- the default path
  reproduces the pinned seed-0 colorings bit for bit;
* :mod:`repro.parallel.pool` -- :func:`scatter` (cell-level parallelism
  in the experiment runner) and the SIGALRM watchdog.
"""

import hashlib
import signal
import time

import numpy as np
import pytest

from repro import color_cluster_graph
from repro.parallel import WatchdogTimeout, alarm_available, scatter
from repro.parallel.pool import arm_alarm, disarm_alarm
from repro.workloads import GENERATORS

# ---- pinned serial colorings ------------------------------------------------

#: Pinned colorings (sha256 of the colors buffer, first 16 hex chars) for
#: seed-0 runs on the default path.
PINNED = {
    "figure1": "7b0a91667ad8d58a",
    "low_degree": "04d969a44989e875",  # shattering regime
    "high_degree": "1f757a107a73fad2",  # Algorithm 3 regime
}


def _digest(colors: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(colors).tobytes()).hexdigest()[:16]


class TestBackendIdentity:
    @pytest.mark.parametrize("workload", sorted(PINNED))
    def test_serial_backend_is_bitwise_default(self, workload):
        w = GENERATORS[workload](np.random.default_rng(0))
        first = color_cluster_graph(w.graph, seed=0)
        again = color_cluster_graph(w.graph, seed=0)
        assert _digest(first.colors) == PINNED[workload]
        assert first.proper
        assert first.ledger_summary == again.ledger_summary


# ---- pool machinery ---------------------------------------------------------


def _square(x):
    return x * x


def _boom(x):
    raise RuntimeError(f"boom {x}")


class TestScatter:
    def test_results_cover_all_payloads(self):
        got = dict()
        for index, result, error in scatter(
            _square, [(i,) for i in range(6)], jobs=2
        ):
            assert error is None
            got[index] = result
        assert got == {i: i * i for i in range(6)}

    def test_errors_are_captured_not_raised(self):
        triples = list(scatter(_boom, [(1,)], jobs=1))
        assert len(triples) == 1
        index, result, error = triples[0]
        assert index == 0 and result is None
        assert "boom 1" in error


class TestWatchdog:
    def test_alarm_available_on_main_thread(self):
        assert alarm_available() == hasattr(signal, "SIGALRM")

    @pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="no SIGALRM")
    def test_arm_alarm_interrupts(self):
        previous = arm_alarm(0.05)
        try:
            with pytest.raises(WatchdogTimeout):
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    pass
        finally:
            disarm_alarm()
            signal.signal(signal.SIGALRM, previous)
