"""Where the batched kernels run, and cell-level parallelism.

:data:`~repro.parallel.backend.SERIAL_BACKEND` is the single in-process
entry point through which the coloring layer evaluates the batched
graphcore kernels.  :mod:`repro.parallel.pool` holds the process-pool
(:func:`scatter`) and SIGALRM-watchdog machinery the experiment runner
uses to run independent cells in parallel under a time budget.
"""

from repro.parallel.backend import SERIAL_BACKEND, SerialBackend
from repro.parallel.pool import WatchdogTimeout, alarm_available, scatter

__all__ = [
    "SERIAL_BACKEND",
    "SerialBackend",
    "WatchdogTimeout",
    "alarm_available",
    "scatter",
]
