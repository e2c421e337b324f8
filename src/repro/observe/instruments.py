"""One bundle for everything that watches an execution without steering it.

A run can carry three observers: a :class:`~repro.observe.tracer.Tracer`
(stage spans), a :class:`~repro.observe.metrics.MetricsRegistry` (live
per-batch instruments) and a :class:`~repro.network.hetnet.HetNetModel`
(simulated-clock makespan).  All three only read the ledger's charges, so
they travel together as one :class:`Instruments` value and are attached to
a ledger in one place, :meth:`Instruments.attach`.  The invisibility
contract they share is stated once, in docs/OBSERVABILITY.md.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.observe.tracer import NULL_TRACER

__all__ = ["Instruments", "NO_INSTRUMENTS"]


@dataclass(frozen=True)
class Instruments:
    """The observers of one execution.

    ``tracer`` defaults to the no-op :data:`~repro.observe.tracer.NULL_TRACER`;
    ``metrics`` is read by the stream engine and the service only;
    ``netmodel`` prices every charge of the ledger it is attached to.
    """

    tracer: Any = NULL_TRACER
    metrics: Any = None
    netmodel: Any = None

    def attach(self, ledger) -> None:
        """Hook the tracer and the network model onto a fresh ledger."""
        if self.netmodel is not None:
            ledger.attach_netmodel(self.netmodel)
        self.tracer.bind_ledger(ledger)

    def with_workload(self, workload) -> "Instruments":
        """These instruments with the workload's sampled fabric, if any, as
        the network model (generators sample one when given ``net_skew`` /
        ``net_fill``)."""
        return replace(self, netmodel=getattr(workload, "netmodel", None))

    def network_fields(self, ledger_summary: dict[str, Any]) -> dict[str, Any]:
        """The ``makespan_ms`` / ``critical_link`` metrics a network model
        adds; empty without one, so homogeneous artifacts keep their keys."""
        if self.netmodel is None:
            return {}
        return {
            "makespan_ms": ledger_summary["makespan_ms"],
            "critical_link": self.netmodel.critical_element()[0],
        }


#: The bare run: no tracer, no registry, no network model.
NO_INSTRUMENTS = Instruments()
