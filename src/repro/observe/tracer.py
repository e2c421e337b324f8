"""Stage-level tracing: nested spans over wall time, ledger windows, counters.

The paper bounds every phase of the algorithm separately -- ACD
construction, slack generation, cabal coloring, synchronized trials, the
put-aside finish -- in ``O(log* n)`` broadcast-and-aggregate rounds, but a
:class:`~repro.network.ledger.BandwidthLedger` only accumulates run totals.
A :class:`Tracer` attributes those totals: each :meth:`Tracer.span` opens a
named window that records wall time, the ledger counters accumulated inside
it (``rounds_h`` / ``rounds_g`` / payload bits, plus the true
*window-local* maximum message width via the ledger's max-window stack),
and free-form counters (frontier sizes, escalations, rows processed).
Spans nest: a stage span contains its per-pass spans, and a child's
counters are a sub-interval of its parent's.

The default is the module singleton :data:`NULL_TRACER`, whose ``span``
returns a shared no-op context manager -- the overhead of an untraced call
site is one attribute lookup and one method call.  A tracer reaches a run
inside :class:`~repro.observe.instruments.Instruments`; the invisibility
contract is in docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "SpanRecord",
    "Tracer",
    "aggregate_stage_rows",
    "stage_rows",
]


@dataclass
class SpanRecord:
    """One closed (or still-open) span: a named, tagged measurement window.

    ``rounds_h`` / ``rounds_g`` / ``message_bits`` / ``num_operations`` are
    ledger-counter differences between span entry and exit (zero when the
    tracer has no bound ledger); ``max_message_bits`` is the true
    *window-local* maximum capped message width (see
    :meth:`repro.network.ledger.BandwidthLedger.push_max_window`), not the
    ledger's global running maximum.
    """

    name: str
    tags: dict[str, Any] = field(default_factory=dict)
    wall_time_s: float = 0.0
    rounds_h: int = 0
    rounds_g: int = 0
    message_bits: int = 0
    max_message_bits: int = 0
    num_operations: int = 0
    #: Simulated time accumulated inside the span when the bound ledger
    #: carries a heterogeneous network model (:mod:`repro.network.hetnet`);
    #: stays 0.0 -- and is omitted from the serialized span -- otherwise.
    makespan_ms: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)
    children: list["SpanRecord"] = field(default_factory=list)

    def counter(self, name: str, value: float = 1) -> None:
        """Accumulate ``value`` onto this span's counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + value

    def walk(self) -> Iterator["SpanRecord"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready rendering (the artifact ``trace`` section schema)."""
        out: dict[str, Any] = {
            "name": self.name,
            "wall_time_s": round(self.wall_time_s, 6),
            "rounds_h": self.rounds_h,
            "rounds_g": self.rounds_g,
            "message_bits": self.message_bits,
            "max_message_bits": self.max_message_bits,
            "num_operations": self.num_operations,
        }
        if self.makespan_ms:
            out["makespan_ms"] = round(self.makespan_ms, 6)
        if self.tags:
            out["tags"] = dict(self.tags)
        if self.counters:
            out["counters"] = dict(self.counters)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out


class _ActiveSpan:
    """Context manager handed out by :meth:`Tracer.span`.

    Exposes the underlying :class:`SpanRecord` as ``record`` and forwards
    :meth:`counter` to it, so call sites can write
    ``with tracer.span("x") as sp: sp.counter("rows", k)``.
    """

    __slots__ = ("_tracer", "record", "_start", "_before")

    def __init__(self, tracer: "Tracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self.record = record
        self._start = 0.0
        self._before = None

    def counter(self, name: str, value: float = 1) -> None:
        """Accumulate ``value`` onto the span's counter ``name``."""
        self.record.counter(name, value)

    def __enter__(self) -> "_ActiveSpan":
        ledger = self._tracer.ledger
        if ledger is not None:
            self._before = ledger.snapshot()
            ledger.push_max_window()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.record.wall_time_s += time.perf_counter() - self._start
        ledger = self._tracer.ledger
        if ledger is not None and self._before is not None:
            after = ledger.snapshot()
            before = self._before
            self.record.rounds_h += after.rounds_h - before.rounds_h
            self.record.rounds_g += after.rounds_g - before.rounds_g
            self.record.message_bits += (
                after.total_message_bits - before.total_message_bits
            )
            self.record.num_operations += (
                after.num_operations - before.num_operations
            )
            self.record.makespan_ms += after.makespan_ms - before.makespan_ms
            window_max = ledger.pop_max_window()
            if window_max > self.record.max_message_bits:
                self.record.max_message_bits = window_max
        self._tracer._pop(self.record)
        return False


class Tracer:
    """Collects a tree of :class:`SpanRecord` windows for one execution.

    Parameters
    ----------
    ledger:
        Optional :class:`~repro.network.ledger.BandwidthLedger` whose
        counters spans attribute.  :meth:`Instruments.attach
        <repro.observe.instruments.Instruments.attach>` binds the executing
        run's ledger before any span opens.

    The tracer is single-threaded by design (like the runtimes it traces):
    spans close in LIFO order, enforced with a ``RuntimeError`` on misuse.
    """

    def __init__(self, ledger=None) -> None:
        self.ledger = ledger
        self.root = SpanRecord(name="trace")
        self._stack: list[SpanRecord] = [self.root]

    # ---- wiring --------------------------------------------------------------

    def bind_ledger(self, ledger) -> None:
        """Attach the ledger whose counters spans will attribute.

        Binding is only legal while no span is open: an open span holds a
        snapshot (and a max-window frame) of the previously bound ledger,
        and swapping underneath it would mis-attribute every counter.
        """
        if len(self._stack) > 1:
            raise RuntimeError(
                "cannot bind a ledger while spans are open "
                f"(innermost: {self._stack[-1].name!r})"
            )
        self.ledger = ledger

    # ---- spans ---------------------------------------------------------------

    def span(self, name: str, **tags: Any) -> _ActiveSpan:
        """Open a named child span of the innermost open span.

        Returns a context manager; counters recorded through it land on
        this span.  Tags are free-form identifying labels (``round=3``).
        """
        record = SpanRecord(name=name, tags=tags)
        self._stack[-1].children.append(record)
        self._stack.append(record)
        return _ActiveSpan(self, record)

    def _pop(self, record: SpanRecord) -> None:
        if self._stack[-1] is not record:  # pragma: no cover - misuse guard
            raise RuntimeError(
                f"span {record.name!r} closed out of order "
                f"(innermost is {self._stack[-1].name!r})"
            )
        self._stack.pop()

    # ---- views ---------------------------------------------------------------

    @property
    def spans(self) -> list[SpanRecord]:
        """The top-level spans (direct children of the implicit root)."""
        return self.root.children

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready trace tree: ``{"spans": [...]}`` (the artifact
        ``trace`` section)."""
        return {"spans": [s.to_dict() for s in self.spans]}


class _NullSpan:
    """The shared no-op span: enters, exits, and counts into the void."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def counter(self, name: str, value: float = 1) -> None:
        """No-op."""


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The default tracer: every operation is a no-op.

    ``span`` hands back one shared context-manager instance, so the cost
    of an untraced call site is a method call and nothing else -- no
    allocation, no clock read, no ledger snapshot.  Use the module
    singleton :data:`NULL_TRACER` rather than constructing new instances.
    """

    def bind_ledger(self, ledger) -> None:
        """No-op."""

    def span(self, name: str, **tags: Any) -> _NullSpan:
        """Return the shared no-op span."""
        return _NULL_SPAN

    def to_dict(self) -> None:
        """A null tracer has no trace (``None``, not an empty tree)."""
        return None


#: Module-level no-op singleton every runtime defaults to.
NULL_TRACER = NullTracer()


# ---- table views ------------------------------------------------------------


def stage_rows(
    trace: Tracer | dict[str, Any] | None,
) -> list[dict[str, Any]]:
    """Flatten a trace's *top-level* spans into table-ready stage rows.

    Accepts a live :class:`Tracer` or a serialized ``to_dict()`` tree (the
    artifact ``trace`` section).  One row per top-level span, in execution
    order: ``stage`` (name plus any tags), ``wall_s``, ``rounds_h``,
    ``rounds_g``, ``bits``, ``max_bits``.  Top-level spans partition the
    run, so summing any column reproduces the run's ledger totals -- the
    invariant ``repro trace`` prints and tests assert.
    """
    if trace is None:
        return []
    spans = trace.to_dict()["spans"] if isinstance(trace, Tracer) else (
        trace.get("spans", [])
    )
    rows = []
    for span in spans:
        tags = span.get("tags", {})
        label = span["name"]
        if tags:
            label += "[" + ",".join(f"{k}={v}" for k, v in sorted(tags.items())) + "]"
        rows.append(
            {
                "stage": label,
                "wall_s": float(span.get("wall_time_s", 0.0)),
                "rounds_h": int(span.get("rounds_h", 0)),
                "rounds_g": int(span.get("rounds_g", 0)),
                "bits": int(span.get("message_bits", 0)),
                "max_bits": int(span.get("max_message_bits", 0)),
                "makespan_ms": float(span.get("makespan_ms", 0.0)),
            }
        )
    return rows


def aggregate_stage_rows(rows: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Merge stage rows that share a span *name* (tags stripped), summing
    every column -- e.g. the per-batch ``stream.batch[batch=i]`` rows of a
    stream trace collapse into one ``stream.batch`` row.  ``max_bits``
    merges by maximum (it is a width, not a payload)."""
    merged: dict[str, dict[str, Any]] = {}
    for row in rows:
        name = row["stage"].split("[", 1)[0]
        bucket = merged.setdefault(
            name,
            {"stage": name, "wall_s": 0.0, "rounds_h": 0, "rounds_g": 0,
             "bits": 0, "max_bits": 0, "makespan_ms": 0.0, "spans": 0},
        )
        bucket["wall_s"] += row["wall_s"]
        bucket["rounds_h"] += row["rounds_h"]
        bucket["rounds_g"] += row["rounds_g"]
        bucket["bits"] += row["bits"]
        bucket["max_bits"] = max(bucket["max_bits"], row["max_bits"])
        bucket["makespan_ms"] += row.get("makespan_ms", 0.0)
        bucket["spans"] += 1
    return list(merged.values())
