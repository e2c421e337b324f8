"""Round and bandwidth accounting for the cluster-graph model.

The model (Section 3.2): links carry ``O(log n)`` bits per synchronous round.
One round *on H* consists of a broadcast in each support tree, computation on
inter-cluster links, and a convergecast -- costing ``O(d)`` rounds on ``G``
where ``d`` is the dilation (maximum support-tree diameter).  The paper hides
the multiplicative ``d`` inside big-Oh; we track both:

* ``rounds_h`` -- rounds counted in broadcast-and-aggregate units, the number
  the theorems bound (``O(log* n)`` etc.);
* ``rounds_g`` -- underlying network rounds, showing the ``d`` dependency
  (Experiment E12).

A message wider than the bandwidth cap is either a hard
:class:`ModelViolation` (``strict=True``) or is *pipelined*: it is split into
cap-sized pieces, costing extra ``G``-rounds, which is exactly how the
paper's proofs account for long messages (e.g. Lemma 5.7's ``O(xi^-2)``
aggregation).
"""

from __future__ import annotations

import contextlib
import math
from collections import Counter
from dataclasses import dataclass, field


class ModelViolation(RuntimeError):
    """Raised when an operation breaks the communication model."""


class _MaxWindowValue:
    """Result holder yielded by :meth:`BandwidthLedger.max_window`;
    ``value`` is the window-local maximum, filled on context exit."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


@dataclass
class LedgerSnapshot:
    """Immutable view of ledger counters, for before/after diffs.

    ``makespan_ms`` is the simulated-clock total of the heterogeneous
    network model (:mod:`repro.network.hetnet`); it stays ``0.0`` on
    ledgers without an attached model, so snapshot consumers predating
    the model see only zeros.
    """

    rounds_h: int
    rounds_g: int
    total_message_bits: int
    max_message_bits: int
    num_operations: int
    makespan_ms: float = 0.0

    def diff(self, later: "LedgerSnapshot") -> "LedgerSnapshot":
        """Counters accumulated between ``self`` and ``later``.

        Contract: ``rounds_h`` / ``rounds_g`` / ``total_message_bits`` /
        ``num_operations`` are true window differences.
        ``max_message_bits`` is **not** window-local: a high-water mark
        cannot be reconstructed from two running maxima, so the diff
        carries ``later``'s *global* running maximum (the mark as of the
        window's end) unchanged.  Callers needing the true within-window
        maximum must bracket the window with
        :meth:`BandwidthLedger.push_max_window` /
        :meth:`BandwidthLedger.pop_max_window` (or the
        :meth:`BandwidthLedger.max_window` context manager), which is what
        tracer spans do.
        """
        return LedgerSnapshot(
            rounds_h=later.rounds_h - self.rounds_h,
            rounds_g=later.rounds_g - self.rounds_g,
            total_message_bits=later.total_message_bits - self.total_message_bits,
            max_message_bits=later.max_message_bits,
            num_operations=later.num_operations - self.num_operations,
            makespan_ms=later.makespan_ms - self.makespan_ms,
        )


@dataclass
class BandwidthLedger:
    """Accumulates the communication cost of a distributed execution.

    Parameters
    ----------
    bandwidth_bits:
        Per-link per-round capacity, typically ``Theta(log n)``.
    dilation:
        Default support-tree diameter ``d`` used to convert H-rounds into
        G-rounds when an operation does not override it.
    strict:
        If True, an unpipelined message wider than ``bandwidth_bits`` raises
        :class:`ModelViolation` instead of being silently split.
    netmodel:
        Optional :class:`~repro.network.hetnet.HetNetModel`.  When
        attached, every charge additionally advances the simulated clock
        (``makespan_ms``) by ``effective_rounds x envelope(capped width)``
        and accounts the time onto the critical element.  Runs attach it
        through :class:`~repro.observe.instruments.Instruments`; it is
        invisible to every other counter (docs/OBSERVABILITY.md).
    """

    bandwidth_bits: int
    dilation: int = 1
    strict: bool = True
    rounds_h: int = 0
    rounds_g: int = 0
    total_message_bits: int = 0
    max_message_bits: int = 0
    num_operations: int = 0
    per_op_rounds: Counter = field(default_factory=Counter)
    per_op_bits: Counter = field(default_factory=Counter)
    netmodel: object | None = None
    makespan_ms: float = 0.0
    #: Open max-window frames (innermost last); see :meth:`push_max_window`.
    _window_maxes: list = field(default_factory=list, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.bandwidth_bits <= 0:
            raise ValueError("bandwidth must be positive")
        if self.dilation <= 0:
            raise ValueError("dilation must be positive")

    # ---- charging -----------------------------------------------------------

    def charge(
        self,
        op: str,
        message_bits: int,
        *,
        rounds_h: int = 1,
        depth: int | None = None,
        pipelined: bool = False,
    ) -> int:
        """Charge one cluster-level operation.

        Parameters
        ----------
        op:
            Operation label (for per-op breakdowns).
        message_bits:
            Width of the widest message this operation puts on any link.
        rounds_h:
            Number of broadcast-and-aggregate units consumed.
        depth:
            Tree depth for this op; defaults to the ledger's dilation.
        pipelined:
            Whether long messages are split into cap-sized pieces over extra
            rounds instead of violating the model.

        Returns
        -------
        int
            The number of H-rounds actually charged (after pipelining).

        Notes
        -----
        Accounting invariants (relied on by the experiment artifacts):

        * **Rounds measure time** and therefore include pipelining: both the
          ledger totals and ``per_op_rounds`` accumulate the *effective*
          (post-splitting) H-rounds, so
          ``sum(per_op_rounds.values()) == rounds_h`` always holds.
        * **Bits measure payload** and are therefore pipelining-invariant:
          splitting a wide message into cap-sized pieces repartitions the
          same ``message_bits * rounds_h`` payload over more rounds without
          creating bits.  Both ``total_message_bits`` and ``per_op_bits``
          accumulate that same quantity, so
          ``sum(per_op_bits.values()) == total_message_bits`` always holds.
        * A charge with ``rounds_h == 0`` but positive ``message_bits``
          accounts its payload once (it models data riding along an
          already-charged round) and advances no simulated time.
        """
        if message_bits < 0 or rounds_h < 0:
            raise ValueError("negative cost")
        pieces = max(1, math.ceil(message_bits / self.bandwidth_bits))
        if pieces > 1 and not pipelined:
            if self.strict:
                raise ModelViolation(
                    f"operation {op!r} sends {message_bits} bits on one link in "
                    f"one round; cap is {self.bandwidth_bits}. Declare "
                    f"pipelined=True or shrink the message."
                )
            pipelined = True
        effective_rounds_h = rounds_h * (pieces if pipelined else 1)
        d = self.dilation if depth is None else max(1, depth)
        bits_charged = message_bits * max(1, rounds_h)
        self.rounds_h += effective_rounds_h
        self.rounds_g += effective_rounds_h * d
        self.total_message_bits += bits_charged
        capped_width = min(message_bits, self.bandwidth_bits)
        if self.netmodel is not None and effective_rounds_h > 0:
            self.makespan_ms += self.netmodel.account(
                capped_width, effective_rounds_h
            )
        self.max_message_bits = max(self.max_message_bits, capped_width)
        if self._window_maxes and capped_width > self._window_maxes[-1]:
            self._window_maxes[-1] = capped_width
        self.num_operations += 1
        self.per_op_rounds[op] += effective_rounds_h
        self.per_op_bits[op] += bits_charged
        return effective_rounds_h

    def absorb(self, summary: dict[str, int], *, op: str) -> None:
        """Fold another execution's headline counters into this ledger.

        The streaming engine runs the one-shot pipeline on a private ledger
        when it escalates to a scratch recolor; absorbing that run's
        :meth:`summary` under a single ``op`` label keeps the stream ledger's
        invariants intact (``sum(per_op_rounds) == rounds_h`` and
        ``sum(per_op_bits) == total_message_bits``).  Simulated time folds
        the same way: a sub-run sharing this ledger's network model
        contributes its ``makespan_ms`` here, so split accounting sums to
        exactly the unsplit total (the merge/absorb consistency tests).
        """
        if "makespan_ms" in summary:
            self.makespan_ms += float(summary["makespan_ms"])
        rounds_h = int(summary["rounds_h"])
        bits = int(summary["total_message_bits"])
        self.rounds_h += rounds_h
        self.rounds_g += int(summary["rounds_g"])
        self.total_message_bits += bits
        self.max_message_bits = max(
            self.max_message_bits, int(summary["max_message_bits"])
        )
        self.num_operations += int(summary["num_operations"])
        absorbed_max = int(summary["max_message_bits"])
        if self._window_maxes and absorbed_max > self._window_maxes[-1]:
            self._window_maxes[-1] = absorbed_max
        self.per_op_rounds[op] += rounds_h
        self.per_op_bits[op] += bits

    def charge_local(self, op: str) -> None:
        """Record a zero-round bookkeeping operation (local computation)."""
        self.num_operations += 1
        self.per_op_rounds[op] += 0

    def attach_netmodel(self, model) -> None:
        """Attach a :class:`~repro.network.hetnet.HetNetModel`.

        Only legal on a pristine ledger: attaching after charges were
        recorded would leave those rounds outside the simulated clock and
        silently under-report the makespan.
        """
        if self.num_operations or self.rounds_h:
            raise RuntimeError(
                "cannot attach a network model to a ledger that already "
                f"recorded {self.num_operations} operations"
            )
        self.netmodel = model

    # ---- window-local maxima -------------------------------------------------
    #
    # A running maximum cannot be diffed from snapshots (see
    # LedgerSnapshot.diff), so the ledger tracks within-window maxima
    # directly: a stack of frames, each holding the widest capped message
    # charged while it was open.  O(1) per charge, exact under nesting --
    # popping a frame folds its maximum into the parent frame, so an outer
    # window sees everything its inner windows saw.

    def push_max_window(self) -> None:
        """Open a max-window frame: start tracking the widest (capped)
        message charged from now until the matching :meth:`pop_max_window`."""
        self._window_maxes.append(0)

    def pop_max_window(self) -> int:
        """Close the innermost max-window frame and return its true
        within-window maximum message width (0 if nothing was charged).
        Folds the result into the enclosing frame, if any."""
        if not self._window_maxes:
            raise RuntimeError("pop_max_window without a matching push")
        window_max = self._window_maxes.pop()
        if self._window_maxes and window_max > self._window_maxes[-1]:
            self._window_maxes[-1] = window_max
        return window_max

    @contextlib.contextmanager
    def max_window(self):
        """Context-manager form of the max-window stack: yields a one-slot
        holder whose ``value`` is filled with the window maximum on exit.

        >>> with ledger.max_window() as w:
        ...     ledger.charge("op", 12)
        >>> w.value
        12
        """
        holder = _MaxWindowValue()
        self.push_max_window()
        try:
            yield holder
        finally:
            holder.value = self.pop_max_window()

    # ---- inspection ----------------------------------------------------------

    def snapshot(self) -> LedgerSnapshot:
        """Current counters as an immutable snapshot."""
        return LedgerSnapshot(
            rounds_h=self.rounds_h,
            rounds_g=self.rounds_g,
            total_message_bits=self.total_message_bits,
            max_message_bits=self.max_message_bits,
            num_operations=self.num_operations,
            makespan_ms=self.makespan_ms,
        )

    def assert_compliant(self) -> None:
        """Verify no recorded message exceeded the cap (Experiment E11)."""
        if self.max_message_bits > self.bandwidth_bits:
            raise ModelViolation(
                f"recorded a {self.max_message_bits}-bit message; "
                f"cap is {self.bandwidth_bits}"
            )

    def summary(self) -> dict[str, int]:
        """Headline counters as a plain dict (for experiment records).

        ``makespan_ms`` appears only when a network model is attached, so
        artifacts of homogeneous runs are byte-identical to pre-model ones.
        """
        out = {
            "rounds_h": self.rounds_h,
            "rounds_g": self.rounds_g,
            "total_message_bits": self.total_message_bits,
            "max_message_bits": self.max_message_bits,
            "num_operations": self.num_operations,
        }
        if self.netmodel is not None:
            out["makespan_ms"] = round(self.makespan_ms, 6)
        return out
