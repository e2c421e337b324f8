"""Heterogeneous network model: per-link speeds and simulated-time makespan.

The paper (and the :class:`~repro.network.ledger.BandwidthLedger`) treats
every link of ``G`` as identical: a round is a round.  Real clusters are
not like that -- machines come in types, links have bandwidth and latency,
and a fraction of links is simply slow (the cluster-generator idiom of
Helix-style simulators: node-type percentages plus link statistics with a
``fill_with_slow_link`` fraction).  This module adds that layer *on the
side* of the ledger:

* :class:`HetNetSpec` -- the distribution knobs (bandwidth skew, slow-link
  fill fraction, base bandwidth/latency), carried by a workload when its
  generator was asked for ``net_skew`` / ``net_fill``;
* :class:`HetNetModel` -- a concrete sampled fabric: a machine type per
  node and a bandwidth/latency per G-link, drawn deterministically from a
  generator spawned off the workload RNG (spawning consumes no draws, so
  the sampled graph is bit-identical with or without the model);
* simulated time -- every ledger charge of (capped) width ``w`` costs
  ``effective_rounds x envelope(w)`` milliseconds, where ``envelope`` is
  the upper envelope of one affine line ``A + B*w`` per *element*:

  - one line per support-tree **root path** (machine ``m`` of cluster
    ``c``): ``A`` = summed latency, ``B`` = summed inverse bandwidth along
    root->m -- a broadcast-and-aggregate round completes when its slowest
    root path does, so stragglers and deep trees surface here;
  - one line per **H-edge designated link** (the first realizing G-link,
    the one the inter-cluster computation step pays).

  The active envelope segment names the element the round waited on;
  per-element accumulated time makes ``critical_link`` a measurement, not
  a guess.

A model reaches a run inside :class:`~repro.observe.instruments.Instruments`
and obeys the invisibility contract of docs/OBSERVABILITY.md: it only
*additionally* reports ``makespan_ms`` and ``critical_link``.  See
docs/NETWORK.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "HetNetModel",
    "HetNetSpec",
    "MACHINE_TYPES",
    "MachineType",
]


@dataclass(frozen=True)
class MachineType:
    """One machine class: a name plus the link statistics its links get.

    ``bandwidth_mbps`` is the per-link capacity in Mbit/s;
    ``latency_ms`` the per-hop propagation delay.  A link inherits the
    *slower* of its two endpoints' types (a fast NIC cannot outrun a slow
    peer).
    """

    name: str
    bandwidth_mbps: float
    latency_ms: float


#: The two built-in machine classes of the default fabric.  ``slow`` is a
#: placeholder scaled by :attr:`HetNetSpec.skew` at sampling time.
MACHINE_TYPES = ("standard", "slow")


@dataclass(frozen=True)
class HetNetSpec:
    """Distribution knobs for sampling a heterogeneous fabric.

    Parameters
    ----------
    skew:
        Bandwidth ratio standard:slow (``>= 1``).  ``1.0`` is the
        homogeneous fabric -- every link identical, makespan degenerates to
        a constant multiple of effective rounds.
    fill:
        Fraction of machines typed ``slow`` (the ``fill_with_slow_link``
        idiom: a link is slow when either endpoint is).
    base_bandwidth_mbps / base_latency_ms:
        Statistics of a ``standard`` link.  A ``slow`` link divides the
        bandwidth by ``skew`` and multiplies the latency by
        ``latency_skew`` (default: ``skew``).
    jitter:
        Log-normal sigma applied per link to both bandwidth and latency
        (``0.0`` = none), modelling within-type variance.
    """

    skew: float = 1.0
    fill: float = 0.1
    base_bandwidth_mbps: float = 100.0
    base_latency_ms: float = 0.1
    latency_skew: float | None = None
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.skew < 1.0:
            raise ValueError(f"skew must be >= 1, got {self.skew:g}")
        if not 0.0 <= self.fill <= 1.0:
            raise ValueError(f"fill must be in [0, 1], got {self.fill:g}")
        if self.base_bandwidth_mbps <= 0 or self.base_latency_ms < 0:
            raise ValueError("base bandwidth must be positive, latency >= 0")

    def machine_types(self) -> tuple[MachineType, MachineType]:
        """The concrete ``(standard, slow)`` pair this spec describes."""
        lat_skew = self.latency_skew if self.latency_skew is not None else self.skew
        return (
            MachineType("standard", self.base_bandwidth_mbps, self.base_latency_ms),
            MachineType(
                "slow",
                self.base_bandwidth_mbps / self.skew,
                self.base_latency_ms * lat_skew,
            ),
        )

    def to_dict(self) -> dict[str, float]:
        """JSON-ready form (artifact/CLI headers)."""
        return {
            "skew": self.skew,
            "fill": self.fill,
            "base_bandwidth_mbps": self.base_bandwidth_mbps,
            "base_latency_ms": self.base_latency_ms,
            "latency_skew": (
                self.latency_skew if self.latency_skew is not None else self.skew
            ),
            "jitter": self.jitter,
        }


def _mbps_to_bits_per_ms(mbps: np.ndarray | float) -> np.ndarray | float:
    """Mbit/s -> bits/ms (the unit transfer times are computed in)."""
    return mbps * 1e3


@dataclass
class HetNetModel:
    """A sampled fabric plus the simulated-clock accounting over it.

    Construction paths:

    * :meth:`sample` -- draw machine types and per-link statistics from a
      :class:`HetNetSpec` (the workload path);
    * :meth:`from_links` -- explicit per-link arrays (the property-test
      path: monotonicity and degeneracy tests build exact fabrics).

    :meth:`Instruments.attach <repro.observe.instruments.Instruments.attach>`
    hooks the model onto a :class:`~repro.network.ledger.BandwidthLedger`,
    which calls :meth:`account` once per charge.  Several ledgers may share one model (the stream engine and
    its scratch-escalation sub-runs do): per-element times accumulate in
    the model while each ledger keeps its own ``makespan_ms`` scalar, and
    :meth:`~repro.network.ledger.BandwidthLedger.absorb` folds the scalar
    -- so split accounting sums to exactly the unsplit total.
    """

    #: Machine type index per node (0 = standard, 1 = slow).
    machine_type: np.ndarray
    #: Per-G-link arrays, indexed like ``CommGraph.link_arrays()``.
    link_bandwidth_mbps: np.ndarray
    link_latency_ms: np.ndarray
    #: Affine time lines ``A + B*w`` (ms, ms/bit) per element.
    line_a: np.ndarray
    line_b: np.ndarray
    #: Human-readable element names, aligned with the line arrays.
    element_names: list[str]
    #: The spec this fabric was sampled from (None for explicit fabrics).
    spec: HetNetSpec | None = None
    #: Accumulated simulated time per element (filled by :meth:`account`).
    element_time_ms: np.ndarray = field(default=None)  # type: ignore[assignment]
    _cache: dict[int, tuple[float, int]] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        if self.element_time_ms is None:
            self.element_time_ms = np.zeros(self.line_a.size, dtype=np.float64)
        if not (
            self.line_a.size == self.line_b.size == len(self.element_names)
        ):
            raise ValueError("line arrays and element names disagree in length")

    # ---- construction --------------------------------------------------------

    @classmethod
    def sample(cls, graph, spec: HetNetSpec, rng: np.random.Generator) -> "HetNetModel":
        """Draw a fabric for ``graph`` (a ClusterGraph) from ``spec``.

        ``rng`` must be dedicated to the fabric -- callers spawn it off the
        workload generator's RNG (``rng.spawn(1)[0]``), which perturbs no
        existing stream.  Identical ``(graph, spec, rng seed)`` always
        yields identical arrays (pinned by the determinism tests).
        """
        comm = graph.comm
        standard, slow = spec.machine_types()
        machine_type = (rng.random(comm.n) < spec.fill).astype(np.int8)
        link_u, link_v = comm.link_arrays()
        link_slow = (machine_type[link_u] | machine_type[link_v]).astype(bool)
        bandwidth = np.where(
            link_slow, slow.bandwidth_mbps, standard.bandwidth_mbps
        ).astype(np.float64)
        latency = np.where(
            link_slow, slow.latency_ms, standard.latency_ms
        ).astype(np.float64)
        if spec.jitter > 0:
            m = link_u.size
            bandwidth = bandwidth * np.exp(rng.normal(0.0, spec.jitter, m))
            latency = latency * np.exp(rng.normal(0.0, spec.jitter, m))
        return cls.from_links(
            graph, bandwidth, latency, machine_type=machine_type, spec=spec
        )

    @classmethod
    def from_links(
        cls,
        graph,
        bandwidth_mbps: np.ndarray,
        latency_ms: np.ndarray,
        *,
        machine_type: np.ndarray | None = None,
        spec: HetNetSpec | None = None,
    ) -> "HetNetModel":
        """Build the time lines for explicit per-link arrays.

        ``bandwidth_mbps`` / ``latency_ms`` are indexed like
        ``graph.comm.link_arrays()``.  One line per non-root machine of
        every support tree (root-path sums) and one per H-edge designated
        realizing link.
        """
        comm = graph.comm
        bandwidth_mbps = np.asarray(bandwidth_mbps, dtype=np.float64)
        latency_ms = np.asarray(latency_ms, dtype=np.float64)
        if bandwidth_mbps.size != comm.num_links or latency_ms.size != comm.num_links:
            raise ValueError(
                f"per-link arrays cover {bandwidth_mbps.size}/{latency_ms.size} "
                f"links; G has {comm.num_links}"
            )
        if (bandwidth_mbps <= 0).any() or (latency_ms < 0).any():
            raise ValueError("bandwidth must be positive, latency >= 0")
        inv_bw = 1.0 / np.asarray(
            _mbps_to_bits_per_ms(bandwidth_mbps), dtype=np.float64
        )
        line_a: list[float] = []
        line_b: list[float] = []
        names: list[str] = []
        # support-tree root paths: prefix sums down each tree (parents come
        # before children in BFS insertion order, so one pass suffices)
        for cluster, tree in enumerate(graph.trees):
            path_a: dict[int, float] = {tree.root: 0.0}
            path_b: dict[int, float] = {tree.root: 0.0}
            for machine, parent in tree.parent.items():
                if parent is None:
                    continue
                idx = comm.link_index(machine, parent)
                path_a[machine] = path_a[parent] + float(latency_ms[idx])
                path_b[machine] = path_b[parent] + float(inv_bw[idx])
                line_a.append(path_a[machine])
                line_b.append(path_b[machine])
                names.append(f"tree[{cluster}] root->{machine}")
        # H-edge designated links: the first realizing G-link, the one the
        # inter-cluster computation step of every H-round pays
        for (u, v), realizers in sorted(graph.links.items()):
            gu, gv = realizers[0]
            idx = comm.link_index(gu, gv)
            line_a.append(float(latency_ms[idx]))
            line_b.append(float(inv_bw[idx]))
            names.append(f"link[{u}-{v}] via {gu}-{gv}")
        if not names:  # single isolated cluster of one machine: no links
            line_a, line_b, names = [0.0], [0.0], ["(no links)"]
        if machine_type is None:
            machine_type = np.zeros(comm.n, dtype=np.int8)
        return cls(
            machine_type=np.asarray(machine_type, dtype=np.int8),
            link_bandwidth_mbps=bandwidth_mbps,
            link_latency_ms=latency_ms,
            line_a=np.asarray(line_a, dtype=np.float64),
            line_b=np.asarray(line_b, dtype=np.float64),
            element_names=names,
            spec=spec,
        )

    # ---- simulated clock -----------------------------------------------------

    def _envelope(self, width: int) -> tuple[float, int]:
        """Upper-envelope value and arg at ``width`` (cached per width; an
        execution only charges a handful of distinct capped widths)."""
        hit = self._cache.get(width)
        if hit is None:
            times = self.line_a + self.line_b * float(width)
            idx = int(np.argmax(times))  # ties -> lowest index: deterministic
            hit = (float(times[idx]), idx)
            self._cache[width] = hit
        return hit

    def round_time_ms(self, width: int) -> float:
        """Simulated duration of one H-round whose widest (capped) message
        is ``width`` bits: the slowest element's ``latency + bits/bandwidth``
        term, i.e. the upper envelope of every time line at ``width``."""
        return self._envelope(width)[0]

    def account(self, width: int, rounds: int) -> float:
        """Charge ``rounds`` H-rounds of (capped) width ``width``.

        Returns the simulated milliseconds added; accumulates the same
        amount onto the critical element's clock (:meth:`critical_element`
        reads it back).  Called by the ledger only -- algorithms never see
        this object.
        """
        if rounds <= 0:
            return 0.0
        time_ms, idx = self._envelope(width)
        total = time_ms * rounds
        self.element_time_ms[idx] += total
        return total

    # ---- attribution ---------------------------------------------------------

    def critical_element(self) -> tuple[str, float]:
        """The element that accumulated the most simulated time (the
        critical link/root-path of the execution) and its total ms."""
        idx = int(np.argmax(self.element_time_ms))
        return self.element_names[idx], float(self.element_time_ms[idx])

    def element_times(self, top: int = 5) -> list[tuple[str, float]]:
        """The ``top`` slowest elements as ``(name, ms)``, descending, only
        those that accumulated any time."""
        order = np.argsort(self.element_time_ms)[::-1][:top]
        return [
            (self.element_names[int(i)], float(self.element_time_ms[int(i)]))
            for i in order
            if self.element_time_ms[int(i)] > 0
        ]

    @property
    def n_slow_machines(self) -> int:
        """Number of machines typed ``slow`` in the sampled fabric."""
        return int(self.machine_type.sum())
