"""Churn workload generators: streams of update batches with known shape.

A :class:`StreamWorkload` is a :class:`~repro.workloads.generators.Workload`
plus a pre-generated list of :class:`~repro.dynamic.updates.UpdateBatch`
objects, deterministic given the rng.  Three churn families mirror how
production cluster graphs actually move:

* :func:`sliding_window_stream` -- an edge stream with a fixed-size window:
  every batch retires the oldest links and admits fresh ones (steady-state
  turnover, the classic dynamic-graph benchmark shape);
* :func:`hotspot_churn_stream` -- churn concentrated on a small hot subset,
  plus machine arrivals wired into the hotspot and departures elsewhere
  (skewed traffic, the "heavy traffic" shape of the ROADMAP north star);
* :func:`cluster_churn_stream` -- cluster merge/split traces with background
  edge churn (the contraction/decomposition shape: clusters are transient).

Generators validate their own events against a *shadow* of the engine's
structural state (the same :class:`~repro.dynamic.delta.DeltaCSR` machinery),
so every emitted batch is applicable by construction; the engine re-validates
on application and raises on any drift.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.builders import ClusterTopology, blowup
from repro.dynamic.delta import DeltaCSR
from repro.dynamic.updates import UpdateBatch
from repro.workloads.generators import GENERATORS, Workload, _random_network
from repro.workloads.specs import validated


@dataclass
class StreamWorkload(Workload):
    """A churn instance: initial graph + the update batches to absorb.

    ``arrivals`` (optional) turns the batch list into an *open-loop trace*:
    ``arrivals[i]`` is the offset in seconds, from trace start, at which
    batch ``i`` arrives at the service -- generated by
    :func:`arrival_offsets` when the generator was asked for an
    ``arrival_profile``.  Workloads without arrivals replay back-to-back
    (every batch arrives at t=0, so queueing delay is not meaningful).
    """

    batches: list[UpdateBatch] = field(default_factory=list)
    arrivals: list[float] | None = None
    arrival_profile: str | None = None
    arrival_rate: float | None = None

    @property
    def total_updates(self) -> int:
        """Number of structural events across every batch."""
        return sum(len(b) for b in self.batches)


class _Shadow:
    """Generator-side mirror of the engine's structural state.

    Tracks just enough (adjacency + cluster sizes + liveness) to emit only
    applicable events; the engine's own application is the authority and
    raises if a generator ever drifts from these semantics.

    The generators draw edges by *position* in :meth:`edge_arrays`, so its
    order is part of every stream's bytes.  That order is the one a
    dict-of-sets overlay produced: the live base edges in base CSR order,
    then, per vertex in first-insert order, its inserted neighbors in set
    iteration order.  ``_inserted`` replays exactly those set operations
    (keys are kept when a set empties); the shadow never compacts, so the
    initial CSR stays its base.
    """

    def __init__(self, graph):
        self.delta = DeltaCSR(graph.csr)
        self.sizes = [graph.cluster_size(v) for v in range(graph.n_vertices)]
        self._base = graph.csr
        self._inserted: dict[int, set[int]] = {}

    def alive_vertices(self) -> np.ndarray:
        return np.flatnonzero(self.delta.alive_mask)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The live edges as ``(u, v)`` arrays with ``u < v``, in the
        sampling order described on the class."""
        edge_u, edge_v = self.delta.edge_arrays()
        pairs = [
            (u, w) for u, ws in self._inserted.items() for w in ws if u < w
        ]
        if not pairs:
            return edge_u, edge_v
        n_base = edge_u.size - len(pairs)  # the delta lists base edges first
        ins = np.asarray(pairs, dtype=np.int64)
        return (
            np.concatenate([edge_u[:n_base], ins[:, 0]]),
            np.concatenate([edge_v[:n_base], ins[:, 1]]),
        )

    def _in_base(self, u: int, v: int) -> bool:
        if u >= self._base.n_vertices:
            return False
        nbrs = self._base.neighbors(u)
        i = int(np.searchsorted(nbrs, v))
        return i < nbrs.size and int(nbrs[i]) == v

    def _forget(self, u: int, v: int) -> None:
        """Mirror the deletion of edge ``{u, v}`` in ``_inserted``."""
        ins_u = self._inserted.get(u)
        if ins_u is not None and v in ins_u:
            ins_u.discard(v)
            self._inserted[v].discard(u)

    def insert(self, u: int, v: int) -> None:
        self.delta.insert_edge(u, v)
        if not self._in_base(u, v):  # a base edge is resurrected instead
            self._inserted.setdefault(u, set()).add(v)
            self._inserted.setdefault(v, set()).add(u)

    def delete(self, u: int, v: int) -> None:
        self.delta.delete_edge(u, v)
        self._forget(u, v)

    def add(self, edges, size: int) -> int:
        w = self.delta.add_vertex()
        self.sizes.append(size)
        for x in edges:
            self.insert(w, int(x))
        return w

    def _detach(self, v: int) -> list[int]:
        detached = self.delta.remove_vertex(v)
        for u in detached:
            self._forget(v, u)
        return detached

    def remove(self, v: int) -> None:
        self._detach(v)
        self.sizes[v] = 0

    def merge(self, u: int, v: int) -> None:
        for x in self._detach(v):
            if x != u and not self.delta.has_edge(u, x):
                self.insert(u, x)
        self.sizes[u] += self.sizes[v]
        self.sizes[v] = 0

    def split(self, u: int, moved, size: int) -> int:
        w = self.delta.add_vertex()
        size = max(1, min(int(size), self.sizes[u] - 1))
        self.sizes.append(size)
        self.sizes[u] -= size
        for x in moved:
            self.delete(u, int(x))
            self.insert(w, int(x))
        self.insert(u, w)
        return w


#: Arrival-rate shapes :func:`arrival_offsets` understands.  ``constant``
#: offers a flat rate; ``diurnal`` modulates it sinusoidally over the trace
#: (one full day of traffic compressed into the batch sequence); ``spiky``
#: overlays random short bursts at a multiple of the base rate.
ARRIVAL_PROFILES = ("constant", "diurnal", "spiky")


def arrival_offsets(
    rng: np.random.Generator,
    batch_updates: list[int],
    *,
    profile: str = "constant",
    updates_per_sec: float = 1000.0,
    diurnal_amplitude: float = 0.6,
    spike_fraction: float = 0.1,
    spike_factor: float = 8.0,
) -> list[float]:
    """Open-loop arrival timestamps for a batch sequence.

    Batch ``i`` (carrying ``batch_updates[i]`` structural events) arrives
    once its events have accumulated at the momentary offered rate: the
    inter-arrival gap is ``batch_updates[i] / rate_i``, where ``rate_i`` is
    the base ``updates_per_sec`` shaped by ``profile``.  Offsets are
    nondecreasing by construction and deterministic given the rng (only
    the ``spiky`` profile draws -- burst placement).
    """
    if profile not in ARRIVAL_PROFILES:
        raise ValueError(
            f"unknown arrival profile {profile!r}; choose from "
            f"{', '.join(ARRIVAL_PROFILES)}"
        )
    if updates_per_sec <= 0:
        raise ValueError(f"updates_per_sec must be > 0, got {updates_per_sec}")
    n = len(batch_updates)
    rates = np.full(n, float(updates_per_sec))
    if n and profile == "diurnal":
        phase = 2.0 * np.pi * np.arange(n) / n
        rates *= 1.0 + diurnal_amplitude * np.sin(phase)
        rates = np.maximum(rates, 1e-9)
    elif n and profile == "spiky":
        bursts = rng.random(n) < spike_fraction
        rates[bursts] *= spike_factor
    gaps = np.asarray(batch_updates, dtype=np.float64) / rates
    return np.cumsum(gaps).tolist()


def _with_arrivals(
    workload: StreamWorkload,
    rng: np.random.Generator,
    arrival_profile: str | None,
    arrival_rate: float,
) -> StreamWorkload:
    """Attach an arrival schedule when a profile was requested.

    Runs *after* batch generation, so workloads generated without a
    profile are bit-for-bit what they were before arrivals existed (no
    extra rng draws on that path).
    """
    if arrival_profile is None:
        return workload
    workload.arrivals = arrival_offsets(
        rng,
        [len(b) for b in workload.batches],
        profile=arrival_profile,
        updates_per_sec=arrival_rate,
    )
    workload.arrival_profile = arrival_profile
    workload.arrival_rate = float(arrival_rate)
    return workload


def _initial_graph(
    rng: np.random.Generator,
    n_vertices: int,
    avg_degree: float,
    cluster_size: int,
    topology: ClusterTopology,
):
    """A connected random conflict graph blown up into clusters."""
    edges = _random_network(rng, n_vertices, 0.0, avg_degree)
    return blowup(
        edges, rng, n_vertices=n_vertices, cluster_size=cluster_size,
        topology=topology,
    )


def _sample_new_edge(
    rng: np.random.Generator,
    shadow: _Shadow,
    pool_u: np.ndarray,
    pool_v: np.ndarray,
    max_tries: int = 64,
) -> tuple[int, int] | None:
    """A uniformly drawn currently-absent pair (endpoint pools may differ)."""
    for _ in range(max_tries):
        u = int(pool_u[rng.integers(0, pool_u.size)])
        v = int(pool_v[rng.integers(0, pool_v.size)])
        if u != v and not shadow.delta.has_edge(u, v):
            return (u, v)
    return None


@validated("sliding_window")
def sliding_window_stream(
    rng: np.random.Generator,
    *,
    n_vertices: int = 300,
    avg_degree: float = 8.0,
    cluster_size: int = 1,
    topology: ClusterTopology = "star",
    batches: int = 8,
    churn_fraction: float = 0.05,
    arrival_profile: str | None = None,
    arrival_rate: float = 1000.0,
) -> StreamWorkload:
    """Sliding-window edge turnover: each batch retires the
    ``churn_fraction`` oldest edges and admits as many fresh random ones.

    The live edge count (and hence the degree profile) stays roughly
    stationary, so this isolates pure *turnover* cost -- the acceptance
    scenario of the dynamic subsystem.  ``arrival_profile`` /
    ``arrival_rate`` (optional) attach an open-loop arrival schedule for
    the service driver (see :func:`arrival_offsets`).
    """
    graph = _initial_graph(rng, n_vertices, avg_degree, cluster_size, topology)
    shadow = _Shadow(graph)
    edge_u, edge_v = graph.h_edge_arrays()
    window: deque[tuple[int, int]] = deque(
        zip(edge_u.tolist(), edge_v.tolist())
    )
    churn = max(1, int(churn_fraction * len(window)))
    verts = shadow.alive_vertices()
    out: list[UpdateBatch] = []
    for _ in range(batches):
        batch = UpdateBatch()
        for _ in range(min(churn, len(window))):  # retire the oldest
            u, v = window.popleft()
            batch.edge_delete(u, v)
            shadow.delete(u, v)
        for _ in range(churn):
            pair = _sample_new_edge(rng, shadow, verts, verts)
            if pair is None:
                continue
            batch.edge_insert(*pair)
            shadow.insert(*pair)
            window.append(pair)
        out.append(batch)
    return _with_arrivals(
        StreamWorkload(
            name="sliding_window",
            graph=graph,
            notes=(
                f"{batches} batches x {churn} edge turnover on "
                f"G(n={n_vertices}, d~{avg_degree:g})"
            ),
            batches=out,
        ),
        rng,
        arrival_profile,
        arrival_rate,
    )


@validated("hotspot_churn")
def hotspot_churn_stream(
    rng: np.random.Generator,
    *,
    n_vertices: int = 300,
    avg_degree: float = 10.0,
    cluster_size: int = 1,
    topology: ClusterTopology = "star",
    batches: int = 8,
    hotspot_fraction: float = 0.05,
    churn_edges: int | None = None,
    arrivals: int = 4,
    departures: int = 2,
    arrival_profile: str | None = None,
    arrival_rate: float = 1000.0,
) -> StreamWorkload:
    """Skewed churn: edge turnover concentrated on a small hotspot, new
    clusters arriving wired into the hotspot, old ones departing elsewhere.

    Hotspot degrees drift upward, exercising palette *growth*; departures
    exercise shrinkage and the palette-retightening path.
    ``arrival_profile`` / ``arrival_rate`` (optional) attach an open-loop
    arrival schedule for the service driver.
    """
    graph = _initial_graph(rng, n_vertices, avg_degree, cluster_size, topology)
    shadow = _Shadow(graph)
    hot_count = max(2, int(hotspot_fraction * n_vertices))
    hotspot = np.arange(hot_count, dtype=np.int64)
    churn = (
        churn_edges
        if churn_edges is not None
        else max(1, int(0.02 * graph.n_h_edges))
    )
    out: list[UpdateBatch] = []
    for _ in range(batches):
        batch = UpdateBatch()
        # retire random hotspot-incident edges (any edge when none left)
        edge_u, edge_v = shadow.edge_arrays()
        touches_hot = (edge_u < hot_count) | (edge_v < hot_count)
        pool = np.flatnonzero(touches_hot)
        if pool.size == 0:
            pool = np.arange(edge_u.size)
        take = min(churn, pool.size)
        picked = rng.choice(pool, size=take, replace=False)
        for i in picked:
            u, v = int(edge_u[i]), int(edge_v[i])
            batch.edge_delete(u, v)
            shadow.delete(u, v)
        # departures: non-hotspot veterans leave wholesale
        candidates = shadow.alive_vertices()
        candidates = candidates[candidates >= hot_count]
        for _ in range(min(departures, max(0, candidates.size - 1))):
            v = int(candidates[rng.integers(0, candidates.size)])
            batch.vertex_remove(v)
            shadow.remove(v)
            candidates = candidates[candidates != v]
        # arrivals: new clusters wired into the hotspot
        for _ in range(arrivals):
            alive_hot = hotspot[shadow.delta.alive_mask[hotspot]]
            if alive_hot.size == 0:
                break
            k = min(3, alive_hot.size)
            targets = [int(t) for t in rng.choice(alive_hot, size=k, replace=False)]
            size = int(rng.integers(1, 4))
            batch.vertex_add(edges=targets, size=size)
            shadow.add(targets, size=size)
        # fresh hotspot-incident edges
        verts = shadow.alive_vertices()
        alive_hot = hotspot[shadow.delta.alive_mask[hotspot]]
        if alive_hot.size:
            for _ in range(churn):
                pair = _sample_new_edge(rng, shadow, alive_hot, verts)
                if pair is None:
                    continue
                batch.edge_insert(*pair)
                shadow.insert(*pair)
        out.append(batch)
    return _with_arrivals(
        StreamWorkload(
            name="hotspot_churn",
            graph=graph,
            notes=(
                f"{batches} batches, {hot_count}-vertex hotspot, "
                f"{churn} edge churn + {arrivals} arrivals/{departures} departures"
            ),
            batches=out,
        ),
        rng,
        arrival_profile,
        arrival_rate,
    )


@validated("cluster_churn")
def cluster_churn_stream(
    rng: np.random.Generator,
    *,
    n_vertices: int = 150,
    avg_degree: float = 8.0,
    cluster_size: int = 4,
    topology: ClusterTopology = "star",
    batches: int = 6,
    merges_per_batch: int = 3,
    splits_per_batch: int = 3,
    churn_edges: int | None = None,
    arrival_profile: str | None = None,
    arrival_rate: float = 1000.0,
) -> StreamWorkload:
    """Merge/split traces: clusters coalesce and fission while background
    edge churn keeps the conflict frontier moving -- the shape contraction
    and decomposition algorithms impose on their cluster graphs.
    ``arrival_profile`` / ``arrival_rate`` (optional) attach an open-loop
    arrival schedule for the service driver."""
    if cluster_size < 2:
        raise ValueError("cluster_churn_stream needs cluster_size >= 2 to split")
    graph = _initial_graph(rng, n_vertices, avg_degree, cluster_size, topology)
    shadow = _Shadow(graph)
    churn = (
        churn_edges
        if churn_edges is not None
        else max(1, int(0.02 * graph.n_h_edges))
    )
    out: list[UpdateBatch] = []
    for _ in range(batches):
        batch = UpdateBatch()
        # background edge churn first (matches the batch application order)
        edge_u, edge_v = shadow.edge_arrays()
        take = min(churn, edge_u.size)
        picked = rng.choice(edge_u.size, size=take, replace=False)
        for i in picked:
            u, v = int(edge_u[i]), int(edge_v[i])
            batch.edge_delete(u, v)
            shadow.delete(u, v)
        verts = shadow.alive_vertices()
        for _ in range(churn):
            pair = _sample_new_edge(rng, shadow, verts, verts)
            if pair is None:
                continue
            batch.edge_insert(*pair)
            shadow.insert(*pair)
        # merges: adjacent alive pairs coalesce
        for _ in range(merges_per_batch):
            edge_u, edge_v = shadow.edge_arrays()
            if edge_u.size == 0:
                break
            i = int(rng.integers(0, edge_u.size))
            u, v = int(edge_u[i]), int(edge_v[i])
            batch.cluster_merge(u, v)
            shadow.merge(u, v)
        # splits: big-enough clusters shed half their neighbors
        for _ in range(splits_per_batch):
            degrees = shadow.delta.degrees
            candidates = [
                int(v)
                for v in shadow.alive_vertices()
                if shadow.sizes[v] >= 2 and degrees[v] >= 1
            ]
            if not candidates:
                break
            u = candidates[int(rng.integers(0, len(candidates)))]
            nbrs = shadow.delta.neighbors(u)
            k = int(nbrs.size) // 2
            moved = (
                [int(x) for x in rng.choice(nbrs, size=k, replace=False)]
                if k
                else []
            )
            size = max(1, shadow.sizes[u] // 2)
            batch.cluster_split(u, moved, size=size)
            shadow.split(u, moved, size)
        out.append(batch)
    return _with_arrivals(
        StreamWorkload(
            name="cluster_churn",
            graph=graph,
            notes=(
                f"{batches} batches, {merges_per_batch} merges + "
                f"{splits_per_batch} splits each, {churn} edge churn"
            ),
            batches=out,
        ),
        rng,
        arrival_profile,
        arrival_rate,
    )


#: Stream-capable generators (every entry also lives in ``GENERATORS``, so
#: listings, sweeps, and the CLI resolve them uniformly; this sub-registry
#: is what stream-only surfaces -- ``repro stream``, the stream suites --
#: iterate).
STREAMS = {
    "sliding_window": sliding_window_stream,
    "hotspot_churn": hotspot_churn_stream,
    "cluster_churn": cluster_churn_stream,
}

GENERATORS.update(STREAMS)
