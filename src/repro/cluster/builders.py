"""Cluster-assignment builders: ways of obtaining ``H`` from ``G``.

Cluster graphs arise in practice when algorithms contract edges (maximum
flow), grow low-diameter clusters (network decomposition), or when the
conflict graph is planted and the network is synthesized around it.  This
module provides all three:

* :func:`contraction_clusters` -- contract a random forest of ``G``;
* :func:`voronoi_clusters` -- multi-source BFS regions (always connected);
* :func:`blowup` -- synthesize ``G`` around a *desired* ``H``, controlling
  cluster topology (hence dilation) and link multiplicity.  This is the
  workhorse of the experiments: it lets us plant almost-cliques, cabals and
  bridge pathologies with known ground truth.
"""

from __future__ import annotations

from typing import Literal, Sequence

import networkx as nx
import numpy as np

from repro.cluster.cluster_graph import ClusterGraph
from repro.network.commgraph import CommGraph, _networkx_edge_array

ClusterTopology = Literal["path", "star", "clique", "tree", "bridge"]


def voronoi_clusters(
    comm: CommGraph, n_clusters: int, rng: np.random.Generator
) -> ClusterGraph:
    """Partition ``G`` into ``n_clusters`` BFS (Voronoi) regions.

    Multi-source BFS regions are connected by construction, satisfying
    Definition 3.1.  ``G`` must be connected.
    """
    if n_clusters <= 0 or n_clusters > comm.n:
        raise ValueError(f"n_clusters={n_clusters} out of range for n={comm.n}")
    centers = rng.choice(comm.n, size=n_clusters, replace=False).astype(np.int64)
    assignment = np.full(comm.n, -1, dtype=np.int64)
    assignment[centers] = np.arange(n_clusters, dtype=np.int64)
    # vectorized multi-source BFS: one frontier gather per level.  Ties
    # (several frontier machines reaching the same target in one level) go
    # to the first writer in (frontier-order, neighbor-order) -- exactly
    # the order the per-vertex loop this replaces assigned in, so pinned
    # instances keep the identical partition.
    from repro.graphcore import gather_neighborhoods

    csr = comm.csr
    frontier = centers
    while frontier.size:
        seg_ids, flat = gather_neighborhoods(csr, frontier)
        unvisited = assignment[flat] < 0
        targets = flat[unvisited]
        owners = assignment[frontier[seg_ids[unvisited]]]
        uniq, first_idx = np.unique(targets, return_index=True)
        assignment[uniq] = owners[first_idx]
        frontier = uniq[np.argsort(first_idx, kind="stable")]
    if (assignment < 0).any():
        raise ValueError("communication graph is not connected")
    return ClusterGraph.from_assignment(comm, assignment.tolist())


def contraction_clusters(
    comm: CommGraph, contraction_fraction: float, rng: np.random.Generator
) -> ClusterGraph:
    """Contract a random sub-forest covering roughly ``contraction_fraction``
    of the machines, as edge-contracting algorithms do.

    Each contracted tree becomes one cluster; untouched machines stay
    singleton clusters (so the result is always a valid partition).
    """
    if not 0.0 <= contraction_fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    parent = list(range(comm.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    links = list(comm.iter_links())
    rng.shuffle(links)
    target_merges = int(contraction_fraction * comm.n)
    merges = 0
    for u, v in links:
        if merges >= target_merges:
            break
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            merges += 1
    root_to_id: dict[int, int] = {}
    assignment = []
    for machine in range(comm.n):
        root = find(machine)
        if root not in root_to_id:
            root_to_id[root] = len(root_to_id)
        assignment.append(root_to_id[root])
    return ClusterGraph.from_assignment(comm, assignment)


def _cluster_internal_edges(
    machines: Sequence[int], topology: ClusterTopology, rng: np.random.Generator
) -> list[tuple[int, int]]:
    """Internal wiring of one cluster; controls its support-tree height."""
    k = len(machines)
    if k == 1:
        return []
    if topology == "path":
        return [(machines[i], machines[i + 1]) for i in range(k - 1)]
    if topology == "star":
        return [(machines[0], machines[i]) for i in range(1, k)]
    if topology == "clique":
        return [
            (machines[i], machines[j]) for i in range(k) for j in range(i + 1, k)
        ]
    if topology == "tree":
        edges = []
        for i in range(1, k):
            j = int(rng.integers(0, i))
            edges.append((machines[j], machines[i]))
        return edges
    if topology == "bridge":
        # Two stars joined by a single bridge link (Figures 2/3): every path
        # between the halves crosses one O(log n)-bit link.
        half = k // 2
        left, right = machines[:half], machines[half:]
        edges = [(left[0], m) for m in left[1:]]
        edges += [(right[0], m) for m in right[1:]]
        edges.append((left[0], right[0]))
        return edges
    raise ValueError(f"unknown topology {topology!r}")


def blowup(
    conflict_graph: nx.Graph | np.ndarray,
    rng: np.random.Generator,
    *,
    n_vertices: int | None = None,
    cluster_size: int = 1,
    topology: ClusterTopology = "star",
    link_multiplicity: int = 1,
    size_jitter: float = 0.0,
) -> ClusterGraph:
    """Synthesize a network ``G`` realizing a desired conflict graph ``H``.

    Each vertex of ``conflict_graph`` becomes a cluster of about
    ``cluster_size`` machines wired according to ``topology``; each H-edge is
    realized by ``link_multiplicity`` links between machines chosen uniformly
    in the two clusters (several links between the same cluster pair are the
    norm in real cluster graphs -- Figure 1).

    ``conflict_graph`` is a networkx graph (nodes numbered in sorted
    order) or an ``(m, 2)`` int64 edge array over vertices
    ``0..n_vertices-1``, which the workload generators pass to keep
    networkx off their instance path.  Either way the edges are realized
    in the order given (a graph's ``edges()`` order), which fixes the rng
    draws.

    Returns a :class:`ClusterGraph` whose ``H`` equals ``conflict_graph`` (up
    to the integer relabeling of networkx nodes).
    """
    if cluster_size < 1:
        raise ValueError("cluster_size must be >= 1")
    if link_multiplicity < 1:
        raise ValueError("link_multiplicity must be >= 1")
    if isinstance(conflict_graph, nx.Graph):
        n_vertices, edge_arr = _networkx_edge_array(
            conflict_graph, sort_nodes=True
        )
    elif n_vertices is None:
        raise ValueError("an edge-array conflict graph needs n_vertices")
    else:
        edge_arr = np.asarray(conflict_graph, dtype=np.int64).reshape(-1, 2)

    machine_lists: list[list[int]] = []
    next_machine = 0
    for _v in range(n_vertices):
        size = cluster_size
        if size_jitter > 0:
            size = max(1, int(round(cluster_size * (1 + rng.uniform(-size_jitter, size_jitter)))))
        machine_lists.append(list(range(next_machine, next_machine + size)))
        next_machine += size

    internal: list[tuple[int, int]] = []
    for v, machines in enumerate(machine_lists):
        internal.extend(_cluster_internal_edges(machines, topology, rng))

    # Inter-cluster links, vectorized: clusters are contiguous machine
    # ranges, so a pick is start + offset.  The (edges, multiplicity, 2)
    # draw matrix consumes the rng in exactly the order the per-edge loop
    # did (C-order: edge, copy, endpoint), keeping pinned instances
    # bitwise identical.
    starts = np.fromiter(
        (m[0] for m in machine_lists), dtype=np.int64, count=n_vertices
    )
    sizes = np.fromiter(
        (len(m) for m in machine_lists), dtype=np.int64, count=n_vertices
    )
    parts: list[np.ndarray] = []
    if internal:
        parts.append(np.asarray(internal, dtype=np.int64))
    if edge_arr.size:
        highs = np.stack(
            [sizes[edge_arr[:, 0]], sizes[edge_arr[:, 1]]], axis=1
        )[:, None, :].repeat(link_multiplicity, axis=1)
        offsets = rng.integers(0, highs)
        inter = (
            np.stack(
                [starts[edge_arr[:, 0]], starts[edge_arr[:, 1]]], axis=1
            )[:, None, :]
            + offsets
        ).reshape(-1, 2)
        parts.append(inter)
    edges = (
        np.concatenate(parts)
        if parts
        else np.empty((0, 2), dtype=np.int64)
    )

    comm = CommGraph(next_machine, edges)
    assignment = np.repeat(
        np.arange(n_vertices, dtype=np.int64), sizes
    ).tolist()
    return ClusterGraph.from_assignment(comm, assignment)
