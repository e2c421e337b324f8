"""Cluster graphs (Definition 3.1), support trees, builders, virtual graphs."""

import networkx as nx
import numpy as np
import pytest

from repro.cluster import (
    ClusterGraph,
    SupportTree,
    blowup,
    contraction_clusters,
    distance2_virtual_graph,
    power_graph_degree_bound,
    voronoi_clusters,
)
from repro.network import CommGraph
from repro.workloads import figure1_example


def _digest(graph) -> str:
    """sha256 of a built ClusterGraph's (or a CommGraph's) defining arrays."""
    import hashlib

    if isinstance(graph, CommGraph):
        arrays = (graph.csr.indptr, graph.csr.indices)
    else:
        arrays = (
            graph.comm.csr.indptr, graph.comm.csr.indices,
            graph.csr.indptr, graph.csr.indices,
            np.asarray(graph.assignment, dtype=np.int64),
        )
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    return digest.hexdigest()


def _string_labelled():
    graph = nx.Graph()
    graph.add_edges_from(
        [("d", "a"), ("b", "c"), ("a", "c"), ("e", "b"), ("c", "d"),
         ("e", "a"), ("b", "d")]
    )
    return graph


def _out_of_order_ints():
    graph = nx.Graph()
    graph.add_nodes_from([3, 1, 4, 0, 5, 2])
    graph.add_edges_from(
        [(4, 0), (1, 3), (2, 4), (0, 1), (3, 2), (1, 4), (5, 0), (2, 5)]
    )
    return graph


def _sparse_labels():
    # sorted order equals iteration order, but labels skip values
    return nx.relabel_nodes(nx.petersen_graph(), lambda i: 10 * i + 7)


RELABEL_GRAPHS = {
    "string_labelled": _string_labelled,
    "out_of_order_ints": _out_of_order_ints,
    "sparse_labels": _sparse_labels,
}

#: (blowup digest, CommGraph.from_networkx digest), recorded when both
#: relabeled through nx.convert_node_labels_to_integers.
RELABEL_PINNED = {
    "string_labelled": (
        "ce1339cca72088ffdea6a983e1d326269a0550f1ff7f03055b8ba275e4f2cb0e",
        "fd87f08c003a18d19012d9ccffa5a010a1e5abdfd3d2775c48f123866b7db768",
    ),
    "out_of_order_ints": (
        "bda6798598de898d4fabc3108f2238014cdd1bbcf3b77dbc4eaf5f9ce37ea94a",
        "92ff9891003e93856ad3492a1d7df1dc6f20a861035324152fb07e81e80d8d34",
    ),
    "sparse_labels": (
        "b220911058480c7bf239d386840d5bec595ec27156aa9ccbbfd4943628eb5e5b",
        "360b95a6b57496ff421585d34901e9c788028927d926d2821fde04c9b0c61f74",
    ),
}


class TestSupportTree:
    def test_bfs_tree_spans_cluster(self):
        g = CommGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        tree = SupportTree.build_bfs(g, [1, 2, 3], cluster_id=0)
        assert tree.root == 1
        assert set(tree.machines) == {1, 2, 3}
        assert tree.height == 2
        assert tree.parent[1] is None
        assert tree.parent[3] == 2

    def test_disconnected_cluster_rejected(self):
        g = CommGraph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="not connected"):
            SupportTree.build_bfs(g, [0, 1, 2], cluster_id=0)

    def test_singleton_height_one(self):
        g = CommGraph(2, [(0, 1)])
        tree = SupportTree.build_bfs(g, [0], cluster_id=0)
        assert tree.height == 1  # even singletons cost a round

    def test_custom_root(self):
        g = CommGraph(3, [(0, 1), (1, 2)])
        tree = SupportTree.build_bfs(g, [0, 1, 2], cluster_id=0, root=2)
        assert tree.root == 2
        assert tree.depth_of[0] == 2

    def test_dfs_order_is_preorder(self):
        g = CommGraph(4, [(0, 1), (0, 2), (2, 3)])
        tree = SupportTree.build_bfs(g, [0, 1, 2, 3], cluster_id=0)
        order = tree.dfs_order()
        assert order[0] == 0
        assert order.index(2) < order.index(3)  # ancestors first
        assert sorted(order) == [0, 1, 2, 3]


class TestClusterGraph:
    def test_figure1_semantics(self):
        """Figure 1's key feature: two clusters joined by several links form
        ONE H-edge; link counting overestimates the true degree."""
        w = figure1_example()
        g = w.graph
        assert g.n_vertices == 4
        # clusters B (1) and C (2) are joined by two links
        assert len(g.links[(1, 2)]) == 2
        assert g.degree(1) == g.degree(2) == 2
        # the cheap aggregate (incident links) overcounts the true degree
        assert g.link_count(1) == 3 > g.degree(1)
        assert g.link_count(2) == 3 > g.degree(2)

    def test_identity_is_congest(self):
        comm = CommGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        h = ClusterGraph.identity(comm)
        assert h.n_vertices == comm.n
        assert h.dilation == 1
        assert sorted(h.iter_h_edges()) == sorted(comm.iter_links())

    def test_assignment_validation(self):
        comm = CommGraph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="not connected"):
            ClusterGraph.from_assignment(comm, [0, 1, 0, 1])
        with pytest.raises(ValueError, match="dense"):
            ClusterGraph.from_assignment(CommGraph(2, [(0, 1)]), [0, 2])
        with pytest.raises(ValueError, match="covers"):
            ClusterGraph.from_assignment(CommGraph(2, [(0, 1)]), [0])

    def test_intra_cluster_links_not_h_edges(self):
        comm = CommGraph(4, [(0, 1), (1, 2), (2, 3)])
        h = ClusterGraph.from_assignment(comm, [0, 0, 1, 1])
        assert h.n_h_edges == 1
        assert h.are_adjacent(0, 1)

    def test_anti_neighbors(self):
        comm = CommGraph(4, [(0, 1), (1, 2), (2, 3)])
        h = ClusterGraph.identity(comm)
        assert h.anti_neighbors_within(0, [0, 1, 2, 3]) == [2, 3]

    def test_neighbor_array_is_csr_view(self):
        comm = CommGraph(3, [(0, 1), (1, 2)])
        h = ClusterGraph.identity(comm)
        a1 = h.neighbor_array(1)
        assert list(a1) == [0, 2]
        # zero-copy: slices share the CSR indices buffer, no per-call allocs
        assert a1.base is h.csr.indices or a1 is h.csr.indices

    def test_csr_survives_replace_and_pickle(self):
        """The lazy ``_adj_arrays`` cache of the pre-CSR design silently
        vanished under dataclasses.replace and never reached pool workers;
        the CSR backbone is a real init field, so both paths carry it (the
        immutable structure is shared, not rebuilt)."""
        import dataclasses
        import pickle

        comm = CommGraph(3, [(0, 1), (1, 2)])
        h = ClusterGraph.identity(comm)
        replaced = dataclasses.replace(h)
        assert list(replaced.neighbor_array(1)) == [0, 2]
        assert replaced.csr is h.csr
        revived = pickle.loads(pickle.dumps(h))
        assert list(revived.neighbor_array(1)) == [0, 2]
        assert list(revived.csr.indptr) == list(h.csr.indptr)

    def test_adj_view_is_lazy_and_consistent(self):
        """``adj`` materializes from the CSR on first access only; until
        then construction boxes no per-edge Python ints."""
        comm = CommGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        h = ClusterGraph.identity(comm)
        assert h._adj is None  # nothing materialized at construction
        assert h.degree(1) == 2  # degree served straight from the CSR
        assert h.neighbors(1) == [0, 2]  # per-call CSR slice
        assert h._adj is None
        view = h.adj
        assert view[1] == [0, 2]
        assert h._adj is view  # cached after first access
        assert h.neighbors(1) is view[1]  # served from the cache now


class TestBuilders:
    def test_voronoi_partition_valid(self, rng):
        g = CommGraph.from_networkx(nx.connected_watts_strogatz_graph(60, 4, 0.2, seed=1))
        h = voronoi_clusters(g, 12, rng)
        assert h.n_vertices == 12
        assert sum(h.cluster_size(v) for v in range(12)) == 60

    def test_contraction_partition_valid(self, rng):
        g = CommGraph.from_networkx(nx.connected_watts_strogatz_graph(60, 4, 0.2, seed=2))
        h = contraction_clusters(g, 0.5, rng)
        assert sum(h.cluster_size(v) for v in range(h.n_vertices)) == 60
        assert h.n_vertices < 60  # something actually contracted

    def test_contraction_zero_fraction_is_identity(self, rng):
        g = CommGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        h = contraction_clusters(g, 0.0, rng)
        assert h.n_vertices == 5

    def test_blowup_realizes_conflict_graph(self, rng):
        target = nx.petersen_graph()
        h = blowup(target, rng, cluster_size=3, topology="path", link_multiplicity=2)
        assert h.n_vertices == 10
        got = nx.Graph(list(h.iter_h_edges()))
        assert nx.is_isomorphic(got, target)

    def test_blowup_topology_controls_dilation(self, rng):
        target = nx.cycle_graph(6)
        star = blowup(target, rng, cluster_size=9, topology="star")
        path = blowup(target, rng, cluster_size=9, topology="path")
        assert star.dilation == 1
        assert path.dilation == 8

    def test_blowup_bridge_topology(self, rng):
        target = nx.path_graph(3)
        h = blowup(target, rng, cluster_size=6, topology="bridge")
        assert h.n_vertices == 3
        # bridge topology: two stars + 1 link -> height <= 3
        assert h.dilation <= 3

    def test_blowup_invalid_args(self, rng):
        with pytest.raises(ValueError):
            blowup(nx.path_graph(2), rng, cluster_size=0)
        with pytest.raises(ValueError):
            blowup(nx.path_graph(2), rng, link_multiplicity=0)
        with pytest.raises(ValueError, match="n_vertices"):
            blowup(np.array([[0, 1]]), rng)

    @pytest.mark.parametrize("name", sorted(RELABEL_PINNED))
    def test_relabeled_graphs_build_pinned_instances(self, name):
        """Graphs not labeled ``0..n-1`` in iteration order keep each
        builder's relabel ordering -- sorted for ``blowup``, iteration order
        for ``from_networkx`` -- and the exact instances they built when both
        relabeled through ``nx.convert_node_labels_to_integers``."""
        graph = RELABEL_GRAPHS[name]()
        built = blowup(
            graph, np.random.default_rng(3), cluster_size=3, topology="tree",
            link_multiplicity=2,
        )
        comm = CommGraph.from_networkx(graph)
        assert (_digest(built), _digest(comm)) == RELABEL_PINNED[name]

    def test_edge_array_input_matches_graph_input(self):
        graph = nx.gnp_random_graph(40, 0.2, seed=5)
        edges = np.array(list(graph.edges()), dtype=np.int64)
        a = blowup(graph, np.random.default_rng(1), cluster_size=2, topology="tree")
        b = blowup(
            edges, np.random.default_rng(1), n_vertices=40, cluster_size=2,
            topology="tree",
        )
        assert _digest(a) == _digest(b)


class TestVirtualGraph:
    def test_distance2_matches_networkx_square(self):
        g = nx.random_regular_graph(3, 14, seed=3)
        comm = CommGraph.from_networkx(g)
        vg = distance2_virtual_graph(comm)
        square = nx.power(nx.convert_node_labels_to_integers(g), 2)
        for u, v in square.edges():
            assert vg.are_adjacent(u, v)
        assert vg.max_degree == max(dict(square.degree()).values())

    def test_distance2_congestion_dilation(self):
        comm = CommGraph(4, [(0, 1), (1, 2), (2, 3)])
        vg = distance2_virtual_graph(comm)
        assert vg.congestion == 2
        assert vg.dilation == 2

    def test_supports_are_closed_neighborhoods(self):
        comm = CommGraph(4, [(0, 1), (1, 2), (2, 3)])
        vg = distance2_virtual_graph(comm)
        assert sorted(vg.supports[1]) == [0, 1, 2]

    def test_power_degree_bound(self):
        comm = CommGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert power_graph_degree_bound(comm) == 4  # middle vertex sees all


class TestBuildForest:
    """The vectorized all-clusters BFS must reproduce the per-cluster
    sequential build exactly: roots, parents, depths, heights, and even
    the dict insertion (discovery) order."""

    @pytest.mark.parametrize("trial", range(12))
    def test_matches_sequential_build(self, trial):
        from repro.cluster import build_forest

        rng = np.random.default_rng(trial)
        n = int(rng.integers(5, 150))
        edges = [(i, int(rng.integers(0, i))) for i in range(1, n)]
        extra = rng.integers(0, n, size=(2 * n, 2))
        edges += [(int(a), int(b)) for a, b in extra if a != b]
        comm = CommGraph(n, edges)
        k = int(rng.integers(1, n + 1))
        cg = voronoi_clusters(comm, k, np.random.default_rng(trial + 100))
        assign = np.asarray(cg.assignment, dtype=np.int64)
        forest = build_forest(comm, assign, cg.clusters)
        for cid, members in enumerate(cg.clusters):
            ref = SupportTree.build_bfs(comm, members, cluster_id=cid)
            got = forest[cid]
            assert got.root == ref.root
            assert got.parent == ref.parent
            assert list(got.parent) == list(ref.parent)  # discovery order
            assert got.depth_of == ref.depth_of
            assert got.height == ref.height

    def test_disconnected_cluster_reported_like_sequential(self):
        from repro.cluster import build_forest

        comm = CommGraph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="cluster 0 is not connected"):
            build_forest(
                comm,
                np.array([0, 0, 0, 1], dtype=np.int64),
                [[0, 1, 2], [3]],
            )
