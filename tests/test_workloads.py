"""Workload generators: planted structure, determinism, connectivity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import (
    bridge_pathology,
    cabal_instance,
    congest_instance,
    contraction_instance,
    figure1_example,
    high_degree_instance,
    low_degree_instance,
    planted_acd_instance,
    voronoi_instance,
)

ALL_GENERATORS = [
    planted_acd_instance,
    cabal_instance,
    congest_instance,
    contraction_instance,
    voronoi_instance,
    bridge_pathology,
    high_degree_instance,
    low_degree_instance,
]


class TestAllGenerators:
    @pytest.mark.parametrize("maker", ALL_GENERATORS)
    def test_valid_cluster_graph(self, maker):
        w = maker(np.random.default_rng(1))
        g = w.graph
        assert g.n_vertices > 0
        assert g.max_degree >= 1
        # partition covers all machines with connected clusters (validated
        # at construction); sanity-check the totals anyway
        assert sum(g.cluster_size(v) for v in range(g.n_vertices)) == g.n_machines

    @pytest.mark.parametrize("maker", ALL_GENERATORS)
    def test_deterministic_given_seed(self, maker):
        a = maker(np.random.default_rng(9))
        b = maker(np.random.default_rng(9))
        assert a.graph.n_vertices == b.graph.n_vertices
        assert sorted(a.graph.iter_h_edges()) == sorted(b.graph.iter_h_edges())


class TestPlantedAcd:
    def test_planted_cliques_are_cliques_minus_anti_edges(self, rng):
        w = planted_acd_instance(rng, anti_degree=1)
        g = w.graph
        for members in w.planted_cliques:
            for v in members:
                non_nbrs = [
                    u for u in members if u != v and not g.are_adjacent(u, v)
                ]
                assert len(non_nbrs) <= 1  # anti-degree budget respected

    def test_sparse_part_is_sparse(self, rng):
        w = planted_acd_instance(rng)
        g = w.graph
        clique_size = len(w.planted_cliques[0])
        degrees = [g.degree(v) for v in w.planted_sparse]
        # on average well below clique degree (individual outliers allowed)
        assert np.mean(degrees) < 0.8 * clique_size

    def test_external_degree_knob(self, rng):
        low = planted_acd_instance(np.random.default_rng(3), external_degree=1)
        high = planted_acd_instance(np.random.default_rng(3), external_degree=10)
        def avg_external(w):
            g = w.graph
            total = 0
            count = 0
            for members in w.planted_cliques:
                mset = set(members)
                for v in members:
                    total += len(g.neighbor_set(v) - mset)
                    count += 1
            return total / count
        assert avg_external(high) > avg_external(low) + 5


class TestCabalInstance:
    def test_anti_degree_knob(self):
        w = cabal_instance(np.random.default_rng(4), anti_degree=3)
        g = w.graph
        anti = []
        for members in w.planted_cliques:
            for v in members:
                anti.append(
                    sum(1 for u in members if u != v and not g.are_adjacent(u, v))
                )
        assert 1.0 <= np.mean(anti) <= 3.0

    def test_tiny_external_degree(self):
        w = cabal_instance(np.random.default_rng(5))
        g = w.graph
        for members in w.planted_cliques:
            mset = set(members)
            externals = [len(g.neighbor_set(v) - mset) for v in members]
            assert np.mean(externals) < 1.0

    def test_single_cabal(self):
        w = cabal_instance(np.random.default_rng(6), n_cabals=1)
        assert len(w.planted_cliques) == 1


class TestSpecials:
    def test_figure1_is_connected_4_vertex(self):
        w = figure1_example()
        assert w.graph.n_vertices == 4
        assert w.graph.n_machines == 9

    def test_bridge_has_bridge_dilation(self, rng):
        w = bridge_pathology(rng)
        assert w.graph.dilation >= 2  # two stars joined by a bridge

    def test_high_degree_clears_scaled_threshold(self):
        from repro.params import scaled

        w = high_degree_instance(np.random.default_rng(7), n_vertices=300)
        assert w.graph.max_degree >= scaled().delta_low(w.graph.n_machines)

    def test_low_degree_is_regular(self):
        w = low_degree_instance(np.random.default_rng(8), target_degree=6)
        degrees = {w.graph.degree(v) for v in range(w.graph.n_vertices)}
        assert degrees == {6}


class TestStreamGenerators:
    """Churn streams: registry exposure, determinism, and batch validity
    (validity is proven by driving the engine over every emitted batch)."""

    def test_streams_registered_uniformly(self):
        from repro.workloads import GENERATORS, STREAMS

        for name in STREAMS:
            assert name in GENERATORS
            assert GENERATORS[name] is STREAMS[name]

    @pytest.mark.parametrize("name", ["sliding_window", "hotspot_churn",
                                      "cluster_churn"])
    def test_stream_is_workload_with_batches(self, name):
        from repro.workloads import STREAMS, StreamWorkload, Workload

        w = STREAMS[name](np.random.default_rng(0))
        assert isinstance(w, StreamWorkload)
        assert isinstance(w, Workload)  # uniform listing/coloring surface
        assert w.graph.n_vertices > 0
        assert len(w.batches) > 0
        assert w.total_updates == sum(len(b) for b in w.batches)

    @pytest.mark.parametrize("name", ["sliding_window", "hotspot_churn",
                                      "cluster_churn"])
    def test_deterministic_given_seed(self, name):
        from repro.workloads import STREAMS

        a = STREAMS[name](np.random.default_rng(5))
        b = STREAMS[name](np.random.default_rng(5))
        assert sorted(a.graph.iter_h_edges()) == sorted(b.graph.iter_h_edges())
        assert [ba.updates for ba in a.batches] == [bb.updates for bb in b.batches]

    @pytest.mark.parametrize("name", ["sliding_window", "hotspot_churn",
                                      "cluster_churn"])
    def test_every_batch_is_applicable(self, name):
        from repro.dynamic import DynamicColoring
        from repro.workloads import STREAMS

        w = STREAMS[name](np.random.default_rng(11))
        engine = DynamicColoring(w.graph, seed=2)
        result = engine.run(w.batches)  # engine raises on any invalid event
        assert result.batches == len(w.batches)
        assert result.all_proper

    def test_cluster_churn_needs_splittable_clusters(self):
        from repro.workloads import cluster_churn_stream

        with pytest.raises(ValueError, match="cluster_size"):
            cluster_churn_stream(np.random.default_rng(0), cluster_size=1)


class TestParamValidation:
    """Call-time validation through the PARAM_SPECS registry."""

    def test_every_generator_has_specs(self):
        from repro.workloads import GENERATORS, PARAM_SPECS

        assert set(PARAM_SPECS) == set(GENERATORS)

    def test_unknown_parameter_rejected_upfront(self):
        from repro.workloads import GENERATORS

        with pytest.raises(ValueError, match="no parameter 'bogus'"):
            GENERATORS["planted_acd"](np.random.default_rng(0), bogus=1)

    def test_out_of_bounds_rejected_with_bound_in_message(self):
        from repro.workloads import GENERATORS

        with pytest.raises(ValueError, match="must be >= 2"):
            GENERATORS["cabal"](np.random.default_rng(0), clique_size=1)
        with pytest.raises(ValueError, match="must be <= 1"):
            GENERATORS["congest"](np.random.default_rng(0), p=1.5)

    def test_wrong_type_rejected(self):
        from repro.workloads import GENERATORS

        with pytest.raises(ValueError, match="must be an integer"):
            GENERATORS["congest"](np.random.default_rng(0), n=200.5)
        with pytest.raises(ValueError, match="must be an integer"):
            GENERATORS["congest"](np.random.default_rng(0), n=True)

    def test_bad_choice_rejected(self):
        from repro.workloads import GENERATORS

        with pytest.raises(ValueError, match="must be one of"):
            GENERATORS["high_degree"](
                np.random.default_rng(0), topology="moebius"
            )

    def test_none_only_where_allowed(self):
        from repro.workloads import GENERATORS

        # congest's p is generator-computed when None
        GENERATORS["congest"](np.random.default_rng(0), n=60, p=None)
        with pytest.raises(ValueError, match="does not accept None"):
            GENERATORS["congest"](np.random.default_rng(0), n=None)

    def test_spec_defaults_are_valid(self):
        from repro.workloads import PARAM_SPECS
        from repro.workloads.specs import validate_params

        for name, specs in PARAM_SPECS.items():
            defaults = {
                k: s.default for k, s in specs.items() if s.default is not None
            }
            validate_params(name, defaults)

    def test_fuzz_boxes_inside_hard_bounds(self):
        from repro.workloads import PARAM_SPECS

        for name, specs in PARAM_SPECS.items():
            for pname, spec in specs.items():
                if not spec.fuzz or spec.kind == "choice":
                    continue
                lo, hi = spec.box
                assert lo <= hi, f"{name}.{pname}"
                if spec.low is not None:
                    assert lo >= spec.low, f"{name}.{pname}"
                if spec.high is not None:
                    assert hi <= spec.high, f"{name}.{pname}"

    def test_clamp_params_output_validates(self):
        from repro.workloads.specs import clamp_params, validate_params

        wild = {"n": 10**9, "p": 5.0, "n_clusters": 10**9}
        cleaned = clamp_params("voronoi", wild)
        validate_params("voronoi", cleaned)
        assert cleaned["n_clusters"] <= cleaned["n"]


def _instance_digest(graph) -> str:
    """sha256 over every byte that defines a built instance: the
    communication graph's CSR, the conflict graph's CSR and the
    machine-to-cluster assignment."""
    import hashlib

    digest = hashlib.sha256()
    for arr in (
        graph.comm.csr.indptr,
        graph.comm.csr.indices,
        graph.csr.indptr,
        graph.csr.indices,
        np.asarray(graph.assignment, dtype=np.int64),
    ):
        digest.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    return digest.hexdigest()


def _sliding_window_initial():
    from repro.workloads import sliding_window_stream

    # the perfbench `churn` miniature; .graph is the initial instance
    return sliding_window_stream(
        np.random.default_rng(0), n_vertices=600, avg_degree=8,
        cluster_size=3, topology="tree", batches=20, churn_fraction=0.01,
    ).graph


class TestSparseSamplerPins:
    """Byte pins of instances built through the ``avg_degree`` sampler.

    The digests were recorded from the networkx-based sampler; any sampler
    must reproduce them exactly (same edges, same edge order into
    ``blowup``'s rng draws).  Never re-pin these.
    """

    PINNED = {
        # the perfbench `dense` miniature
        "high_degree_dense_mini": (
            lambda: high_degree_instance(
                np.random.default_rng(0), n_vertices=400, avg_degree=60,
                cluster_size=1,
            ).graph,
            "c13c826fe19f3daeb7b89a71f7407881c4956119bddc1e693a4a0062f0ac4327",
        ),
        # disconnected draw: hundreds of stitch edges
        "congest_disconnected": (
            lambda: congest_instance(
                np.random.default_rng(0), n=2000, avg_degree=2
            ).graph,
            "283a877e3b3fbdeb2380373e36d8b3674207dba5bdd454d069a57307dd230b43",
        ),
        "sliding_window_initial": (
            _sliding_window_initial,
            "01985dddcc526a83be6b6d60e10ba468b1d2e744a3eb5b02611f6c20619317d9",
        ),
        # avg_degree >= n - 1: p clamps to 1, the complete graph
        "congest_complete": (
            lambda: congest_instance(
                np.random.default_rng(0), n=50, avg_degree=60
            ).graph,
            "e3b5f1ec6812390109d21372a0a30d878b5ef64eb8bdd266879feac588ce5b58",
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_instance_bytes_pinned(self, name):
        build, expected = self.PINNED[name]
        assert _instance_digest(build()) == expected


def _networkx_reference(n, p, avg_degree, seed):
    """The networkx construction the array sampler replaces: the G(n, p)
    draw plus the connected-components stitch loop, as ``edges()``."""
    import networkx as nx

    if avg_degree is not None:
        p = min(1.0, avg_degree / max(1, n - 1))
        try:
            g = nx.fast_gnp_random_graph(n, p, seed=seed)
        except ZeroDivisionError:  # 1 - p == 1: log(1 - p) is zero
            g = nx.empty_graph(n)
    else:
        g = nx.erdos_renyi_graph(n, p, seed=seed)
    components = list(nx.connected_components(g))
    for i in range(len(components) - 1):
        g.add_edge(next(iter(components[i])), next(iter(components[i + 1])))
    return list(g.edges())


class TestSamplerMatchesNetworkx:
    """The array sampler and stitching equal networkx edge for edge, in
    ``edges()`` order -- the order ``blowup`` draws its links in."""

    @staticmethod
    def _check(n, p, avg_degree, seed):
        from repro.workloads.generators import _random_network

        rng = np.random.default_rng(seed)
        nx_seed = int(np.random.default_rng(seed).integers(0, 2**31))
        got = _random_network(rng, n, p, avg_degree)
        assert got.dtype == np.int64 and got.shape[1] == 2
        assert list(map(tuple, got.tolist())) == _networkx_reference(
            n, p, avg_degree, nx_seed
        )

    @given(data=st.data(), n=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_avg_degree_sampler(self, data, n, seed):
        avg_degree = data.draw(st.floats(0.0, n + 5.0), label="avg_degree")
        self._check(n, 0.0, avg_degree, seed)

    @pytest.mark.parametrize(
        "n,avg_degree",
        [(1, 0.0), (1, 3.0), (2, 0.0), (2, 1e-300), (300, 0.0), (60, 59.0),
         (60, 65.0), (400, 1.0), (2000, 2.0)],
    )
    def test_avg_degree_edge_cases(self, n, avg_degree):
        # p <= 0 and p >= 1 hand off to gnp_random_graph in networkx;
        # average degree 1-2 draws hundreds of components
        self._check(n, 0.0, avg_degree, 7)

    @given(n=st.integers(1, 120), p=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_default_sampler(self, n, p, seed):
        self._check(n, p, None, seed)


def test_sparse_sampler_path_builds_no_networkx_graph(monkeypatch):
    import networkx as nx

    def forbidden(*args, **kwargs):
        raise AssertionError("networkx called on the avg_degree path")

    for owner, name in [
        (nx, "fast_gnp_random_graph"),
        (nx, "connected_components"),
        (nx, "convert_node_labels_to_integers"),
        (nx.Graph, "add_edge"),
        (nx.Graph, "add_edges_from"),
    ]:
        monkeypatch.setattr(owner, name, forbidden)
    w = high_degree_instance(
        np.random.default_rng(0), n_vertices=400, avg_degree=60, cluster_size=1
    )
    assert w.graph.n_vertices == 400
    assert _sliding_window_initial().n_vertices == 600
    assert congest_instance(np.random.default_rng(0), n=300, avg_degree=3).graph


def _stream_digest(workload) -> str:
    """sha256 over every batch's ``(kind, u, v, edges, size)`` events, in
    emission order, with batch boundaries marked."""
    import hashlib

    digest = hashlib.sha256()
    for i, batch in enumerate(workload.batches):
        digest.update(f"batch {i} {len(batch)}\n".encode())
        for up in batch.updates:
            digest.update(repr((up.kind, up.u, up.v, up.edges, up.size)).encode())
    return digest.hexdigest()


def _stream(name, **kwargs):
    from repro.workloads import STREAMS

    return lambda: STREAMS[name](np.random.default_rng(0), **kwargs)


def _churn_miniature():
    from repro.workloads import sliding_window_stream

    return sliding_window_stream(
        np.random.default_rng(0), n_vertices=600, avg_degree=8,
        cluster_size=3, topology="tree", batches=20, churn_fraction=0.01,
    )


class TestStreamPins:
    """Byte pins of the churn generators' event streams and of the engine
    run on perfbench's churn miniature.

    ``hotspot_churn`` and ``cluster_churn`` pick edges by position in their
    shadow's edge list, so any change to that list's order changes the
    stream; these pins catch it.  Never re-pin these.
    """

    PINNED = {
        # the stream_smoke sizes
        "sliding_window_smoke": (
            _stream("sliding_window", n_vertices=500, avg_degree=8.0, batches=6),
            "97cd70c5d1355b267ff79a12af3aa15f741a1fcd7e71a8f214f1bb194037161e",
        ),
        "hotspot_churn_smoke": (
            _stream("hotspot_churn", n_vertices=300, avg_degree=10.0, batches=5),
            "d733797bebf9cf61696fcaca7b5faa47c949142e9296e8ac2ea21cc8e9fc592c",
        ),
        "cluster_churn_smoke": (
            _stream(
                "cluster_churn", n_vertices=150, avg_degree=8.0,
                cluster_size=4, batches=4,
            ),
            "7e0d55bea8ca52cad0186317aaf4bd1068c4a5dfda524993f7de608a0d5a117b",
        ),
        # the committed pathology cell hotspot_churn-4a136fab76
        "hotspot_churn_pathology": (
            _stream(
                "hotspot_churn", n_vertices=60, avg_degree=3.0, batches=3,
                churn_edges=4, cluster_size=1, departures=0, arrivals=4,
                hotspot_fraction=0.01, topology="star",
            ),
            "3167d925c7508ad9a2c12b5995a8d6007992b5487f8f84b042bad19e14730cd6",
        ),
        # tests/test_fuzz.py TestEscalationRegression.PINNED
        "hotspot_churn_escalation": (
            _stream(
                "hotspot_churn", n_vertices=60, avg_degree=3.0, batches=8,
                hotspot_fraction=0.9, churn_edges=400, arrivals=12,
                departures=12,
            ),
            "49b84469cadcf6456e4f0abbf8bffc7aee149b258a87b11924b7d2ba6dd83bff",
        ),
        "sliding_window_churn_miniature": (
            _churn_miniature,
            "37473275264d24c9c84f6dbbff6320acb2288394249a6c85cef0ffb95d97ad54",
        ),
    }

    #: Engine runs through ``DynamicColoring`` (repair mode, per-batch
    #: verification): (stream, rebuild_fraction, final coloring digest of
    #: the live vertices, sha256 of every batch's (dirty, repaired,
    #: compacted, rounds_h, message_bits)).
    ENGINE_PINNED = {
        # perfbench's churn miniature, at the default rebuild budget
        "churn_miniature": (
            _churn_miniature, 0.25, "bbb81c3071633d10",
            "be305f6a823444db34343067ac4a0284f7e81c4cc5875928ccbbeb275c0c03c4",
        ),
        # a tight rebuild budget, so compactions interleave with churn
        "hotspot_churn_compacting": (
            _stream("hotspot_churn", n_vertices=300, avg_degree=10.0, batches=5),
            0.02, "d406533ad40bbcac",
            "1328ee70366b32d74e6390be146df4ce10edcb13efb49f7256d7c05fe1002ecd",
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_stream_bytes_pinned(self, name):
        build, expected = self.PINNED[name]
        assert _stream_digest(build()) == expected

    @pytest.mark.parametrize("name", sorted(ENGINE_PINNED))
    def test_engine_run_pinned(self, name):
        import hashlib

        from repro.dynamic.engine import DynamicColoring
        from repro.experiments.runner import coloring_digest
        from repro.params import scaled

        build, rebuild_fraction, digest, report_digest = self.ENGINE_PINNED[name]
        workload = build()
        engine = DynamicColoring(
            workload.graph, params=scaled(), seed=0, mode="repair",
            verify_each_batch=True, rebuild_fraction=rebuild_fraction,
        )
        reports = [engine.apply(batch) for batch in workload.batches]
        assert all(r.proper for r in reports)
        rows = [
            (r.dirty, r.repaired, r.compacted, r.rounds_h, r.message_bits)
            for r in reports
        ]
        alive = engine.delta.alive_mask
        assert coloring_digest(engine.colors[alive]) == digest
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == report_digest
