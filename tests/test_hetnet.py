"""Tests for the heterogeneous network model (repro.network.hetnet).

The load-bearing properties, mirroring docs/NETWORK.md:

* **Determinism** -- identical (graph, spec, seed) always samples the
  identical fabric; the fabric RNG is spawned off the workload RNG, so
  the sampled *graph* is bit-identical with or without the net knobs.
* **Monotonicity** -- slowing any single link (less bandwidth or more
  latency) never decreases the simulated makespan of a charge sequence.
* **Degeneracy** -- a skew-1 fabric is uniform: makespan is exactly
  ``effective rounds x round_time`` per width, a constant multiple.
* **Merge/absorb consistency** -- split accounting over a shared model
  sums to exactly the unsplit total.
* **Invisibility** -- attaching a model changes no coloring, counter, or
  RNG draw; it only adds ``makespan_ms`` / ``critical_link`` reporting.
  (The bitwise-neutrality runs live in the instrument neutrality matrix
  of tests/test_observe.py.)
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import color_cluster_graph
from repro.dynamic.harness import run_stream
from repro.network import HetNetModel, HetNetSpec
from repro.network.ledger import BandwidthLedger
from repro.observe import NO_INSTRUMENTS, Instruments
from repro.workloads import GENERATORS, PARAM_SPECS, STREAMS
from repro.workloads.specs import NET_PARAM_NAMES

SLOW = settings(
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)

#: One small cluster graph shared by the fabric-level tests (identity
#: clusters: every support tree is a single machine, so the envelope is
#: exactly the slowest designated H-link's ``latency + w/bandwidth``).
GRAPH = GENERATORS["congest"](np.random.default_rng(7), n=40).graph

#: A clustered graph (multi-machine support trees) for root-path lines.
TREE_GRAPH = GENERATORS["low_degree"](
    np.random.default_rng(7), n_vertices=60, target_degree=5, cluster_size=3
).graph


def sample_model(graph=GRAPH, *, skew=10.0, fill=0.2, seed=5, **kw):
    spec = HetNetSpec(skew=skew, fill=fill, **kw)
    return HetNetModel.sample(graph, spec, np.random.default_rng(seed))


class TestSpecValidation:
    def test_skew_below_one_rejected(self):
        with pytest.raises(ValueError, match="skew"):
            HetNetSpec(skew=0.5)

    @pytest.mark.parametrize("fill", [-0.1, 1.5])
    def test_fill_out_of_range_rejected(self, fill):
        with pytest.raises(ValueError, match="fill"):
            HetNetSpec(fill=fill)

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            HetNetSpec(base_bandwidth_mbps=0.0)

    def test_machine_types_apply_skew(self):
        standard, slow = HetNetSpec(skew=10.0, base_bandwidth_mbps=100.0).machine_types()
        assert standard.bandwidth_mbps == 100.0
        assert slow.bandwidth_mbps == pytest.approx(10.0)
        # latency_skew defaults to the bandwidth skew
        assert slow.latency_ms == pytest.approx(standard.latency_ms * 10.0)

    def test_to_dict_resolves_latency_skew(self):
        d = HetNetSpec(skew=4.0).to_dict()
        assert d["latency_skew"] == 4.0
        assert set(d) == {
            "skew", "fill", "base_bandwidth_mbps", "base_latency_ms",
            "latency_skew", "jitter",
        }


class TestSampling:
    def test_same_seed_same_fabric(self):
        a = sample_model(seed=11)
        b = sample_model(seed=11)
        assert np.array_equal(a.machine_type, b.machine_type)
        assert np.array_equal(a.link_bandwidth_mbps, b.link_bandwidth_mbps)
        assert np.array_equal(a.link_latency_ms, b.link_latency_ms)
        assert a.element_names == b.element_names

    def test_fill_zero_is_all_standard(self):
        model = sample_model(fill=0.0)
        assert model.n_slow_machines == 0
        assert np.all(model.link_bandwidth_mbps == 100.0)

    def test_fill_one_is_all_slow(self):
        model = sample_model(fill=1.0, skew=8.0)
        assert model.n_slow_machines == GRAPH.comm.n
        assert np.allclose(model.link_bandwidth_mbps, 100.0 / 8.0)

    def test_link_slow_iff_either_endpoint_slow(self):
        model = sample_model(fill=0.3, skew=10.0)
        link_u, link_v = GRAPH.comm.link_arrays()
        slow = model.machine_type[link_u] | model.machine_type[link_v]
        assert np.array_equal(
            np.isclose(model.link_bandwidth_mbps, 10.0), slow.astype(bool)
        )

    def test_from_links_rejects_wrong_shapes(self):
        m = GRAPH.comm.num_links
        with pytest.raises(ValueError, match="links"):
            HetNetModel.from_links(GRAPH, np.ones(m - 1), np.zeros(m - 1))
        with pytest.raises(ValueError, match="bandwidth"):
            HetNetModel.from_links(GRAPH, np.zeros(m), np.zeros(m))


class TestSimulatedClock:
    def test_zero_rounds_advance_no_time(self):
        model = sample_model()
        assert model.account(64, 0) == 0.0
        assert model.element_time_ms.sum() == 0.0

    def test_uniform_fabric_degenerates_to_rounds(self):
        # skew 1: every link identical, so makespan == rounds x constant
        model = sample_model(skew=1.0, fill=0.5)
        spec = model.spec
        per_round = model.round_time_ms(32)
        expected = spec.base_latency_ms + 32 / (spec.base_bandwidth_mbps * 1e3)
        assert per_round == pytest.approx(expected)
        assert model.account(32, 7) == pytest.approx(7 * per_round)

    def test_account_accumulates_critical_element(self):
        model = sample_model(skew=100.0, fill=0.3)
        model.account(64, 3)
        model.account(8, 1)
        name, ms = model.critical_element()
        assert ms == pytest.approx(model.element_time_ms.max())
        assert name in model.element_names
        tops = model.element_times(top=3)
        assert tops and tops[0] == (name, pytest.approx(ms))
        assert all(a[1] >= b[1] for a, b in zip(tops, tops[1:]))

    def test_tree_graph_has_root_path_elements(self):
        model = sample_model(TREE_GRAPH)
        assert any(n.startswith("tree[") for n in model.element_names)
        assert any(n.startswith("link[") for n in model.element_names)

    @SLOW
    @given(
        seed=st.integers(0, 10_000),
        idx_frac=st.floats(0.0, 1.0),
        bw_factor=st.floats(1.0, 100.0),
        lat_add=st.floats(0.0, 5.0),
    )
    def test_slowing_any_link_never_decreases_makespan(
        self, seed, idx_frac, bw_factor, lat_add
    ):
        m = TREE_GRAPH.comm.num_links
        rng = np.random.default_rng(seed)
        bw = rng.uniform(1.0, 200.0, m)
        lat = rng.uniform(0.0, 2.0, m)
        idx = min(m - 1, int(idx_frac * m))
        charges = [(8, 3), (64, 1), (32, 5), (1, 2)]

        def total(bandwidth, latency):
            model = HetNetModel.from_links(TREE_GRAPH, bandwidth, latency)
            return sum(model.account(w, r) for w, r in charges)

        base = total(bw, lat)
        slower_bw = bw.copy()
        slower_bw[idx] /= bw_factor
        assert total(slower_bw, lat) >= base - 1e-9
        later = lat.copy()
        later[idx] += lat_add
        assert total(bw, later) >= base - 1e-9

    @SLOW
    @given(width=st.integers(1, 512), rounds=st.integers(1, 50))
    def test_account_is_rounds_times_envelope(self, width, rounds):
        model = sample_model(TREE_GRAPH, skew=25.0, fill=0.4)
        assert model.account(width, rounds) == pytest.approx(
            rounds * model.round_time_ms(width)
        )


class TestLedgerIntegration:
    def charge_seq(self, ledger, tag=""):
        ledger.charge(f"a{tag}", 8, rounds_h=2)
        ledger.charge(f"b{tag}", 60, rounds_h=1)
        ledger.charge(f"c{tag}", 1, rounds_h=4)

    def test_attach_on_used_ledger_raises(self):
        ledger = BandwidthLedger(bandwidth_bits=64)
        ledger.charge("op", 8)
        with pytest.raises(RuntimeError, match="already"):
            ledger.attach_netmodel(sample_model())

    def test_summary_emits_makespan_only_with_model(self):
        plain = BandwidthLedger(bandwidth_bits=64)
        self.charge_seq(plain)
        assert "makespan_ms" not in plain.summary()
        modeled = BandwidthLedger(bandwidth_bits=64)
        modeled.attach_netmodel(sample_model())
        self.charge_seq(modeled)
        assert modeled.summary()["makespan_ms"] > 0

    def test_snapshot_diff_carries_makespan(self):
        ledger = BandwidthLedger(bandwidth_bits=64)
        ledger.attach_netmodel(sample_model())
        before = ledger.snapshot()
        self.charge_seq(ledger)
        window = before.diff(ledger.snapshot())
        assert window.makespan_ms == pytest.approx(ledger.makespan_ms)

    def test_zero_round_charge_advances_no_clock(self):
        ledger = BandwidthLedger(bandwidth_bits=64)
        ledger.attach_netmodel(sample_model())
        ledger.charge("piggyback", 32, rounds_h=0)
        assert ledger.makespan_ms == 0.0

    def test_absorb_matches_unsplit_accounting(self):
        # split: two ledgers share one model, then A absorbs B's summary
        shared = sample_model(seed=3)
        a = BandwidthLedger(bandwidth_bits=64)
        a.attach_netmodel(shared)
        b = BandwidthLedger(bandwidth_bits=64)
        b.attach_netmodel(shared)
        self.charge_seq(a, "1")
        self.charge_seq(b, "2")
        a.absorb(b.summary(), op="scratch")
        # unsplit: one ledger, one fresh but identically-sampled model
        single = BandwidthLedger(bandwidth_bits=64)
        single.attach_netmodel(sample_model(seed=3))
        self.charge_seq(single, "1")
        self.charge_seq(single, "2")
        assert a.makespan_ms == pytest.approx(single.makespan_ms, abs=1e-5)
        assert a.rounds_h == single.rounds_h
        assert a.total_message_bits == single.total_message_bits


class TestGeneratorKnobs:
    def test_every_generator_registers_net_knobs(self):
        for name, specs in PARAM_SPECS.items():
            for knob in NET_PARAM_NAMES:
                assert knob in specs, f"{name} misses {knob}"
                assert specs[knob].allow_none, f"{name}.{knob} must default off"
                assert specs[knob].default is None
                assert specs[knob].fuzz, f"{name}.{knob} not fuzzable"

    def test_knobs_attach_model_without_touching_graph(self):
        plain = GENERATORS["congest"](np.random.default_rng(3), n=40)
        knobbed = GENERATORS["congest"](
            np.random.default_rng(3), n=40, net_skew=10.0, net_fill=0.2
        )
        assert plain.netmodel is None and plain.hetnet is None
        assert isinstance(knobbed.netmodel, HetNetModel)
        assert knobbed.hetnet.skew == 10.0
        assert knobbed.hetnet.fill == 0.2
        # the fabric RNG is spawned, not drawn: identical sampled graph
        assert np.array_equal(
            np.array(plain.graph.comm.link_arrays()),
            np.array(knobbed.graph.comm.link_arrays()),
        )
        assert plain.graph.clusters == knobbed.graph.clusters

    def test_partial_knobs_fill_defaults(self):
        w = GENERATORS["congest"](np.random.default_rng(3), n=40, net_skew=5.0)
        assert w.hetnet.skew == 5.0 and w.hetnet.fill == 0.1
        w = GENERATORS["congest"](np.random.default_rng(3), n=40, net_fill=0.3)
        assert w.hetnet.skew == 1.0 and w.hetnet.fill == 0.3

    def test_stream_workload_reports_makespan(self):
        kw = dict(n_vertices=120, avg_degree=5.0, batches=3)
        hot = STREAMS["sliding_window"](
            np.random.default_rng(2), net_skew=10.0, net_fill=0.2, **kw
        )
        _, _, metrics = run_stream(
            hot, seed=4, instruments=NO_INSTRUMENTS.with_workload(hot)
        )
        assert metrics["makespan_ms"] > 0
        assert isinstance(metrics["critical_link"], str)
        cold = STREAMS["sliding_window"](np.random.default_rng(2), **kw)
        _, _, cold_metrics = run_stream(
            cold, seed=4, instruments=NO_INSTRUMENTS.with_workload(cold)
        )
        assert "makespan_ms" not in cold_metrics
        assert "critical_link" not in cold_metrics


class TestPipelineIntegration:
    def run(self, netmodel):
        return color_cluster_graph(
            GRAPH,
            rng=np.random.default_rng(1234),
            instruments=Instruments(netmodel=netmodel),
        )

    def test_homogeneous_run_reports_no_makespan(self):
        result = self.run(None)
        assert result.proper
        assert "makespan_ms" not in result.ledger_summary

    def test_skew_raises_makespan_not_colorings(self):
        base = self.run(sample_model(skew=1.0, fill=0.1, seed=9))
        skewed = self.run(sample_model(skew=100.0, fill=0.1, seed=9))
        assert base.colors.tolist() == skewed.colors.tolist()
        assert base.rounds_h == skewed.rounds_h
        assert (
            skewed.ledger_summary["makespan_ms"]
            > base.ledger_summary["makespan_ms"] > 0
        )


class TestSuitesAndRunner:
    def test_hetnet_suites_cover_the_grid(self):
        from repro.experiments.spec import HETNET_FILLS, HETNET_SKEWS, SUITES

        for name, n_members in (("hetnet_smoke", 2), ("hetnet", 4)):
            cells = SUITES[name].cells()
            assert len(cells) == n_members * len(HETNET_SKEWS) * len(HETNET_FILLS)
            for cell in cells:
                kwargs = dict(cell.workload_kwargs)
                assert kwargs["net_skew"] in HETNET_SKEWS
                assert kwargs["net_fill"] in HETNET_FILLS

    def test_run_cell_reports_makespan_and_critical_link(self):
        from repro.experiments.runner import run_cell
        from repro.experiments.spec import SUITES

        cell = next(
            c for c in SUITES["hetnet_smoke"].cells()
            if c.workload == "congest"
            and dict(c.workload_kwargs)["net_skew"] == 100.0
        )
        record = run_cell(cell.to_dict())
        assert record["status"] == "ok", record["error"]
        assert record["metrics"]["makespan_ms"] > 0
        assert record["metrics"]["critical_link"]

    def test_makespan_objective_scores_records(self):
        from repro.fuzz import get_objective, score_record

        objective = get_objective("makespan")
        assert objective.deterministic
        assert objective.metric == "makespan_ms"
        record = {"status": "ok", "metrics": {"makespan_ms": 12.5}}
        assert score_record(objective, record) == 12.5
        homogeneous = {"status": "ok", "metrics": {}}
        assert score_record(objective, homogeneous) is None


class TestNetsimCLI:
    def test_netsim_names_critical_stage_and_link(self, capsys):
        from repro.cli import main

        rc = main([
            "netsim", "figure1", "--skew", "100", "--fill", "0.5",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "critical stage:" in out
        assert "critical link:" in out
        assert "makespan=" in out

    def test_netsim_json(self, capsys):
        from repro.cli import main

        rc = main([
            "netsim", "figure1", "--skew", "10", "--fill", "0.5", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["proper"] is True
        assert payload["makespan_ms"] > 0
        assert payload["critical_link"]
        assert payload["critical_stage"]
