"""Tests for the observability subsystem (repro.observe).

The load-bearing property is *bitwise invisibility*: attaching any subset
of the instruments (tracer, metrics registry, network model) must not
change a single color, ledger counter, or RNG draw.  The neutrality
matrix pins that on the static pipeline (three regimes) and the stream
engine.  The rest covers span accounting (nesting, ledger attribution,
the stage-sum == ledger-total partition invariant), the ledger's
max-window stack, and the history store's soft-regression detection.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import color_cluster_graph
from repro.dynamic.harness import run_stream
from repro.network.ledger import BandwidthLedger
from repro.observe import (
    NULL_TRACER,
    Instruments,
    MetricsRegistry,
    NullTracer,
    Tracer,
    aggregate_stage_rows,
    append_entry,
    detect_slowdowns,
    entry_from_artifact,
    load_history,
    render_history,
    stage_rows,
)
from repro.workloads import GENERATORS, STREAMS

SLOW = settings(
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)


def make_ledger(**kw):
    kw.setdefault("bandwidth_bits", 64)
    return BandwidthLedger(**kw)


class TestTracerBasics:
    def test_spans_nest_and_serialize(self):
        ledger = make_ledger()
        tracer = Tracer()
        tracer.bind_ledger(ledger)
        with tracer.span("outer", phase=1) as outer:
            ledger.charge("a", 10)
            with tracer.span("inner"):
                ledger.charge("b", 20, rounds_h=2)
            outer.counter("things", 3)
        (top,) = tracer.spans
        assert top.name == "outer"
        assert top.tags == {"phase": 1}
        assert top.rounds_h == 3
        assert top.message_bits == 10 + 40
        assert top.counters == {"things": 3}
        (child,) = top.children
        assert child.name == "inner"
        assert child.rounds_h == 2
        assert child.message_bits == 40
        tree = tracer.to_dict()
        assert json.loads(json.dumps(tree)) == tree  # JSON-safe
        assert tree["spans"][0]["children"][0]["name"] == "inner"

    def test_unbound_tracer_records_wall_time_only(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        (span,) = tracer.spans
        assert span.wall_time_s >= 0
        assert span.rounds_h == 0 and span.message_bits == 0

    def test_bind_ledger_refuses_open_spans(self):
        tracer = Tracer()
        tracer.bind_ledger(make_ledger())
        with tracer.span("open"):
            with pytest.raises(RuntimeError):
                tracer.bind_ledger(make_ledger())

    def test_null_tracer_is_inert_singleton(self):
        assert isinstance(NULL_TRACER, NullTracer)
        span_a = NULL_TRACER.span("x", tag=1)
        span_b = NULL_TRACER.span("y")
        assert span_a is span_b  # shared no-op span: no per-call allocation
        with span_a as s:
            s.counter("ignored")
        assert NULL_TRACER.to_dict() is None
        NULL_TRACER.bind_ledger(make_ledger())  # accepted, ignored

    def test_stage_rows_accepts_tracer_and_dict(self):
        ledger = make_ledger()
        tracer = Tracer()
        tracer.bind_ledger(ledger)
        with tracer.span("stage", k=1):
            ledger.charge("op", 8)
        live = stage_rows(tracer)
        serialized = stage_rows(tracer.to_dict())
        for rows in (live, serialized):
            assert len(rows) == 1
            assert rows[0]["stage"] == "stage[k=1]"
            assert rows[0]["rounds_h"] == 1
            assert rows[0]["bits"] == 8
        assert stage_rows(None) == []

    def test_aggregate_merges_by_name(self):
        rows = [
            {"stage": "b[batch=0]", "wall_s": 1.0, "rounds_h": 2,
             "rounds_g": 4, "bits": 10, "max_bits": 5},
            {"stage": "b[batch=1]", "wall_s": 0.5, "rounds_h": 3,
             "rounds_g": 6, "bits": 20, "max_bits": 9},
        ]
        (merged,) = aggregate_stage_rows(rows)
        assert merged["stage"] == "b"
        assert merged["spans"] == 2
        assert merged["rounds_h"] == 5 and merged["bits"] == 30
        assert merged["max_bits"] == 9  # width merges by max, not sum


class TestSpanAccounting:
    """Property tests: random nested spans with random charges."""

    @SLOW
    @given(st.data())
    def test_children_sum_to_at_most_parent(self, data):
        ledger = make_ledger()
        tracer = Tracer()
        tracer.bind_ledger(ledger)

        def run_span(depth):
            n_children = data.draw(
                st.integers(0, 3 if depth < 2 else 0), label=f"children@{depth}"
            )
            with tracer.span(f"s{depth}") as span:
                for _ in range(data.draw(st.integers(0, 3), label="charges")):
                    ledger.charge(
                        "op",
                        data.draw(st.integers(0, 200), label="bits"),
                        rounds_h=data.draw(st.integers(0, 3), label="rounds"),
                        pipelined=True,
                    )
                for _ in range(n_children):
                    run_span(depth + 1)
            return span.record

        top = run_span(0)
        for record in top.walk():
            child_rounds = sum(c.rounds_h for c in record.children)
            child_bits = sum(c.message_bits for c in record.children)
            child_wall = sum(c.wall_time_s for c in record.children)
            assert child_rounds <= record.rounds_h
            assert child_bits <= record.message_bits
            assert child_wall <= record.wall_time_s + 1e-9
            # a child's max width can never exceed its parent's window max
            for c in record.children:
                assert c.max_message_bits <= record.max_message_bits

    @SLOW
    @given(st.data())
    def test_sibling_spans_partition_ledger(self, data):
        ledger = make_ledger()
        tracer = Tracer()
        tracer.bind_ledger(ledger)
        n_spans = data.draw(st.integers(1, 5))
        for i in range(n_spans):
            with tracer.span(f"stage{i}"):
                for _ in range(data.draw(st.integers(0, 4))):
                    ledger.charge(
                        "op",
                        data.draw(st.integers(0, 150)),
                        rounds_h=data.draw(st.integers(0, 2)),
                        pipelined=True,
                    )
        rows = stage_rows(tracer)
        assert sum(r["rounds_h"] for r in rows) == ledger.rounds_h
        assert sum(r["bits"] for r in rows) == ledger.total_message_bits
        assert max((r["max_bits"] for r in rows), default=0) == ledger.max_message_bits

    def test_mismatched_exit_raises(self):
        tracer = Tracer()
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(RuntimeError):
            outer.__exit__(None, None, None)  # LIFO violated
        inner.__exit__(None, None, None)


class TestMaxWindow:
    def test_window_is_local_not_global(self):
        ledger = make_ledger()
        ledger.charge("a", 60)  # global max 60
        with ledger.max_window() as w:
            ledger.charge("b", 10)
        assert w.value == 10
        assert ledger.max_message_bits == 60

    def test_nested_windows_fold_into_parent(self):
        ledger = make_ledger()
        ledger.push_max_window()
        ledger.charge("a", 5)
        ledger.push_max_window()
        ledger.charge("b", 30)
        assert ledger.pop_max_window() == 30
        ledger.charge("c", 12)
        assert ledger.pop_max_window() == 30  # inner max visible to outer

    def test_width_is_capped_at_bandwidth(self):
        ledger = make_ledger(bandwidth_bits=64)
        with ledger.max_window() as w:
            ledger.charge("wide", 1000, pipelined=True)
        assert w.value == 64  # width of one message piece, not the payload

    def test_pop_without_push_raises(self):
        with pytest.raises(RuntimeError):
            make_ledger().pop_max_window()

    def test_absorb_updates_window(self):
        ledger = make_ledger()
        with ledger.max_window() as w:
            ledger.absorb(
                {"rounds_h": 3, "rounds_g": 3, "total_message_bits": 50,
                 "max_message_bits": 40, "num_operations": 2},
                op="sub",
            )
        assert w.value == 40

    def test_snapshot_diff_documents_global_max(self):
        ledger = make_ledger()
        ledger.charge("a", 50)
        before = ledger.snapshot()
        ledger.charge("b", 10)
        diff = before.diff(ledger.snapshot())
        # contract: NOT window-local -- carries the later global running max
        assert diff.max_message_bits == 50
        assert diff.total_message_bits == 10


#: Metrics derived from wall time, which differ between any two runs.
WALL_KEYS = {
    "bootstrap_wall_time_s",
    "stream_wall_time_s",
    "batch_wall_times_s",
    "updates_per_sec",
    "repair_ms_p50",
    "repair_ms_p95",
    "repair_ms_p99",
}
#: Fields only a network model adds (asserted separately).
NETWORK_KEYS = {"makespan_ms", "critical_link"}
NET = {"net_skew": 100.0, "net_fill": 0.1}

STATIC_CASES = [
    ("high_degree", "auto"),
    ("low_degree", "auto"),
    ("congest", "polylog"),
]
STREAM_CASES = ["hotspot_churn", "sliding_window"]
NEUTRALITY_MATRIX = [
    *(
        pytest.param(
            "static", workload, regime, observers,
            id=f"static-{workload}-{regime}-{observers}",
        )
        for workload, regime in STATIC_CASES
        for observers in ("tracer", "netmodel", "tracer+netmodel")
    ),
    *(
        pytest.param(
            "stream", stream, None, observers,
            id=f"stream-{stream}-{observers}",
        )
        for stream in STREAM_CASES
        for observers in ("tracer", "metrics", "netmodel", "tracer+metrics+netmodel")
    ),
]


def _instruments(observers, workload):
    wanted = observers.split("+")
    return Instruments(
        tracer=Tracer() if "tracer" in wanted else NULL_TRACER,
        metrics=MetricsRegistry() if "metrics" in wanted else None,
        netmodel=workload.netmodel if "netmodel" in wanted else None,
    )


def _observed_run(kind, name, regime, observers):
    """One run under the named observers (``"bare"`` for none).

    Every run builds its own workload -- with the network knobs on, which
    leave the sampled graph and stream untouched -- so a model's
    per-element clock never leaks between runs.  Returns the
    observer-independent outcome, the instruments, and the run's report
    (ledger summary or stream metrics) for the additive checks.
    """
    if kind == "static":
        workload = GENERATORS[name](np.random.default_rng(7), **NET)
        instruments = _instruments(observers, workload)
        rng = np.random.default_rng(1234)
        result = color_cluster_graph(
            workload.graph, rng=rng, regime=regime, instruments=instruments
        )
        report = dict(result.ledger_summary)
        outcome = (
            result.colors.tolist(),
            {k: v for k, v in report.items() if k not in NETWORK_KEYS},
            dict(result.stats.stage_rounds),
            rng.bit_generator.state,
        )
        return outcome, instruments, report, None
    workload = STREAMS[name](np.random.default_rng(11), **NET)
    instruments = _instruments(observers, workload)
    engine, _result, report = run_stream(workload, seed=4, instruments=instruments)
    outcome = (
        engine.colors.tolist(),
        dict(engine.ledger.per_op_rounds),
        dict(engine.ledger.per_op_bits),
        engine.rng.bit_generator.state,
        {k: v for k, v in report.items() if k not in WALL_KEYS | NETWORK_KEYS},
    )
    return outcome, instruments, report, engine


class TestNeutralityMatrix:
    """Any subset of the instruments == no instruments, bitwise, on pinned
    seeds (the invisibility contract of docs/OBSERVABILITY.md).  The only
    permitted differences are the additive reports: spans, registry
    contents, and ``makespan_ms`` / ``critical_link``."""

    @pytest.mark.parametrize("kind,name,regime,observers", NEUTRALITY_MATRIX)
    def test_instruments_are_invisible(self, kind, name, regime, observers):
        bare, _, bare_report, _ = _observed_run(kind, name, regime, "bare")
        observed, instruments, report, engine = _observed_run(
            kind, name, regime, observers
        )
        assert observed == bare
        assert NETWORK_KEYS.isdisjoint(bare_report)
        if instruments.netmodel is not None:
            assert report["makespan_ms"] > 0
            if kind == "stream":
                assert isinstance(report["critical_link"], str)
        else:
            assert NETWORK_KEYS.isdisjoint(report)
        if instruments.tracer is not NULL_TRACER:
            assert instruments.tracer.spans
        if instruments.metrics is not None:
            registry = instruments.metrics
            batches = len(engine.reports)
            assert registry.counter("stream.batches").value == batches
            assert registry.histograms["stream.repair_ms"].count == batches


class TestTracerNeutrality:
    """Span accounting on real runs: the spans partition the ledger."""

    def test_traced_stage_sums_match_ledger(self):
        graph = GENERATORS["high_degree"](np.random.default_rng(7)).graph
        tracer = Tracer()
        result = color_cluster_graph(
            graph, seed=3, instruments=Instruments(tracer=tracer)
        )
        rows = stage_rows(tracer)
        names = [r["stage"] for r in rows]
        assert names == sorted(set(names), key=names.index)  # top-level only
        assert sum(r["rounds_h"] for r in rows) == result.rounds_h
        assert (
            sum(r["bits"] for r in rows)
            == result.ledger_summary["total_message_bits"]
        )
        # every recorded stage matches its span's rounds
        by_name = {r["stage"]: r for r in rows}
        for stage, rounds in result.stats.stage_rounds.items():
            assert by_name[stage]["rounds_h"] == rounds

    def test_traced_stream_batches_match_ledger(self):
        workload = STREAMS["cluster_churn"](np.random.default_rng(2))
        tracer = Tracer()
        engine, _result, _metrics = run_stream(
            workload, seed=1, instruments=Instruments(tracer=tracer)
        )
        rows = stage_rows(tracer)
        bootstrap = [r for r in rows if r["stage"] == "stream.bootstrap"]
        assert len(bootstrap) == 1
        # bootstrap runs on the runtime's own ledger: wall time only
        assert bootstrap[0]["rounds_h"] == 0 and bootstrap[0]["bits"] == 0
        batch_rows = [r for r in rows if r["stage"].startswith("stream.batch")]
        assert len(batch_rows) == len(engine.reports)
        assert sum(r["rounds_h"] for r in batch_rows) == engine.ledger.rounds_h
        assert (
            sum(r["bits"] for r in batch_rows)
            == engine.ledger.total_message_bits
        )


class TestHetNetNeutrality:
    """Spans attribute a network model's simulated clock."""

    def test_traced_spans_attribute_makespan(self):
        from repro.network import HetNetModel, HetNetSpec
        from repro.observe import aggregate_stage_rows

        graph = GENERATORS["congest"](np.random.default_rng(7)).graph
        model = HetNetModel.sample(
            graph, HetNetSpec(skew=10.0, fill=0.2), np.random.default_rng(5)
        )
        tracer = Tracer()
        result = color_cluster_graph(
            graph, seed=3, instruments=Instruments(tracer=tracer, netmodel=model)
        )
        rows = aggregate_stage_rows(stage_rows(tracer))
        total = sum(r["makespan_ms"] for r in rows)
        assert total == pytest.approx(
            result.ledger_summary["makespan_ms"], rel=1e-6
        )
        # homogeneous spans serialize without the field at all
        plain_tracer = Tracer()
        color_cluster_graph(
            graph, seed=3, instruments=Instruments(tracer=plain_tracer)
        )
        for span in plain_tracer.spans:
            assert "makespan_ms" not in span.to_dict()


def _history_entry(commit, cell_walls, suite="smoke"):
    """Synthetic history entry: {label: wall_s}."""
    return {
        "kind": "history",
        "schema": "repro.observe.history",
        "schema_version": 1,
        "suite": suite,
        "spec_hash": "abc",
        "commit": commit,
        "created_utc": f"2026-01-01T00:00:0{commit[-1]}Z",
        "total_wall_time_s": round(sum(cell_walls.values()), 4),
        "cells": [
            {"key": label, "label": label, "status": "ok", "wall_time_s": wall}
            for label, wall in cell_walls.items()
        ],
    }


class TestHistory:
    def test_detects_injected_slowdown(self):
        entries = [
            _history_entry("c1", {"cell_a": 0.10, "cell_b": 0.50}),
            _history_entry("c2", {"cell_a": 0.11, "cell_b": 1.20}),
        ]
        flags = detect_slowdowns(entries)
        labels = {f.label for f in flags}
        assert "cell_b" in labels  # +140%, over floor
        assert "cell_a" not in labels  # +10%, under threshold and floor
        (flag,) = [f for f in flags if f.label == "cell_b"]
        assert flag.baseline_s == pytest.approx(0.50)
        assert flag.latest_s == pytest.approx(1.20)
        assert flag.relative == pytest.approx(1.4)

    def test_median_baseline_shrugs_off_one_noisy_commit(self):
        entries = [
            _history_entry("c1", {"a": 0.10}),
            _history_entry("c2", {"a": 5.00}),  # one noisy commit
            _history_entry("c3", {"a": 0.10}),
            _history_entry("c4", {"a": 0.11}),
        ]
        assert detect_slowdowns(entries) == []

    def test_absolute_floor_suppresses_tiny_cells(self):
        entries = [
            _history_entry("c1", {"tiny": 0.001}),
            _history_entry("c2", {"tiny": 0.010}),  # 10x but only +9ms
        ]
        assert detect_slowdowns(entries) == []

    def test_single_entry_never_flags(self):
        assert detect_slowdowns([_history_entry("c1", {"a": 1.0})]) == []

    def test_append_load_roundtrip(self, tmp_path):
        e1 = _history_entry("c1", {"a": 0.2})
        e2 = _history_entry("c2", {"a": 0.3})
        append_entry(e1, tmp_path)
        append_entry(e2, tmp_path)
        loaded = load_history("smoke", tmp_path)
        assert loaded == [e1, e2]
        assert load_history("nonexistent", tmp_path) == []

    def test_load_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "smoke.jsonl"
        path.write_text('{"schema": "something.else"}\n')
        with pytest.raises(ValueError):
            load_history("smoke", tmp_path)

    def test_render_report_flags_and_never_raises(self):
        entries = [
            _history_entry("c1", {"slow": 0.10}),
            _history_entry("c2", {"slow": 0.40}),
        ]
        report = render_history(entries)
        assert "SOFT REGRESSION slow" in report
        assert "report-only" in report
        assert render_history([]) == "no history entries"

    def test_entry_from_artifact_includes_stage_breakdown(self):
        from repro.experiments.artifacts import Artifact
        from repro.experiments.runner import run_cell
        from repro.experiments.spec import SUITES

        cell = SUITES["smoke"].cells()[0]
        record = run_cell(cell.to_dict(), 0, trace=True)
        assert record["status"] == "ok"
        artifact = Artifact(
            header={"suite": "smoke", "spec_hash": "x", "git_rev": "deadbee",
                    "created_utc": "2026-01-01T00:00:00Z"},
            records=[record],
        )
        entry = entry_from_artifact(artifact)
        assert entry["commit"] == "deadbee"
        (cell_entry,) = entry["cells"]
        assert cell_entry["wall_time_s"] == record["wall_time_s"]
        stages = cell_entry["stages"]
        assert sum(s["rounds_h"] for s in stages.values()) == (
            record["metrics"]["rounds_h"]
        )
