"""The benchmark's own checks: its timing wrappers change no value, and its
correctness gate catches a bad coloring.

Runs miniatures of the three workloads in-process (about a second in all)::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import worker  # noqa: E402
from probe import Probe  # noqa: E402


@pytest.mark.parametrize("name", sorted(worker.WORKLOADS))
def test_traced_run_is_value_identical(name):
    bare = worker.run_passes(name, 3, 0, min_passes=1, mini=True)
    probe = Probe()
    with probe.installed():
        traced = worker.run_passes(name, 3, 0, min_passes=1, mini=True, probe=probe)

    assert worker.gate_failures(bare) == []
    assert worker.gate_failures(traced) == []
    assert traced[0].digest == bare[0].digest
    assert traced[0].exact["rounds_h"] == bare[0].exact["rounds_h"]
    assert traced[0].exact["message_bits"] == bare[0].exact["message_bits"]
    for phase, wall in probe.phase_wall.items():
        assert 0 < probe.spans_self_s(phase) <= wall


def test_spans_reach_the_layers_each_workload_stresses():
    probe = Probe()
    with probe.installed():
        worker.run_passes("cabals", 0, 0, min_passes=1, mini=True, probe=probe)
        churn = worker.run_passes("churn", 0, 0, min_passes=1, mini=True, probe=probe)
    assert probe.layer_totals("setup", "cluster.build_forest")[0] == 2
    assert probe.layer_totals("color", "decomposition.buddy_predicate")[0] >= 1
    assert probe.layer_totals("color", "coloring.color_cabals")[0] == 1
    batches = churn[0].attempted
    assert probe.layer_totals("stream", "dynamic.DeltaCSR.edge_arrays")[0] == batches


def test_probe_restores_every_original():
    import repro
    import repro.coloring.pipeline as pipeline
    from repro.dynamic.delta import DeltaCSR

    before = (pipeline.compute_acd, DeltaCSR.__dict__["gather"], repro.graphcore.is_proper_edges)
    with Probe().installed():
        assert pipeline.compute_acd is not before[0]
        assert DeltaCSR.__dict__["gather"] is not before[1]
    after = (pipeline.compute_acd, DeltaCSR.__dict__["gather"], repro.graphcore.is_proper_edges)
    assert after == before


def test_gate_rejects_a_monochromatic_coloring():
    from repro.workloads import GENERATORS

    graph = GENERATORS["high_degree"](
        np.random.default_rng(0), **worker.WORKLOADS["dense"].mini
    ).graph
    flat = np.zeros(graph.n_vertices, dtype=np.int64)
    assert worker._gate_colors(graph, flat, slice(None), graph.max_degree)
    spread = np.arange(graph.n_vertices, dtype=np.int64)
    problems = worker._gate_colors(graph, spread, slice(None), graph.max_degree)
    assert problems == [
        f"a color lies outside [0, Delta={graph.max_degree}]",
        f"more than Delta+1={graph.max_degree + 1} colors used",
    ]
