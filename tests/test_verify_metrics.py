"""The verification layer must actually catch defects; metrics formatting."""

import numpy as np
import pytest

from repro.coloring.types import PartialColoring
from repro.observe import ExperimentRecord, format_table
from repro.verify import (
    check_acd,
    check_colorful_matching,
    check_delta_plus_one,
    check_put_aside,
    is_proper,
    violations,
)
from repro.workloads import figure1_example, planted_acd_instance


class TestProperChecker:
    def test_detects_monochromatic_edge(self, figure1_workload):
        g = figure1_workload.graph
        colors = np.array([0, 0, 1, 2])  # vertices 0,1 adjacent, same color
        assert not is_proper(g, colors)
        assert (0, 1) in violations(g, colors)

    def test_partial_colorings(self, figure1_workload):
        g = figure1_workload.graph
        colors = np.array([0, -1, 1, -1])
        assert is_proper(g, colors, allow_partial=True)
        assert not is_proper(g, colors)  # total required by default

    def test_check_delta_plus_one_catches_uncolored(self, figure1_workload):
        g = figure1_workload.graph
        c = PartialColoring.empty(g.n_vertices, g.max_degree + 1)
        with pytest.raises(AssertionError, match="uncolored"):
            check_delta_plus_one(g, c)

    def test_check_delta_plus_one_catches_wrong_palette(self, figure1_workload):
        g = figure1_workload.graph
        c = PartialColoring.empty(g.n_vertices, g.max_degree + 5)
        with pytest.raises(AssertionError, match="palette"):
            check_delta_plus_one(g, c)


class TestAcdChecker:
    def test_flags_oversized_clique(self, planted_workload):
        from repro.decomposition.acd import AlmostCliqueDecomposition

        g = planted_workload.graph
        too_big = list(range(int(1.2 * g.max_degree) + 2))
        acd = AlmostCliqueDecomposition(
            sparse=[v for v in range(g.n_vertices) if v not in set(too_big)],
            cliques=[too_big],
            clique_of=np.array(
                [0 if v in set(too_big) else -1 for v in range(g.n_vertices)]
            ),
        )
        problems = check_acd(g, acd, eps=0.1)
        assert any("members" in p or "internal" in p for p in problems)

    def test_flags_overlap(self, planted_workload):
        from repro.decomposition.acd import AlmostCliqueDecomposition

        g = planted_workload.graph
        k = planted_workload.planted_cliques[0]
        acd = AlmostCliqueDecomposition(
            sparse=[v for v in range(g.n_vertices) if v not in set(k)],
            cliques=[k, k],
            clique_of=np.zeros(g.n_vertices, dtype=np.int64),
        )
        assert any("overlap" in p for p in check_acd(g, acd, eps=0.1))


class TestMatchingChecker:
    def test_counts_reuse(self, figure1_workload):
        g = figure1_workload.graph
        c = PartialColoring.empty(g.n_vertices, g.max_degree + 1)
        # vertices 0 and 2 are non-adjacent in figure1's H
        assert not g.are_adjacent(0, 2)
        c.assign(0, 1)
        c.assign(2, 1)
        assert check_colorful_matching(g, c, [0, 1, 2, 3]) == 1

    def test_rejects_adjacent_same_color(self, figure1_workload):
        g = figure1_workload.graph
        c = PartialColoring.empty(g.n_vertices, g.max_degree + 1)
        c.assign(0, 1)
        c.assign(1, 1)  # adjacent!
        with pytest.raises(AssertionError):
            check_colorful_matching(g, c, [0, 1])


class TestPutAsideChecker:
    def test_flags_wrong_size_and_cross_edges(self, figure1_workload):
        g = figure1_workload.graph
        problems = check_put_aside(g, {0: [0], 1: [1]}, r=2)
        assert any("!= r" in p for p in problems)
        assert any("edge between" in p for p in problems)

    def test_accepts_valid(self, figure1_workload):
        g = figure1_workload.graph
        # vertices 0 and 2 are non-adjacent
        assert check_put_aside(g, {0: [0], 1: [2]}, r=1) == []


class TestMetrics:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "bb": "xy"}, {"a": 222, "bb": "z"}]
        text = format_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4
        assert all(len(l) == len(lines[0]) for l in lines[1:])

    def test_empty_table(self):
        assert format_table([]) == "(no rows)"

    def test_record_to_text(self):
        rec = ExperimentRecord(
            experiment="X", claim="Y", params_preset="scaled"
        )
        rec.add_row(k=1.23456)
        rec.notes.append("hello")
        text = rec.to_text()
        assert "== X ==" in text
        assert "claim: Y" in text
        assert "1.23" in text
        assert "note: hello" in text
