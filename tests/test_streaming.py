"""The fused estimator's contract (docs/ESTIMATORS.md).

Three layers of guarantees, each pinned here:

* **integer layer** -- ``(K*, Z)`` from the fused top-k and the bit-plane
  union probe are *exactly* the integers the naive sort-based definition
  produces, at the exact ``ceil(27t/40)`` threshold rank;
* **estimate layer** -- within one final-math form the fused paths are
  bitwise-identical to the batched estimators (``UnionPlanes`` and
  ``batch_estimate`` for the ``log1p`` form, ``batch_estimate_exact`` ==
  per-row ``estimate_cardinality`` for the exact form);
* **cross-form tolerance** -- the two forms differ by at most the
  documented one-ulp slip, never enough to move a well-separated
  threshold comparison.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphcore import CSRAdjacency, neighborhood_max_rows
from repro.sketch import (
    EMPTY_MAX,
    UnionPlanes,
    batch_estimate,
    batch_estimate_exact,
    estimate_cardinality,
    estimates_from_counts,
    fused_topk_counts,
    threshold_index,
)


def identity_csr(mat: np.ndarray) -> CSRAdjacency:
    """CSR in which every vertex's neighborhood is itself, so the
    neighborhood fingerprints of ``mat`` are ``mat`` row for row."""
    n = mat.shape[0]
    return CSRAdjacency(np.arange(n + 1), np.arange(n))


def reference_topk(maxima: np.ndarray, q: int):
    """(K*, Z) straight from the Lemma 5.2 definition via a full sort."""
    srt = np.sort(maxima, axis=1)
    k_star = srt[:, q - 1].astype(np.int64) + 1
    z = (maxima < k_star[:, None]).sum(axis=1).astype(np.int64)
    return k_star, z


@st.composite
def maxima_matrices(draw):
    """Small fingerprint-like matrices: geometric-flavored values with
    occasional EMPTY_MAX rows and heavy ties."""
    rows = draw(st.integers(1, 12))
    trials = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    mat = (rng.geometric(0.5, size=(rows, trials)) - 1).astype(np.int16)
    for r in range(rows):
        if rng.random() < 0.2:
            mat[r] = EMPTY_MAX
        elif rng.random() < 0.3:
            mat[r, rng.random(trials) < 0.3] = EMPTY_MAX
    return mat


class TestThresholdIndex:
    def test_integer_ceiling(self):
        """q = ceil(27t/40) exactly, with no float rounding at any t."""
        for t in range(1, 100_001):
            assert threshold_index(t) == (27 * t + 39) // 40, t

    def test_rank_at_t_360(self):
        """At t = 360, q = 243: a row with exactly 243 entries below k
        reaches the threshold at k (a float ceiling asks for 244)."""
        t, k = 360, 5
        row = np.full((1, t), k + 3, dtype=np.int16)
        row[0, :243] = k - 1
        k_star, z = fused_topk_counts(row)
        assert (int(k_star[0]), int(z[0])) == (k, 243)
        k_ref, z_ref = reference_topk(row, 243)
        assert (int(k_ref[0]), int(z_ref[0])) == (k, 243)
        expected = math.log(243 / t) / math.log(1.0 - 2.0 ** (-k))
        assert estimate_cardinality(row[0]) == expected
        assert batch_estimate_exact(row)[0] == expected


class TestFusedTopK:
    @given(maxima_matrices())
    @settings(max_examples=150)
    def test_matches_sort_definition(self, mat):
        q = threshold_index(mat.shape[1])
        k_fused, z_fused = fused_topk_counts(mat, q)
        k_ref, z_ref = reference_topk(mat, q)
        assert np.array_equal(k_fused, k_ref)
        assert np.array_equal(z_fused, z_ref)

    @given(maxima_matrices())
    @settings(max_examples=100)
    def test_estimates_bitwise_vs_batched(self, mat):
        """Both final-math forms reproduce their batched counterpart
        bit-for-bit from the fused integers."""
        t = mat.shape[1]
        k, z = fused_topk_counts(mat, threshold_index(t))
        empty = np.all(mat == EMPTY_MAX, axis=1)
        log1p_form = estimates_from_counts(k, z, t, empty_rows=empty)
        exact_form = estimates_from_counts(k, z, t, exact=True, empty_rows=empty)
        assert np.array_equal(log1p_form, batch_estimate(mat))
        assert np.array_equal(exact_form, batch_estimate_exact(mat))
        scalar = np.array([estimate_cardinality(r) for r in mat])
        assert np.array_equal(exact_form, scalar)

    @given(maxima_matrices())
    @settings(max_examples=100)
    def test_cross_form_tolerance_contract(self, mat):
        """The documented divergence between the two forms: at most a few
        ulp of relative slip, nothing more (docs/ESTIMATORS.md)."""
        exact = batch_estimate_exact(mat)
        vectorized = batch_estimate(mat)
        np.testing.assert_allclose(vectorized, exact, rtol=1e-12, atol=0.0)


class TestUnionPlanes:
    @given(maxima_matrices(), st.integers(0, 2**31 - 1))
    @settings(max_examples=150)
    def test_union_estimates_bitwise_vs_materialized(self, mat, seed):
        """Bit-plane union queries == batch_estimate over the materialized
        (pairs, trials) union matrix, to the last bit."""
        rng = np.random.default_rng(seed)
        rows = mat.shape[0]
        m = int(rng.integers(1, 30))
        left = rng.integers(0, rows, m).astype(np.int64)
        right = rng.integers(0, rows, m).astype(np.int64)
        union = np.maximum(mat[left], mat[right])

        planes = UnionPlanes(mat, identity_csr(mat))
        got = planes.union_estimates(left, right)
        assert np.array_equal(got, batch_estimate(union))

    @given(maxima_matrices())
    @settings(max_examples=60)
    def test_row_estimates_bitwise(self, mat):
        planes = UnionPlanes(mat, identity_csr(mat))
        assert np.array_equal(planes.row_estimates(), batch_estimate(mat))

    def test_chunking_invariant(self):
        rng = np.random.default_rng(3)
        mat = (rng.geometric(0.5, size=(40, 64)) - 1).astype(np.int16)
        left = rng.integers(0, 40, 500)
        right = rng.integers(0, 40, 500)
        planes = UnionPlanes(mat, identity_csr(mat))
        whole = planes.union_estimates(left, right)
        tiny = planes.union_estimates(left, right, chunk_rows=7)
        assert np.array_equal(whole, tiny)

    def test_empty_pair_array(self):
        mat = np.full((3, 8), EMPTY_MAX, dtype=np.int16)
        planes = UnionPlanes(mat, identity_csr(mat))
        out = planes.union_estimates(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert out.size == 0

    def test_all_empty_rows_estimate_zero(self):
        mat = np.full((4, 16), EMPTY_MAX, dtype=np.int16)
        planes = UnionPlanes(mat, identity_csr(mat))
        out = planes.union_estimates(np.array([0, 1]), np.array([2, 3]))
        assert np.array_equal(out, np.zeros(2))


@st.composite
def fingerprint_graphs(draw):
    """Random CSR graphs with per-vertex variables: isolated and degree-1
    vertices, an optional star joined to a clique (skewed degrees), and
    occasional EMPTY_MAX rows and entries."""
    n = draw(st.integers(1, 30))
    trials = draw(st.integers(1, 80))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    m = int(rng.integers(0, 2 * n + 1))
    eu = rng.integers(0, n, m)
    ev = rng.integers(0, n, m)
    if n >= 6 and draw(st.booleans()):
        # vertex 0 is a star center, joined to the clique on the last
        # third of the vertices
        clique = np.arange(n - n // 3, n)
        cu, cv = np.triu_indices(clique.size, 1)
        leaves = np.arange(1, n)
        hub = np.zeros(leaves.size, dtype=np.int64)
        eu = np.concatenate([eu, hub, clique[cu]])
        ev = np.concatenate([ev, leaves, clique[cv]])
    keep = eu != ev
    csr = CSRAdjacency.from_edge_arrays(eu[keep], ev[keep], n, dedupe=True)
    rows = (rng.geometric(0.5, size=(n, trials)) - 1).astype(np.int16)
    for r in range(n):
        if rng.random() < 0.15:
            rows[r] = EMPTY_MAX
        elif rng.random() < 0.15:
            rows[r, rng.random(trials) < 0.5] = EMPTY_MAX
    return csr, rows


def _assert_planes_match_materialized(csr, rows, left, right):
    """Row and union (K*, Z) and estimates of ``UnionPlanes(rows, csr)``
    equal the fused top-k and ``batch_estimate`` on the materialized
    neighborhood fingerprints, bit for bit."""
    maxima = neighborhood_max_rows(csr, rows, empty_value=EMPTY_MAX)
    planes = UnionPlanes(rows, csr)
    k_ref, z_ref = fused_topk_counts(maxima, planes.q)
    assert np.array_equal(planes.row_k, k_ref)
    assert np.array_equal(planes.row_z, z_ref)
    assert np.array_equal(planes.row_estimates(), batch_estimate(maxima))
    union = np.maximum(maxima[left], maxima[right]).reshape(-1, rows.shape[1])
    k_union, z_union = planes.union_order_statistics(left, right)
    k_ref, z_ref = fused_topk_counts(union, planes.q)
    assert np.array_equal(k_union, k_ref)
    assert np.array_equal(z_union, z_ref)
    got = planes.union_estimates(left, right)
    assert np.array_equal(got, batch_estimate(union))
    return planes


class TestNeighborhoodPlanes:
    """``UnionPlanes(rows, csr)`` reads the neighborhood fingerprints off
    AND-reduced threshold planes; every output must equal the materialized
    ``neighborhood_max_rows`` path exactly, however the plane window had to
    widen."""

    @given(fingerprint_graphs(), st.integers(0, 2**31 - 1))
    @settings(max_examples=150, deadline=None)
    def test_bitwise_vs_materialized(self, graph, seed):
        csr, rows = graph
        n = rows.shape[0]
        rng = np.random.default_rng(seed)
        eu, ev = csr.edge_arrays()
        extra = int(rng.integers(0, 20))
        left = np.concatenate([eu, rng.integers(0, n, extra)])
        right = np.concatenate([ev, rng.integers(0, n, extra)])
        _assert_planes_match_materialized(csr, rows, left, right)

    def test_widens_below_the_degree_window(self):
        """A 10-clique whose variables are almost all 0: every degree says
        K* ~ 5, but the fingerprints reach the threshold at k = 1."""
        cu, cv = np.triu_indices(10, 1)
        csr = CSRAdjacency.from_edge_arrays(cu, cv, 10)
        rows = np.zeros((10, 40), dtype=np.int16)
        rows[0, 0] = 9
        planes = _assert_planes_match_materialized(csr, rows, cu, cv)
        assert planes._k_lo == 0
        assert set(planes.row_k.tolist()) == {1}

    def test_union_probe_widens_past_the_top(self):
        """Two degree-1 vertices (window k = 1..3) whose rows both reach the
        threshold at k = 3 while their union needs k = 4."""
        t, q = 40, threshold_index(40)
        rows = np.full((2, t), 3, dtype=np.int16)
        rows[0, :q] = 2
        rows[1, t - q :] = 2
        csr = CSRAdjacency.from_edge_arrays(np.array([0]), np.array([1]), 2)
        planes = UnionPlanes(rows, csr)
        assert planes._k_hi == 3
        _assert_planes_match_materialized(
            csr, rows, np.array([0, 1, 0]), np.array([1, 0, 0])
        )
        assert planes.union_order_statistics(np.array([0]), np.array([1]))[
            0
        ].tolist() == [4]
        assert planes._k_hi == 4

    def test_isolated_and_all_empty_vertices(self):
        """Isolated vertices and neighborhoods of all-EMPTY_MAX rows are
        empty fingerprints: K* = 0, Z = t, estimate 0.0, also in unions."""
        rows = np.full((4, 16), EMPTY_MAX, dtype=np.int16)
        rows[3] = 5
        csr = CSRAdjacency.from_edge_arrays(
            np.array([1, 2]), np.array([2, 3]), 4
        )
        planes = _assert_planes_match_materialized(
            csr, rows, np.array([0, 0, 1, 2]), np.array([0, 1, 2, 3])
        )
        assert planes.empty_rows.tolist() == [True, True, False, True]

    def test_rejects_values_below_empty_max(self):
        rows = np.full((2, 8), EMPTY_MAX - 1, dtype=np.int16)
        with pytest.raises(ValueError, match="EMPTY_MAX"):
            UnionPlanes(rows, identity_csr(rows))


class TestPinnedBuddyDigest:
    """The buddy predicate on a dense cell, pinned bit-for-bit.

    The digest was captured from the pre-fusion implementation (per-chunk
    ``np.maximum`` union matrices + ``batch_estimate``); the bit-plane
    rewire must reproduce the YES edges, the degree estimates, the shared
    fingerprint rows, and the post-call RNG position exactly.
    """

    PINNED = "186268d810ecc765dc7f92e7d39be81b"

    def test_dense_cell_digest(self):
        from repro.decomposition import buddy_predicate
        from repro.workloads import high_degree_instance
        from tests.conftest import make_runtime

        w = high_degree_instance(
            np.random.default_rng(42),
            n_vertices=500,
            degree_fraction=0.85,
            cluster_size=1,
        )
        runtime = make_runtime(w.graph, seed=7)
        result = buddy_predicate(runtime, xi=0.25)
        yes_u, yes_v = result.yes_edge_arrays()
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(yes_u).tobytes())
        digest.update(np.ascontiguousarray(yes_v).tobytes())
        digest.update(np.ascontiguousarray(result.degree_estimates).tobytes())
        digest.update(
            np.ascontiguousarray(result.neighborhood_rows, dtype=np.int64).tobytes()
        )
        digest.update(np.int64(result.trials).tobytes())
        digest.update(np.float64(runtime.rng.random()).tobytes())
        assert digest.hexdigest()[:32] == self.PINNED
        assert len(result.yes_edges) > 0  # the pin covers a non-trivial cell
