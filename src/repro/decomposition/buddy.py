"""The distributed buddy predicate (Lemma 5.8).

For each H-edge, the incident machines must decide:

* YES if ``|N(u) ∩ N(v)| >= (1 - xi) Delta``;
* NO  if ``|N(u) ∩ N(v)| <  (1 - 2 xi) Delta``;
* anything in between.

The trick of Lemma 5.8: intersections are not aggregatable, but *unions*
are -- ``Y^{uv} = max(Y^u, Y^v)`` is the fingerprint of ``N(u) ∪ N(v)``
because max tolerates overlap.  Combined with degree estimates,
``|N ∩| = deg(u) + deg(v) - |N ∪|`` separates the two cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.aggregation.runtime import ClusterRuntime
from repro.graphcore import CSRAdjacency, csr_of, neighborhood_max_rows
from repro.sketch.fingerprint import FingerprintTable, fingerprint_message_bits
from repro.sketch.geometric import EMPTY_MAX
from repro.sketch.streaming import UnionPlanes


@dataclass
class BuddyResult:
    """Per-edge YES answers of one buddy pass, plus its degree estimates.

    ``yes_u``/``yes_v`` hold the YES edges as parallel int64 arrays with
    ``u < v`` in lexicographic order -- the form the vectorized ACD steps
    consume.  ``fingerprint_rows`` are the shared per-vertex variables
    ``X_{u,i}`` the pass drew over ``csr``; the predicate itself reads only
    their threshold bit-planes, so the neighborhood fingerprints are
    materialized solely on request (:attr:`neighborhood_rows`).
    """

    yes_u: np.ndarray
    yes_v: np.ndarray
    degree_estimates: np.ndarray
    trials: int
    fingerprint_rows: np.ndarray = field(repr=False)
    csr: CSRAdjacency = field(repr=False)

    @property
    def yes_edges(self) -> set[tuple[int, int]]:
        """The YES edges as a set of ``(u, v)`` pairs."""
        return {(int(u), int(v)) for u, v in zip(self.yes_u, self.yes_v)}

    def yes_edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """YES edges as parallel ``(u, v)`` arrays."""
        return self.yes_u, self.yes_v

    @cached_property
    def neighborhood_rows(self) -> np.ndarray:
        """Neighborhood fingerprints ``max over u in N(v) of X_u`` of every
        vertex (``EMPTY_MAX`` rows where ``N(v)`` is empty)."""
        return neighborhood_max_rows(
            self.csr, self.fingerprint_rows, empty_value=EMPTY_MAX
        )


def buddy_predicate(
    runtime: ClusterRuntime, xi: float, *, op: str = "buddy"
) -> BuddyResult:
    """Solve the ``xi``-buddy predicate on every H-edge (Lemma 5.8).

    Cost: ``O(xi^-2)`` rounds -- one degree-estimation fingerprint pass, one
    neighborhood-fingerprint pass, one link exchange of encoded maxima.
    """
    graph = runtime.graph
    n_v = graph.n_vertices
    delta = graph.max_degree
    trials = runtime.params.fingerprint_trials(runtime.n, max(xi / 2.0, 1e-3))

    table = FingerprintTable(n_v, trials, runtime.rng)
    csr = csr_of(graph)

    # Neighborhood fingerprints as packed threshold bit-planes, AND-reduced
    # over the CSR: one index serves both the degree estimates (per-row
    # (K*, Z)) and the union probes, and no (vertices x trials) maxima
    # matrix is ever built (see docs/ESTIMATORS.md).
    planes = UnionPlanes(table.rows, csr)
    degree_estimates = planes.row_estimates()
    # Charge: fingerprint convergecast + broadcast (pipelined wide messages).
    bits = fingerprint_message_bits(trials)
    runtime.wide_message(op + "_degree", bits)
    runtime.wide_message(op + "_nbhd", bits)
    runtime.wide_message(op + "_exchange", bits, depth=1)

    # Vertices whose estimated degree is clearly below Delta answer NO to all
    # incident edges: they cannot carry friendly edges (Lemma 5.8 first step).
    low_degree = degree_estimates < (1 - 2.0 * xi) * delta

    yes_u = np.empty(0, dtype=np.int64)
    yes_v = np.empty(0, dtype=np.int64)
    edge_u, edge_v = csr.edge_arrays()
    if edge_u.size:
        # |N(u) ∩ N(v)| = deg(u) + deg(v) - |N(u) ∪ N(v)|, every term
        # estimated by a fingerprint; accept when the intersection clears the
        # midpoint between the YES ((1-xi)Delta) and NO ((1-2xi)Delta) cases.
        # The union term runs on the packed bit-plane index: per-edge union
        # order statistics from ANDed plane popcounts, so nothing of size
        # (edges x trials) is ever materialized (see docs/ESTIMATORS.md).
        union_estimates = planes.union_estimates(edge_u, edge_v)
        intersections = (
            degree_estimates[edge_u] + degree_estimates[edge_v] - union_estimates
        )
        accept = intersections >= (1 - 1.5 * xi) * delta
        accept &= ~(low_degree[edge_u] | low_degree[edge_v])
        yes_u, yes_v = edge_u[accept], edge_v[accept]
    return BuddyResult(
        yes_u=yes_u,
        yes_v=yes_v,
        degree_estimates=degree_estimates,
        trials=trials,
        fingerprint_rows=table.rows,
        csr=csr,
    )
