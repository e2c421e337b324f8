"""Delta-buffered CSR adjacency: the storage layer of the streaming engine.

A :class:`DeltaCSR` holds an immutable :class:`~repro.graphcore.csr.CSRAdjacency`
*base* plus an array overlay of edits:

* a live-mask over the base's undirected edges, addressed through their
  sorted pair codes -- deleting or resurrecting a base edge flips one bit
  found by ``searchsorted``;
* an append-only insert log of non-base edges ``(u, v, live)``, where a
  deletion leaves a tombstone, plus a pair-key -> slot map for point
  lookups.  A neighbor read scans the log only for a vertex whose degree
  exceeds its live base row.

Queries merge base and overlay on the fly, and the live edge list is one
masked concatenation, so the per-batch properness check never walks Python
containers.  When the overlay outgrows ``rebuild_fraction`` of the current
edge count, :meth:`compact` folds everything into a fresh base via
:meth:`CSRAdjacency.from_edge_arrays` -- the classic periodic-rebuild
scheme, so a long stream of small batches never degrades query cost.

Vertex ids are stable across the lifetime of the structure: removing a vertex
leaves a dead (edge-free) id behind rather than renumbering, so stream events
can keep referring to the ids they were generated against.
"""

from __future__ import annotations

import numpy as np

from repro.graphcore.csr import CSRAdjacency

_EMPTY = np.empty(0, dtype=np.int64)

#: Pair-key stride of the insert log's slot map (ids stay below 2**32).
_KEY = 1 << 32


class DeltaCSR:
    """A mutable undirected adjacency: CSR base + array edit overlay.

    The base index (sorted pair codes and their live-mask) is built on the
    first point lookup or write, so construction stays O(1) beyond the
    degree copy.  :meth:`edge_arrays` lists the live base edges first,
    in base CSR order, then the live inserted edges in insertion order.

    Parameters
    ----------
    base:
        The starting adjacency (vertices ``0..base.n_vertices-1`` alive).
    rebuild_fraction:
        Compact when overlay edits exceed this fraction of the *current*
        directed-edge count (plus a small absolute floor, so tiny graphs
        do not rebuild on every edit).
    """

    def __init__(self, base: CSRAdjacency, *, rebuild_fraction: float = 0.25):
        if rebuild_fraction <= 0:
            raise ValueError("rebuild_fraction must be positive")
        self._rebuild_fraction = rebuild_fraction
        self._n = base.n_vertices
        self._alive = np.ones(self._n, dtype=bool)
        self._delta_ops = 0
        self._rebuilds = 0
        self._degrees = base.degrees.astype(np.int64)
        self._n_edges = base.n_directed_edges // 2
        self._reset(base)

    def _reset(self, base: CSRAdjacency) -> None:
        """Install ``base`` with an empty overlay and no index yet."""
        self._base = base
        self._nb = base.n_vertices
        # base index, built by _index() on the first lookup
        self._codes: np.ndarray | None = None  # sorted lo * nb + hi
        self._live: np.ndarray | None = None  # per base edge
        self._base_dead = 0
        # insert log (non-base edges, lo < hi) with tombstones
        self._log_u = _EMPTY
        self._log_v = _EMPTY
        self._log_live = np.empty(0, dtype=bool)
        self._log_len = 0
        self._slots: dict[int, int] = {}  # pair key -> live log slot

    def _index(self) -> np.ndarray:
        """The base's sorted pair codes, building the index on first use."""
        if self._codes is None:
            base_u, base_v = self._base.edge_arrays()
            self._codes = base_u * self._nb + base_v  # CSR order is code order
            self._live = np.ones(self._codes.size, dtype=bool)
        return self._codes

    # ---- size and liveness ---------------------------------------------------

    @property
    def n_vertices(self) -> int:
        """Total ids ever allocated (alive + dead)."""
        return self._n

    @property
    def n_edges(self) -> int:
        """Current undirected edge count."""
        return self._n_edges

    @property
    def n_alive(self) -> int:
        """Number of live vertices."""
        return int(self._alive.sum())

    @property
    def alive_mask(self) -> np.ndarray:
        """Boolean liveness mask over all ids (read-only view)."""
        return self._alive

    def is_alive(self, v: int) -> bool:
        """Whether id ``v`` is currently a live vertex."""
        return bool(self._alive[v])

    @property
    def degrees(self) -> np.ndarray:
        """Current per-vertex degrees (dead vertices have 0)."""
        return self._degrees

    @property
    def max_degree(self) -> int:
        """Current ``Delta`` over live vertices (0 for an empty graph)."""
        return int(self._degrees.max()) if self._n else 0

    @property
    def pending_delta_ops(self) -> int:
        """Overlay edits accumulated since the last compaction."""
        return self._delta_ops

    @property
    def rebuilds(self) -> int:
        """Number of compactions performed so far."""
        return self._rebuilds

    # ---- mutation ------------------------------------------------------------

    def _check_alive(self, v: int) -> None:
        if not (0 <= v < self._n) or not self._alive[v]:
            raise ValueError(f"vertex {v} is not alive")

    def _base_edge(self, lo: int, hi: int) -> int:
        """Index of base edge ``{lo, hi}`` (``lo < hi``), or -1."""
        nb = self._nb
        if lo < 0 or hi >= nb:
            return -1
        codes = self._index()
        code = lo * nb + hi
        i = int(codes.searchsorted(code))
        return i if i < codes.size and codes[i] == code else -1

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is a current edge (base + overlay)."""
        lo, hi = (u, v) if u < v else (v, u)
        if lo * _KEY + hi in self._slots:
            return True
        i = self._base_edge(lo, hi)
        return i >= 0 and bool(self._live[i])

    def insert_edge(self, u: int, v: int) -> None:
        """Add undirected edge ``{u, v}``; raises if present or degenerate."""
        self._check_alive(u)
        self._check_alive(v)
        if u == v:
            raise ValueError(f"self-loop on vertex {u}")
        lo, hi = (u, v) if u < v else (v, u)
        key = lo * _KEY + hi
        i = self._base_edge(lo, hi)
        if key in self._slots or (i >= 0 and self._live[i]):
            raise ValueError(f"edge ({u},{v}) already present")
        if i >= 0:  # resurrect a base edge: undo its deletion
            self._live[i] = True
            self._base_dead -= 1
        else:
            self._log_append(lo, hi, key)
        self._degrees[u] += 1
        self._degrees[v] += 1
        self._n_edges += 1
        self._delta_ops += 1

    def _log_append(self, lo: int, hi: int, key: int) -> None:
        k = self._log_len
        if k == self._log_u.size:  # grow by doubling
            cap = max(64, 2 * k)
            self._log_u = np.resize(self._log_u, cap)
            self._log_v = np.resize(self._log_v, cap)
            self._log_live = np.resize(self._log_live, cap)
        self._log_u[k] = lo
        self._log_v[k] = hi
        self._log_live[k] = True
        self._log_len = k + 1
        self._slots[key] = k

    def delete_edge(self, u: int, v: int) -> None:
        """Remove undirected edge ``{u, v}``; raises if absent."""
        lo, hi = (u, v) if u < v else (v, u)
        slot = self._slots.pop(lo * _KEY + hi, None)
        if slot is not None:  # overlay-only edge: tombstone it
            self._log_live[slot] = False
        else:
            i = self._base_edge(lo, hi)
            if i < 0 or not self._live[i]:
                raise ValueError(f"edge ({u},{v}) not present")
            self._live[i] = False
            self._base_dead += 1
        self._degrees[u] -= 1
        self._degrees[v] -= 1
        self._n_edges -= 1
        self._delta_ops += 1

    def add_vertex(self) -> int:
        """Allocate a fresh isolated vertex; returns its id."""
        v = self._n
        self._n += 1
        self._alive = np.append(self._alive, True)
        self._degrees = np.append(self._degrees, 0)
        self._delta_ops += 1
        return v

    def remove_vertex(self, v: int) -> list[int]:
        """Delete all of ``v``'s edges and mark it dead; returns the
        neighbors it was detached from (the repair frontier)."""
        self._check_alive(v)
        detached = [int(u) for u in self.neighbors(v)]
        for u in detached:
            self.delete_edge(v, u)
        self._alive[v] = False
        self._delta_ops += 1
        return detached

    # ---- queries -------------------------------------------------------------

    def neighbors(self, v: int) -> np.ndarray:
        """Current sorted neighbor array of ``v`` (dead vertices: empty)."""
        if v >= self._n or not self._alive[v]:
            return _EMPTY
        if v < self._nb:
            row = self._base.neighbors(v)
            if self._base_dead:
                codes = np.minimum(row, v) * self._nb + np.maximum(row, v)
                row = row[self._live[self._codes.searchsorted(codes)]]
        else:
            row = _EMPTY
        if row.size == self._degrees[v]:  # no live inserted neighbors
            return row
        k = self._log_len
        log_u, log_v = self._log_u[:k], self._log_v[:k]
        hit = (log_u == v) | (log_v == v)
        hit &= self._log_live[:k]
        # the other endpoint of each live inserted edge
        extra = log_u[hit] + log_v[hit] - v
        return np.sort(np.concatenate([row, extra]))

    def gather(self, vertices) -> tuple[np.ndarray, np.ndarray]:
        """Flattened neighborhoods of ``vertices`` -- the delta-aware
        counterpart of :func:`repro.graphcore.gather_neighborhoods`, aligned
        the same way so the flat kernels consume either."""
        verts = np.asarray(vertices, dtype=np.int64).reshape(-1)
        segments = [self.neighbors(int(v)) for v in verts]
        counts = np.fromiter(
            (s.size for s in segments), dtype=np.int64, count=len(segments)
        )
        seg_ids = np.repeat(np.arange(verts.size, dtype=np.int64), counts)
        flat = (
            np.concatenate(segments) if segments else _EMPTY
        )
        return seg_ids, flat if flat.size else _EMPTY

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Current undirected edge list as ``(u, v)`` arrays with ``u < v``
        (the properness checker's input).

        Order contract: the live base edges first, in base CSR order (the
        order of ``base.edge_arrays()``), then the live inserted edges in
        insertion order.  One masked concatenation, O(m) in numpy.
        """
        base_u, base_v = self._base.edge_arrays()
        if self._base_dead:
            base_u, base_v = base_u[self._live], base_v[self._live]
        if not self._slots:  # no live inserted edge
            return base_u, base_v
        k = self._log_len
        keep = self._log_live[:k]
        return (
            np.concatenate([base_u, self._log_u[:k][keep]]),
            np.concatenate([base_v, self._log_v[:k][keep]]),
        )

    # ---- compaction ----------------------------------------------------------

    def should_compact(self) -> bool:
        """Whether the overlay has outgrown the rebuild budget."""
        budget = max(64, int(self._rebuild_fraction * max(1, 2 * self._n_edges)))
        return self._delta_ops > budget

    def compact(self) -> CSRAdjacency:
        """Fold the live-mask and insert log into a fresh base CSR and
        return it."""
        edge_u, edge_v = self.edge_arrays()
        self._reset(CSRAdjacency.from_edge_arrays(edge_u, edge_v, self._n))
        self._delta_ops = 0
        self._rebuilds += 1
        return self._base

    def maybe_compact(self) -> bool:
        """Compact if past the rebuild budget; returns whether it happened."""
        if self.should_compact():
            self.compact()
            return True
        return False

    def as_csr(self) -> CSRAdjacency:
        """A CSR equal to the *current* adjacency.

        Returns the base directly when the overlay is clean; otherwise
        builds a throwaway CSR without clearing the overlay (rebuild policy
        stays with :meth:`maybe_compact`).
        """
        if self._delta_ops == 0 and self._n == self._base.n_vertices:
            return self._base
        edge_u, edge_v = self.edge_arrays()
        return CSRAdjacency.from_edge_arrays(edge_u, edge_v, self._n)
