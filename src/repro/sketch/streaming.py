"""Fused union-cardinality estimation (Lemma 5.2 at scale).

The Lemma 5.2 estimator needs only two *integer* statistics of a
fingerprint ``(Y_1, ..., Y_t)``:

    K* = min{k : Z_k >= q}      with  Z_k = |{i : Y_i < k}|,  q = ceil((27/40) t)
    Z  = Z_{K*}

``K*`` equals the ``q``-th order statistic plus one, and both quantities are
exact counts -- they do not depend on the order in which maxima were
accumulated.  Everything in this module exploits that invariance:

* :func:`fused_topk_counts` reads ``(K*, Z)`` off one ``np.partition`` pass,
  counting only the unpartitioned upper tail instead of re-scanning the full
  ``(rows, trials)`` matrix.
* :func:`estimates_from_counts` turns ``(K*, Z)`` into ``d_hat`` in either
  the vectorized ``log1p`` form (bitwise-identical to
  :func:`~repro.sketch.fingerprint.batch_estimate`) or the ``math.log``
  scalar form (bitwise-identical to
  :func:`~repro.sketch.fingerprint.estimate_cardinality`), evaluating the
  scalar form once per *distinct* ``(K*, Z)`` pair instead of once per row.
* :class:`UnionPlanes` answers Lemma 5.8's queries ``d_hat(N(v))`` and
  ``d_hat(N(u) ∪ N(v))`` for whole vertex and edge arrays without ever
  materializing a fingerprint: a maximum is below ``k`` iff every term is,
  so ``Z_k`` of a neighborhood or a union is a popcount of ANDed
  per-vertex threshold bitmasks.  An escalating probe starts each edge at
  its provable lower bound ``K* >= max(K*_u, K*_v)`` and almost always
  terminates in one round.  Its estimates use the ``log1p`` form.

The estimator contract -- which variants agree bit-for-bit, and where the
sanctioned one-ulp divergence lives -- is documented in
``docs/ESTIMATORS.md`` and enforced by ``tests/test_streaming.py``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.graphcore import CSRAdjacency, neighborhood_and_rows
from repro.sketch.geometric import EMPTY_MAX

_THRESHOLD_NUM = 27
_THRESHOLD_DEN = 40
#: ``ln(40/27)``: a ``d``-element maximum has ``Z_k / t ~ exp(-d 2^-k)``,
#: which reaches ``27/40`` at ``2^k = d / ln(40/27)`` (Claim 5.1).
_THRESHOLD_LOG = math.log(_THRESHOLD_DEN / _THRESHOLD_NUM)


def threshold_index(trials: int) -> int:
    """Lemma 5.2's threshold rank ``q = ceil((27/40) t)``, clamped to
    ``[1, t]`` exactly as the batched estimators clamp it.

    Integer ceiling division: the float product ``(27/40) * t`` rounds up
    past an exact integer for some ``t`` (the smallest is ``t = 360``).
    """
    q = -(-_THRESHOLD_NUM * trials // _THRESHOLD_DEN)
    return min(max(q, 1), trials)


def fused_topk_counts(
    maxima: np.ndarray, q: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Raw order statistics ``(K*, Z)`` of every row in one fused pass.

    ``K*`` is the ``q``-th smallest value plus one (the smallest ``k`` with
    ``Z_k >= q``); ``Z`` is the exact count of entries strictly below
    ``K*``.  One ``np.partition`` yields the pivot, and ``Z`` is recovered
    by counting pivot-exceeding entries in the *upper tail only* (positions
    ``>= q - 1``; the lower partition is ``<= pivot`` by construction), so
    the full-matrix ``maxima < K*`` comparison of the unfused path -- and
    its ``(rows, trials)`` boolean temporary -- disappear.

    Returns int64 arrays, unclamped: callers apply the ``K* >= 1`` /
    ``Z in [0.5, t - 0.5]`` clamps of the Lemma 5.2 boundary handling.
    Rows that are entirely ``EMPTY_MAX`` come out as ``K* = 0, Z = t``.
    """
    if maxima.ndim != 2:
        raise ValueError("expected a (rows, trials) matrix")
    rows, t = maxima.shape
    if t == 0:
        raise ValueError("empty fingerprints have no estimate")
    if q is None:
        q = threshold_index(t)
    part = np.partition(maxima, q - 1, axis=1)
    pivot = part[:, q - 1]
    k_star = pivot.astype(np.int64) + 1
    above = (part[:, q - 1 :] > pivot[:, None]).sum(axis=1)
    z = t - above.astype(np.int64)
    return k_star, z


def estimates_from_counts(
    k_star: np.ndarray,
    z: np.ndarray,
    trials: int,
    *,
    exact: bool = False,
    empty_rows: np.ndarray | None = None,
) -> np.ndarray:
    """Lemma 5.2 estimates ``d_hat = ln(Z/t) / ln(1 - 2^-K*)`` from raw
    integer order statistics.

    The boundary clamps (``K* >= 1``, ``Z`` clipped to ``[0.5, t - 0.5]``)
    are applied here, matching :func:`~repro.sketch.fingerprint\
.estimate_cardinality` exactly.  Two final-math forms:

    * ``exact=False`` -- the vectorized ``log1p``/``exp2`` expression,
      bitwise-identical to :func:`~repro.sketch.fingerprint.batch_estimate`
      (and within one ulp of the scalar estimator);
    * ``exact=True`` -- the scalar ``math.log`` expression of the per-vertex
      estimator, evaluated once per *distinct* ``(K*, Z)`` pair (both are
      small integers, so whole edge arrays share a handful of pairs) and
      scattered back -- bitwise-identical to per-row
      :func:`~repro.sketch.fingerprint.estimate_cardinality` at a fraction
      of the scalar-loop cost.

    ``empty_rows`` marks rows whose underlying set was empty; their
    estimate is forced to exactly ``0.0``.
    """
    t = int(trials)
    if t <= 0:
        raise ValueError("trials must be positive")
    k_eff = np.maximum(k_star.astype(np.int64), 1)
    z_eff = np.clip(z.astype(np.float64), 0.5, t - 0.5)
    if exact:
        pair = k_eff * (t + 1) + np.clip(z.astype(np.int64), 0, t)
        uniq, inverse = np.unique(pair, return_inverse=True)
        uk = uniq // (t + 1)
        uz = np.clip((uniq % (t + 1)).astype(np.float64), 0.5, t - 0.5)
        table = np.fromiter(
            (
                math.log(zi / t) / math.log(1.0 - 2.0 ** (-int(ki)))
                for zi, ki in zip(uz, uk)
            ),
            dtype=np.float64,
            count=uniq.size,
        )
        estimates = table[inverse].reshape(k_eff.shape)
    else:
        estimates = np.log(z_eff / t) / np.log1p(
            -np.exp2(-k_eff.astype(np.float64))
        )
    if empty_rows is not None:
        estimates[empty_rows] = 0.0
    return estimates


def _popcount_rows(words: np.ndarray) -> np.ndarray:
    """Per-row popcount of a ``(rows, words)`` uint64 matrix."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(words).sum(axis=1, dtype=np.int64)
    # numpy < 2.0 fallback: 256-entry lookup over the byte view
    lut = _popcount_rows._lut
    if lut is None:
        lut = np.array(
            [bin(i).count("1") for i in range(256)], dtype=np.uint8
        )
        _popcount_rows._lut = lut
    as_bytes = words.view(np.uint8).reshape(words.shape[0], -1)
    return lut[as_bytes].sum(axis=1, dtype=np.int64)


_popcount_rows._lut = None


class UnionPlanes:
    """Packed threshold bit-planes of every neighborhood fingerprint,
    answering row and pairwise union-cardinality queries without
    materializing any fingerprint (Lemma 5.8 fused).

    Built from the shared per-vertex variables ``X_{u,i}`` (a
    ``(rows, trials)`` matrix with values ``>= EMPTY_MAX``) and the CSR
    adjacency whose neighborhoods they are maxed over.  Plane ``k`` of
    vertex ``v`` stores, packed 64 trials per word, the bits
    ``Y^v_i < k`` of the neighborhood maximum ``Y^v``; since a maximum is
    below ``k`` iff every term is, the plane is the AND over ``u in N(v)``
    of the packed ``[X_{u,i} < k]`` (all-ones for an empty neighborhood),
    and ``Z_k`` is its popcount.  The same identity answers unions: the
    union's ``Z_k`` is the popcount of two ANDed plane rows.  ``K*`` of the
    union is found by an escalating probe from the per-edge lower bound
    ``max(K*_left, K*_right)`` (unions only shrink ``Z_k``, so ``K*`` never
    decreases under merging) -- one popcount round for almost every edge.

    Only a small window of thresholds is built: it starts from the true
    degrees (``Z_k / t`` of a ``d``-element maximum is about
    ``exp(-d 2^-k)`` by Claim 5.1, so ``K* ~ log2(d / 0.393)``) with one
    plane of margin on each side, and widens -- adding only the missing
    planes -- whenever a row's ``K*`` falls outside it or a union probe
    runs past its top.  The window is an execution choice: every output is
    the exact integer the materialized fingerprints give, bitwise-identical
    to :func:`~repro.sketch.fingerprint.batch_estimate` on
    ``neighborhood_max_rows(csr, rows)`` and its pairwise maxima.

    Memory: ``O(rows * planes * trials / 64)`` words for the planes plus
    ``O(chunk)`` gather and probe temporaries -- nothing scales with the
    number of edges or queried pairs.
    """

    def __init__(self, rows: np.ndarray, csr: CSRAdjacency):
        if rows.ndim != 2:
            raise ValueError("expected a (rows, trials) matrix")
        n, t = rows.shape
        if t == 0:
            raise ValueError("empty fingerprints have no estimate")
        if csr.n_vertices != n:
            raise ValueError("the CSR must have one vertex per row")
        if int(rows.min(initial=EMPTY_MAX)) < EMPTY_MAX:
            raise ValueError("fingerprint values must be >= EMPTY_MAX")
        self.trials = int(t)
        self.q = threshold_index(t)
        self._rows = rows
        self._csr = csr
        self._words = (t + 63) // 64
        full = np.zeros(self._words * 8, dtype=np.uint8)
        full[: (t + 7) // 8] = np.packbits(np.ones(t, dtype=bool))
        self._all_ones = full.view(np.uint64)
        # Y^v is all EMPTY_MAX (Z_0 == t) iff no neighbor holds an entry
        # above EMPTY_MAX; count such neighbors per CSR segment
        row_max = rows.max(axis=1, initial=EMPTY_MAX)
        hits = np.concatenate(
            ([0], np.cumsum(row_max[csr.indices] > EMPTY_MAX))
        )
        self.empty_rows = hits[csr.indptr[1:]] == hits[csr.indptr[:-1]]
        # every Y^v entry is below cap, so Z_cap == t: no K* exceeds it
        self._cap = int(row_max.max(initial=EMPTY_MAX)) + 1
        degrees = csr.degrees[~self.empty_rows]
        lo = hi = 0
        if degrees.size:
            guess = np.ceil(np.log2(degrees / _THRESHOLD_LOG))
            lo, hi = int(guess.min()) - 1, int(guess.max()) + 1
        lo = min(max(lo, 0), self._cap)
        hi = min(max(hi, lo), self._cap)
        self._k_lo = lo
        self._planes = self._neighborhood_planes(lo, hi)
        self.row_k, self.row_z = self._row_order_statistics()

    @property
    def _k_hi(self) -> int:
        return self._k_lo + self._planes.shape[1] - 1

    def _neighborhood_planes(self, k_first: int, k_last: int) -> np.ndarray:
        """Planes ``k_first..k_last`` of every neighborhood, as an
        ``(rows, planes, words)`` uint64 array: each vertex's
        ``[X_{u,i} < k]`` packed, then AND-reduced over the CSR."""
        n = self._rows.shape[0]
        n_planes = k_last - k_first + 1
        packed_width = (self.trials + 7) // 8
        base = np.zeros((n, n_planes, self._words * 8), dtype=np.uint8)
        for j in range(n_planes):
            base[:, j, :packed_width] = np.packbits(
                self._rows < (k_first + j), axis=1
            )
        words = base.view(np.uint64).reshape(n, n_planes * self._words)
        anded = neighborhood_and_rows(
            self._csr, words, identity=np.tile(self._all_ones, n_planes)
        )
        return anded.reshape(n, n_planes, self._words)

    def _widen(self, k_lo: int, k_hi: int) -> None:
        """Extend the plane window to cover ``k_lo..min(k_hi, cap)``,
        building only the planes it lacks."""
        k_hi = min(k_hi, self._cap)
        if k_lo >= self._k_lo and k_hi <= self._k_hi:
            raise AssertionError(
                "plane window cannot widen past the value range"
            )  # unreachable: Z_cap == t reaches every threshold
        parts = [self._planes]
        if k_lo < self._k_lo:
            parts.insert(0, self._neighborhood_planes(k_lo, self._k_lo - 1))
        if k_hi > self._k_hi:
            parts.append(self._neighborhood_planes(self._k_hi + 1, k_hi))
        self._planes = np.concatenate(parts, axis=1)
        self._k_lo = min(k_lo, self._k_lo)

    def _row_order_statistics(self) -> tuple[np.ndarray, np.ndarray]:
        """``(K*, Z)`` of every neighborhood from plane popcounts, widening
        the window until it brackets every non-empty row's ``K*``.  Empty
        rows get ``K* = 0, Z = t``, as :func:`fused_topk_counts` gives."""
        n = self._rows.shape[0]
        live = ~self.empty_rows
        while True:
            n_planes = self._planes.shape[1]
            counts = _popcount_rows(
                self._planes.reshape(n * n_planes, self._words)
            ).reshape(n, n_planes)
            reached = counts >= self.q
            if self._k_lo > 0 and bool((reached[:, 0] & live).any()):
                # K* may lie below the window: double it downwards
                self._widen(max(0, self._k_lo - n_planes), self._k_hi)
            elif bool((~reached[:, -1] & live).any()):
                self._widen(self._k_lo, self._k_hi + n_planes)
            else:
                break
        first = reached.argmax(axis=1)
        k_star = self._k_lo + first.astype(np.int64)
        z = counts[np.arange(n), first]
        k_star[self.empty_rows] = 0
        z[self.empty_rows] = self.trials
        return k_star, z

    def row_estimates(self) -> np.ndarray:
        """Lemma 5.2 estimates of every neighborhood fingerprint ``Y`` (no
        union), from the order statistics already computed at construction
        -- bitwise equal to ``batch_estimate(Y)`` with
        ``Y = neighborhood_max_rows(csr, rows)``."""
        return estimates_from_counts(
            self.row_k, self.row_z, self.trials, empty_rows=self.empty_rows
        )

    def union_order_statistics(
        self, left: np.ndarray, right: np.ndarray, *, chunk_rows: int = 1 << 18
    ) -> tuple[np.ndarray, np.ndarray]:
        """Raw ``(K*, Z)`` of ``max(Y[left], Y[right])`` per pair, ``Y`` the
        neighborhood fingerprints.

        Identical integers to :func:`fused_topk_counts` on the materialized
        union matrix; pairs are processed in chunks of ``chunk_rows`` so the
        working set stays ``O(chunk * trials / 64)`` words.
        """
        left = np.asarray(left, dtype=np.int64).reshape(-1)
        right = np.asarray(right, dtype=np.int64).reshape(-1)
        if left.shape != right.shape:
            raise ValueError("left/right pair arrays must align")
        m = left.size
        k_star = np.empty(m, dtype=np.int64)
        z = np.empty(m, dtype=np.int64)
        q = self.q
        for start in range(0, m, chunk_rows):
            cl = left[start : start + chunk_rows]
            cr = right[start : start + chunk_rows]
            ck = np.zeros(cl.size, dtype=np.int64)
            cz = np.full(cl.size, self.trials, dtype=np.int64)
            # the union of two empty sets is empty (K* = 0, Z = t); every
            # other pair starts at a row K*, which lies inside the window
            both_empty = self.empty_rows[cl] & self.empty_rows[cr]
            todo = np.flatnonzero(~both_empty)
            kcur = np.maximum(self.row_k[cl], self.row_k[cr]) - self._k_lo
            while todo.size:
                planes = self._planes
                sel_k = kcur[todo]
                counts = _popcount_rows(
                    planes[cl[todo], sel_k] & planes[cr[todo], sel_k]
                )
                done = counts >= q
                hit = todo[done]
                ck[hit] = sel_k[done] + self._k_lo
                cz[hit] = counts[done]
                todo = todo[~done]
                kcur[todo] += 1
                if todo.size:
                    top = int(kcur[todo].max()) + self._k_lo
                    if top > self._k_hi:
                        self._widen(self._k_lo, top)
            k_star[start : start + cl.size] = ck
            z[start : start + cl.size] = cz
        return k_star, z

    def union_estimates(
        self, left: np.ndarray, right: np.ndarray, *, chunk_rows: int = 1 << 18
    ) -> np.ndarray:
        """Cardinality estimates of ``N(left) ∪ N(right)`` per pair --
        bitwise equal to ``batch_estimate(np.maximum(Y[left], Y[right]))``
        without building ``Y`` or the ``(pairs, trials)`` union matrix."""
        k_star, z = self.union_order_statistics(
            left, right, chunk_rows=chunk_rows
        )
        left = np.asarray(left, dtype=np.int64).reshape(-1)
        right = np.asarray(right, dtype=np.int64).reshape(-1)
        empty = self.empty_rows[left] & self.empty_rows[right]
        return estimates_from_counts(k_star, z, self.trials, empty_rows=empty)

