"""Per-layer timing from outside the program.

A :class:`Probe` wraps public callables of the ``repro`` modules (and the
networkx calls the workload generators make) with timing spans, without
editing any file of the program.  Functions are imported by name all over
``repro`` (``from repro.decomposition.acd import compute_acd``), so a
module-level function is rebound in *every* loaded ``repro`` module that
holds it; methods are rebound on their class.  :meth:`Probe.installed`
restores every original on exit.

Spans nest: a span's *self* time is its duration minus the time of the
spans it contains (``blowup`` contains ``CommGraph`` and
``from_assignment``, which contains ``build_forest``; ``compute_acd``
contains ``buddy_predicate``).  Every reported ``.s`` is a self time, so per
phase: wall = sum of listed layers + ``other_s`` + ``unattributed_s``.

A wrapper only reads a clock and counts; it never touches arguments,
results, the rng or the ledger, so a traced run computes exactly what an
untraced one does (``test_perfbench.py`` checks it).
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

import networkx as nx

#: DeltaCSR methods form one span group, as do the networkx calls: calls
#: between members stay in the outermost span (``gather`` calls
#: ``neighbors``, ``insert_edge`` calls ``has_edge``).
_DELTA = "dynamic.DeltaCSR"


def _rows(index):
    """Row count of a batched kernel: the length of its vertex argument."""
    return lambda args: len(args[index])


def _targets():
    """``(owner, attribute, layer, rows)`` for every callable to time.

    ``owner`` is a module (rebinding is then applied to every ``repro``
    module holding the same object) or a class.  ``layer`` names the
    callable as ``<package>.<callable>``; DeltaCSR methods are grouped by
    role (reads, writes, ...) under ``dynamic.DeltaCSR.<role>``.
    """
    import repro.cluster.builders as builders
    import repro.cluster.support_tree as support_tree
    import repro.coloring.cabal as cabal
    import repro.coloring.low_degree as low_degree
    import repro.coloring.noncabal as noncabal
    import repro.coloring.slack as slack
    import repro.decomposition.acd as acd
    import repro.decomposition.buddy as buddy
    import repro.decomposition.cabals as cabals
    import repro.graphcore.kernels as kernels
    import repro.verify.checker as checker
    from repro.cluster.cluster_graph import ClusterGraph
    from repro.dynamic.delta import DeltaCSR
    from repro.network.commgraph import CommGraph
    from repro.network.ledger import BandwidthLedger
    from repro.parallel.backend import SerialBackend

    targets = [
        (nx, name, "workloads.networkx", None)
        for name in (
            "fast_gnp_random_graph",
            "erdos_renyi_graph",
            "random_regular_graph",
            "connected_components",
            "convert_node_labels_to_integers",
        )
    ]
    targets += [
        (nx.Graph, name, "workloads.networkx", None)
        for name in ("add_edges_from", "add_nodes_from", "remove_edge", "has_edge")
    ]
    targets += [
        (builders, "blowup", "cluster.blowup", None),
        (CommGraph, "__init__", "network.CommGraph", None),
        (ClusterGraph, "from_assignment", "cluster.from_assignment", None),
        (support_tree, "build_forest", "cluster.build_forest", None),
        (acd, "compute_acd", "decomposition.compute_acd", None),
        (buddy, "buddy_predicate", "decomposition.buddy_predicate", None),
        (cabals, "annotate_with_cabals", "decomposition.annotate_with_cabals", None),
        (slack, "slack_generation", "coloring.slack_generation", None),
        (noncabal, "color_noncabals", "coloring.color_noncabals", None),
        (cabal, "color_cabals", "coloring.color_cabals", None),
        (low_degree, "color_low_degree", "coloring.color_low_degree", None),
        (SerialBackend, "conflict_mask", "graphcore.conflict_mask", _rows(3)),
        (SerialBackend, "used_color_masks", "graphcore.used_color_masks", _rows(3)),
        (SerialBackend, "slack_counts", "graphcore.slack_counts", _rows(3)),
        (BandwidthLedger, "charge", "network.charge", None),
        (checker, "is_proper", "verify.is_proper", None),
        (kernels, "is_proper_edges", "graphcore.is_proper_edges", None),
        (kernels, "used_color_masks_from_flat",
         "graphcore.used_color_masks_from_flat", None),
        (kernels, "conflict_mask_from_flat", "graphcore.conflict_mask_from_flat", None),
    ]
    delta_roles = {
        "__init__": "init",
        "has_edge": "reads",
        "neighbors": "reads",
        "insert_edge": "writes",
        "delete_edge": "writes",
        "add_vertex": "writes",
        "remove_vertex": "writes",
        "gather": "gather",
        "edge_arrays": "edge_arrays",
        "maybe_compact": "maybe_compact",
        "as_csr": "as_csr",
    }
    targets += [
        (DeltaCSR, name, f"{_DELTA}.{role}", None)
        for name, role in delta_roles.items()
    ]
    return targets


class Probe:
    """Timing spans around layer calls, grouped by benchmark phase.

    Spans are recorded only inside :meth:`phase`; outside it the wrappers
    pass straight through.  ``records[(phase, layer)]`` holds
    ``[calls, rows, self_seconds]`` and ``phase_wall[phase]`` the summed
    wall time of the phase.
    """

    def __init__(self):
        self.records = defaultdict(lambda: [0, 0, 0.0])
        self.phase_wall = defaultdict(float)
        self._phase = None
        self._stack: list[list] = []

    @contextlib.contextmanager
    def phase(self, name: str):
        """Attribute the spans of the enclosed block to phase ``name``."""
        self._phase, self._stack = name, []
        start = time.perf_counter()
        try:
            yield
        finally:
            self.phase_wall[name] += time.perf_counter() - start
            self._phase = None

    def _wrap(self, fn, layer, rows, group):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            phase = self._phase
            stack = self._stack
            # a call from inside a span of its own group stays in that span
            if phase is None or (stack and stack[-1][0] == group):
                return fn(*args, **kwargs)
            frame = [group, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                rec = self.records[(phase, layer)]
                rec[0] += 1
                rec[2] += elapsed - frame[1]
                if rows is not None:
                    rec[1] += rows(args)

        return timed

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper for the enclosed block, then restore."""
        import repro.dynamic  # noqa: F401  (load every module that rebinds)
        import repro.experiments.runner  # noqa: F401
        import repro.workloads  # noqa: F401

        undo = []
        try:
            for owner, name, layer, rows in _targets():
                wrap = functools.partial(
                    self._wrap, layer=layer, rows=rows,
                    group=_DELTA if layer.startswith(_DELTA) else layer,
                )
                if isinstance(owner, type):
                    undo.append(self._patch_method(owner, name, wrap))
                else:
                    undo.extend(self._patch_function(owner, name, wrap))
            yield self
        finally:
            for holder, name, original in reversed(undo):
                setattr(holder, name, original)

    @staticmethod
    def _patch_method(cls, name, wrap):
        original = cls.__dict__[name]
        if isinstance(original, classmethod):
            wrapped = classmethod(wrap(original.__func__))
        else:
            wrapped = wrap(original)
        setattr(cls, name, wrapped)
        return cls, name, original

    @staticmethod
    def _patch_function(module, name, wrap):
        original = getattr(module, name)
        wrapped = wrap(original)
        holders = [module] + [
            mod
            for mod_name, mod in list(sys.modules.items())
            if mod is not module
            and (mod_name == "repro" or mod_name.startswith("repro."))
        ]
        undo = []
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, wrapped)
                    undo.append((holder, attr, original))
        return undo

    def layer_totals(self, phase: str, prefix: str) -> tuple[int, int, float]:
        """``(calls, rows, self_s)`` summed over the layers of ``phase``
        whose name starts with ``prefix``."""
        calls = rows = 0
        seconds = 0.0
        for (rec_phase, layer), (c, r, s) in self.records.items():
            if rec_phase == phase and (
                layer == prefix or layer.startswith(prefix + ".")
            ):
                calls += c
                rows += r
                seconds += s
        return calls, rows, seconds

    def spans_self_s(self, phase: str) -> float:
        """Self time of every span of ``phase``, listed layer or not."""
        return sum(
            s for (rec_phase, _layer), (_c, _r, s) in self.records.items()
            if rec_phase == phase
        )
