"""The single in-process entry point for the batched graphcore kernels.

The coloring layer evaluates the pure batched kernels of
:mod:`repro.graphcore.kernels` through :data:`SERIAL_BACKEND`, the shared
:class:`SerialBackend` instance.  Each method is a direct call-through,
so results are bitwise-identical to calling the kernels themselves (gated
by the pinned-seed digests).  The class is the one per-kernel choke point
of a coloring run: instrumentation that wants per-kernel call counts,
rows and wall time wraps these three methods.
"""

from __future__ import annotations

import numpy as np

from repro.graphcore import (
    CSRAdjacency,
    batch_conflict_mask,
    batch_slack_counts,
    batch_used_color_masks,
)


class SerialBackend:
    """In-process kernel evaluation: direct delegation to graphcore."""

    def conflict_mask(
        self,
        csr: CSRAdjacency,
        colors: np.ndarray,
        vertices: np.ndarray,
        candidates: np.ndarray,
        *,
        proposal_map: np.ndarray | None = None,
        symmetric: bool = False,
    ) -> np.ndarray:
        """Evaluate :func:`repro.graphcore.batch_conflict_mask`."""
        return batch_conflict_mask(
            csr,
            colors,
            vertices,
            candidates,
            proposal_map=proposal_map,
            symmetric=symmetric,
        )

    def used_color_masks(
        self,
        csr: CSRAdjacency,
        colors: np.ndarray,
        vertices: np.ndarray,
        num_colors: int,
    ) -> np.ndarray:
        """Evaluate :func:`repro.graphcore.batch_used_color_masks`."""
        return batch_used_color_masks(csr, colors, vertices, num_colors)

    def slack_counts(
        self,
        csr: CSRAdjacency,
        colors: np.ndarray,
        vertices: np.ndarray,
        num_colors: int,
        *,
        active_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Evaluate :func:`repro.graphcore.batch_slack_counts`."""
        return batch_slack_counts(
            csr, colors, vertices, num_colors, active_mask=active_mask
        )


#: Shared instance every kernel call site uses (the class is stateless).
SERIAL_BACKEND = SerialBackend()
