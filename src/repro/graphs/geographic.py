"""Region Geographical Graph (Definition 2).

Nodes are regions; an edge connects two regions whose centroid distance is
below a threshold (paper: 800 m), with the distance as edge attribute.
Edges are stored directed both ways so neighbourhood aggregations can index
incoming edges per target node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geo import RegionGrid

DEFAULT_THRESHOLD_M = 800.0


@dataclass(frozen=True)
class RegionGeographicalGraph:
    """Directed edge list ``src -> dst`` with metre distances."""

    num_regions: int
    src: np.ndarray
    dst: np.ndarray
    distance: np.ndarray

    @property
    def num_edges(self) -> int:
        return len(self.src)

    @classmethod
    def from_grid(
        cls, grid: RegionGrid, threshold_m: float = DEFAULT_THRESHOLD_M
    ) -> "RegionGeographicalGraph":
        if threshold_m <= 0:
            raise ValueError("threshold_m must be positive")
        src, dst, dist = grid.pair_arrays_within(threshold_m)
        return cls(
            num_regions=grid.num_regions,
            src=src.astype(np.int64),
            dst=dst.astype(np.int64),
            distance=dist.astype(np.float64),
        )

    def neighbors_of(self, region: int) -> np.ndarray:
        """Source regions of edges pointing at ``region``."""
        return self.src[self.dst == region]
