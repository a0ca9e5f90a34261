"""City partitioning into square regions (Definition 1 of the paper).

The city is a set of two-dimensional grids of size ``cell_size x cell_size``
(paper: 500 m x 500 m); each grid cell is a *region*.  Regions are numbered
row-major; geometry is handled in metres on a local tangent plane, with a
lon/lat conversion for order records (Table I stores coordinates in degrees).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

import numpy as np

# (dr, dc) offset tables per reach, row-major with (0, 0) removed -- the
# exact visit order of the nested loop neighbors_within replaces.
_NEIGHBOR_OFFSETS: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}


def _neighbor_offsets(reach: int) -> Tuple[np.ndarray, np.ndarray]:
    cached = _NEIGHBOR_OFFSETS.get(reach)
    if cached is None:
        side = np.arange(-reach, reach + 1, dtype=np.int64)
        drs = np.repeat(side, len(side))
        dcs = np.tile(side, len(side))
        keep = (drs != 0) | (dcs != 0)
        cached = (drs[keep], dcs[keep])
        _NEIGHBOR_OFFSETS[reach] = cached
    return cached

# Metres per degree around Shanghai's latitude (31.2 N), used to emit
# plausible lon/lat pairs in synthetic order records.
_M_PER_DEG_LAT = 111_320.0
_M_PER_DEG_LON = 95_200.0


@dataclass(frozen=True)
class RegionGrid:
    """A ``rows x cols`` grid of square regions.

    Attributes
    ----------
    rows, cols:
        Grid dimensions.
    cell_size:
        Side of each region in metres (``xi`` in Definition 1).
    origin_lon, origin_lat:
        Geographic anchor of grid cell (0, 0)'s south-west corner.
    """

    rows: int
    cols: int
    cell_size: float = 500.0
    origin_lon: float = 121.30
    origin_lat: float = 31.10

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid must have at least one row and column")
        if self.cell_size <= 0:
            raise ValueError("cell_size must be positive")

    # -- identity -----------------------------------------------------------
    @property
    def num_regions(self) -> int:
        return self.rows * self.cols

    def region_id(self, row: int, col: int) -> int:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise IndexError(f"cell ({row}, {col}) outside {self.rows}x{self.cols} grid")
        return row * self.cols + col

    def row_col(self, region: int) -> Tuple[int, int]:
        if not 0 <= region < self.num_regions:
            raise IndexError(f"region {region} outside [0, {self.num_regions})")
        return divmod(region, self.cols)

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.num_regions))

    # -- geometry -------------------------------------------------------------
    def centroid(self, region: int) -> Tuple[float, float]:
        """Region centre in metres from the grid origin: ``(x, y)``."""
        row, col = self.row_col(region)
        return ((col + 0.5) * self.cell_size, (row + 0.5) * self.cell_size)

    def centroids(self) -> np.ndarray:
        """All centroids, shape ``(num_regions, 2)`` in metres."""
        rows, cols = np.divmod(np.arange(self.num_regions), self.cols)
        return np.stack(
            [(cols + 0.5) * self.cell_size, (rows + 0.5) * self.cell_size], axis=1
        )

    def distance(self, region_a: int, region_b: int) -> float:
        """Euclidean centroid distance in metres."""
        xa, ya = self.centroid(region_a)
        xb, yb = self.centroid(region_b)
        return float(np.hypot(xa - xb, ya - yb))

    def distance_matrix(self) -> np.ndarray:
        """Pairwise centroid distances, shape ``(N, N)`` in metres."""
        c = self.centroids()
        diff = c[:, None, :] - c[None, :, :]
        return np.sqrt((diff**2).sum(axis=2))

    def region_of_point(self, x: float, y: float) -> int:
        """Region containing the metre-coordinate point (clamped to grid)."""
        col = int(np.clip(x // self.cell_size, 0, self.cols - 1))
        row = int(np.clip(y // self.cell_size, 0, self.rows - 1))
        return self.region_id(row, col)

    def neighbors_within(self, region: int, radius: float) -> List[int]:
        """Regions (excluding ``region``) with centroid distance <= radius.

        Vectorised over the offset window but value- and order-identical to
        the nested ``(dr, dc)`` reference loop: offsets visit row-major,
        centroids use the same ``(col + 0.5) * cell_size`` arithmetic, and
        the distance test is the same ``np.hypot`` ufunc elementwise.
        """
        row, col = self.row_col(region)
        reach = int(radius // self.cell_size) + 1
        drs, dcs = _neighbor_offsets(reach)
        r = row + drs
        c = col + dcs
        valid = (r >= 0) & (r < self.rows) & (c >= 0) & (c < self.cols)
        r = r[valid]
        c = c[valid]
        x0, y0 = self.centroid(region)
        x1 = (c + 0.5) * self.cell_size
        y1 = (r + 0.5) * self.cell_size
        near = np.hypot(x1 - x0, y1 - y0) <= radius
        return (r[near] * self.cols + c[near]).tolist()

    def pair_arrays_within(
        self, radius: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`pairs_within` as ``(src, dst, distance_m)`` arrays.

        Vectorised over the offset window of :meth:`neighbors_within`, block
        by block of source regions: pairs come out in (region, row-major
        offset) order, centroids use the same ``(col + 0.5) * cell_size``
        arithmetic, and distances are the same ``np.hypot`` ufunc
        elementwise, so the arrays equal the per-region loop's list value
        for value (``tests/test_grid_windows.py``).
        """
        reach = int(radius // self.cell_size) + 1
        drs, dcs = _neighbor_offsets(reach)
        block = max(1, (1 << 20) // max(len(drs), 1))
        src, dst, dist = [], [], []
        for b0 in range(0, self.num_regions, block):
            ids = np.arange(b0, min(b0 + block, self.num_regions), dtype=np.int64)
            row, col = np.divmod(ids, self.cols)
            r = row[:, None] + drs
            c = col[:, None] + dcs
            valid = (r >= 0) & (r < self.rows) & (c >= 0) & (c < self.cols)
            x0 = ((col + 0.5) * self.cell_size)[:, None]
            y0 = ((row + 0.5) * self.cell_size)[:, None]
            d = np.hypot(x0 - (c + 0.5) * self.cell_size,
                         y0 - (r + 0.5) * self.cell_size)
            i, k = np.nonzero(valid & (d <= radius))
            src.append(ids[i])
            dst.append(r[i, k] * self.cols + c[i, k])
            dist.append(d[i, k])
        return np.concatenate(src), np.concatenate(dst), np.concatenate(dist)

    def pairs_within(self, radius: float) -> List[Tuple[int, int, float]]:
        """All ordered region pairs with centroid distance <= radius.

        Returns ``(i, j, distance_m)`` triples with ``i != j`` -- the edge
        set of the Region Geographical Graph (Definition 2, threshold 800 m).
        """
        src, dst, dist = self.pair_arrays_within(radius)
        return list(zip(src.tolist(), dst.tolist(), dist.tolist()))

    # -- geographic coordinates -----------------------------------------------
    def to_lonlat(self, x: float, y: float) -> Tuple[float, float]:
        """Convert metre coordinates to (lon, lat) degrees."""
        return (
            self.origin_lon + x / _M_PER_DEG_LON,
            self.origin_lat + y / _M_PER_DEG_LAT,
        )

    def from_lonlat(self, lon: float, lat: float) -> Tuple[float, float]:
        """Convert (lon, lat) degrees to metre coordinates."""
        return (
            (lon - self.origin_lon) * _M_PER_DEG_LON,
            (lat - self.origin_lat) * _M_PER_DEG_LAT,
        )

    def center_region(self) -> int:
        return self.region_id(self.rows // 2, self.cols // 2)

    def distance_from_center(self, region: int) -> float:
        """Centroid distance to the grid's central region, in metres."""
        return self.distance(region, self.center_region())
