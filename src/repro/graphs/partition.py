"""Grid-tile partitioning of the region set for metropolis-scale sharding.

The city is already a ``rows x cols`` grid of square regions
(:class:`repro.geo.grid.RegionGrid`, Definition 1); a metropolis run tiles
that grid into ``tile_rows x tile_cols`` axis-aligned rectangles of regions
-- spatially contiguous by construction, which is what makes sharded graph
propagation cheap: all three graph planes (geographical, mobility,
capacity/hetero) connect regions by *distance*, so the endpoints of almost
every edge land in the same tile and the cross-tile remainder is confined
to a thin boundary ring.

Ownership is a function, not a search: every region belongs to exactly one
tile, and every edge is **owned by the tile of its destination region** --
the aggregation side.  A tile's worker therefore computes complete
aggregates for its own nodes from the full edge list restricted to
``owner[dst] == tile`` (each cross-tile edge is pulled in by exactly one
owner; nothing is double-counted, nothing is dropped), reading source rows
for the halo ring from the shared feature arena.  :meth:`halo_regions`
names that ring explicitly for diagnostics and prefetch sizing.

Tiles use ``np.array_split`` boundary semantics on each axis (the first
``rows % tile_rows`` row-bands get the extra row), so non-divisible grid
dimensions split into near-equal contiguous bands and the degenerate
``num_tiles=1`` case is the identity partition.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

__all__ = [
    "GridTilePartition",
    "band_node_splits",
    "partition_grid",
    "stacked_band_cuts",
]


def _axis_splits(size: int, parts: int) -> np.ndarray:
    """``parts + 1`` cut points of ``np.array_split(range(size), parts)``."""
    base, extra = divmod(size, parts)
    sizes = np.full(parts, base, dtype=np.int64)
    sizes[:extra] += 1
    return np.concatenate([[0], np.cumsum(sizes)])


def _near_square_factors(num_tiles: int, rows: int, cols: int) -> Tuple[int, int]:
    """Factor ``num_tiles`` as ``tile_rows * tile_cols`` matching the grid.

    Picks the divisor pair whose aspect ratio best matches ``rows / cols``
    so tiles come out near-square in *regions* (minimising boundary length,
    hence halo traffic).  Each factor is additionally capped by the axis
    size -- a 4x100 ribbon cannot host 3 row-bands of 8 tiles.
    """
    if num_tiles < 1:
        raise ValueError("num_tiles must be >= 1")
    best: Tuple[int, int] = (1, min(num_tiles, cols))
    best_score = float("inf")
    for tr in range(1, num_tiles + 1):
        if num_tiles % tr:
            continue
        tc = num_tiles // tr
        if tr > rows or tc > cols:
            continue
        # Ideal: rows/tr == cols/tc  <=>  tr/tc == rows/cols.
        score = abs(np.log((rows / tr) / (cols / tc)))
        if score < best_score:
            best, best_score = (tr, tc), score
    if best_score == float("inf"):
        # num_tiles has no factorisation fitting the grid (e.g. a prime
        # larger than both axes); fall back to the largest 1-D split.
        return (min(num_tiles, rows), 1) if rows >= cols else (1, min(num_tiles, cols))
    return best


class GridTilePartition:
    """A tiling of the ``rows x cols`` region grid into rectangular tiles.

    Attributes
    ----------
    rows, cols:
        Grid dimensions (regions per axis).
    tile_rows, tile_cols:
        Tile-bands per axis; ``num_tiles = tile_rows * tile_cols``.
    row_splits, col_splits:
        Cut points per axis (length ``tile_rows + 1`` / ``tile_cols + 1``).
    owner:
        ``(rows * cols,)`` int64 array mapping region id -> tile id.  Tiles
        are numbered row-major, like regions.
    """

    __slots__ = ("rows", "cols", "tile_rows", "tile_cols",
                 "row_splits", "col_splits", "owner")

    def __init__(self, rows: int, cols: int, tile_rows: int, tile_cols: int) -> None:
        if rows < 1 or cols < 1:
            raise ValueError("grid must have at least one row and column")
        if not (1 <= tile_rows <= rows and 1 <= tile_cols <= cols):
            raise ValueError(
                f"tile grid {tile_rows}x{tile_cols} does not fit region grid "
                f"{rows}x{cols}"
            )
        self.rows = int(rows)
        self.cols = int(cols)
        self.tile_rows = int(tile_rows)
        self.tile_cols = int(tile_cols)
        self.row_splits = _axis_splits(self.rows, self.tile_rows)
        self.col_splits = _axis_splits(self.cols, self.tile_cols)
        # Band index per row/col, then tile id per region, all vectorised.
        row_band = np.repeat(
            np.arange(self.tile_rows, dtype=np.int64), np.diff(self.row_splits)
        )
        col_band = np.repeat(
            np.arange(self.tile_cols, dtype=np.int64), np.diff(self.col_splits)
        )
        region_rows, region_cols = np.divmod(
            np.arange(self.rows * self.cols, dtype=np.int64), self.cols
        )
        self.owner = row_band[region_rows] * self.tile_cols + col_band[region_cols]
        self.owner.setflags(write=False)

    # -- identity -----------------------------------------------------------
    @property
    def num_tiles(self) -> int:
        return self.tile_rows * self.tile_cols

    @property
    def num_regions(self) -> int:
        return self.rows * self.cols

    def tile_bounds(self, tile: int) -> Tuple[int, int, int, int]:
        """Half-open region-row/col bounds ``(r0, r1, c0, c1)`` of ``tile``."""
        if not 0 <= tile < self.num_tiles:
            raise IndexError(f"tile {tile} outside [0, {self.num_tiles})")
        tr, tc = divmod(tile, self.tile_cols)
        return (
            int(self.row_splits[tr]), int(self.row_splits[tr + 1]),
            int(self.col_splits[tc]), int(self.col_splits[tc + 1]),
        )

    def tile_regions(self, tile: int) -> np.ndarray:
        """Region ids owned by ``tile``, ascending."""
        r0, r1, c0, c1 = self.tile_bounds(tile)
        return (
            np.arange(r0, r1, dtype=np.int64)[:, None] * self.cols
            + np.arange(c0, c1, dtype=np.int64)[None, :]
        ).ravel()

    def halo_regions(self, tile: int, radius: int = 1) -> np.ndarray:
        """Regions within ``radius`` Chebyshev cells of ``tile``, not owned.

        The halo ring a tile's worker reads (but never writes): source rows
        of cross-tile edges whose destinations the tile owns.  ``radius`` is
        in grid cells -- a distance threshold ``d`` metres needs
        ``floor(d / cell_size) + 1`` cells to cover its disk.
        """
        if radius < 0:
            raise ValueError("radius must be >= 0")
        r0, r1, c0, c1 = self.tile_bounds(tile)
        rr0, rr1 = max(r0 - radius, 0), min(r1 + radius, self.rows)
        cc0, cc1 = max(c0 - radius, 0), min(c1 + radius, self.cols)
        block = (
            np.arange(rr0, rr1, dtype=np.int64)[:, None] * self.cols
            + np.arange(cc0, cc1, dtype=np.int64)[None, :]
        ).ravel()
        return block[self.owner[block] != tile]

    # -- edges --------------------------------------------------------------
    def edge_owner(self, dst_regions: np.ndarray) -> np.ndarray:
        """Owning tile per edge: the tile of each destination region.

        This is the halo-completeness invariant in one line -- ownership is
        a total function of ``dst``, so every cross-tile edge is assigned to
        exactly one tile (its aggregation side) and the per-tile edge sets
        partition the edge list.
        """
        return self.owner[np.asarray(dst_regions, dtype=np.int64)]

    def cut_fraction(self, src_regions: np.ndarray, dst_regions: np.ndarray) -> float:
        """Fraction of edges whose endpoints fall in different tiles."""
        src = np.asarray(src_regions, dtype=np.int64)
        dst = np.asarray(dst_regions, dtype=np.int64)
        if src.size == 0:
            return 0.0
        return float(np.mean(self.owner[src] != self.owner[dst]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GridTilePartition({self.rows}x{self.cols} regions -> "
            f"{self.tile_rows}x{self.tile_cols} tiles)"
        )


def band_node_splits(
    node_regions: np.ndarray, region_cuts: np.ndarray, what: str = "node"
) -> np.ndarray:
    """Node-index cut points of the region row-band partition.

    ``node_regions`` is the (sorted) region id per node; ``region_cuts`` the
    ``tiles + 1`` region-id cut points (``row_splits * cols`` for a row-band
    partition).  Returns ``tiles + 1`` int64 node-index cuts such that band
    ``t`` owns nodes ``[splits[t], splits[t + 1])``.  Raises when the bands
    would not tile the node set exactly -- every consumer (banded forward
    stitches, banded training gradients) relies on the stitched rows
    covering ``[0, n)`` with no gaps or overlap, which requires the node
    list sorted by region id (the graph builder guarantees it).
    """
    splits = np.searchsorted(node_regions, region_cuts).astype(np.int64)
    if int(splits[0]) != 0 or int(splits[-1]) != len(node_regions):
        raise RuntimeError(
            f"shard bands do not cover the {what} set; is the graph's "
            f"{what} list sorted by region id?"
        )
    return splits


def stacked_band_cuts(splits: np.ndarray, num_nodes: int, periods: int) -> np.ndarray:
    """Band cuts of the period-stacked node table.

    The batched propagation stacks ``periods`` copies of an ``num_nodes``
    node table (node ``i`` of period ``p`` sits at row ``p * num_nodes + i``)
    and its destination-sorted edge arrays concatenate per-period sorted
    runs with the same offsets -- so they are *globally* sorted and the
    per-period band splits extend to the stack by offsetting each period's
    interior cuts.  Returns ``periods * tiles + 1`` cuts tiling
    ``[0, periods * num_nodes)``.
    """
    interior = np.asarray(splits[:-1], dtype=np.int64)
    offsets = np.arange(periods, dtype=np.int64) * int(num_nodes)
    cuts = (offsets[:, None] + interior[None, :]).ravel()
    return np.concatenate([cuts, [periods * int(num_nodes)]])


def partition_grid(rows: int, cols: int, num_tiles: int) -> GridTilePartition:
    """Tile a ``rows x cols`` region grid into (at most) ``num_tiles`` tiles.

    ``num_tiles`` is factored into a near-square ``tile_rows x tile_cols``
    arrangement matching the grid's aspect ratio; when no factorisation fits
    the grid the largest 1-D split along the longer axis is used, so the
    actual ``partition.num_tiles`` can be smaller than requested (never
    larger).  ``num_tiles=1`` is the identity partition.
    """
    tr, tc = _near_square_factors(int(num_tiles), int(rows), int(cols))
    return GridTilePartition(rows, cols, tr, tc)
