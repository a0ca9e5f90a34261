"""Land-use archetypes and static city synthesis (regions, POIs, roads).

Each region is assigned one of four archetypes -- downtown, office,
residential, suburb -- as a function of distance from the city centre plus
noise.  The archetype drives everything observable about the region: POI
mix, road density, population by period, commercial intensity.  The learning
pipeline never sees the archetype itself (it is latent), only the derived
context data, mirroring how the real pipeline sees Gaode POIs and OSM roads
but not "the zoning plan".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..data.periods import NUM_PERIODS, TimePeriod
from ..geo import RegionGrid
from .config import ARCHETYPES, NUM_ARCHETYPES, POI_TYPES, CityConfig

# Population profile per period, per archetype (relative occupancy).
#            morn  noon  aft   eve   night
_POPULATION_PROFILE = {
    "downtown": (0.8, 1.3, 1.1, 1.3, 1.0),
    "office": (1.0, 1.6, 1.3, 0.9, 0.3),
    "residential": (1.2, 0.7, 0.8, 1.3, 1.4),
    "suburb": (0.9, 0.6, 0.6, 0.9, 1.0),
}

# Mean population scale relative to CityConfig.base_population.
_POPULATION_SCALE = {
    "downtown": 1.3,
    "office": 1.1,
    "residential": 1.0,
    "suburb": 0.45,
}

# POI intensity per archetype over POI_TYPES (Poisson means).
_POI_PROFILE = {
    #              rest off  res  mall sch  hosp metro ent  bank park
    "downtown": (22, 10, 8, 6, 2, 2, 3, 8, 6, 2),
    "office": (14, 18, 4, 3, 2, 1, 3, 3, 8, 1),
    "residential": (10, 2, 20, 2, 4, 2, 1, 2, 2, 3),
    "suburb": (3, 1, 6, 0.5, 1, 0.5, 0.3, 0.5, 0.5, 2),
}

# Road density (roads, intersections) Poisson means.
_ROAD_PROFILE = {
    "downtown": (26, 18),
    "office": (22, 15),
    "residential": (16, 10),
    "suburb": (7, 4),
}

# Number of stores per region (Poisson mean).
_COMMERCIAL_INTENSITY = {
    "downtown": 11.0,
    "office": 8.0,
    "residential": 5.5,
    "suburb": 1.6,
}


@dataclass
class CityLandUse:
    """Static synthetic city: archetypes and derived context data.

    Attributes
    ----------
    grid:
        The region partition.
    archetype:
        ``(N,)`` int array indexing into :data:`ARCHETYPES`.
    poi_counts:
        ``(N, len(POI_TYPES))`` POI counts (public context data).
    roads, intersections:
        ``(N,)`` road-network statistics (public context data).
    population:
        ``(N, NUM_PERIODS)`` mean population per period (latent; the
        pipeline only observes orders).
    commercial_intensity:
        ``(N,)`` expected number of stores (latent).
    taste:
        ``(N, num_store_types)`` sticky regional taste multipliers (latent).
        Shared by store placement and order generation: real store layouts
        equilibrate with local demand, which is what produces the strong
        preference-order correlation of Table II.
    """

    grid: RegionGrid
    archetype: np.ndarray
    poi_counts: np.ndarray
    roads: np.ndarray
    intersections: np.ndarray
    population: np.ndarray
    commercial_intensity: np.ndarray
    taste: np.ndarray

    @property
    def num_regions(self) -> int:
        return self.grid.num_regions

    def archetype_name(self, region: int) -> str:
        return ARCHETYPES[int(self.archetype[region])]

    def regions_of_archetype(self, name: str) -> np.ndarray:
        """Region ids whose archetype is ``name`` (used by Fig. 14)."""
        idx = ARCHETYPES.index(name)
        return np.flatnonzero(self.archetype == idx)


def assign_archetypes(grid: RegionGrid, rng: np.random.Generator) -> np.ndarray:
    """Sample an archetype per region from a distance-from-centre prior."""
    n = grid.num_regions
    d = np.array([grid.distance_from_center(r) for r in range(n)])
    d_norm = d / max(d.max(), 1.0)

    # Probability of each archetype as a function of normalised distance.
    p_downtown = np.clip(1.1 - 2.6 * d_norm, 0.02, None)
    p_office = np.clip(0.9 - 1.6 * np.abs(d_norm - 0.25), 0.02, None)
    p_residential = np.clip(1.0 - 1.8 * np.abs(d_norm - 0.55), 0.05, None)
    p_suburb = np.clip(2.2 * d_norm - 0.9, 0.01, None)
    probs = np.stack([p_downtown, p_office, p_residential, p_suburb], axis=1)
    probs /= probs.sum(axis=1, keepdims=True)

    cumulative = probs.cumsum(axis=1)
    draws = rng.random(n)[:, None]
    return (draws > cumulative).sum(axis=1).astype(np.int64)


def _neighbor_groups(
    grid: RegionGrid, radius_m: float = 800.0
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Regions grouped by neighbour count: ``(regions, (n, k) neighbours)``.

    Row ``i`` of a group's neighbour matrix is
    ``grid.neighbors_within(regions[i], radius_m)`` in its order; regions
    with no neighbour are left out.
    """
    src, dst, _ = grid.pair_arrays_within(radius_m)
    counts = np.bincount(src, minlength=grid.num_regions)
    starts = np.cumsum(counts) - counts
    groups = []
    for k in np.unique(counts[counts > 0]).tolist():
        regions = np.flatnonzero(counts == k)
        groups.append((regions, dst[starts[regions, None] + np.arange(k)]))
    return groups


def _smooth_field(
    values: np.ndarray,
    groups: List[Tuple[np.ndarray, np.ndarray]],
    passes: int = 2,
) -> np.ndarray:
    """Spatially smooth a per-region field by neighbourhood averaging.

    Real demand fields are spatially coherent (adjacent neighbourhoods share
    tastes and density); iid noise per region would destroy the strong
    preference-order correlation of Table II.

    Each pass sets every region to ``0.5 * own + 0.5 * mean(neighbours)``
    over the :func:`_neighbor_groups` of the grid.  The means are taken
    one neighbour-count group at a time: ``mean(axis=1)`` over a group's
    ``(n, k[, T])`` gather reduces each region's ``k`` neighbours in list
    order, the same reduction the per-region ``mean(axis=0)`` runs, so the
    field matches the per-region loop byte for byte
    (``tests/test_grid_windows.py``).
    """
    out = np.asarray(values, dtype=np.float64).copy()
    for _ in range(passes):
        smoothed = out.copy()
        for regions, neigh in groups:
            smoothed[regions] = 0.5 * out[regions] + 0.5 * out[neigh].mean(axis=1)
        out = smoothed
    return out


def synthesize_land_use(config: CityConfig, rng: np.random.Generator) -> CityLandUse:
    """Build the static city: archetypes, POIs, roads, populations."""
    grid = RegionGrid(config.rows, config.cols, config.cell_size)
    archetype = assign_archetypes(grid, rng)
    n = grid.num_regions
    # One neighbour structure for every smoothed field of this city.
    groups = _neighbor_groups(grid)

    poi_means = np.array([_POI_PROFILE[ARCHETYPES[a]] for a in archetype])
    poi_counts = rng.poisson(poi_means).astype(np.float64)

    road_means = np.array([_ROAD_PROFILE[ARCHETYPES[a]] for a in archetype])
    roads = rng.poisson(road_means[:, 0]).astype(np.float64)
    intersections = rng.poisson(road_means[:, 1]).astype(np.float64)

    profile = np.array([_POPULATION_PROFILE[ARCHETYPES[a]] for a in archetype])
    scale = np.array([_POPULATION_SCALE[ARCHETYPES[a]] for a in archetype])
    log_noise = _smooth_field(rng.normal(0.0, 0.35, size=n), groups)
    base = config.base_population * _smooth_field(scale, groups) * np.exp(log_noise)
    population = base[:, None] * profile

    # Stores concentrate where demand is (market equilibrium): scale the
    # archetype intensity by relative population density.
    density = population.mean(axis=1)
    density_factor = density / max(density.mean(), 1e-9)
    intensity_noise = np.exp(_smooth_field(rng.normal(0.0, 0.2, size=n), groups))
    intensity = (
        np.array([_COMMERCIAL_INTENSITY[ARCHETYPES[a]] for a in archetype])
        * density_factor
        * intensity_noise
    )

    taste = np.exp(
        _smooth_field(
            rng.normal(0.0, 0.5, size=(n, config.num_store_types)), groups
        )
    )

    return CityLandUse(
        grid=grid,
        archetype=archetype,
        poi_counts=poi_counts,
        roads=roads,
        intersections=intersections,
        population=population,
        commercial_intensity=intensity,
        taste=taste,
    )
