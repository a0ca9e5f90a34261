"""Grid-windowed set-up scans vs their full-city oracles.

Store choice, the streaming S-U build, ``RegionGrid.pairs_within`` and the
land-use smoothing each visit only the grid window that the largest scope
or radius can reach.  The full-city scans they replaced live on here as
oracles, and every output must match them byte for byte.  The city is
30x30 cells (15 km), wider than the ~9-cell reach of the largest delivery
scope, so the windows really prune.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.graphs.hetero as hetero
from repro.city import CityConfig
from repro.city import landuse
from repro.city.couriers import build_fleet
from repro.city.landuse import (
    _neighbor_groups,
    _smooth_field,
    synthesize_land_use,
)
from repro.city.orders import OrderGenerator
from repro.city.simulator import simulate_uncached
from repro.city.stores import place_stores
from repro.data.dataset import SiteRecDataset
from repro.data.periods import NUM_PERIODS, TimePeriod
from repro.geo import RegionGrid
from repro.graphs.hetero import (
    DISTANCE_SCALE_M,
    FALLBACK_SCOPE_M,
    _su_edges_streaming,
)


def _wide_config(**overrides) -> CityConfig:
    base = dict(
        rows=30, cols=30, num_days=1, num_couriers=400, seed=21,
        base_population=1800.0, sparsity=0.3,
    )
    base.update(overrides)
    return CityConfig(**base)


# ----------------------------------------------------------------------
# Oracles: the full-city scans, kept verbatim apart from their signatures.
def full_scan_store_choice(gen, region, store_type, period):
    """Store choice over the type's whole table; ``(entry, fell_back)``."""
    table = gen._store_index[store_type]
    if len(table.indices) == 0:
        empty = (
            np.array([], dtype=np.int64),
            np.array([]),
            np.array([]),
            np.array([], dtype=np.int64),
        )
        return empty, False

    cfg = gen.config
    centroid = gen._centroids[region]
    dists = np.sqrt(((table.positions - centroid) ** 2).sum(axis=1))
    scopes = gen._scopes[table.regions, int(period)]
    within = dists <= scopes
    fell_back = not within.any()
    if fell_back:
        within = np.zeros_like(within)
        within[np.argsort(dists)[:3]] = True

    candidates = np.flatnonzero(within)
    d = dists[candidates]
    est_time = (
        cfg.handling_minutes
        + d
        / cfg.courier_speed_m_per_min
        * gen._congestion[table.indices[candidates], int(period)]
    )
    weights = (
        table.qualities[candidates]
        * np.exp(-d / cfg.distance_decay_m)
        * np.exp(-est_time / cfg.time_tolerance_min)
    )
    total = weights.sum()
    probs = weights / total if total > 0 else np.full(len(weights), 1.0 / len(weights))
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return (candidates, probs, cdf, table.indices[candidates]), fell_back


def full_scan_su_edges(
    agg, store_regions, customer_regions, sc, uc, capacity_aware,
    order_ratio_threshold, max_pair_count,
):
    """The streaming S-U build over every customer region for each band."""
    nS, nU = len(store_regions), len(customer_regions)
    N = agg.num_regions
    sr = store_regions.astype(np.int64)
    ur = customer_regions.astype(np.int64)

    far_all = np.empty((NUM_PERIODS, nS))
    avg_all = np.empty((NUM_PERIODS, nS))
    tot_all = np.empty((NUM_PERIODS, nS))
    for t in range(NUM_PERIODS):
        tot_all[t] = agg.total_orders_s[sr, t]
        if capacity_aware:
            far = agg.farthest_distance[sr, t].copy()
            avg = agg.mean_distance[sr, t].copy()
            idle = far <= 0
            far[idle] = FALLBACK_SCOPE_M / 2
            avg[idle] = FALLBACK_SCOPE_M / 2
        else:
            far = np.full(nS, FALLBACK_SCOPE_M)
            avg = np.full(nS, FALLBACK_SCOPE_M)
        far_all[t] = far
        avg_all[t] = avg

    chunks = {t: [] for t in range(NUM_PERIODS)}
    band = max(1, hetero.DENSE_DISTANCE_LIMIT // max(nU, 1))
    for b0 in range(0, nS, band):
        b1 = min(b0 + band, nS)
        diff = sc[b0:b1, None, :] - uc[None, :, :]
        block = np.sqrt((diff**2).sum(axis=2))
        for t in range(NUM_PERIODS):
            cand = block <= far_all[t, b0:b1, None]
            si_loc, ui = np.nonzero(cand)
            if not len(si_loc):
                continue
            si = b0 + si_loc
            d = block[si_loc, ui]
            rs = sr[si]
            ru = ur[ui]
            counts = agg.pair_tables[t].counts_for(rs * N + ru)
            tot = tot_all[t, si]
            ratio = np.divide(
                counts, tot, out=np.zeros(len(counts)), where=tot > 0
            )
            keep = (d < avg_all[t, si]) | (
                (tot > 0) & (ratio >= order_ratio_threshold)
            )
            if not keep.any():
                continue
            attr = np.stack(
                [d[keep] / DISTANCE_SCALE_M, counts[keep] / max_pair_count],
                axis=1,
            )
            pairs = np.stack([rs[keep], ru[keep]], axis=1)
            chunks[t].append((ui[keep], si[keep], attr, pairs))

    result = {}
    for t in range(NUM_PERIODS):
        if chunks[t]:
            result[t] = tuple(
                np.concatenate([c[i] for c in chunks[t]], axis=0)
                for i in range(4)
            )
        else:
            result[t] = (
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
                np.zeros((0, 2)),
                np.zeros((0, 2), dtype=np.int64),
            )
    return result


def full_scan_pairs_within(grid, radius):
    """One ``neighbors_within`` call per region."""
    pairs = []
    for i in grid:
        for j in grid.neighbors_within(i, radius):
            pairs.append((i, j, grid.distance(i, j)))
    return pairs


def full_scan_smooth_field(values, grid, passes=2, radius_m=800.0):
    """Per-region neighbourhood means over per-region neighbour lists."""
    neighbors = [grid.neighbors_within(r, radius_m) for r in range(grid.num_regions)]
    out = np.asarray(values, dtype=np.float64).copy()
    for _ in range(passes):
        smoothed = out.copy()
        for r, neigh in enumerate(neighbors):
            if neigh:
                smoothed[r] = 0.5 * out[r] + 0.5 * out[neigh].mean(axis=0)
        out = smoothed
    return out


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.dtype == b.dtype
        and a.shape == b.shape
        and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


# ----------------------------------------------------------------------
# Store choice.
@pytest.fixture(scope="module")
def thinned_generator():
    """A generator over a thinned store list, after one generated day.

    Type 0 keeps only its first five stores (all in the top rows), so most
    of the city falls back to the three nearest; type 1 keeps none.
    """
    cfg = _wide_config()
    rng = np.random.default_rng(cfg.seed)
    land = synthesize_land_use(cfg, rng)
    stores = place_stores(cfg, land, rng)
    fleet = build_fleet(cfg, land, rng)
    type0 = [s for s in stores if s.record.store_type == 0][:5]
    kept = [
        s for s in stores
        if s.record.store_type not in (0, 1) or any(s is k for k in type0)
    ]
    gen = OrderGenerator(cfg, land, kept, fleet, rng)
    assert len(gen.generate()) > 0
    return gen


def test_window_is_narrower_than_the_city(thinned_generator):
    gen = thinned_generator
    assert 2 * gen._reach + 1 < gen.land.grid.rows


def test_every_generated_store_choice_cell_matches_full_scan(thinned_generator):
    gen = thinned_generator
    keys = list(gen._choice_cache._data)
    assert len(keys) < gen._choice_cache.maxsize  # nothing was evicted
    fallbacks = 0
    for region, store_type, t in keys:
        entry = gen._choice_cache[(region, store_type, t)]
        ref, fell_back = full_scan_store_choice(
            gen, region, store_type, TimePeriod(t)
        )
        fallbacks += fell_back
        assert all(_same(a, b) for a, b in zip(entry, ref)), (region, store_type, t)
    assert fallbacks > 0


def test_fallback_and_empty_type_cells(thinned_generator):
    gen = thinned_generator
    far_corner = gen.land.num_regions - 1  # bottom row, far from type 0
    for store_type in (0, 1, 2):
        for t in range(NUM_PERIODS):
            entry = gen._store_choice(far_corner, store_type, TimePeriod(t))
            ref, fell_back = full_scan_store_choice(
                gen, far_corner, store_type, TimePeriod(t)
            )
            assert all(_same(a, b) for a, b in zip(entry, ref))
            if store_type == 0:
                assert fell_back and len(entry[0]) == 3
            if store_type == 1:
                assert len(entry[0]) == 0


def test_unsorted_stores_rejected():
    cfg = _wide_config(rows=8, cols=8)
    rng = np.random.default_rng(cfg.seed)
    land = synthesize_land_use(cfg, rng)
    stores = place_stores(cfg, land, rng)
    fleet = build_fleet(cfg, land, rng)
    shuffled = list(stores)
    np.random.default_rng(0).shuffle(shuffled)
    with pytest.raises(ValueError, match="region order"):
        OrderGenerator(cfg, land, shuffled, fleet, rng)


# ----------------------------------------------------------------------
# S-U edges.
@pytest.fixture(scope="module")
def wide_dataset():
    return SiteRecDataset.from_simulation(simulate_uncached(_wide_config()))


def _su_inputs(dataset):
    centroids = dataset.grid.centroids()
    return (
        dataset.store_regions,
        dataset.customer_regions,
        centroids[dataset.store_regions],
        centroids[dataset.customer_regions],
    )


@pytest.mark.parametrize("capacity_aware", [True, False])
@pytest.mark.parametrize("limit", [hetero.DENSE_DISTANCE_LIMIT, 64])
def test_su_edges_match_full_scan(wide_dataset, monkeypatch, capacity_aware, limit):
    # limit=64 splits every grid-row band into sub-bands of a few stores.
    monkeypatch.setattr(hetero, "DENSE_DISTANCE_LIMIT", limit)
    agg = wide_dataset.aggregates
    sr, ur, sc, uc = _su_inputs(wide_dataset)
    far = agg.farthest_distance[sr].max() if capacity_aware else FALLBACK_SCOPE_M
    cell = wide_dataset.grid.cell_size
    assert 2 * (int(far // cell) + 1) + 1 < wide_dataset.grid.rows
    max_pair_count = max(agg.max_pair_count(), 1)
    got = _su_edges_streaming(
        agg, wide_dataset.grid, sr, ur, sc, uc, capacity_aware, 0.02,
        max_pair_count,
    )
    ref = full_scan_su_edges(
        agg, sr, ur, sc, uc, capacity_aware, 0.02, max_pair_count
    )
    assert sum(len(ref[t][0]) for t in ref) > 0
    for t in range(NUM_PERIODS):
        for a, b in zip(got[t], ref[t]):
            assert _same(a, b), t


@pytest.mark.parametrize("which", ["store_regions", "customer_regions"])
def test_su_edges_reject_unsorted_regions(wide_dataset, which):
    sr, ur, sc, uc = _su_inputs(wide_dataset)
    perm = np.random.default_rng(0).permutation(len(sr if which == "store_regions" else ur))
    if which == "store_regions":
        sr, sc = sr[perm], sc[perm]
    else:
        ur, uc = ur[perm], uc[perm]
    with pytest.raises(ValueError, match=which):
        _su_edges_streaming(
            wide_dataset.aggregates, wide_dataset.grid, sr, ur, sc, uc,
            True, 0.02, 1,
        )


# ----------------------------------------------------------------------
# Geographic pairs and land-use smoothing.
@pytest.mark.parametrize(
    "rows, cols, cell, radius",
    [(30, 30, 500.0, 800.0), (1, 1, 500.0, 800.0), (5, 23, 333.3, 1700.0)],
)
def test_pairs_within_matches_full_scan(rows, cols, cell, radius):
    grid = RegionGrid(rows, cols, cell)
    assert grid.pairs_within(radius) == full_scan_pairs_within(grid, radius)


def test_smoothed_land_use_fields_match_full_scan(monkeypatch):
    cfg = _wide_config()
    fast = synthesize_land_use(cfg, np.random.default_rng(cfg.seed))
    # The oracle takes the grid where the windowed version takes the
    # groups built from it: hand it the grid back.
    monkeypatch.setattr(landuse, "_neighbor_groups", lambda grid: grid)
    monkeypatch.setattr(landuse, "_smooth_field", full_scan_smooth_field)
    ref = synthesize_land_use(cfg, np.random.default_rng(cfg.seed))
    for name in (
        "archetype", "poi_counts", "roads", "intersections", "population",
        "commercial_intensity", "taste",
    ):
        assert _same(getattr(fast, name), getattr(ref, name)), name


@pytest.mark.parametrize("radius", [800.0, 2000.0])
@pytest.mark.parametrize("width", [None, 1, 14])
def test_smooth_field_matches_full_scan(radius, width):
    # 2 km reaches up to 48 neighbours: pairwise-summed means, not just
    # the short sequential sums of the 800 m lists.
    grid = RegionGrid(30, 30, 500.0)
    shape = (grid.num_regions,) if width is None else (grid.num_regions, width)
    values = np.random.default_rng(3).normal(size=shape)
    assert _same(
        _smooth_field(values, _neighbor_groups(grid, radius)),
        full_scan_smooth_field(values, grid, radius_m=radius),
    )
