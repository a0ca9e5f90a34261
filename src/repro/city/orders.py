"""Order generation: the demand side of the synthetic O2O platform.

For every (day, period, customer-region) we draw a Poisson number of orders,
assign each a store type (period popularity x archetype affinity x sticky
regional taste -- Section II-C: preferences differ by period and by
neighbourhood), and pick a store among those whose pressure-controlled
delivery scope covers the customer, weighted by store quality, distance
decay and estimated delivery time (Section II-B3: long delivery times deter
customers).  The result is a list of Table-I order records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data.cache import LRUCache
from ..data.ordertable import OrderTable, StoreRegistry
from ..data.periods import NUM_PERIODS, TimePeriod
from ..data.records import MINUTES_PER_DAY, OrderRecord
from .config import CityConfig
from .couriers import CourierFleet
from .fastsim import fast_sim_enabled, order_table_enabled
from .landuse import CityLandUse
from .stores import PlacedStore

# Hard cap on cached (region, type, period) store-choice tables.  The
# per-generator bound is the city's own key count when that is smaller, so
# normal cities cache every cell while huge sweeps stay bounded (~2 KB/entry).
CHOICE_CACHE_SIZE = 65536


@dataclass
class _StoreIndex:
    """Per-type store lookup tables for vectorised choice."""

    indices: np.ndarray  # global store index per type member
    positions: np.ndarray  # (k, 2) metres
    regions: np.ndarray  # (k,) non-decreasing
    qualities: np.ndarray  # (k,)
    scopes: np.ndarray  # (k, P) delivery scope of each member's region
    congestion: np.ndarray  # (k, P) congestion of each member's region
    # (N + 1,): members of region r are table positions
    # region_starts[r]:region_starts[r + 1].
    region_starts: np.ndarray


def _index_stores(
    stores: List[PlacedStore],
    num_types: int,
    scopes: np.ndarray,
    congestion: np.ndarray,
) -> List[_StoreIndex]:
    """Per-type tables; ``scopes`` is per region, ``congestion`` per store."""
    by_type: List[List[int]] = [[] for _ in range(num_types)]
    for i, s in enumerate(stores):
        by_type[s.record.store_type].append(i)
    result = []
    for store_type, members in enumerate(by_type):
        members_arr = np.array(members, dtype=np.int64)
        regions = np.array(
            [stores[i].record.region for i in members], dtype=np.int64
        )
        if np.any(regions[1:] < regions[:-1]):
            raise ValueError(
                f"stores of type {store_type} are not listed in region order; "
                "store choice slices each type's table by region "
                "(place_stores emits stores region by region)"
            )
        result.append(
            _StoreIndex(
                indices=members_arr,
                positions=np.array([[stores[i].x, stores[i].y] for i in members])
                if members
                else np.zeros((0, 2)),
                regions=regions,
                qualities=np.array([stores[i].quality for i in members]),
                scopes=scopes[regions],
                congestion=congestion[members_arr],
                region_starts=np.searchsorted(
                    regions, np.arange(len(scopes) + 1)
                ),
            )
        )
    return result


def compute_order_columns(
    cfg: CityConfig,
    prep_per_order: np.ndarray,
    congestion_per_order: np.ndarray,
    uni: np.ndarray,
    exp_d: np.ndarray,
    prep_ln: np.ndarray,
    deliv_ln: np.ndarray,
    noise_z: Optional[np.ndarray],
    base: np.ndarray,
    duration: np.ndarray,
    col: np.ndarray,
    row: np.ndarray,
    store_x: np.ndarray,
    store_y: np.ndarray,
) -> Dict[str, np.ndarray]:
    """Columnar twin of the per-order arithmetic in ``_make_order``.

    Shared by the shared-stream fast path (:meth:`OrderGenerator
    ._assemble_fast`) and the tile-parallel generator
    (:mod:`repro.city.tilesim`); every expression mirrors the scalar
    operation order of the reference exactly so floats match bit-for-bit.
    """
    # cx = (col + u) * cell; cy = (row + u) * cell
    cx = (col + uni[:, 0]) * cfg.cell_size
    cy = (row + uni[:, 1]) * cfg.cell_size
    distance = np.hypot(store_x - cx, store_y - cy)
    # created = day*1440 + start*60 + u*(end-start)*60
    created = base + (uni[:, 2] * duration) * 60
    accepted = created + 0.3 + exp_d
    # prep = max(2.0, prep_minutes[type] * lognormal)
    prep = np.maximum(2.0, prep_per_order * prep_ln)
    pickup = accepted + prep
    # CourierFleet.delivery_minutes, columnar:
    travel = distance / cfg.courier_speed_m_per_min
    minutes = cfg.handling_minutes + travel * congestion_per_order
    minutes = minutes * deliv_ln
    if noise_z is not None:
        # rng.normal(0.0, s) == s * standard_normal(), bit-for-bit.
        minutes = minutes + (cfg.observation_noise * minutes) * noise_z
    delivery = np.maximum(minutes, 2.0)
    delivered = pickup + delivery
    return {
        "cx": cx,
        "cy": cy,
        "distance": distance,
        "created": created,
        "accepted": accepted,
        "pickup": pickup,
        "delivered": delivered,
    }


class OrderGenerator:
    """Generates a month of orders for a synthetic city."""

    def __init__(
        self,
        config: CityConfig,
        land: CityLandUse,
        stores: List[PlacedStore],
        fleet: CourierFleet,
        rng: np.random.Generator,
    ) -> None:
        self.config = config
        self.land = land
        self.stores = stores
        self.fleet = fleet
        self.rng = rng
        self._centroids = land.grid.centroids()
        # Sticky regional taste: shared with store placement (see landuse).
        self._taste = land.taste
        self._popularity = np.array(
            [t.period_popularity for t in config.store_types]
        )  # (T, P)
        self._affinity = np.array(
            [t.archetype_affinity for t in config.store_types]
        )  # (T, 4)
        self._prep = np.array([t.prep_minutes for t in config.store_types])
        # Congestion multiplier per (store, period), from the store's region.
        self._store_regions = np.array(
            [s.record.region for s in stores], dtype=np.int64
        )
        self._congestion = fleet.congestion_matrix()[self._store_regions]
        self._scopes = fleet.scope_matrix()  # (N, P)
        self._store_index = _index_stores(
            stores, config.num_store_types, self._scopes, self._congestion
        )
        # Store-choice window: a store more than this many grid rows away
        # from a customer region lies >= (reach + 0.5) cells from its
        # centroid on the row axis alone, farther than the largest scope,
        # so it can never be a candidate there.
        self._reach = int(self._scopes.max() // config.cell_size) + 1
        self._choice_cache: LRUCache = LRUCache(
            maxsize=min(
                land.num_regions * config.num_store_types * NUM_PERIODS,
                CHOICE_CACHE_SIZE,
            )
        )

    # ------------------------------------------------------------------
    def _type_probabilities(self, region: int, period: TimePeriod) -> np.ndarray:
        arch = int(self.land.archetype[region])
        weights = (
            self._popularity[:, int(period)]
            * self._affinity[:, arch]
            * self._taste[region]
        )
        total = weights.sum()
        if total <= 0:  # pragma: no cover - defensive
            return np.full(len(weights), 1.0 / len(weights))
        return weights / total

    def _store_choice(
        self, region: int, store_type: int, period: TimePeriod
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Candidate store lookup for one (region, type, period) cell.

        Returns ``(candidates, probs, cdf, global_indices)``: positions in
        the per-type table, their choice probabilities, the normalised
        cumulative distribution (the fast path inlines ``rng.choice`` as an
        inverse-CDF lookup), and the matching global store indices.  Cached
        per (region, type, period) -- scopes and congestion are static
        within a simulated month -- in a bounded LRU.
        """
        key = (region, store_type, int(period))
        cached = self._choice_cache.get(key)
        if cached is not None:
            return cached

        table = self._store_index[store_type]
        if len(table.indices) == 0:
            empty = (
                np.array([], dtype=np.int64),
                np.array([]),
                np.array([]),
                np.array([], dtype=np.int64),
            )
            self._choice_cache[key] = empty
            return empty

        cfg = self.config
        centroid = self._centroids[region]
        lo, hi = self._window(table, region)
        # (x - cx)**2 + (y - cy)**2: the two-term sum that ``.sum(axis=1)``
        # of the squared offsets computes, without a per-row reduction.
        win = table.positions[lo:hi]
        dists = np.sqrt(
            (win[:, 0] - centroid[0]) ** 2 + (win[:, 1] - centroid[1]) ** 2
        )
        t = int(period)
        local = (dists <= table.scopes[lo:hi, t]).nonzero()[0]
        if len(local):
            candidates = lo + local
            d = dists[local]
        else:
            # Fall back to the three nearest stores (platform always shows
            # *something*, albeit with long delivery times) -- nearest over
            # the whole table, which can reach past the window.
            dists = np.sqrt(((table.positions - centroid) ** 2).sum(axis=1))
            within = np.zeros(len(dists), dtype=bool)
            within[np.argsort(dists)[:3]] = True
            candidates = np.flatnonzero(within)
            d = dists[candidates]
        est_time = (
            cfg.handling_minutes
            + d
            / cfg.courier_speed_m_per_min
            * table.congestion[candidates, t]
        )
        weights = (
            table.qualities[candidates]
            * np.exp(-d / cfg.distance_decay_m)
            * np.exp(-est_time / cfg.time_tolerance_min)
        )
        total = weights.sum()
        probs = weights / total if total > 0 else np.full(len(weights), 1.0 / len(weights))
        # Inverse-CDF table, normalised exactly the way ``rng.choice`` does
        # internally so the fast path's searchsorted draws match bit-for-bit.
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        entry = (candidates, probs, cdf, table.indices[candidates])
        self._choice_cache[key] = entry
        return entry

    def _window(self, table: _StoreIndex, region: int) -> Tuple[int, int]:
        """Table slice ``lo:hi`` of the stores within ``_reach`` grid rows.

        The table is sorted by region and regions are numbered row-major,
        so those rows are one contiguous, ascending run of positions: a
        candidate set drawn from it lists stores in full-table order.
        """
        grid = self.land.grid
        row = region // grid.cols
        lo = table.region_starts[max(row - self._reach, 0) * grid.cols]
        hi = table.region_starts[min(row + self._reach + 1, grid.rows) * grid.cols]
        return int(lo), int(hi)

    # ------------------------------------------------------------------
    def generate(self) -> Sequence[OrderRecord]:
        """Simulate ``config.num_days`` days of orders.

        With :func:`repro.city.fastsim.fast_sim_enabled` the columnar fast
        path runs instead of the reference loop; the two produce identical
        record streams (``tests/test_fast_sim.py``).  With
        ``config.order_streams == "tiles"`` the deterministic-streams
        tile-parallel generator runs instead (its own RNG discipline, see
        :mod:`repro.city.tilesim`).
        """
        if getattr(self.config, "order_streams", "shared") == "tiles":
            from .tilesim import generate_tiled

            return generate_tiled(self)
        if fast_sim_enabled():
            return self._generate_fast()
        cfg = self.config
        rng = self.rng
        orders: List[OrderRecord] = []
        order_counter = 0
        num_regions = self.land.num_regions

        for day in range(cfg.num_days):
            weekend = day % 7 in (5, 6)
            day_factor = (1.15 if weekend else 1.0) * rng.lognormal(
                0.0, cfg.demand_noise
            )
            for period in TimePeriod:
                t = int(period)
                start_hour, end_hour = period.hours
                lam = (
                    self.fleet.demand_rate[:, t]
                    * period.duration_hours
                    * day_factor
                )
                counts = rng.poisson(lam)
                for region in np.flatnonzero(counts):
                    n = int(counts[region])
                    type_probs = self._type_probabilities(region, period)
                    type_counts = rng.multinomial(n, type_probs)
                    for store_type in np.flatnonzero(type_counts):
                        k = int(type_counts[store_type])
                        candidates, probs = self._store_choice(
                            region, int(store_type), period
                        )[:2]
                        if len(candidates) == 0:
                            continue  # type has no store anywhere
                        picks = rng.choice(candidates, size=k, p=probs)
                        for pick in picks:
                            orders.append(
                                self._make_order(
                                    order_counter,
                                    day,
                                    period,
                                    region,
                                    int(store_type),
                                    int(pick),
                                )
                            )
                            order_counter += 1
        return orders

    # -- columnar fast path --------------------------------------------
    def _courier_pools(self) -> Tuple[List[List[str]], List[int]]:
        """Per-region courier-id pools with the empty-pool fallback applied.

        ``CourierFleet.sample_courier`` flattens the whole fleet whenever a
        region has no home couriers; precomputing the flattened pool once
        keeps the fast path's ``rng.integers(len(pool))`` draws identical.
        """
        pools = self.fleet.couriers_by_region
        flat = [c for regional in pools for c in regional]
        effective = [p if p else flat for p in pools]
        return effective, [len(p) for p in effective]

    def _courier_numbering(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(offsets, has_pool, flat_ids)`` for integer courier lookup.

        ``flat_ids`` is the whole fleet in region-concatenation order --
        the same flattening ``_courier_pools`` uses for the empty-pool
        fallback -- so an in-pool draw ``ci`` for store region ``sr`` maps
        to global courier number ``offsets[sr] + ci`` and a fallback draw
        maps to ``ci`` directly.
        """
        cached = getattr(self, "_courier_numbers", None)
        if cached is None:
            pools = self.fleet.couriers_by_region
            sizes = np.array([len(p) for p in pools], dtype=np.int64)
            offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
            flat_ids = np.array(
                [c for regional in pools for c in regional]
            )
            cached = (offsets, sizes > 0, flat_ids)
            self._courier_numbers = cached
        return cached

    def _courier_numbers_for(
        self, store_regions: np.ndarray, draws: np.ndarray
    ) -> np.ndarray:
        """Global courier numbers for per-order pool draws ``draws``."""
        offsets, has_pool, _ = self._courier_numbering()
        nums = np.empty(len(draws), dtype=np.int64)
        mask = has_pool[store_regions]
        nums[mask] = offsets[store_regions[mask]] + draws[mask]
        nums[~mask] = draws[~mask]
        return nums

    def store_registry(self) -> StoreRegistry:
        """Shared id tables for :class:`~repro.data.ordertable.OrderTable`."""
        cached = getattr(self, "_registry", None)
        if cached is None:
            stores = self.stores
            cached = StoreRegistry(
                store_ids=np.array([s.record.store_id for s in stores]),
                store_lon=np.array([s.record.lon for s in stores]),
                store_lat=np.array([s.record.lat for s in stores]),
                courier_ids=self._courier_numbering()[2],
            )
            self._registry = cached
        return cached

    def _generate_fast(self) -> Sequence[OrderRecord]:
        """Columnar twin of the reference loop above.

        RNG calls happen in exactly the reference order: the per-day and
        per-period group draws are unchanged, ``rng.choice`` becomes the
        equivalent ``rng.random(k)`` + inverse-CDF lookup, and the per-order
        draws run in a tight buffer-filling loop (three uniforms as one
        ``rng.random(3)``, the delivery-noise ``normal`` as a
        ``standard_normal`` scaled later).  All derived arithmetic is
        deferred to :meth:`_assemble_fast`.
        """
        cfg = self.config
        rng = self.rng
        cols = self.land.grid.cols
        noisy = cfg.observation_noise > 0

        rand = rng.random
        rexp = rng.exponential
        rlog = rng.lognormal
        rint = rng.integers
        rstd = rng.standard_normal

        _, pool_sizes = self._courier_pools()
        store_regions = self._store_regions
        choice_get = self._choice_cache.get
        type_prob_cache: Dict[Tuple[int, int], np.ndarray] = {}

        # Per-order draw buffers (plain lists: append beats array stores at
        # the typical group size of 1-2 picks) and per-group metadata.
        u0, u1, u2 = [], [], []
        exp_d, prep_ln, deliv_ln, noise_z = [], [], [], []
        cust, cour = [], []
        picked_groups = []  # (k,) global store indices per group
        g_meta = []  # (base_minute, duration, t, col, row, region, type, k)

        for day in range(cfg.num_days):
            weekend = day % 7 in (5, 6)
            day_factor = (1.15 if weekend else 1.0) * rng.lognormal(
                0.0, cfg.demand_noise
            )
            for period in TimePeriod:
                t = int(period)
                start_hour, end_hour = period.hours
                lam = (
                    self.fleet.demand_rate[:, t]
                    * period.duration_hours
                    * day_factor
                )
                counts = rng.poisson(lam)
                base = day * MINUTES_PER_DAY + start_hour * 60
                duration = end_hour - start_hour

                for region in np.flatnonzero(counts).tolist():
                    n = int(counts[region])
                    type_probs = type_prob_cache.get((region, t))
                    if type_probs is None:
                        type_probs = self._type_probabilities(region, period)
                        type_prob_cache[(region, t)] = type_probs
                    type_counts = rng.multinomial(n, type_probs)
                    row, col = divmod(region, cols)
                    for store_type in np.flatnonzero(type_counts).tolist():
                        k = int(type_counts[store_type])
                        entry = choice_get((region, store_type, t))
                        if entry is None:
                            entry = self._store_choice(
                                region, store_type, period
                            )
                        candidates, _, cdf, global_idx = entry
                        if len(candidates) == 0:
                            continue  # type has no store anywhere
                        # rng.choice(candidates, size=k, p=probs), inlined.
                        picked = global_idx[
                            cdf.searchsorted(rand(k), side="right")
                        ]
                        picked_groups.append(picked)
                        g_meta.append(
                            (base, duration, t, col, row, region, store_type, k)
                        )
                        if noisy:
                            for sr in store_regions[picked].tolist():
                                u0.append(rand())
                                u1.append(rand())
                                u2.append(rand())
                                exp_d.append(rexp(1.2))
                                prep_ln.append(rlog(0.0, 0.2))
                                deliv_ln.append(rlog(0.0, 0.12))
                                noise_z.append(rstd())
                                cust.append(rint(10_000))
                                cour.append(rint(pool_sizes[sr]))
                        else:
                            for sr in store_regions[picked].tolist():
                                u0.append(rand())
                                u1.append(rand())
                                u2.append(rand())
                                exp_d.append(rexp(1.2))
                                prep_ln.append(rlog(0.0, 0.2))
                                deliv_ln.append(rlog(0.0, 0.12))
                                cust.append(rint(10_000))
                                cour.append(rint(pool_sizes[sr]))

        if not picked_groups:
            return []
        draws = {
            "u0": np.array(u0),
            "u1": np.array(u1),
            "u2": np.array(u2),
            "exp": np.array(exp_d),
            "prep_ln": np.array(prep_ln),
            "deliv_ln": np.array(deliv_ln),
            "noise_z": np.array(noise_z) if noisy else None,
            "cust": np.array(cust, dtype=np.int64),
            "cour": np.array(cour, dtype=np.int64),
        }
        return self._assemble_fast(picked_groups, g_meta, draws, noisy)

    def _assemble_fast(
        self, picked_groups, g_meta, draws, noisy: bool
    ) -> Sequence[OrderRecord]:
        """Turn draw buffers into orders with columnar arithmetic.

        Each expression mirrors the scalar operation order of
        :meth:`_make_order` exactly (same grouping, same operand order) so
        every float matches the reference bit-for-bit.  The result is a
        lazy :class:`~repro.data.ordertable.OrderRecordSeq` view over an
        :class:`~repro.data.ordertable.OrderTable` unless
        ``O2_ORDER_TABLE=0`` pins the materialised record list.
        """
        cfg = self.config
        grid = self.land.grid

        gidx = np.concatenate(picked_groups)
        meta = np.array(g_meta, dtype=np.int64)  # (G, 8)
        ks = meta[:, 7]
        base = np.repeat(meta[:, 0], ks)
        duration = np.repeat(meta[:, 1], ks)
        t_arr = np.repeat(meta[:, 2], ks)
        col = np.repeat(meta[:, 3], ks)
        row = np.repeat(meta[:, 4], ks)
        creg = np.repeat(meta[:, 5], ks)
        stype = np.repeat(meta[:, 6], ks)
        uni = np.stack([draws["u0"], draws["u1"], draws["u2"]], axis=1)
        exp_d = draws["exp"]
        prep_ln = draws["prep_ln"]
        deliv_ln = draws["deliv_ln"]
        cust = draws["cust"]
        cour = draws["cour"]

        stores = self.stores
        store_x = np.array([s.x for s in stores])
        store_y = np.array([s.y for s in stores])

        cols = compute_order_columns(
            cfg,
            self._prep[stype],
            self._congestion[gidx, t_arr],
            uni,
            exp_d,
            prep_ln,
            deliv_ln,
            draws["noise_z"] if noisy else None,
            base,
            duration,
            col,
            row,
            store_x[gidx],
            store_y[gidx],
        )
        cx, cy = cols["cx"], cols["cy"]
        distance = cols["distance"]
        created, accepted = cols["created"], cols["accepted"]
        pickup, delivered = cols["pickup"], cols["delivered"]
        clon, clat = grid.to_lonlat(cx, cy)
        sregs = self._store_regions[gidx]

        if order_table_enabled():
            table = OrderTable(
                {
                    "store_index": gidx,
                    "store_region": sregs,
                    "customer_region": creg,
                    "store_type": stype,
                    "cust_tag": creg,
                    "cust_serial": cust,
                    "courier_num": self._courier_numbers_for(sregs, cour),
                    "customer_lon": clon,
                    "customer_lat": clat,
                    "created_minute": created,
                    "accepted_minute": accepted,
                    "pickup_minute": pickup,
                    "delivered_minute": delivered,
                    "distance_m": distance,
                },
                self.store_registry(),
            )
            return table.records_view()

        store_lon = np.array([s.record.lon for s in stores])
        store_lat = np.array([s.record.lat for s in stores])
        store_ids = [s.record.store_id for s in stores]
        pools, _ = self._courier_pools()
        records = [
            OrderRecord(
                f"O{i:07d}",
                store_ids[g],
                f"U{r:04d}_{u:04d}",
                pools[sr][ci],
                slon,
                slat,
                lon,
                lat,
                sr,
                r,
                cr,
                ac,
                pu,
                de,
                dist,
                st,
            )
            for i, (
                g,
                r,
                u,
                sr,
                ci,
                slon,
                slat,
                lon,
                lat,
                cr,
                ac,
                pu,
                de,
                dist,
                st,
            ) in enumerate(
                zip(
                    gidx.tolist(),
                    creg.tolist(),
                    cust.tolist(),
                    sregs.tolist(),
                    cour.tolist(),
                    store_lon[gidx].tolist(),
                    store_lat[gidx].tolist(),
                    clon.tolist(),
                    clat.tolist(),
                    created.tolist(),
                    accepted.tolist(),
                    pickup.tolist(),
                    delivered.tolist(),
                    distance.tolist(),
                    stype.tolist(),
                )
            )
        ]
        return records

    def _make_order(
        self,
        counter: int,
        day: int,
        period: TimePeriod,
        customer_region: int,
        store_type: int,
        pick: int,
    ) -> OrderRecord:
        cfg = self.config
        rng = self.rng
        table = self._store_index[store_type]
        store = self.stores[int(table.indices[pick])]

        row, col = self.land.grid.row_col(customer_region)
        cx = (col + rng.random()) * cfg.cell_size
        cy = (row + rng.random()) * cfg.cell_size
        distance = float(np.hypot(store.x - cx, store.y - cy))

        start_hour, end_hour = period.hours
        created = (
            day * MINUTES_PER_DAY
            + start_hour * 60
            + rng.random() * (end_hour - start_hour) * 60
        )
        accepted = created + 0.3 + rng.exponential(1.2)
        prep = max(2.0, self._prep[store_type] * rng.lognormal(0.0, 0.2))
        pickup = accepted + prep
        delivery = self.fleet.delivery_minutes(
            store.record.region, distance, period, rng
        )
        delivered = pickup + delivery

        clon, clat = self.land.grid.to_lonlat(cx, cy)
        return OrderRecord(
            order_id=f"O{counter:07d}",
            store_id=store.record.store_id,
            customer_id=f"U{customer_region:04d}_{int(rng.integers(10_000)):04d}",
            courier_id=self.fleet.sample_courier(store.record.region, rng),
            store_lon=store.record.lon,
            store_lat=store.record.lat,
            customer_lon=clon,
            customer_lat=clat,
            store_region=store.record.region,
            customer_region=customer_region,
            created_minute=float(created),
            accepted_minute=float(accepted),
            pickup_minute=float(pickup),
            delivered_minute=float(delivered),
            distance_m=distance,
            store_type=store_type,
        )
