"""Region-Type Heterogeneous Multi-graph (Definition 4).

Nodes: store-regions S, customer-regions U and store-types A.  Per period
``t`` the edges are:

* ``E_S-U(s, u, t)`` -- u is in the delivery scope of s during t.  Built
  with the paper's rule: candidates within the store region's *farthest*
  delivery distance; connect if closer than the *average* delivery
  distance, otherwise connect only when the historical order ratio clears a
  threshold.  Attribute: [distance, historical transactions].
* ``E_S-A(s, a)`` -- stores of type a exist in s (static).  Attribute:
  [competitiveness, complementarity, history order number].
* ``E_U-A(u, a, t)`` -- customers in u ordered type a in t.  Attribute:
  historical transaction count.

When a train/test split is supplied, the *history order number* channel of
S-A edges is masked for held-out pairs -- it is exactly the quantity the
model must predict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..data.dataset import SiteRecDataset
from ..data.periods import NUM_PERIODS, TimePeriod
from ..data.split import InteractionSplit
from ..runtime import env_flag

# Distance normalisation for S-U edge attributes (5 km -> 1.0).
DISTANCE_SCALE_M = 5000.0
# Scope rule used when capacity awareness is disabled (the w/o Co variant):
# a flat radius, ignoring observed delivery behaviour.
FALLBACK_SCOPE_M = 3000.0


@dataclass(frozen=True)
class HeteroSubgraph:
    """One period's S-U and U-A edges (S-A edges are period-invariant)."""

    period: TimePeriod
    # S-U edges: customer-region -> store-region.
    su_src_u: np.ndarray  # index into the U node list
    su_dst_s: np.ndarray  # index into the S node list
    su_attr: np.ndarray  # (E, 2): [distance, transactions] normalised
    su_region_pairs: np.ndarray  # (E, 2): raw (store_region, customer_region)
    # U-A edges: store-type -> customer-region.
    ua_src_a: np.ndarray  # index into the type list
    ua_dst_u: np.ndarray  # index into the U node list
    ua_attr: np.ndarray  # (E, 1): transactions normalised

    @property
    def num_su_edges(self) -> int:
        return len(self.su_dst_s)

    @property
    def num_ua_edges(self) -> int:
        return len(self.ua_dst_u)


@dataclass(frozen=True)
class RegionTypeHeteroMultiGraph:
    """The full multi-graph plus node attribute matrices."""

    store_regions: np.ndarray  # region id per S node
    customer_regions: np.ndarray  # region id per U node
    num_types: int
    store_features: np.ndarray  # (nS, F) geographic features f_s
    customer_features: np.ndarray  # (nU, F) geographic features f_u
    # S-A edges (static): store-region <-> type.
    sa_src_s: np.ndarray
    sa_dst_a: np.ndarray
    sa_attr: np.ndarray  # (E, 3)
    subgraphs: Dict[TimePeriod, HeteroSubgraph]

    @property
    def num_store_nodes(self) -> int:
        return len(self.store_regions)

    @property
    def num_customer_nodes(self) -> int:
        return len(self.customer_regions)

    def subgraph(self, period: TimePeriod) -> HeteroSubgraph:
        return self.subgraphs[period]

    def store_index_of(self, region: int) -> int:
        """S node index of a region id (raises if not a store region)."""
        matches = np.flatnonzero(self.store_regions == region)
        if len(matches) == 0:
            raise KeyError(f"region {region} is not a store region")
        return int(matches[0])


# Above this many store x customer cells the builder streams distance rows
# instead of materialising the dense matrix (~32 MB of float64 at the
# limit; a 10k-region metropolis would need tens of GB dense).
DENSE_DISTANCE_LIMIT = 4_000_000

# O2_STREAM_GRAPH=0 pins the reference per-store S-U loop even above the
# auto threshold (the streaming band build is array-identical; the switch
# exists for A/B verification and the bit-identity tests).
_STREAM_GRAPH_DEFAULT = env_flag("O2_STREAM_GRAPH", True)


def _su_edges_streaming(
    agg,
    grid,
    store_regions: np.ndarray,
    customer_regions: np.ndarray,
    sc: np.ndarray,
    uc: np.ndarray,
    capacity_aware: bool,
    order_ratio_threshold: float,
    max_pair_count: int,
) -> Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Banded S-U edge construction, array-identical to the per-store loop.

    Stores are processed one grid row at a time.  A store's candidates lie
    within its ``far`` scope, so the row's ``(band, cols)`` distance block
    only spans the customer regions in the grid rows that the row's largest
    ``far`` can reach; customers in farther rows are more than that far
    away on the row axis alone.  Both node lists are sorted by region id,
    so those customers are one contiguous column slice.  A row whose block
    would exceed :data:`DENSE_DISTANCE_LIMIT` cells is split into
    consecutive sub-bands.  The block is computed once per band and reused
    across all five periods.

    Edges are emitted in (store band, period-local ``np.nonzero`` row-major)
    order -- exactly the reference's ``si`` ascending, candidate ``ui``
    ascending order -- and concatenated at absolute offsets, so the final
    arrays match the dense build element for element.  Peak memory is the
    block plus the emitted edges, never ``nS x nU``.
    """
    nS, nU = len(store_regions), len(customer_regions)
    N = agg.num_regions
    sr = store_regions.astype(np.int64)
    ur = customer_regions.astype(np.int64)
    for name, ids in (("store_regions", sr), ("customer_regions", ur)):
        if np.any(ids[1:] <= ids[:-1]):
            raise ValueError(
                f"{name} must be strictly increasing region ids: the S-U "
                "build slices customers by grid row"
            )

    far_all = np.empty((NUM_PERIODS, nS))
    avg_all = np.empty((NUM_PERIODS, nS))
    tot_all = np.empty((NUM_PERIODS, nS))
    for t in range(NUM_PERIODS):
        tot_all[t] = agg.total_orders_s[sr, t]
        if capacity_aware:
            far = agg.farthest_distance[sr, t].copy()
            avg = agg.mean_distance[sr, t].copy()
            idle = far <= 0  # store saw no orders this period
            far[idle] = FALLBACK_SCOPE_M / 2
            avg[idle] = FALLBACK_SCOPE_M / 2
        else:
            far = np.full(nS, FALLBACK_SCOPE_M)
            avg = np.full(nS, FALLBACK_SCOPE_M)
        far_all[t] = far
        avg_all[t] = avg

    chunks: Dict[int, List[Tuple[np.ndarray, ...]]] = {
        t: [] for t in range(NUM_PERIODS)
    }
    rows, starts = np.unique(sr // grid.cols, return_index=True)
    ends = np.append(starts[1:], nS)
    for row, r0, r1 in zip(rows.tolist(), starts.tolist(), ends.tolist()):
        # Customers more than ``reach`` rows away sit at least
        # (far_max // cell + 2) cells away on the row axis: beyond far_max.
        reach = int(far_all[:, r0:r1].max() // grid.cell_size) + 1
        u0 = int(np.searchsorted(ur, max(row - reach, 0) * grid.cols))
        u1 = int(np.searchsorted(ur, min(row + reach + 1, grid.rows) * grid.cols))
        band = max(1, DENSE_DISTANCE_LIMIT // max(u1 - u0, 1))
        for b0 in range(r0, r1, band):
            b1 = min(b0 + band, r1)
            # The dense build's sqrt(((sc - uc) ** 2).sum(axis=2)), with the
            # two-term sum written out: the block is a sub-block of that
            # matrix, bit for bit.
            dx = sc[b0:b1, None, 0] - uc[None, u0:u1, 0]
            dy = sc[b0:b1, None, 1] - uc[None, u0:u1, 1]
            block = np.sqrt(dx**2 + dy**2)
            for t in range(NUM_PERIODS):
                cand = block <= far_all[t, b0:b1, None]
                si_loc, ui_loc = np.nonzero(cand)
                if not len(si_loc):
                    continue
                si = b0 + si_loc
                ui = u0 + ui_loc
                d = block[si_loc, ui_loc]
                rs = sr[si]
                ru = ur[ui]
                counts = agg.pair_tables[t].counts_for(rs * N + ru)
                tot = tot_all[t, si]
                ratio = np.divide(
                    counts, tot, out=np.zeros(len(counts)), where=tot > 0
                )
                # Reference rule: keep when d < avg, else require a
                # meaningful order ratio (filters exception orders).
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
            result[t] = (
                np.concatenate([c[0] for c in chunks[t]]),
                np.concatenate([c[1] for c in chunks[t]]),
                np.concatenate([c[2] for c in chunks[t]], axis=0),
                np.concatenate([c[3] for c in chunks[t]], axis=0),
            )
        else:
            result[t] = (
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
                np.zeros((0, 2)),
                np.zeros((0, 2), dtype=np.int64),
            )
    return result


def build_hetero_multigraph(
    dataset: SiteRecDataset,
    split: Optional[InteractionSplit] = None,
    capacity_aware: bool = True,
    order_ratio_threshold: float = 0.02,
    windowed_distances: Optional[bool] = None,
    streaming: Optional[bool] = None,
) -> RegionTypeHeteroMultiGraph:
    """Construct the multi-graph from a dataset.

    ``capacity_aware=False`` reproduces the *w/o Co* ablation's graph: S-U
    edges use a flat radius instead of the observed (pressure-controlled)
    delivery scopes.

    ``streaming`` selects the S-U edge builder: the per-store reference
    loop, or the banded streaming build (:func:`_su_edges_streaming`) that
    vectorises the scope/ratio rule over one grid row of stores at a time,
    against only the customer rows within reach, and emits edge chunks at
    absolute offsets -- array-identical output, peak memory bounded by one
    block.  The default ``None`` engages streaming
    above :data:`DENSE_DISTANCE_LIMIT` cells (unless ``O2_STREAM_GRAPH=0``).

    ``windowed_distances`` selects the distance evaluation for the
    *reference* loop: dense (one ``(nS, nU)`` matrix) or windowed (one
    streamed row per store).  Both compute each row with the same
    elementwise expressions, so all three paths produce identical graphs
    (``tests/test_partition.py``, ``tests/test_stream_graph.py``).
    """
    agg = dataset.aggregates
    store_regions = dataset.store_regions
    customer_regions = dataset.customer_regions

    # Pairwise distances store-region x customer-region.
    centroids = dataset.grid.centroids()
    sc = centroids[store_regions]
    uc = centroids[customer_regions]
    cells = len(store_regions) * len(customer_regions)
    if streaming is None:
        streaming = _STREAM_GRAPH_DEFAULT and cells > DENSE_DISTANCE_LIMIT
    if windowed_distances is None:
        windowed_distances = cells > DENSE_DISTANCE_LIMIT

    max_pair_count = max(agg.max_pair_count(), 1)

    if streaming:
        su_arrays = _su_edges_streaming(
            agg,
            dataset.grid,
            store_regions,
            customer_regions,
            sc,
            uc,
            capacity_aware,
            order_ratio_threshold,
            max_pair_count,
        )
    else:
        su_arrays = _su_edges_reference(
            agg,
            store_regions,
            customer_regions,
            sc,
            uc,
            capacity_aware,
            order_ratio_threshold,
            max_pair_count,
            windowed_distances,
        )

    subgraphs = {}
    for period in TimePeriod:
        t = int(period)
        su_src, su_dst, su_attr, su_pairs = su_arrays[t]

        # U-A edges, vectorised: np.nonzero row-major order IS the
        # reference's (ui ascending, type ascending) nested loop order, and
        # the attribute division is the same float64 op elementwise.
        counts_ut = agg.counts_uat[:, :, t]
        ua_max = max(counts_ut.max(), 1.0)
        sel = counts_ut[customer_regions.astype(np.int64)]
        ua_dst, ua_src = np.nonzero(sel > 0)
        ua_attr = (sel[ua_dst, ua_src] / ua_max).reshape(-1, 1)

        subgraphs[period] = HeteroSubgraph(
            period=period,
            su_src_u=np.asarray(su_src, dtype=np.int64),
            su_dst_s=np.asarray(su_dst, dtype=np.int64),
            su_attr=np.asarray(su_attr, dtype=np.float64).reshape(-1, 2),
            su_region_pairs=np.asarray(su_pairs, dtype=np.int64).reshape(
                -1, 2
            ),
            ua_src_a=ua_src.astype(np.int64),
            ua_dst_u=ua_dst.astype(np.int64),
            ua_attr=np.asarray(ua_attr, dtype=np.float64).reshape(-1, 1),
        )

    # Static S-A edges from the store registry, vectorised the same way.
    masked = _masked_counts(dataset, split)
    sr = store_regions.astype(np.int64)
    sa_sel = dataset.store_counts[sr] > 0
    sa_src, sa_dst = np.nonzero(sa_sel)
    rs_sa = sr[sa_src]
    sa_attr = np.stack(
        [
            dataset.commercial[rs_sa, sa_dst, 0],
            dataset.commercial[rs_sa, sa_dst, 1],
            masked[rs_sa, sa_dst],
        ],
        axis=1,
    )

    return RegionTypeHeteroMultiGraph(
        store_regions=store_regions.astype(np.int64),
        customer_regions=customer_regions.astype(np.int64),
        num_types=dataset.num_types,
        store_features=dataset.region_features[store_regions],
        customer_features=dataset.region_features[customer_regions],
        sa_src_s=sa_src.astype(np.int64),
        sa_dst_a=sa_dst.astype(np.int64),
        sa_attr=sa_attr.astype(np.float64).reshape(-1, 3),
        subgraphs=subgraphs,
    )


def _su_edges_reference(
    agg,
    store_regions: np.ndarray,
    customer_regions: np.ndarray,
    sc: np.ndarray,
    uc: np.ndarray,
    capacity_aware: bool,
    order_ratio_threshold: float,
    max_pair_count: int,
    windowed_distances: bool,
) -> Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The per-store reference S-U loop (pre-streaming code, kept verbatim)."""
    if windowed_distances:
        def dist_row(si: int) -> np.ndarray:
            diff = sc[si] - uc
            return np.sqrt((diff**2).sum(axis=1))

    else:
        dense_dist = np.sqrt(
            ((sc[:, None, :] - uc[None, :, :]) ** 2).sum(axis=2)
        )

        def dist_row(si: int) -> np.ndarray:
            return dense_dist[si]

    result = {}
    for t in range(NUM_PERIODS):
        su_src, su_dst, su_attr, su_pairs = [], [], [], []
        stats_t = agg.pair_stats[t]
        for si, rs in enumerate(store_regions):
            rs = int(rs)
            total = agg.total_orders_s[rs, t]
            if capacity_aware:
                far = agg.farthest_distance[rs, t]
                avg = agg.mean_distance[rs, t]
                if far <= 0:  # store saw no orders this period
                    far = avg = FALLBACK_SCOPE_M / 2
            else:
                far = FALLBACK_SCOPE_M
                avg = FALLBACK_SCOPE_M
            row = dist_row(si)
            candidates = np.flatnonzero(row <= far)
            for ui in candidates:
                ru = int(customer_regions[ui])
                d = row[ui]
                stats = stats_t.get((rs, ru))
                count = stats.count if stats else 0
                if d >= avg:
                    # Beyond the average scope: require a meaningful order
                    # ratio (filters exception orders).
                    if total <= 0 or count / total < order_ratio_threshold:
                        continue
                su_src.append(ui)
                su_dst.append(si)
                su_attr.append(
                    (d / DISTANCE_SCALE_M, count / max_pair_count)
                )
                su_pairs.append((rs, ru))
        result[t] = (
            np.array(su_src, dtype=np.int64),
            np.array(su_dst, dtype=np.int64),
            np.array(su_attr, dtype=np.float64).reshape(-1, 2),
            np.array(su_pairs, dtype=np.int64).reshape(-1, 2),
        )
    return result


def _masked_counts(
    dataset: SiteRecDataset, split: Optional[InteractionSplit]
) -> np.ndarray:
    """Normalised order counts with held-out (s, a) pairs zeroed.

    The history-order-number channel of S-A edge attributes would otherwise
    hand the model its own prediction target for test pairs.
    """
    masked = dataset.targets.copy()
    if split is not None:
        masked[split.test_pairs[:, 0], split.test_pairs[:, 1]] = 0.0
    return masked
