"""The grid-tile band gate for metropolis-scale propagation.

At paper scale (a 14x14 region grid) one process propagates all periods in
well under a second; at metropolis scale (10k+ regions, millions of S-U
edges) the edge-sized attention kernels stream hundreds of MB of
temporaries through DRAM per op.  Above the gate, the period-batched
forward (:meth:`repro.core.recommender.HeteroRecommender._propagate_batched`)
runs its node-level layers as a sweep over row bands of the region grid
(:func:`repro.core.shard_train.apply_layers_banded`): band-local edge
intermediates stay cache-resident, and the result is **bit-identical** to
the dense layer loop.  Training and evaluation share that one banded
forward; training records a banded backward on top, evaluation detaches
after every layer and records nothing.

This module holds only the gate.  :func:`shard_tiles_for` decides, for one
propagation, how many row bands to use (0 = the dense layer loop).
``O2_SHARD_TILES`` / :func:`set_shard_tiles` force the count (``0``
disables -- the single off switch), and past ``O2_SHARD_MIN_REGIONS``
regions (default 4096) the gate engages automatically.  Every decision
records why, per model mode, in :func:`shard_gate_reason` (eval) or
:func:`shard_train_gate_reason` (training), so "running dense" is always
explained by the memprof report and the serving stats.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from ..parallel import in_process_worker
from ..runtime import env_int, env_str
from ..tensor import fast_kernels_enabled

__all__ = [
    "DEFAULT_SHARD_TILES",
    "resolve_shard_tiles",
    "set_shard_tiles",
    "shard_gate_reason",
    "shard_tiles_for",
    "shard_train_gate_reason",
    "use_shard_tiles",
]

DEFAULT_SHARD_TILES = 8
_AUTO_MIN_REGIONS = 4096

_tile_override: Optional[int] = None

# Why the last eval-mode / training-mode shard_tiles_for call said no (or
# yes): one short string each.
_gate_reason = "not evaluated yet"
_train_gate_reason = "not evaluated yet"


def shard_gate_reason() -> str:
    """Why the last eval-mode :func:`shard_tiles_for` call engaged (or not)."""
    return _gate_reason


def shard_train_gate_reason() -> str:
    """Why the last training-mode :func:`shard_tiles_for` call engaged (or not)."""
    return _train_gate_reason


def set_shard_tiles(tiles: Optional[int]) -> Optional[int]:
    """Force the shard tile count (``<=1`` disables, ``None`` = env/auto).

    Returns the previous override.  Mirrors ``O2_SHARD_TILES``, with the
    override taking precedence.
    """
    global _tile_override
    previous = _tile_override
    _tile_override = None if tiles is None else int(tiles)
    return previous


@contextmanager
def use_shard_tiles(tiles: Optional[int]) -> Iterator[None]:
    """Scoped :func:`set_shard_tiles` (no-op when ``tiles`` is ``None``)."""
    if tiles is None:
        yield
        return
    previous = set_shard_tiles(tiles)
    try:
        yield
    finally:
        set_shard_tiles(previous)


def resolve_shard_tiles(num_regions: int) -> int:
    """Requested tile count for a ``num_regions`` grid (0 = sharding off).

    Priority: :func:`set_shard_tiles` override, then ``O2_SHARD_TILES``
    (an explicit ``0``/``off`` disables, unset defers), then the automatic
    threshold -- :data:`DEFAULT_SHARD_TILES` tiles once the grid reaches
    ``O2_SHARD_MIN_REGIONS`` regions.
    """
    if _tile_override is not None:
        tiles = _tile_override
    else:
        raw = env_str("O2_SHARD_TILES", "")
        if raw in ("0", "off"):
            return 0
        tiles = int(raw) if raw else 0
        if tiles <= 0:
            threshold = env_int("O2_SHARD_MIN_REGIONS", _AUTO_MIN_REGIONS)
            if num_regions >= threshold:
                tiles = DEFAULT_SHARD_TILES
    return tiles if tiles > 1 else 0


def _gate(recommender, capacity_su):
    """``(tiles, reason)`` for one propagation; ``tiles == 0`` means dense."""
    from ..nn.attention import MultiHeadSegmentAttention
    from .recommender import CapacityEdgeFactors, batch_periods_enabled

    if recommender is None:
        # Baseline models carry no recommender; nothing to band.
        return 0, "no recommender (baseline model)"
    grid_shape = getattr(recommender, "grid_shape", None)
    if grid_shape is None:
        return 0, "no grid shape attached to the recommender"
    if not fast_kernels_enabled():
        return 0, "reference kernels (fast attention path off)"
    if in_process_worker():
        return 0, "inside a process_map worker (no nested fan-out)"
    if not batch_periods_enabled():
        return 0, "period batching off (the banded forward is the batched path)"
    for layer in recommender.layers:
        for agg in (layer.su, layer.sa_to_s, layer.ua, layer.sa_to_a):
            if not isinstance(agg, MultiHeadSegmentAttention):
                return 0, "non-attention aggregator (mean ablation)"
    if capacity_su is not None and not all(
        isinstance(cap, CapacityEdgeFactors) for cap in capacity_su.values()
    ):
        return 0, "dense capacity edge attributes"
    rows, cols = grid_shape
    tiles = min(resolve_shard_tiles(rows * cols), rows)
    if tiles > 1:
        return tiles, f"engaged: {tiles} row bands over a {rows}x{cols} grid"
    return 0, (
        f"grid below O2_SHARD_MIN_REGIONS ({rows * cols} regions) "
        "and no tile override"
    )


def shard_tiles_for(recommender, capacity_su=None) -> int:
    """Row-band count the banded forward will use for this call (0 = dense).

    The gate in one place: banding needs a recommender with a grid shape
    (attached by :class:`repro.core.model.O2SiteRec`), the fast-kernel
    attention path, period batching (the banded forward reproduces exactly
    the batched op sequence), attention aggregators on every relation,
    factored (or absent) capacity edge attributes, and a process that is
    not itself a fan-out worker.  The tile count is clamped to the grid's
    row count so every band owns at least one region row.  The model's
    mode only selects where the reason is recorded:
    :func:`shard_gate_reason` in eval, :func:`shard_train_gate_reason` in
    training (and for a missing recommender, which only the trainer's
    capture guard passes).
    """
    global _gate_reason, _train_gate_reason
    tiles, reason = _gate(recommender, capacity_su)
    if recommender is not None and not recommender.training:
        _gate_reason = reason
    else:
        _train_gate_reason = reason
    return tiles
