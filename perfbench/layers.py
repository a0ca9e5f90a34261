"""Per-layer metrics of the traced run: spans around public calls, plus counters.

:func:`install` patches the public functions each layer is entered
through (restored by ``Tracer.close``); :func:`layer_metrics` turns the
spans and the counters the layers already expose into the per-layer
metrics.  A layer a workload does not exercise reports 0.
"""

from __future__ import annotations

from typing import Dict

from spans import median

# metric -> (unit, better, the end-to-end metric and workload it should move)
PER_LAYER = {
    "city.simulate_s": ("s", "lower", "setup_s on metropolis-fit and serve-mixed"),
    "city.orders": ("count", "higher", "setup_s on metropolis-fit and serve-mixed"),
    "city.orders_per_s": ("1/s", "higher", "setup_s on metropolis-fit and serve-mixed"),
    "data.dataset_s": ("s", "lower", "setup_s on metropolis-fit and serve-mixed"),
    "data.cache_hits": ("count", "lower", "must stay 0: every run uses a cold private cache"),
    "graphs.hetero_s": ("s", "lower", "setup_s on metropolis-fit and serve-mixed"),
    "graphs.mobility_s": ("s", "lower", "setup_s on metropolis-fit and serve-mixed"),
    "graphs.su_edges": ("count", "lower", "setup_s on metropolis-fit and serve-mixed"),
    "core.model_init_s": ("s", "lower", "setup_s on metropolis-fit and serve-mixed"),
    "core.step_ms.p50": ("ms", "lower", "throughput_per_s on paper-fit and metropolis-fit"),
    "core.step_ms.p90": ("ms", "lower", "throughput_per_s on paper-fit and metropolis-fit"),
    "core.steps": ("count", "lower", "throughput_per_s on paper-fit and metropolis-fit"),
    "core.forward_ms": ("ms", "lower", "throughput_per_s on paper-fit and metropolis-fit"),
    "core.backward_ms": ("ms", "lower", "throughput_per_s on paper-fit and metropolis-fit"),
    "core.predict_s": ("s", "lower", "throughput_per_s on paper-fit; rank_ms on paper-fit"),
    "optim.step_ms": ("ms", "lower", "throughput_per_s on paper-fit"),
    "tensor.plan.captures": ("count", "lower", "throughput_per_s on paper-fit"),
    "tensor.plan.replays": ("count", "higher", "throughput_per_s on paper-fit"),
    "tensor.plan.eager_fallbacks": ("count", "lower", "throughput_per_s on paper-fit"),
    "tensor.plan.shard_fallbacks": ("count", "lower", "throughput_per_s on metropolis-fit"),
    "tensor.plan.replay_share": ("ratio", "higher", "throughput_per_s on paper-fit"),
    "tensor.pool.hit_rate": ("ratio", "higher", "throughput_per_s on paper-fit"),
    "tensor.pool.peak_live_mb": ("MB", "lower", "peak_rss_mb on metropolis-fit"),
    "shard.eval_engaged": ("0/1", "higher", "rank_ms on metropolis-fit"),
    "shard_train.engaged": ("0/1", "higher", "throughput_per_s and peak_rss_mb on metropolis-fit"),
    "shard_train.steps": ("count", "higher", "throughput_per_s and peak_rss_mb on metropolis-fit"),
    "shard_train.bands": ("count", "higher", "throughput_per_s and peak_rss_mb on metropolis-fit"),
    "shard_train.halo_mb": ("MB", "lower", "peak_rss_mb on metropolis-fit"),
    "shard_train.exchange_mb": ("MB", "lower", "throughput_per_s on metropolis-fit"),
    "serve.snapshot_build_s": ("s", "lower", "rank_ms on metropolis-fit; setup_s on serve-mixed"),
    "serve.index_build_s": ("s", "lower", "rank_ms on metropolis-fit; setup_s on serve-mixed"),
    "serve.arena_save_s": ("s", "lower", "setup_s on serve-mixed"),
    "serve.arena_open_ms": ("ms", "lower", "setup_s on serve-mixed"),
    "serve.service_ms.mean": ("ms", "lower", "rank_ms and throughput_per_s on serve-mixed"),
    "serve.service_ms.max": ("ms", "lower", "rank_ms and throughput_per_s on serve-mixed"),
    "serve.retrieve_ms.mean": ("ms", "lower", "rank_ms on serve-mixed"),
    "serve.wait_ms.mean": ("ms", "lower", "rank_ms on serve-mixed (rises first under load)"),
    "serve.cache_hit_ratio": ("ratio", "higher", "rank_ms on serve-mixed (dips after each swap)"),
    "serve.batch_size_mean": ("count", "higher", "throughput_per_s on serve-mixed"),
    "serve.retrieval_fallbacks": ("count", "lower", "rank_ms on serve-mixed"),
    "serve.reloads": ("count", "higher", "throughput_per_s on serve-mixed"),
    "serve.reload_errors": ("count", "lower", "must stay 0"),
    "serve.worker_share_min": ("ratio", "higher", "throughput_per_s on serve-mixed"),
    "serve.generator_lag_ms.max": ("ms", "lower", "throughput_per_s on serve-mixed"),
}
OVERHEAD_OF = ("setup_s", "peak_rss_mb", "throughput_per_s", "rank_ms")
for _name in OVERHEAD_OF:
    PER_LAYER[f"trace.overhead.{_name}"] = (
        "ratio",
        "higher" if _name == "throughput_per_s" else "lower",
        f"none: traced / untraced {_name} - 1 on this workload",
    )

_cache_hits = [0]


def install(tracer):
    """Wrap each layer's public entry points; returns ``tracer``."""
    from repro.core import model as core_model
    from repro.data import cache as data_cache
    from repro.graphs.mobility import CourierMobilityMultiGraph
    from repro.optim.adam import Adam
    from repro.serve.index import VectorIndex
    from repro.tensor import plan
    from repro.tensor.tensor import Tensor

    # The graph builders as O2SiteRec calls them (names bound in its module).
    tracer.wrap(core_model, "build_hetero_multigraph", "build_hetero_multigraph", "repro.graphs")
    tracer.wrap(CourierMobilityMultiGraph, "from_aggregates", "CourierMobilityMultiGraph.from_aggregates", "repro.graphs")
    tracer.wrap(plan.CompiledStep, "step", "CompiledStep.step", "repro.tensor")
    tracer.wrap(core_model.O2SiteRec, "loss", "O2SiteRec.loss", "repro.core")
    tracer.wrap(core_model.O2SiteRec, "predict", "O2SiteRec.predict", "repro.core")
    tracer.wrap(Tensor, "backward", "Tensor.backward", "repro.tensor")
    tracer.wrap(Adam, "step", "Adam.step", "repro.optim")
    # A compiled step records and replays the backward and runs the update
    # closure Adam.capture_step hands out, instead of the eager calls above.
    tracer.wrap_returned(Adam, "capture_step", "Adam.step", "repro.optim")
    tracer.wrap(plan, "_record_backward", "plan.record_backward", "repro.tensor")
    tracer.wrap(plan, "_replay_backward", "plan.replay_backward", "repro.tensor")
    tracer.wrap(VectorIndex, "build", "VectorIndex.build", "repro.serve")

    load_entry = data_cache.load_entry

    def counted_load_entry(*args, **kwargs):
        entry = load_entry(*args, **kwargs)
        _cache_hits[0] += entry is not None
        return entry

    tracer.patch(data_cache, "load_entry", counted_load_entry)
    return tracer


def cache_hits() -> int:
    """Pipeline-cache entries served from disk since :func:`install`."""
    return _cache_hits[0]


def _ms(values) -> float:
    found = median(values)
    return 0.0 if found is None else found * 1e3


def _s(values) -> float:
    found = median(values)
    return 0.0 if found is None else found


def _p90_ms(values) -> float:
    ordered = sorted(values)
    return ordered[min(int(0.9 * len(ordered)), len(ordered) - 1)] * 1e3 if ordered else 0.0


def layer_metrics(tracer, out) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric except the tracing overheads."""
    from repro.tensor import memprof
    from repro.tensor.plan import plan_stats

    d = tracer.durations
    values = {name: 0.0 for name in PER_LAYER}
    values.update({name: float(v) for name, v in out.layer.items()})
    values["data.cache_hits"] += _cache_hits[0]
    simulate_s = _s(d("simulate"))
    values["city.simulate_s"] = simulate_s
    values["city.orders_per_s"] = values["city.orders"] / simulate_s if simulate_s else 0.0
    dataset = [a + b for a, b in zip(d("SiteRecDataset.from_simulation"), d("SiteRecDataset.split"))]
    values["data.dataset_s"] = _s(dataset)
    values["graphs.hetero_s"] = _s(d("build_hetero_multigraph"))
    values["graphs.mobility_s"] = _s(d("CourierMobilityMultiGraph.from_aggregates"))
    values["core.model_init_s"] = _s(d("O2SiteRec.__init__"))
    steps = d("CompiledStep.step")
    values["core.step_ms.p50"] = _ms(steps)
    values["core.step_ms.p90"] = _p90_ms(steps)
    values["core.steps"] = float(len(steps))
    values["core.forward_ms"] = _ms(d("O2SiteRec.loss"))
    values["core.backward_ms"] = _ms(
        d("Tensor.backward") + d("plan.record_backward") + d("plan.replay_backward")
    )
    values["core.predict_s"] = _s(d("O2SiteRec.predict"))
    values["optim.step_ms"] = _ms(d("Adam.step"))
    plan = plan_stats()
    for key in ("captures", "replays", "eager_fallbacks", "shard_fallbacks"):
        values[f"tensor.plan.{key}"] = float(plan[key])
    values["tensor.plan.replay_share"] = plan["replays"] / len(steps) if steps else 0.0
    pool = memprof.report()["pool"]
    values["tensor.pool.hit_rate"] = float(pool["hit_rate"])
    values["tensor.pool.peak_live_mb"] = pool["peak_live_bytes"] / 2**20
    values["serve.snapshot_build_s"] = _s(d("ModelSnapshot.from_model"))
    values["serve.index_build_s"] = _s(d("VectorIndex.build"))
    values["serve.arena_save_s"] = _s(d("ModelSnapshot.save"))
    values["serve.arena_open_ms"] = _ms(d("ModelSnapshot.load"))
    return values
