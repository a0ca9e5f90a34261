"""The three benchmark workloads, run through the shipped entry points only.

Each workload takes the seed, the run length and a tracer, and returns an
:class:`Outcome`.  ``setup_s`` and ``peak_rss_mb`` are filled in by
``run.py``; every workload fills the two other end-to-end metrics:

* ``throughput_per_s`` -- work completed per second of the timed phase:
  training pairs per second of ``Trainer.fit`` (paper-fit,
  metropolis-fit), closed-loop queries per second (serve-mixed).
* ``rank_ms`` -- time to produce rankings from the model: the median
  ``evaluate_model`` pass (paper-fit), ``ModelSnapshot.from_model`` plus
  ``build_index`` (metropolis-fit), the client latency of a query at the
  low rate, as each query kind's median weighted by its share of the mix
  (serve-mixed).

The seed drives the city, the split, the weight init, the training seed,
the pair subset and the query stream.  No ``O2_*`` switch is set here
except the private pipeline-cache directory ``run.py`` gives every run.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import pickle
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

import host
import layers
import loadgen
from spans import OFF, Tracer, median

FIT_BATCH = 128
PAPER_EPOCHS = 3
# A fixed-size seeded subset of the ~2.6k train pairs: 2,240 fit pairs
# (17 full batches + one of 64) and 248 validation pairs for every seed.
# Peak RSS depends on the last batch's size (a 90-pair batch read 453 MB,
# the others ~625 MB), so a seed-dependent pair count made it bimodal.
PAPER_PAIRS = 2488
PAPER_SETUPS = 3  # setup_s takes their median
PAPER_EVALS = 31
METROPOLIS_SCALE = 0.65  # 65x65 = 4,225 regions, past the 4,096-region shard gate
METROPOLIS_PAIRS = 384
SNAPSHOT_REPEATS = 3  # rank_ms is the median of this many snapshot + index builds
CHECK_PAIRS = 256
RECALL_K = 10
BUILD_CHILD_TIMEOUT_S = 120  # serve-mixed's arena build, in a child process


@dataclass
class Outcome:
    setup_s: List[float] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    named: List[tuple] = field(default_factory=list)  # (name, value, unit, note)
    checks: Dict[str, tuple] = field(default_factory=dict)  # name -> (ok, detail)
    outputs: Dict[str, object] = field(default_factory=dict)  # must not change under tracing
    record: Dict[str, object] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)
    attempted: int = 1
    failed: int = 0
    peak_rss_mb: Optional[float] = None  # set when the peak is not this process's

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks[name] = (bool(ok), detail)


# ----------------------------------------------------------------------
# Shared steps
# ----------------------------------------------------------------------
def _sha(arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


def _param_sha(model) -> str:
    return _sha(p.data for p in model.parameters())


def warm_kernels() -> bool:
    """Build (or load) the C kernels now, so the build counts as set-up."""
    from repro.tensor import cnative

    return cnative.available()


def build_model(tracer, preset: str, seed: int, scale: float, cache_dir: Path):
    """simulate -> SiteRecDataset.from_simulation + split -> O2SiteRec."""
    from repro.city import simulate
    from repro.city.simulator import metropolis_config, real_world_config
    from repro.core import O2SiteRec
    from repro.data import SiteRecDataset
    from repro.nn import init

    configs = {
        "real_world": real_world_config,
        "metropolis": metropolis_config,
    }
    os.environ["O2_PIPELINE_CACHE"] = str(cache_dir)  # cold and private
    config = configs[preset](seed=seed, scale=scale)
    with tracer.span("simulate", "repro.city"):
        sim = simulate(config)
    with tracer.span("SiteRecDataset.from_simulation", "repro.data"):
        dataset = SiteRecDataset.from_simulation(sim)
    with tracer.span("SiteRecDataset.split", "repro.data"):
        split = dataset.split(seed=seed)
    init.seed(seed)
    with tracer.span("O2SiteRec.__init__", "repro.core"):
        model = O2SiteRec(dataset, split)
    return sim, dataset, split, model


def build_counters(sim, model) -> dict:
    """Counts of the city and graph the set-up built."""
    subgraphs = model.hetero_graph.subgraphs.values()
    return {
        "city.orders": float(sim.num_orders),
        "graphs.su_edges": float(sum(g.num_su_edges for g in subgraphs)),
    }


def eval_gate() -> dict:
    """Whether the last eval propagation ran banded."""
    from repro.core import shard

    reason = shard.shard_gate_reason()
    return {"shard.eval_engaged": float(reason.startswith("engaged"))}


def seeded_subset(pairs: np.ndarray, size: int, seed: int) -> np.ndarray:
    chosen = np.sort(np.random.default_rng(seed).choice(len(pairs), size, replace=False))
    return pairs[chosen]


def repeated_snapshot(tracer, model):
    """Median time of :data:`SNAPSHOT_REPEATS` identical snapshot + index builds."""
    times = []
    for _ in range(SNAPSHOT_REPEATS):
        snapshot, seconds = snapshot_and_index(tracer, model)
        times.append(seconds)
    return snapshot, median(times)


def fit(tracer, model, pairs: np.ndarray, targets: np.ndarray, epochs: int, seed: int):
    from repro.core import TrainConfig, Trainer

    config = TrainConfig(epochs=epochs, batch_size=FIT_BATCH, seed=seed)
    trainer = Trainer(model, config)
    start = time.perf_counter()
    with tracer.span("Trainer.fit", "repro.core"):
        result = trainer.fit(pairs, targets)
    fit_s = time.perf_counter() - start
    n_val = max(int(len(pairs) * config.validation_frac), 1)
    fit_pairs = len(pairs) - n_val
    return result, fit_s, fit_pairs * len(result.train_losses)


def record_fit(out: Outcome, result, model) -> None:
    losses = list(result.train_losses) + list(result.validation_losses)
    out.check("losses_finite", all(math.isfinite(v) for v in losses), f"{len(losses)} values")
    sha = _param_sha(model)
    out.record.update(
        train_losses=result.train_losses,
        validation_losses=result.validation_losses,
        param_sha256=sha,
    )
    out.outputs.update(
        train_losses=result.train_losses,
        validation_losses=result.validation_losses,
        param_sha256=sha,
    )


def record_shard_gates(out: Outcome) -> None:
    """Train-gate decision and banded-step counters, read right after a fit."""
    from repro.core import shard, shard_train

    stats = shard_train.shard_train_stats()
    out.record["shard_train_gate"] = shard.shard_train_gate_reason()
    out.record["shard_train_stats"] = stats
    out.layer.update(
        {
            "shard_train.engaged": float(stats["steps"] > 0),
            "shard_train.steps": float(stats["steps"]),
            "shard_train.bands": float(stats["bands"]),
            "shard_train.halo_mb": stats["halo_bytes"] / 2**20,
            "shard_train.exchange_mb": stats["exchange_bytes"] / 2**20,
        }
    )


def snapshot_and_index(tracer, model):
    from repro.serve import ModelSnapshot

    model.eval()
    start = time.perf_counter()
    with tracer.span("ModelSnapshot.from_model", "repro.serve"):
        snapshot = ModelSnapshot.from_model(model)
    with tracer.span("ModelSnapshot.build_index", "repro.serve"):
        snapshot.build_index(seed=0)
    return snapshot, time.perf_counter() - start


def check_snapshot(out: Outcome, model, snapshot, seed: int) -> None:
    """Snapshot scores bit-equal to the model's; IVF recall 1.0 at nprobe >= k."""
    rng = np.random.default_rng(seed)
    regions = snapshot.candidate_regions()
    pairs = np.stack(
        [
            rng.choice(regions, CHECK_PAIRS),
            rng.integers(0, snapshot.num_types, CHECK_PAIRS),
        ],
        axis=1,
    ).astype(np.int64)
    same = np.array_equal(snapshot.predict(pairs), model.predict(pairs))
    out.check("snapshot_predict_bit_equal", same, f"{CHECK_PAIRS} sampled pairs")
    index = snapshot.index
    recalls = [
        index.recall_against_full_scan(t, k=RECALL_K) for t in range(index.num_types)
    ]
    out.check(
        "ivf_recall_1_at_nprobe_ge_k",
        index.nprobe >= RECALL_K and min(recalls) == 1.0,
        f"min recall@{RECALL_K} {min(recalls)} over {len(recalls)} types, nprobe {index.nprobe}",
    )
    out.outputs["snapshot_id"] = snapshot.snapshot_id


# ----------------------------------------------------------------------
# paper-fit
# ----------------------------------------------------------------------
def paper_fit(seed: int, seconds: float, tracer, run_dir: Path) -> Outcome:
    """Real-world preset at scale 1.0, Trainer.fit at batch 128, evaluate_model."""
    from repro.metrics import evaluate_model

    out = Outcome()
    for rep in range(PAPER_SETUPS):  # each from its own cold cache; the last one is trained
        if rep:
            del sim, dataset, split, model  # free the last pipeline before the next build
        start = time.perf_counter()
        sim, dataset, split, model = build_model(
            tracer, "real_world", seed, 1.0, run_dir / f"cache{rep}"
        )
        out.setup_s.append(time.perf_counter() - start)
    pairs = seeded_subset(split.train_pairs, PAPER_PAIRS, seed)
    result, fit_s, pairs_done = fit(tracer, model, pairs, dataset.pair_targets(pairs), PAPER_EPOCHS, seed)
    record_fit(out, result, model)
    record_shard_gates(out)

    evals, scores = [], []
    for _ in range(PAPER_EVALS):
        start = time.perf_counter()
        with tracer.span("evaluate_model", "repro.metrics"):
            scores.append(evaluate_model(model, dataset, split))
        evals.append(time.perf_counter() - start)
    ndcg10 = scores[0]["NDCG@10"]
    out.check(
        "evaluate_repeatable",
        all(s.as_row() == scores[0].as_row() for s in scores),
        f"{PAPER_EVALS} passes",
    )
    out.check("ndcg10_in_range", 0.0 < ndcg10 <= 1.0, f"{ndcg10:.6f}")
    out.outputs["ndcg10"] = ndcg10

    out.metrics["throughput_per_s"] = pairs_done / fit_s
    out.metrics["rank_ms"] = median(evals) * 1e3
    out.named += [
        ("fit_pairs_per_s", pairs_done / fit_s, "pairs/s", f"{pairs_done} pairs in {fit_s:.3f} s"),
        ("val_loss", result.validation_losses[-1], "MSE", f"epoch {len(result.validation_losses)}"),
        ("ndcg10", ndcg10, "-", "evaluate_model NDCG@10, test fold"),
    ]
    out.layer.update(build_counters(sim, model), **eval_gate())
    out.attempted = len(pairs) * PAPER_EPOCHS
    return out


# ----------------------------------------------------------------------
# metropolis-fit
# ----------------------------------------------------------------------
def metropolis_fit(seed: int, seconds: float, tracer, run_dir: Path) -> Outcome:
    """Metropolis 0.65: a seeded pair subset through Trainer.fit, then snapshot."""
    out = Outcome()
    start = time.perf_counter()
    sim, dataset, split, model = build_model(
        tracer, "metropolis", seed, METROPOLIS_SCALE, run_dir / "cache"
    )
    out.setup_s.append(time.perf_counter() - start)

    pairs = seeded_subset(split.train_pairs, METROPOLIS_PAIRS, seed)
    result, fit_s, pairs_done = fit(tracer, model, pairs, dataset.pair_targets(pairs), 1, seed)
    record_fit(out, result, model)
    record_shard_gates(out)

    snapshot, snapshot_s = repeated_snapshot(tracer, model)
    check_snapshot(out, model, snapshot, seed)

    out.metrics["throughput_per_s"] = pairs_done / fit_s
    out.metrics["rank_ms"] = snapshot_s * 1e3
    out.named += [
        ("fit_pairs_per_s", pairs_done / fit_s, "pairs/s", f"{pairs_done} pairs in {fit_s:.3f} s"),
        ("val_loss", result.validation_losses[-1], "MSE", "1 epoch"),
        ("snapshot_s", snapshot_s, "s", f"{len(snapshot.candidate_regions())} candidates"),
        ("shard_train.engaged", out.layer["shard_train.engaged"], "0/1", out.record["shard_train_gate"]),
    ]
    out.layer.update(build_counters(sim, model), **eval_gate())
    out.attempted = len(pairs)
    return out


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
# req/s: about a quarter and three quarters of the lowest closed-loop capacity
# measured on a 2-core host (perfbench/README.md), then climbed until a rung misses.
LOW_RATE, HIGH_RATE = 150.0, 450.0
KNEE_RATES = tuple(500.0 + 50.0 * i for i in range(11))
LATENCY_LIMIT_MS = 50.0
CLIENTS = 2  # at most nproc connections from the one load process
# The traffic and where each part of it comes from (perfbench/README.md):
# popular repeats, exclude-occupied, explicit-candidate queries.
KINDS = ("popular", "exclude", "explicit")
MIX = (0.5, 0.3, 0.2)
POPULAR_TYPES = 3  # the city's three most-stocked store types
EXPLICIT_LEN = 32  # candidates per explicit query, as in benchmarks/bench_serve_throughput.py
CHECK_QUERIES = 4  # per kind


def build_arenas(seed: int, run_dir: str, traced: bool) -> dict:
    """Set-up child: two metropolis-0.65 snapshots with IVF indexes, as arenas.

    Runs in a child process (:func:`build_arenas_in_child`), so the
    serving workers later fork from a parent that never held the model.
    Snapshot B is A's model with seeded weight noise: a retrained model
    stand-in for the hot swap.
    """
    tracer = layers.install(Tracer()) if traced else OFF
    run = Path(run_dir)
    warm_kernels()
    sim, dataset, _, model = build_model(tracer, "metropolis", seed, METROPOLIS_SCALE, run / "cache")
    paths, ids = [], []
    rng = np.random.default_rng(seed)
    for name in ("a", "b"):
        if name == "b":
            for p in model.parameters():
                p.data[...] = p.data + rng.normal(scale=0.01, size=p.data.shape)
        snapshot, _ = snapshot_and_index(tracer, model)
        with tracer.span("ModelSnapshot.save", "repro.serve"):
            paths.append(str(snapshot.save(run / f"{name}.arena", format="arena")))
        ids.append(snapshot.snapshot_id)
    layer = dict(build_counters(sim, model), **eval_gate())
    if traced:
        tracer.close()
        layer["data.cache_hits"] = float(layers.cache_hits())
    return {
        "paths": paths,
        "ids": ids,
        "store_counts": dataset.store_counts,
        "layer": layer,
        "gates": host.gate_record(),
        "spans": tracer.spans if traced else [],
        "peak_rss_mb": self_peak_rss_mb(),
    }


def build_arenas_in_child(seed: int, run_dir: Path, traced: bool) -> dict:
    """Run :func:`build_arenas` in a fresh Python process and return its result.

    A plain child process, waited for on every path: it starts no helper
    process (a multiprocessing pool would leave its resource tracker
    running after the benchmark exits).  The child gets its own process
    group, so a timeout also stops anything it started.
    """
    result = run_dir / "built.pickle"
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    cmd = [sys.executable, str(Path(__file__).resolve()), str(seed), str(run_dir), str(int(traced)), str(result)]
    with subprocess.Popen(cmd, env=env, start_new_session=True) as child:
        try:
            code = child.wait(timeout=BUILD_CHILD_TIMEOUT_S)
        except BaseException:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            raise
    if code != 0:
        raise RuntimeError(f"arena build child failed with exit code {code}")
    with open(result, "rb") as handle:
        return pickle.load(handle)


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _query_path(kind: str, store_type: int, regions: Optional[np.ndarray]) -> str:
    path = f"/recommend?type={store_type}&k={RECALL_K}"
    if kind == "exclude":
        path += "&exclude=" + ",".join(map(str, regions))
    elif kind == "explicit":
        path += "&candidates=" + ",".join(map(str, regions))
    return path


class QueryMix:
    """Seeded query stream drawn from the city's store registry.

    * popular: the top-k of one of the city's most-stocked store types,
      repeated, so answered from the score cache after first sight;
    * exclude: the top-k of a type among the regions where that type has no
      store yet (index path: retrieve, then re-rank);
    * explicit: exact scores of a type over a fresh set of candidates.

    The store type of an exclude or explicit query is drawn in proportion
    to the type's store count.  ``store_counts`` is the dataset's
    (regions, types) store-count table.
    """

    def __init__(self, rng: np.random.Generator, regions: np.ndarray, store_counts: np.ndarray) -> None:
        self.rng = rng
        self.regions = regions
        stores = store_counts.sum(axis=0)
        self.type_share = stores / stores.sum()
        self.popular = np.argsort(-stores, kind="stable")[:POPULAR_TYPES]
        self.occupied = [np.flatnonzero(store_counts[:, t] > 0) for t in range(store_counts.shape[1])]

    def draw(self, kind: Optional[str] = None) -> tuple:
        rng = self.rng
        if kind is None:
            kind = KINDS[rng.choice(len(KINDS), p=MIX)]
        if kind == "popular":
            return kind, int(rng.choice(self.popular)), None
        store_type = int(rng.choice(len(self.type_share), p=self.type_share))
        if kind == "exclude":
            return kind, store_type, self.occupied[store_type]
        return kind, store_type, np.sort(rng.choice(self.regions, EXPLICIT_LEN, replace=False))


def _reference_answer(reference, kind, store_type, regions) -> list:
    results = reference.query(
        store_type,
        candidate_regions=regions if kind == "explicit" else None,
        k=RECALL_K,
        exclude_regions=regions if kind == "exclude" else None,
    )
    return [(r.region, r.score) for r in results]


def _http_matches(port: int, queries, reference) -> tuple:
    """HTTP answers vs in-process ``RecommendationService.query``, same snapshot.

    Regions must be identical; scores may differ in the last ulp because
    the serving micro-batcher scores a query inside a larger batch.
    """
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    mismatches = 0
    try:
        for kind, store_type, regions in queries:
            conn.request("GET", _query_path(kind, store_type, regions))
            response = conn.getresponse()
            body = response.read()
            want = _reference_answer(reference, kind, store_type, regions)
            got = json.loads(body) if response.status == 200 else None
            if got is None or [g["region"] for g in got] != [w[0] for w in want] or not np.allclose(
                [g["score"] for g in got], [w[1] for w in want], rtol=1e-9, atol=0.0
            ):
                mismatches += 1
    finally:
        conn.close()
    return mismatches, len(queries)


def _wait_reloads(pool, want: int, timeout_s: float = 15.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if pool.stats()["counters"]["reloads"] >= want:
            return True
        time.sleep(0.05)
    return False


def _rung_row(rung: dict) -> dict:
    """Counts and latency figures of one rate rung."""
    n = rung["sent"]
    p = loadgen.tail_percentile(n)
    row = {
        "rate": rung["rate"],
        "seconds": rung["seconds"],
        "sent": n,
        "succeeded": rung["succeeded"],
        "failed": rung["failed"],
        "p50_ms": loadgen.latency_ms(rung["latency_s"], 50),
        "mean_ms": float(np.nanmean(rung["latency_s"]) * 1e3),  # failures are counted apart
        "tail_pct": p,
        "tail_ms": loadgen.latency_ms(rung["latency_s"], p),
        "lateness_ms_p50": float(np.median(rung["lateness_s"]) * 1e3),
        "lateness_ms_max": float(rung["lateness_s"].max() * 1e3),
        "p50_ms_by_kind": {
            kind: loadgen.latency_ms(rung["latency_s"][rung["kinds"] == kind], 50) for kind in KINDS
        },
        "sent_by_kind": {kind: int((rung["kinds"] == kind).sum()) for kind in KINDS},
    }
    row["meets_limit"] = rung["failed"] == 0 and row["tail_ms"] <= LATENCY_LIMIT_MS
    return row


def _mix_latency_ms(row: dict) -> float:
    """Each query kind's median latency, weighted by the kind's share of the mix.

    The plain median falls on the edge between the cache-hit popular
    queries (half the mix) and the slower kinds, so it jumps between them.
    """
    return sum(share * row["p50_ms_by_kind"][kind] for kind, share in zip(KINDS, MIX))


def _max_qps(rows: List[dict]) -> float:
    """Rate where the tail latency crosses the limit, along the rung ladder.

    Linear between the last rung that meets the limit and the first that
    misses it (a rung with failures misses it outright); 0 when the low
    rung already misses, the top rate when no rung does.
    """
    passed = None
    for row in rows:
        if not row["meets_limit"]:
            if passed is None:
                return 0.0
            if not math.isfinite(row["tail_ms"]):
                return passed["rate"]
            share = (LATENCY_LIMIT_MS - passed["tail_ms"]) / (row["tail_ms"] - passed["tail_ms"])
            return passed["rate"] + share * (row["rate"] - passed["rate"])
        passed = row
    return passed["rate"]


def serve_mixed(seed: int, seconds: float, tracer, run_dir: Path) -> Outcome:
    """WorkerPool at its default worker count under an open-loop rate ladder."""
    from repro.serve import ModelSnapshot, RecommendationService, WorkerPool, write_manifest

    out = Outcome()
    start = time.perf_counter()
    built = build_arenas_in_child(seed, run_dir, tracer.enabled)
    if tracer.enabled:
        tracer.merge(built["spans"])
    arenas, ids = built["paths"], built["ids"]
    manifest = run_dir / "deploy.json"
    write_manifest(manifest, arenas[0])
    pool = WorkerPool(arenas[0], manifest_path=manifest)
    references = []
    with tracer.span("WorkerPool.start", "repro.serve"):
        pool.start()
    try:
        for path in arenas:
            with tracer.span("ModelSnapshot.load", "repro.serve"):
                snapshot = ModelSnapshot.load(path)
            references.append(RecommendationService(snapshot))
        mix = QueryMix(
            np.random.default_rng(seed), references[0].snapshot.candidate_regions(), built["store_counts"]
        )
        check_queries = [mix.draw(kind) for kind in KINDS for _ in range(CHECK_QUERIES)]
        bad, total = _http_matches(pool.port, check_queries, references[0])  # also warms up
        out.setup_s.append(time.perf_counter() - start)
        mismatched = [bad]
        checked = total

        # The low rung runs for half the run and the high rung for a
        # quarter; the knee search rungs run for an eighth each and stop
        # after the first that misses the limit.  Every rung hot-swaps the
        # fleet to the other snapshot halfway through.
        ladder = [(LOW_RATE, seconds / 2), (HIGH_RATE, seconds / 4)]
        ladder += [(rate, seconds / 8) for rate in KNEE_RATES]
        rungs = []
        deployed = 0
        for i, (rate, rung_s) in enumerate(ladder):
            offsets = loadgen.poisson_offsets(mix.rng, rate, rung_s)
            queries = [mix.draw() for _ in offsets]
            paths = [_query_path(*query) for query in queries]
            target = arenas[1 - deployed]
            with tracer.span("rung", "perfbench", rate=rate):
                rung = loadgen.run_schedule(
                    pool.port, paths, offsets, CLIENTS, timeout_s=10.0,
                    events=[(rung_s / 2, lambda target=target: pool.reload(target))],
                )
            deployed = 1 - deployed
            swapped = _wait_reloads(pool, (i + 1) * pool.procs)
            out.check(f"swap_{i + 1}_applied", swapped, f"reloads after rung {i + 1}")
            bad, total = _http_matches(pool.port, check_queries, references[deployed])
            mismatched.append(bad)
            checked += total
            rung.update(rate=rate, seconds=rung_s, kinds=np.array([q[0] for q in queries]))
            rungs.append(_rung_row(rung))
            if i >= 2 and not rungs[-1]["meets_limit"]:
                break
        # Server latency as of the open loop, to line up with its client latencies.
        ladder_latency = pool.stats()["latency"]
        paths = [_query_path(*mix.draw()) for _ in range(4096)]
        with tracer.span("closed_loop", "perfbench"):
            closed = loadgen.run_closed(pool.port, paths, CLIENTS, seconds / 2, timeout_s=10.0)
        stats = pool.stats()
        out.peak_rss_mb = max(_peak_rss_mb(pid) for pid in pool.pids)
        out.outputs["reference_answers"] = [
            _reference_answer(references[0], *q) for q in check_queries
        ]
    finally:
        pool.stop()
        for reference in references:
            reference.close()

    out.check("http_equals_in_process", sum(mismatched) == 0, f"{sum(mismatched)} of {checked} sampled answers differ")
    errors = stats["counters"]["reload_errors"]
    out.check("reload_errors_zero", errors == 0, f"{errors} reload errors")
    out.outputs["snapshot_ids"] = ids

    out.record["rungs"] = rows = rungs
    max_qps = _max_qps(rows)
    capacity = closed["succeeded"] / closed["wall_s"]
    out.record["closed_loop"] = closed
    out.attempted = sum(r["sent"] for r in rows) + closed["sent"]
    out.failed = sum(r["failed"] for r in rows) + closed["failed"]

    out.metrics["throughput_per_s"] = capacity
    out.metrics["rank_ms"] = _mix_latency_ms(rows[0])
    for tag, row in (("low", rows[0]), ("high", rows[1])):
        out.named += [
            (f"query_mean_ms.{tag}", row["mean_ms"], "ms", f"{row['rate']:.0f} req/s, n={row['sent']}"),
            (f"query_p50_ms.{tag}", row["p50_ms"], "ms", f"{row['rate']:.0f} req/s, n={row['sent']}"),
            (f"query_p{row['tail_pct']:.0f}_ms.{tag}", row["tail_ms"], "ms", f"{row['rate']:.0f} req/s, n={row['sent']}"),
        ]
    out.named += [
        (f"query_p50_ms.low.{kind}", rows[0]["p50_ms_by_kind"][kind], "ms", f"n={rows[0]['sent_by_kind'][kind]}")
        for kind in KINDS
    ]
    out.named.append(
        ("max_qps_slo", max_qps, "req/s", f"tail crosses {LATENCY_LIMIT_MS:.0f} ms (interpolated between rungs)")
    )
    out.named.append(
        ("capacity_qps", capacity, "req/s", f"closed loop, {CLIENTS} connections, {closed['sent']} requests")
    )

    # Server-side layer counters (WorkerPool.stats()).
    # WorkerPool.stats() percentiles are histogram bucket bounds in
    # half-decade steps, so the server stages are reported as mean and max.
    counters = stats["counters"]
    total, retrieve = ladder_latency.get("total", {}), ladder_latency.get("retrieve", {})
    served = sum(r["succeeded"] for r in rows)
    client_mean = sum(r["mean_ms"] * r["succeeded"] for r in rows) / served if served else 0.0
    lookups = counters["cache_hits"] + counters["cache_misses"]
    per_worker = stats["per_worker_queries"]
    out.layer.update(
        {
            "serve.service_ms.mean": total.get("mean_ms", 0.0),
            "serve.service_ms.max": total.get("max_ms", 0.0),
            "serve.retrieve_ms.mean": retrieve.get("mean_ms", 0.0),
            "serve.wait_ms.mean": client_mean - total.get("mean_ms", 0.0),
            "serve.cache_hit_ratio": counters["cache_hits"] / lookups if lookups else 0.0,
            "serve.batch_size_mean": counters["batched_requests"] / counters["batches"] if counters["batches"] else 0.0,
            "serve.retrieval_fallbacks": float(counters["retrieval_fallbacks"]),
            "serve.reloads": float(counters["reloads"]),
            "serve.reload_errors": float(errors),
            "serve.worker_share_min": min(per_worker) / max(sum(per_worker), 1),
            "serve.generator_lag_ms.max": max(r["lateness_ms_max"] for r in rows),
        }
    )
    out.record["pool"] = {k: stats[k] for k in ("procs", "counters", "latency", "per_worker_queries", "reuseport")}
    out.record["build_peak_rss_mb"] = built["peak_rss_mb"]
    out.record["build_gates"] = built["gates"]
    out.layer.update(built["layer"])
    return out


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "paper-fit": paper_fit,
    "metropolis-fit": metropolis_fit,
    "serve-mixed": serve_mixed,
}


if __name__ == "__main__":
    # Child entry of build_arenas_in_child: SEED RUN_DIR TRACED OUT
    _, _seed, _run_dir, _traced, _out = sys.argv
    _built = build_arenas(int(_seed), _run_dir, bool(int(_traced)))
    with open(_out, "wb") as _handle:
        pickle.dump(_built, _handle)
