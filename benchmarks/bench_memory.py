"""Memory plane: pooled-buffer training vs the reference allocation path.

Two fresh-subprocess legs on the real-city preset, identical except for the
memory plane:

* ``ref``  -- ``O2_BUFFER_POOL=0``, the untuned stock allocator (see the
  ``LEG_ENV`` note on why the glibc mmap threshold is pinned at its
  documented default) and a plain ``loss.backward()``: every op and every
  gradient accumulation allocates a fresh array, the tape is only
  reclaimed when the loss rebinds (the pre-PR configuration);
* ``pool`` -- the default configuration: pooled ``out=`` buffers, in-place
  gradient accumulation and fused optimizer updates, and
  ``loss.backward(free_graph=True)`` tape retirement.

Both legs record the full batch-loss sequence and a SHA-256 fingerprint of
the final parameters; the driver asserts they are *identical* -- the
memory plane changes where bytes live, never what they hold.  Peak RSS is
measured as the training high-water mark over the post-dataset-build
baseline, so the (identical) pipeline build cost cancels out.

Usage::

    PYTHONPATH=src python benchmarks/bench_memory.py [--quick]

Writes ``benchmarks/results/memory.txt`` and ``BENCH_memory.json``.  Full
mode enforces the PR floors on the scale-1.0 batch-128 leg: >=1.15x epoch
speedup and >=30% training peak-RSS reduction.  ``--quick`` (CI smoke)
only asserts bit-for-bit equality and a nonzero pool hit rate.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

import common

ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).resolve().parent / "results"

BATCH_SIZE = 128  # paper_train_config().batch_size


# ---------------------------------------------------------------------------
# Subprocess leg: one memory-plane configuration, fresh interpreter.
# ---------------------------------------------------------------------------

def run_leg(leg: str, scale: float, steps: int) -> dict:
    from repro.experiments.harness import build_dataset
    from repro.core.model import O2SiteRec
    from repro.nn import init
    from repro.optim import Adam
    from repro.runtime import tune_allocator
    from repro.tensor import memprof

    tune_allocator()

    dataset, split = build_dataset("real", 0, scale)
    pairs = split.train_pairs
    targets = dataset.pair_targets(pairs)

    rng = np.random.default_rng(0)
    order = rng.permutation(len(pairs))
    batches = np.array_split(order, int(np.ceil(len(pairs) / BATCH_SIZE)))
    batch_data = [
        (np.ascontiguousarray(pairs[sel]), targets[sel]) for sel in batches
    ]

    init.seed(0)
    model = O2SiteRec(dataset, split=split)
    model.train()
    optimizer = Adam(model.parameters(), lr=1e-4)

    free_graph = leg == "pool"
    gc.collect()
    rss_after_build = memprof.current_rss_bytes()
    peak_after_build = memprof.peak_rss_bytes()

    losses, batch_times = [], []
    for i in range(steps):
        batch_pairs, batch_targets = batch_data[i % len(batch_data)]
        started = time.perf_counter()
        loss, _, _ = model.loss(batch_pairs, batch_targets)
        loss.backward(free_graph=free_graph)
        optimizer.step()
        optimizer.zero_grad()
        batch_times.append((time.perf_counter() - started) * 1e3)
        losses.append(float(loss.data))
        loss = None  # ref leg: the rebind is what frees the tape

    # The batch loop runs first, so the RSS high-water mark here is the
    # batch-128 training leg's peak -- the quantity the PR floor is on.
    peak_after_train = memprof.peak_rss_bytes()

    # Full-batch steps: the deepest tape -- a diagnostic for the scale>1.0
    # regime, not part of the floored batch-128 leg.
    full_times = []
    for _ in range(max(2, steps // 5)):
        started = time.perf_counter()
        loss, _, _ = model.loss(pairs, targets)
        loss.backward(free_graph=free_graph)
        optimizer.step()
        optimizer.zero_grad()
        full_times.append((time.perf_counter() - started) * 1e3)
        losses.append(float(loss.data))
        loss = None

    peak_end = memprof.peak_rss_bytes()
    fingerprint = hashlib.sha256(
        b"".join(
            np.ascontiguousarray(p.data).tobytes() for p in model.parameters()
        )
    ).hexdigest()
    snap = memprof.report()

    steady = lambda xs: float(np.mean(xs[-min(5, len(xs)):]))  # noqa: E731
    batch_step_ms = steady(batch_times)
    return {
        "leg": leg,
        "num_pairs": int(len(pairs)),
        "num_batches": len(batch_data),
        "losses": losses,
        "param_sha256": fingerprint,
        "batch_step_ms": batch_step_ms,
        "batch_epoch_s": batch_step_ms * len(batch_data) / 1e3,
        "full_step_ms": steady(full_times),
        "rss_after_build_mb": rss_after_build / 1e6,
        "peak_after_build_mb": peak_after_build / 1e6,
        "peak_end_mb": peak_end / 1e6,
        "train_peak_delta_mb": (peak_after_train - rss_after_build) / 1e6,
        "full_peak_delta_mb": (peak_end - rss_after_build) / 1e6,
        "pool": snap["pool"],
        "memprof_text": memprof.format_report(snap),
    }


# The ref leg re-creates the pre-memory-plane configuration (pool off,
# untuned glibc allocator), mirroring how bench_train_throughput.py pins
# its pre-optimisation reference leg.  ``O2_MALLOC_TUNE=0`` alone is not
# enough to hold that configuration: glibc's dynamic mmap threshold
# self-tunes upward on every large munmap, so after a few steps the
# "untuned" process has silently converged to the tuned allocator and the
# leg measures execution history instead of the reference path.  Pinning
# ``MALLOC_MMAP_THRESHOLD_`` to the documented 128 KiB default disables
# that feedback loop and keeps the reference allocation behaviour (every
# multi-megabyte temporary is a fresh mmap + kernel page-zeroing + munmap)
# stable and reproducible.
#
# Both legs pin ``O2_COMPILE_STEP=0``: this bench characterises the eager
# memory plane, and the step compiler (default-on since it landed) would
# otherwise pin captured tapes into the RSS numbers.  The compiled-vs-eager
# comparison lives in bench_compile.py.
LEG_ENV = {
    "ref": {
        "O2_BUFFER_POOL": "0",
        "O2_MALLOC_TUNE": "0",
        "MALLOC_MMAP_THRESHOLD_": "131072",
        "O2_MEM_PROFILE": "1",
        "O2_COMPILE_STEP": "0",
    },
    "pool": {
        "O2_BUFFER_POOL": "1",
        "O2_MEM_PROFILE": "1",
        "O2_COMPILE_STEP": "0",
    },
}


def spawn_leg(name: str, scale: float, steps: int) -> dict:
    return common.run_bench_leg(
        __file__, name, ["--scale", scale, "--steps", steps], env=LEG_ENV[name]
    )


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke mode")
    parser.add_argument("--leg", choices=sorted(LEG_ENV), help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--steps", type=int, default=None)
    args = parser.parse_args()

    if args.leg:
        print(json.dumps(run_leg(args.leg, args.scale, args.steps)))
        return 0

    quick = args.quick
    scale = args.scale if args.scale is not None else (0.3 if quick else 1.0)
    steps = args.steps if args.steps is not None else (6 if quick else 15)
    # Quick mode is a CI correctness smoke (tiny scale, shared runners):
    # it checks bitwise equality and pool engagement only, never the
    # performance floors.
    speedup_floor = None if quick else 1.15
    rss_floor = None if quick else 0.30

    legs = {name: spawn_leg(name, scale, steps) for name in ("ref", "pool")}
    ref, pooled = legs["ref"], legs["pool"]

    identical = (
        ref["losses"] == pooled["losses"]
        and ref["param_sha256"] == pooled["param_sha256"]
    )
    speedup = ref["batch_epoch_s"] / pooled["batch_epoch_s"]
    speedup_full = ref["full_step_ms"] / pooled["full_step_ms"]
    ref_delta = max(ref["train_peak_delta_mb"], 1e-9)
    rss_reduction = 1.0 - pooled["train_peak_delta_mb"] / ref_delta
    hit_rate = pooled["pool"]["hit_rate"]

    lines = [
        "Memory plane: pooled buffers + tape retirement vs reference allocation",
        f"mode={'quick' if quick else 'full'}  scale={scale}  "
        f"batch_size={BATCH_SIZE}  pairs={pooled['num_pairs']}  "
        f"batches/epoch={pooled['num_batches']}  steps={steps}",
        "",
        f"{'leg':<6} {'batch step':>12} {'batch epoch':>12} {'full step':>11} "
        f"{'train peak RSS':>15} {'full peak RSS':>14}",
    ]
    for name in ("ref", "pool"):
        leg = legs[name]
        lines.append(
            f"{name:<6} {leg['batch_step_ms']:>9.1f} ms "
            f"{leg['batch_epoch_s']:>10.2f} s {leg['full_step_ms']:>8.1f} ms"
            f" {leg['train_peak_delta_mb']:>12.1f} MB"
            f" {leg['full_peak_delta_mb']:>11.1f} MB"
        )
    lines += [
        "",
        f"speedup: batched epoch {speedup:.2f}x"
        + (f" (floor {speedup_floor:.2f}x)" if speedup_floor else "")
        + f", full-batch step {speedup_full:.2f}x",
        f"train peak-RSS reduction: {rss_reduction * 100:.1f}%"
        + (f" (floor {rss_floor * 100:.0f}%)" if rss_floor else ""),
        f"pool hit rate: {hit_rate:.3f}  "
        f"(hits={pooled['pool']['hits']} misses={pooled['pool']['misses']})",
        f"bit-for-bit identical losses + final params: {identical}",
        "",
        "pool-leg allocation profile:",
        pooled["memprof_text"],
        "",
        "ref-leg allocation profile:",
        ref["memprof_text"],
    ]
    text = "\n".join(lines)
    print(text)

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "memory.txt").write_text(text + "\n")
    payload = {
        "mode": "quick" if quick else "full",
        "scale": scale,
        "batch_size": BATCH_SIZE,
        "steps": steps,
        "floors": {"speedup": speedup_floor, "rss_reduction": rss_floor},
        "leg_env": LEG_ENV,
        "ref": {k: v for k, v in ref.items() if k != "memprof_text"},
        "pool": {k: v for k, v in pooled.items() if k != "memprof_text"},
        "speedup": {"batch_epoch": speedup, "full_step": speedup_full},
        "rss_reduction": rss_reduction,
        "identical": identical,
    }
    (ROOT / "BENCH_memory.json").write_text(json.dumps(payload, indent=2) + "\n")

    if not identical:
        print("FAIL: pooled-path training diverged from the reference path")
        return 1
    if hit_rate <= 0.0:
        print("FAIL: buffer pool never hit -- pooling is not engaged")
        return 1
    if speedup_floor is not None and speedup < speedup_floor:
        print(f"FAIL: epoch speedup {speedup:.2f}x below {speedup_floor:.2f}x")
        return 1
    if rss_floor is not None and rss_reduction < rss_floor:
        print(
            f"FAIL: peak-RSS reduction {rss_reduction * 100:.1f}% below "
            f"{rss_floor * 100:.0f}%"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
