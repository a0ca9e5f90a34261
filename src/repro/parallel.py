"""Process-level fan-out for experiment cells and sharded propagation.

Within a process the model runs serially: the five time periods share one
period-batched pass (:mod:`repro.core.recommender`).  Parallelism comes
from worker processes (:func:`process_map`, ``O2_NUM_PROCS``) and serving
workers (:func:`num_serve_procs`, ``O2_SERVE_PROCS``).
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Sequence, TypeVar

from .runtime import env_str

T = TypeVar("T")
R = TypeVar("R")


def num_threads() -> int:
    """In-process worker threads for the model: always 1 (host records)."""
    return 1


# ----------------------------------------------------------------------
# Process-pool backend (``O2_NUM_PROCS``): coarse-grained experiment
# fan-out.  Worker processes sidestep the GIL entirely, so whole harness
# cells (simulate, build, train, evaluate) run concurrently.
# Tasks must be top-level functions with picklable arguments and results.

_proc_override: Optional[int] = None


def _env_procs() -> int:
    raw = env_str("O2_NUM_PROCS", "0")
    if raw in ("", "0", "off", "serial"):
        return 0
    if raw == "auto":
        return os.cpu_count() or 1
    try:
        return max(int(raw), 0)
    except ValueError:
        raise ValueError(
            f"O2_NUM_PROCS must be an integer, 'auto' or 'off', got {raw!r}"
        ) from None


def num_procs() -> int:
    """Worker-process count; ``0`` means serial (the default)."""
    if _proc_override is not None:
        return _proc_override
    return _env_procs()


def set_num_procs(value: Optional[int]) -> Optional[int]:
    """Pin the process count (``None`` defers back to ``O2_NUM_PROCS``)."""
    global _proc_override
    previous = _proc_override
    if value is not None and value < 0:
        raise ValueError("num_procs must be >= 0")
    _proc_override = value
    return previous


class use_num_procs:
    """Context manager pinning the process count (tests/benchmarks)."""

    def __init__(self, value: Optional[int]) -> None:
        self._value = value
        self._previous: Optional[int] = None

    def __enter__(self) -> "use_num_procs":
        self._previous = set_num_procs(self._value)
        return self

    def __exit__(self, *exc) -> None:
        set_num_procs(self._previous)


def num_serve_procs(default: int = 1) -> int:
    """Serving worker-process count from ``O2_SERVE_PROCS``.

    ``auto`` maps to the CPU count (one pre-forked worker per core is the
    sweet spot for the GIL-free serving plane); unset falls back to
    ``default``.  Used by ``python -m repro.serve --procs`` and
    :class:`repro.serve.workers.WorkerPool`.
    """
    raw = env_str("O2_SERVE_PROCS", "")
    if raw in ("", "0"):
        return max(default, 1)
    if raw == "auto":
        return os.cpu_count() or 1
    try:
        return max(int(raw), 1)
    except ValueError:
        raise ValueError(
            f"O2_SERVE_PROCS must be an integer or 'auto', got {raw!r}"
        ) from None


# True inside a process_map worker (set by the pool initializer, which runs
# once in each freshly forked/spawned child).  A task that itself calls
# process_map -- e.g. a sharded propagation worker whose model code would
# fan out again -- must degrade to the serial loop instead of forking a
# pool per worker (quadratic process growth, a fork bomb under recursion).
_in_worker = False


def _mark_worker() -> None:
    global _in_worker
    _in_worker = True


def in_process_worker() -> bool:
    """Whether this process is a :func:`process_map` pool worker."""
    return _in_worker


class ProcessMapError(RuntimeError):
    """A :func:`process_map` task failed in a worker process.

    The pool loses the worker-side traceback at the pickle boundary, so the
    message carries what the parent needs to bisect: the failing item's
    index, a truncated repr of the item, and the original exception.
    """


class _IndexedTask:
    """Picklable wrapper attaching the item index to worker failures."""

    def __init__(self, fn: Callable[[T], R]) -> None:
        self._fn = fn

    def __call__(self, indexed):
        index, item = indexed
        try:
            return self._fn(item)
        except Exception as exc:
            detail = repr(item)
            if len(detail) > 120:
                detail = detail[:120] + "...<truncated>"
            raise ProcessMapError(
                f"process_map task {index} failed with "
                f"{type(exc).__name__}: {exc} (item: {detail})"
            ) from exc


# Persistent pool (``process_map(..., persistent=True)``): rounds that fan
# out many times per second -- one per layer per training step in sharded
# training -- cannot afford a fork+teardown per call.  The pool is keyed by
# (start method, worker count); a request with a different worker count
# tears the old pool down first.  Forked workers snapshot the parent at
# creation time, so persistent callers must ship all round-varying state
# through their task arguments (the shard arenas do exactly that).
_persistent_pool = None
_persistent_key: Optional[tuple] = None


def _get_process_pool(ctx, method: str, workers: int):
    global _persistent_pool, _persistent_key
    key = (method, workers)
    if _persistent_key != key and _persistent_pool is not None:
        _persistent_pool.terminate()
        _persistent_pool = None
    if _persistent_pool is None:
        _persistent_pool = ctx.Pool(processes=workers, initializer=_mark_worker)
        _persistent_key = key
        import atexit

        atexit.register(shutdown_process_pool)
    return _persistent_pool


def shutdown_process_pool() -> None:
    """Terminate the persistent :func:`process_map` pool (tests/atexit)."""
    global _persistent_pool, _persistent_key
    if _persistent_pool is not None:
        _persistent_pool.terminate()
        _persistent_pool = None
        _persistent_key = None


def process_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    procs: Optional[int] = None,
    chunksize: Optional[int] = None,
    persistent: bool = False,
) -> List[R]:
    """``[fn(x) for x in items]`` across worker processes, in item order.

    Serial when fewer than two workers or items are configured, and always
    serial inside a pool worker (nested fan-out must not fork again).  Each
    task must seed its own RNG state (cf. ``harness._seed_init``) so results
    are identical to the serial loop regardless of which worker runs which
    item.  Workers are forked where available (cheap, inherits imports) and
    spawned elsewhere.  ``chunksize`` is handed to ``Pool.map`` unchanged:
    the default lets multiprocessing pick its batch size, ``1`` keeps
    long-running heterogeneous tasks load-balanced across workers.

    ``persistent=True`` reuses one process-wide pool across calls (see
    :func:`_get_process_pool`) -- the fan-out pattern of sharded training,
    where a per-call pool would pay a fork per layer per step.

    A task that raises in a worker surfaces as :class:`ProcessMapError`
    naming the failing item's index and (truncated) repr, chained from the
    original exception where pickling preserves it.
    """
    items = list(items)
    workers = num_procs() if procs is None else max(procs, 0)
    workers = min(workers, len(items))
    if workers <= 1 or len(items) <= 1 or _in_worker:
        return [fn(item) for item in items]
    import multiprocessing as mp

    method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    ctx = mp.get_context(method)
    if persistent:
        pool = _get_process_pool(ctx, method, workers)
        return pool.map(_IndexedTask(fn), list(enumerate(items)), chunksize)
    with ctx.Pool(processes=workers, initializer=_mark_worker) as pool:
        return pool.map(_IndexedTask(fn), list(enumerate(items)), chunksize)
