"""Host and path record written with every run.

A number states which path it measured: the host shape (cores, BLAS and
its threads, interpreter and numpy), every ``O2_*`` variable as set, and
the gate decisions the shipped defaults resolved to on this host.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform


def _blas() -> dict:
    import numpy as np

    info = {"vendor": "unknown", "threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    libs = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                info["threads"] = int(getter())
                break
    return info


def host_record() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "o2_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("O2_")},
    }


def gate_record() -> dict:
    """Gate decisions as resolved now (call after the workload ran)."""
    from repro import parallel
    from repro.core import shard
    from repro.core.recommender import batch_periods_enabled
    from repro.runtime import env_flag
    from repro.tensor import cnative, pool

    return {
        "shard_eval": shard.shard_gate_reason(),
        "shard_train": shard.shard_train_gate_reason(),
        "compile_step": env_flag("O2_COMPILE_STEP", True),
        "batch_periods": batch_periods_enabled(),
        "c_kernels": cnative.available(),
        "buffer_pool": pool.buffer_pool_enabled(),
        "num_threads": parallel.num_threads(),
        "num_procs": parallel.num_procs(),
        "serve_procs": parallel.num_serve_procs(),
    }
