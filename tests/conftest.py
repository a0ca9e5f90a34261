"""Shared fixtures: one tiny simulated city reused across the suite.

Simulation and dataset construction are deterministic in the seed, so
session scope is safe; tests must not mutate these objects.
"""

from __future__ import annotations

import atexit
import faulthandler
import os
import shutil
import sys
import tempfile

import numpy as np
import pytest

# Route the pipeline artifact cache (repro.data.cache) to a throwaway
# directory for the whole test session: repeated simulations of identical
# configs across test modules replay from disk instead of re-running, and
# nothing leaks into (or reads from) the user's real cache.  Set before any
# repro import so every cache_root() call in the session sees it; tests
# that exercise the cache itself override the variable via monkeypatch.
_TEST_CACHE_DIR = tempfile.mkdtemp(prefix="o2-test-cache-")
os.environ.setdefault("O2_PIPELINE_CACHE", _TEST_CACHE_DIR)
atexit.register(shutil.rmtree, _TEST_CACHE_DIR, ignore_errors=True)

from repro.city import CityConfig, simulate, tiny_dataset
from repro.data import SiteRecDataset


@pytest.fixture(scope="session")
def sim():
    """A small but fully populated simulated city-month."""
    return tiny_dataset(seed=3)


@pytest.fixture(scope="session")
def dataset(sim):
    return SiteRecDataset.from_simulation(sim)


@pytest.fixture(scope="session")
def split(dataset):
    return dataset.split(seed=0)


@pytest.fixture(scope="session")
def medium_sim():
    """A city wide enough for the motivation analyses (Figs. 1-5, Table II).

    The tiny fixture's afternoon order volume is too small for tail
    statistics like the farthest delivery distance.
    """
    return simulate(
        CityConfig(
            rows=14,
            cols=14,
            num_days=7,
            num_couriers=220,
            seed=7,
            sparsity=0.7,
        )
    )


@pytest.fixture(scope="session")
def micro_sim():
    """An even smaller city for the expensive model-training tests."""
    return simulate(
        CityConfig(
            rows=5,
            cols=5,
            num_days=3,
            num_couriers=40,
            seed=5,
            base_population=2000.0,
        )
    )


@pytest.fixture(scope="session")
def micro_dataset(micro_sim):
    return SiteRecDataset.from_simulation(micro_sim)


@pytest.fixture(scope="session")
def micro_split(micro_dataset):
    return micro_dataset.split(seed=1)


@pytest.fixture()
def rng():
    return np.random.default_rng(42)


# Per-test hang watchdog.  A test still running after WATCHDOG_S seconds
# dumps every thread's stack and exits the run with status 1, so a hang
# (say a forked worker waiting on a lock it inherited) fails loudly instead
# of stalling CI.  The slowest test, test_serve_scale.py::TestWorkerPool::
# test_inherited_socket_fallback, takes 10.1 s on a 2-core OpenBLAS host
# (``pytest --durations=10``); 120 s is 12x that, slack for slower runners.
WATCHDOG_S = 120.0

_watchdog_file = None


def pytest_configure(config):
    # Output capture redirects fd 2 while a test runs, and the dump goes out
    # just before the process exits: write it to a copy of the real stderr,
    # taken here while capture is suspended.
    global _watchdog_file
    _watchdog_file = os.fdopen(os.dup(sys.stderr.fileno()), "w")


def pytest_unconfigure(config):
    if _watchdog_file is not None:
        _watchdog_file.close()


@pytest.fixture(autouse=True)
def _hang_watchdog():
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True, file=_watchdog_file)
    yield
    faulthandler.cancel_dump_traceback_later()
