"""HTTP load from one process: a seeded open-loop schedule, and a closed loop.

Requests are sent on a schedule regardless of how fast answers come back
(independent users make an open loop).  At most ``clients`` keep-alive
connections carry them: a free connection takes the next request in due
order and sends it when it falls due, or at once when it is already late.
Every latency is timed from the request's due time, so a stall also
charges the requests queued behind it, and the lateness of each send is
recorded.  A non-200 answer, a timeout or a connection error counts as a
failure and as missing any latency limit.
"""

from __future__ import annotations

import http.client
import threading
import time
from typing import Callable, Sequence

import numpy as np


def poisson_offsets(rng: np.random.Generator, rate: float, seconds: float) -> np.ndarray:
    """Send offsets (s) of a Poisson process at ``rate`` over ``seconds``."""
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 16)
    offsets = np.cumsum(gaps)
    return offsets[offsets < seconds]


def run_schedule(
    port: int,
    paths: Sequence[str],
    offsets: np.ndarray,
    clients: int,
    timeout_s: float,
    events: Sequence[tuple] = (),
) -> dict:
    """Send ``paths[i]`` at ``offsets[i]``; ``events`` are ``(offset, fn)`` calls.

    Returns per-request latency and lateness (seconds, NaN latency for a
    failed request) plus sent/succeeded/failed counts and the wall time.
    """
    n = len(paths)
    latency = np.full(n, np.nan)
    lateness = np.zeros(n)
    cursor = [0]
    lock = threading.Lock()
    start = time.perf_counter() + 0.02

    def client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout_s)
        try:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= n:
                    return
                due = start + offsets[i]
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                lateness[i] = sent - due
                try:
                    conn.request("GET", paths[i])
                    response = conn.getresponse()
                    response.read()
                    if response.status == 200:
                        latency[i] = time.perf_counter() - due
                except (OSError, http.client.HTTPException):
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout_s)
        finally:
            conn.close()

    def fire(offset: float, fn: Callable[[], None]) -> None:
        wait = start + offset - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        fn()

    threads = [threading.Thread(target=client, daemon=True) for _ in range(clients)]
    threads += [threading.Thread(target=fire, args=event, daemon=True) for event in events]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    ok = ~np.isnan(latency)
    return {
        "sent": n,
        "succeeded": int(ok.sum()),
        "failed": int(n - ok.sum()),
        "latency_s": latency,
        "lateness_s": lateness,
        "wall_s": wall,
    }


def run_closed(port: int, paths: Sequence[str], clients: int, seconds: float, timeout_s: float) -> dict:
    """Closed loop: each connection sends its next request when the last returns."""
    cursor = [0]
    done = [0, 0]  # succeeded, failed
    lock = threading.Lock()
    stop = time.perf_counter() + seconds

    def client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout_s)
        try:
            while time.perf_counter() < stop:
                with lock:
                    path = paths[cursor[0] % len(paths)]
                    cursor[0] += 1
                try:
                    conn.request("GET", path)
                    response = conn.getresponse()
                    response.read()
                    ok = response.status == 200
                except (OSError, http.client.HTTPException):
                    ok = False
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout_s)
                with lock:
                    done[0 if ok else 1] += 1
        finally:
            conn.close()

    start = time.perf_counter()
    threads = [threading.Thread(target=client, daemon=True) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    return {"sent": sum(done), "succeeded": done[0], "failed": done[1], "wall_s": wall}


PERCENTILES = (99.0, 95.0, 90.0)


def tail_percentile(count: int) -> float:
    """Highest of :data:`PERCENTILES` with at least ten samples beyond it."""
    for p in PERCENTILES:
        if count * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def latency_ms(latency_s: np.ndarray, p: float) -> float:
    """``p``-th percentile in ms; failed requests (NaN) count as infinite."""
    filled = np.where(np.isnan(latency_s), np.inf, latency_s)
    return float(np.percentile(filled, p, method="higher") * 1e3)
