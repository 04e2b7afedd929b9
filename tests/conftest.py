"""Shared plaintext oracles and helpers for the test suite."""
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ringmpc import bench, threads
from ringmpc.gates import DEFAULT_FANIN_CAP


class CountingPool(ThreadPoolExecutor):
    """A thread pool that counts the tasks submitted to it."""

    tasks = 0

    def submit(self, *args, **kwargs):
        self.tasks += 1
        return super().submit(*args, **kwargs)


@pytest.fixture
def thread_pool(monkeypatch):
    """``thread_pool(k)`` makes ``threads.POOL`` a ``CountingPool`` of ``k``
    workers, or no pool at ``k = 0``, for the rest of the test, and returns
    it. Every pool it made is shut down after the test."""
    made = []

    def use(workers: int):
        pool = CountingPool(workers) if workers else None
        if pool:
            made.append(pool)
        monkeypatch.setattr(threads, "POOL", pool)
        return pool

    yield use
    for pool in made:
        pool.shutdown()


def edit_distance_oracle(a, b) -> int:
    """Classic dynamic-programming Levenshtein distance."""
    la, lb = len(a), len(b)
    row = np.arange(lb + 1)
    for i in range(1, la + 1):
        prev = row.copy()
        row[0] = i
        for j in range(1, lb + 1):
            row[j] = min(prev[j] + 1, row[j - 1] + 1,
                         prev[j - 1] + (a[i - 1] != b[j - 1]))
    return int(row[lb])


def edit_distance_oracle_batch(S, T) -> np.ndarray:
    """``edit_distance_oracle`` of each row pair of the (P, La) and (P, Lb)
    arrays ``S`` and ``T``: the same loops over i and j, each step one numpy
    op over all P pairs."""
    S, T = np.asarray(S), np.asarray(T)
    la, lb = S.shape[1], T.shape[1]
    row = np.repeat(np.arange(lb + 1)[:, None], len(S), axis=1)  # (lb + 1, P)
    for i in range(1, la + 1):
        prev = row.copy()
        row[0] = i
        for j in range(1, lb + 1):
            row[j] = np.minimum(np.minimum(prev[j] + 1, row[j - 1] + 1),
                                prev[j - 1] + (S[:, i - 1] != T[:, j - 1]))
    return row[lb]


def manifest(name: str, ring, batch: int, baseline: bool = False,
             fanin_cap: int = DEFAULT_FANIN_CAP):
    """``bench.manifest`` of registry entry ``name`` (maxN and tluN too), or of its baseline."""
    return bench.manifest(*bench._protocol(name, baseline, fanin_cap), ring, batch)


def msb_index(v: int) -> int:
    """Index of the most significant set bit, or -1 for zero."""
    return v.bit_length() - 1
