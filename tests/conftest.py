"""Shared plaintext oracles and helpers for the test suite."""
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ringmpc import threads


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


def msb_index(v: int) -> int:
    """Index of the most significant set bit, or -1 for zero."""
    return v.bit_length() - 1
