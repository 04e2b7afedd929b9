"""The one thread pool of the wide-table kernels.

Three kernels cut wide work into independent pieces: the gate fold
(``gates._fold_blocks``) and the dealer's table build (``Dealer.gen_bte``)
take a table in column blocks of ``BLOCK_COLS``, and ``ring.raw_words``
cuts a long raw draw into one contiguous range per worker. NumPy's ufuncs
and a bit generator's ``random_raw`` release the interpreter lock, so ``POOL``
runs the pieces on up to as many threads as the process has CPUs (its
affinity set). Each piece writes only its own columns or words, so
material, transcripts and outputs are the same bits at any thread count.
A process that may run on one CPU has no pool, and those kernels run as
one thread. A forked child makes a pool of its own. The pool's threads
start at its first task, not on import, and call only untraced code:
ufuncs, ``random_raw`` and ``gates._fold``.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait

# Wide kernels take a table in blocks of this many layout columns (32 KiB
# per row at Z_2^64), so all N levels of a block run while its rows are in
# cache. Blocks of 2048 columns or fewer ran slower than one pass over the
# whole table, at Z_2^16 and at width 1 as at Z_2^64, so this is a least
# block width in columns, not a cache budget.
BLOCK_COLS = 4096


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has an affinity call
        return os.cpu_count() or 1


def _pool() -> ThreadPoolExecutor | None:
    cpus = _cpus()
    return ThreadPoolExecutor(cpus, thread_name_prefix="ringmpc") if cpus > 1 else None


POOL = _pool()


def _after_fork_in_child():
    """A forked child inherits the pool's record of its threads but not the
    threads, and a pool that counts them as started starts no more: its
    tasks would wait forever. So the child gets a pool of its own."""
    global POOL
    POOL = _pool()


if hasattr(os, "register_at_fork"):  # POSIX only, like fork itself
    os.register_at_fork(after_in_child=_after_fork_in_child)


def workers() -> int:
    """The number of threads of ``POOL``, or 0 when there is none."""
    return 0 if POOL is None else POOL._max_workers


def blocks(cols: int) -> list[slice]:
    """The column blocks of a ``cols``-column table, ``BLOCK_COLS`` each
    but the last."""
    return [slice(lo, lo + BLOCK_COLS) for lo in range(0, cols, BLOCK_COLS)]


def run(fn, items):
    """Call ``fn`` on each of ``items``: on ``POOL``, or in order in this
    thread when there is none. Returns once every call has ended, and
    then raises the first error in ``items`` order, if any."""
    if POOL is None:
        for item in items:
            fn(item)
        return
    futures = [POOL.submit(fn, item) for item in items]
    wait(futures)
    for future in futures:
        future.result()
