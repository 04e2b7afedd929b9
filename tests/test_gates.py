import hashlib
import itertools
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from conftest import edit_distance_oracle

from ringmpc import editdist
from ringmpc.dealer import Need, RecordingStore
from ringmpc.engine import Session
from ringmpc import gates, threads
from ringmpc.errors import DomainError, MaterialReuseError, ShapeError
from ringmpc.gates import (
    and_n,
    bank,
    fanin_schedule,
    mult_n,
    or_n,
    reduce_layers,
)
from ringmpc.ring import BOOL, Z8, Z16, Z32, Z64, const_pair, reconst, unpack_lanes


def truth_table_inputs(sess, fan_in):
    rows = np.array(list(itertools.product([0, 1], repeat=fan_in)), dtype=np.uint64)
    return rows, [sess.share_input(rows[:, i], BOOL) for i in range(fan_in)]


@pytest.mark.parametrize("fan_in", range(2, 10))
def test_and_or_exhaustive_truth_tables(fan_in):
    sess = Session(seed=fan_in)
    batch = 1 << fan_in
    sess.provision([Need("bte", 1, batch, fan_in=fan_in)] * 2)
    rows, inputs = truth_table_inputs(sess, fan_in)
    z_and = sess.run(and_n(inputs, *sess.store.take_bte(fan_in, BOOL, batch)))
    z_or = sess.run(or_n(inputs, *sess.store.take_bte(fan_in, BOOL, batch)))
    assert np.array_equal(reconst(*z_and), rows.min(axis=1).astype(np.uint8))
    assert np.array_equal(reconst(*z_or), rows.max(axis=1).astype(np.uint8))


@pytest.mark.parametrize("ring", [Z8, Z16, Z32, Z64])
@pytest.mark.parametrize("fan_in", [2, 3, 5, 9])
def test_mult_random(ring, fan_in):
    sess = Session(seed=99)
    batch = 200
    sess.provision([Need("bte", ring.width_bits, batch, fan_in=fan_in)])
    rng = np.random.default_rng(5)
    vals = [
        ring.wrap(rng.integers(0, 1 << 63, batch, dtype=np.uint64))
        for _ in range(fan_in)
    ]
    inputs = [sess.share_input(v, ring) for v in vals]
    z = sess.run(mult_n(inputs, *sess.store.take_bte(fan_in, ring, batch)))
    expect = np.ones(batch, dtype=ring.dtype)
    for v in vals:
        expect = ring.wrap(expect * v)
    assert np.array_equal(reconst(*z), expect)


def _reference_subset_sum(rows, opened, head):
    """sum_I a_I * prod_{l not in I} x'_l from one party's rows, built on a
    per-mask list of partial products q[mask] = prod_{l in mask} x'_l."""
    n = len(opened)
    full = (1 << n) - 1
    q = [np.ones(rows.shape[1], dtype=rows.dtype)] + [None] * full
    for mask in range(1, full + 1):
        low = mask & -mask
        q[mask] = q[mask ^ low] * opened[low.bit_length() - 1]
    z = q[full] * rows.dtype.type(head)
    for mask in range(1, full + 1):
        z += q[full ^ mask] * rows[mask - 1]
    return z


def _check_fold(ring, fan_in, batch):
    """Run one gate; check each party's output share against
    ``_reference_subset_sum`` of its table, the opened output against the
    plaintext product and, at width 1, that the padding lanes are zero."""
    sess = Session(seed=fan_in)
    sess.provision([Need("bte", ring.width_bits, batch, fan_in=fan_in)])
    rng = np.random.default_rng(8)
    high = 2 if ring.is_boolean else ring.modulus
    vals = np.array([rng.integers(0, high, batch, dtype=np.uint64) for _ in range(fan_in)])
    inputs = [sess.share_input(v, ring) for v in vals]
    t0, t1 = sess.store.take_bte(fan_in, ring, batch)
    # The fold overwrites the tables; boolean rows are read lane by lane.
    rows = tuple(unpack_lanes(t.rows, batch) if ring.is_boolean else t.rows.copy()
                 for t in (t0, t1))
    z = sess.run(mult_n(inputs, t0, t1))
    (items,) = sess.transcript.rounds
    # Boolean payloads are packed words; the reference reads them lane by lane.
    opened = [unpack_lanes(item.p0 ^ item.p1, item.count) if ring.is_boolean
              else ring.wrap(item.p0 + item.p1) for item in items]
    for party in (0, 1):
        expect = _reference_subset_sum(rows[party], opened, head=1 - party)
        assert np.array_equal(z[party].values, ring.wrap(expect))
    assert np.array_equal(reconst(*z), ring.wrap(np.prod(vals, axis=0, dtype=np.uint64)))
    if ring.is_boolean and batch % 64:
        assert not (z.v[:, -1] >> np.uint64(batch % 64)).any()


@pytest.mark.parametrize("ring", [BOOL, Z8, Z64, Z16, Z32])
@pytest.mark.parametrize("fan_in", [2, 3, 9])
def test_fold_equals_reference_subset_sum(ring, fan_in):
    _check_fold(ring, fan_in, 64)


BLOCK = threads.BLOCK_COLS


@pytest.mark.parametrize("block", [1, 2, 3])
@pytest.mark.parametrize("ring", [BOOL, Z8, Z16, Z32, Z64], ids=lambda r: f"z{r.width_bits}")
@pytest.mark.parametrize("fan_in", [2, 3, 9])
def test_fold_in_column_blocks_equals_reference_subset_sum(monkeypatch, ring, fan_in, block):
    # Seven layout columns: seven blocks of 1, 2+2+2+1 or 3+3+1. At width 1
    # the last of the seven words is part padding.
    monkeypatch.setattr(threads, "BLOCK_COLS", block)
    _check_fold(ring, fan_in, 6 * 64 + 10 if ring.is_boolean else 7)


def test_fold_in_column_blocks_at_the_real_block_width():
    _check_fold(Z64, 3, 2 * BLOCK + 5)


@pytest.mark.parametrize("batch,widths", [(BLOCK, [BLOCK]), (2 * BLOCK + 5, [BLOCK, BLOCK, 5])])
def test_fold_takes_a_narrow_table_whole_and_a_wide_one_in_views(monkeypatch, batch, widths):
    folded = []
    fold = gates._fold
    monkeypatch.setattr(gates, "_fold", lambda rows, *rest: (folded.append(rows), fold(rows, *rest)))
    sess = Session(seed=4)
    sess.provision([Need("bte", 16, batch, fan_in=3)])
    inputs = [sess.share_input(np.ones(batch, np.uint64), Z16) for _ in range(3)]
    t0, t1 = sess.store.take_bte(3, Z16, batch)
    sess.run(mult_n(inputs, t0, t1))
    # Blocks run on the thread pool in any order, each in one thread: party
    # 0's rows, then party 1's. One block is the table itself.
    tables = (t0.rows, t1.rows)
    by_block = {}
    for rows in folded:
        (party,) = [p for p, table in enumerate(tables)
                    if 0 <= rows.ctypes.data - table.ctypes.data < table.nbytes]
        assert rows is tables[party] if len(widths) == 1 else np.shares_memory(rows, tables[party])
        lo = (rows.ctypes.data - tables[party].ctypes.data) // rows.itemsize
        by_block.setdefault(lo, []).append((party, rows.shape[1]))
    starts = itertools.accumulate(widths, initial=0)
    assert by_block == {lo: [(0, w), (1, w)] for lo, w in zip(starts, widths)}


def test_blocked_fold_allocates_no_table_sized_temporary():
    # Eleven blocks of a fan-in-5 Z_2^64 table: 31 rows of 320 KiB per party.
    # The gate's own arrays are the masked payloads (which the transcript
    # keeps, uncopied), the opened inputs and the output; a copy of the
    # payloads or of one block's rows, or any table-sized temporary, would
    # exceed them by more than the slack.
    fan_in, batch = 5, 10 * BLOCK + 5
    sess = Session(seed=6)
    sess.provision([Need("bte", 64, batch, fan_in=fan_in)])
    inputs = [sess.share_input(np.arange(batch, dtype=np.uint64), Z64) for _ in range(fan_in)]
    tables = sess.store.take_bte(fan_in, Z64, batch)
    row = 8 * batch
    tracemalloc.start()
    try:
        sess.run(mult_n(inputs, *tables))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    payloads = 2 * fan_in * row
    opened, output = fan_in * row, 2 * row
    assert peak < payloads + opened + output + (256 << 10)


@pytest.mark.parametrize("ring", [Z64, BOOL], ids=lambda r: f"z{r.width_bits}")
def test_tables_and_outputs_are_the_same_bits_at_any_thread_count(thread_pool, ring):
    # Fan-in 9 at 2 * 4096 + 5 layout columns: three column blocks.
    fan_in, batch = 9, (2 * BLOCK + 5) * ring.lanes
    vals = np.random.default_rng(3).integers(0, min(ring.modulus, 1 << 63), (fan_in, batch),
                                             dtype=np.uint64)
    runs = []
    for workers in (0, 1, 2):  # no pool: one thread, in order
        pool = thread_pool(workers)
        sess = Session(seed=12)
        inputs = [sess.share_input(v, ring) for v in vals]
        sess.provision([Need("bte", ring.width_bits, batch, fan_in=fan_in)])
        t0, t1 = sess.store.take_bte(fan_in, ring, batch)
        digests = [hashlib.sha256(t.rows).hexdigest() for t in (t0, t1)]
        out = sess.run(mult_n(inputs, t0, t1))
        (items,) = sess.transcript.rounds
        digests += [hashlib.sha256(a).hexdigest() for item in items for a in (item.p0, item.p1)]
        runs.append((digests, out.v.tobytes()))
        assert workers == 0 or pool.tasks > 0
    assert runs[1] == runs[0] and runs[2] == runs[0]
    assert np.array_equal(reconst(*out), ring.wrap(np.prod(vals, axis=0, dtype=np.uint64)))


def _wide_gate_is_correct() -> bool:
    """Run a fan-in-3 Z_2^64 gate three column blocks wide, against the plain product."""
    batch = 2 * BLOCK + 5
    vals = np.random.default_rng(2).integers(0, 1 << 63, (3, batch), dtype=np.uint64)
    sess = Session(seed=2)
    inputs = [sess.share_input(v, Z64) for v in vals]
    sess.provision([Need("bte", 64, batch, fan_in=3)])
    out = sess.run(mult_n(inputs, *sess.store.take_bte(3, Z64, batch)))
    return np.array_equal(reconst(*out), np.prod(vals, axis=0, dtype=np.uint64))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_runs_wide_kernels_on_a_pool_of_its_own(thread_pool):
    pool = thread_pool(2)
    assert _wide_gate_is_correct() and pool.tasks  # the pool's threads run here
    with warnings.catch_warnings():  # forking a process that has threads
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        ok = False
        try:
            ok = _wide_gate_is_correct()
        finally:
            os._exit(0 if ok else 1)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:  # the child hung: its pool had no threads
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_a_process_on_one_cpu_has_no_pool():
    code = ("import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
            "sys.path.insert(0, 'src'); from ringmpc import threads; print(threads.POOL)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).parents[1],
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.split() == ["None"], proc.stderr


def test_a_narrow_gate_never_reaches_the_thread_pool(monkeypatch):
    class NoPool:
        def __getattr__(self, name):
            raise AssertionError(f"the thread pool's {name} was used")

    monkeypatch.setattr(threads, "POOL", NoPool())
    codes = np.random.default_rng(6).integers(0, editdist.ALPHABET, (2, 1, 5), dtype=np.uint64)
    sess = Session(seed=6)
    sess.provision(editdist.edit_distance_manifest(5, 1))
    s, t = (editdist.share_strings(c, sess.dealer) for c in codes)
    z = sess.run(editdist.edit_distance(sess.store, s, t))
    assert reconst(*z).tolist() == [edit_distance_oracle(codes[0, 0], codes[1, 0])]


def test_gate_rejects_table_rows_of_the_wrong_shape():
    sess = Session(seed=5)
    sess.provision([Need("bte", 8, 2, fan_in=3)])
    inputs = [sess.share_input([1, 2], Z8) for _ in range(3)]
    t0, t1 = sess.store.take_bte(3, Z8, 2)
    with_empty_row = np.zeros((8, 2), dtype=np.uint8)
    for bad in (with_empty_row, t0.rows[:, :1], t0.rows.ravel()):
        with pytest.raises(ShapeError):
            next(mult_n(inputs, replace(t0, rows=bad), t1))
        with pytest.raises(ShapeError):
            next(mult_n(inputs, t0, replace(t1, rows=bad)))
    assert not (t0.consumed or t1.consumed)


def test_gate_rejects_byte_per_bit_boolean_rows():
    sess = Session(seed=5)
    sess.provision([Need("bte", 1, 70, fan_in=2)])
    inputs = [sess.share_input(np.ones(70, np.uint64), BOOL) for _ in range(2)]
    t0, t1 = sess.store.take_bte(2, BOOL, 70)
    assert t0.rows.shape == (3, 2) and t0.rows.dtype == np.uint64
    for bad in (unpack_lanes(t0.rows, 70), t0.rows.astype(np.uint8), t0.rows[:, :1]):
        with pytest.raises(ShapeError):
            next(and_n(inputs, replace(t0, rows=bad), t1))
    assert not (t0.consumed or t1.consumed)


@pytest.mark.parametrize("batch", [1, 63, 65, 130, 1000])
@pytest.mark.parametrize("op,ring", [(and_n, BOOL), (or_n, BOOL), (mult_n, Z16)])
def test_gate_oracle_at_batches_off_the_word(op, ring, batch):
    fan_in = 3
    sess = Session(seed=batch)
    sess.provision([Need("bte", ring.width_bits, batch, fan_in=fan_in)])
    rng = np.random.default_rng(batch)
    high = 2 if ring.is_boolean else ring.modulus
    vals = rng.integers(0, high, (fan_in, batch), dtype=np.uint64)
    inputs = [sess.share_input(v, ring) for v in vals]
    z = sess.run(op(inputs, *sess.store.take_bte(fan_in, ring, batch)))
    if op is or_n:
        expect = np.bitwise_or.reduce(vals)
    else:
        expect = ring.wrap(np.prod(vals, axis=0, dtype=np.uint64))
    if ring.is_boolean:  # packed output words, padding lanes zero
        assert z.v.shape == (2, -(-batch // 64)) and z.v.dtype == np.uint64
        if batch % 64:
            assert not (z.v[:, -1] >> np.uint64(batch % 64)).any()
    else:
        assert z.v.shape == (2, batch) and z.v.dtype == ring.dtype
    assert np.array_equal(reconst(*z), ring.wrap(expect))
    assert sess.bits == [fan_in * batch * ring.width_bits] * 2


@pytest.mark.parametrize("batch", [1, 63, 65, 130])
@pytest.mark.parametrize("op", [and_n, or_n])
def test_boolean_payloads_carry_no_bit_past_the_batch(op, batch):
    sess = Session(seed=batch)
    sess.provision([Need("bte", 1, batch, fan_in=3)])
    inputs = [sess.share_input(np.ones(batch, np.uint64), BOOL) for _ in range(3)]
    sess.run(op(inputs, *sess.store.take_bte(3, BOOL, batch)))
    (items,) = sess.transcript.rounds
    for item in items:
        assert item.count == batch
        for words in (item.p0, item.p1):
            assert words.dtype == np.uint64 and words.shape == (-(-batch // 64),)
            if batch % 64:
                assert not words[-1] >> np.uint64(batch % 64)


def test_boolean_opened_bits_balanced_and_secret_independent():
    """Criterion 7 at width 1: the opened bits of a 2-AND at batch 1e5 are
    balanced (chi-square p > 0.001), whatever the secret."""
    batch = 100_000
    counts = []
    for secret in (0, 1):
        sess = Session(seed=700)  # same seed: same masks for both secrets
        sess.provision([Need("bte", 1, batch, fan_in=2)])
        x = sess.share_input(np.full(batch, secret, np.uint64), BOOL)
        y = sess.share_input(np.full(batch, secret ^ 1, np.uint64), BOOL)
        sess.run(and_n([x, y], *sess.store.take_bte(2, BOOL, batch)))
        (items,) = sess.transcript.rounds
        opened = np.concatenate([unpack_lanes(i.p0 ^ i.p1, i.count) for i in items])
        counts.append(np.bincount(opened, minlength=2))
        assert scipy.stats.chisquare(counts[-1]).pvalue > 0.001
    assert scipy.stats.chi2_contingency(np.stack(counts)).pvalue > 0.001


@pytest.mark.parametrize("fan_in", range(2, 10))
def test_gate_costs_one_round_and_fanin_bits(fan_in):
    sess = Session(seed=1)
    sess.provision([Need("bte", 32, 1, fan_in=fan_in)])
    inputs = [sess.share_input([3], Z32) for _ in range(fan_in)]
    sess.run(mult_n(inputs, *sess.store.take_bte(fan_in, Z32, 1)))
    assert sess.rounds == 1
    assert sess.bits == [fan_in * 32, fan_in * 32]


def test_gate_material_single_use():
    sess = Session(seed=2)
    sess.provision([Need("bte", 1, 1, fan_in=2)])
    t0, t1 = sess.store.take_bte(2, BOOL, 1)
    a = sess.share_input([1], BOOL)
    b = sess.share_input([1], BOOL)
    sess.run(and_n([a, b], t0, t1))
    with pytest.raises(MaterialReuseError):
        sess.run(and_n([a, b], t0, t1))


def test_gate_input_validation():
    sess = Session(seed=3)
    sess.provision([Need("bte", 1, 2, fan_in=2), Need("bte", 8, 1, fan_in=2)])
    a = sess.share_input([1, 0], BOOL)
    b = sess.share_input([1], BOOL)
    t0, t1 = sess.store.take_bte(2, BOOL, 2)
    with pytest.raises(ShapeError):
        next(and_n([a, b], t0, t1))
    with pytest.raises(ShapeError):
        next(and_n([a, a, a], t0, t1))  # fan-in mismatch with the table
    arith = sess.share_input([1], Z8)
    u0, u1 = sess.store.take_bte(2, Z8, 1)
    with pytest.raises(DomainError):
        next(and_n([arith, arith], u0, u1))
    with pytest.raises(DomainError):
        next(or_n([arith, arith], u0, u1))


def test_fanin_schedule_shapes():
    assert fanin_schedule(64, 8) == [[8] * 8, [8]]
    assert fanin_schedule(16, 4) == [[4] * 4, [4]]
    layers = fanin_schedule(10, 4)
    assert layers == [[4, 4, 2], [3]]
    # A fan-1 entry is a free pass-through wire.
    assert fanin_schedule(5, 4) == [[4, 1], [2]]


def test_fanin_schedule_validation():
    with pytest.raises(ShapeError):
        fanin_schedule(1, 4)
    with pytest.raises(DomainError):
        fanin_schedule(4, 1)


def test_batched_gate_scales_bits_linearly():
    sess = Session(seed=4)
    batch = 1000
    sess.provision([Need("bte", 1, batch, fan_in=2)])
    rng = np.random.default_rng(0)
    a = sess.share_input(rng.integers(0, 2, batch, dtype=np.uint64), BOOL)
    b = sess.share_input(rng.integers(0, 2, batch, dtype=np.uint64), BOOL)
    sess.run(and_n([a, b], *sess.store.take_bte(2, BOOL, batch)))
    assert sess.rounds == 1
    assert sess.bits == [2 * batch, 2 * batch]


# (fan-in, batch) of each gate: mixed fan-ins, unequal batches, a fan-in
# that only one gate has.
BANK_GATES = [(3, 4), (2, 5), (3, 2), (4, 3), (2, 1)]
BANK_TAKES = [(2, 6), (3, 6), (4, 3)]  # ascending fan-in, summed batch


def _bank_inputs(sess, ring):
    rng = np.random.default_rng(11)
    high = 2 if ring.is_boolean else ring.modulus
    plain = [
        [rng.integers(0, high, batch, dtype=np.uint64) for _ in range(fan)]
        for fan, batch in BANK_GATES
    ]
    return plain, [[sess.share_input(v, ring) for v in gate] for gate in plain]


def _plain_gate(op, ring, vals):
    """The plaintext output of one ``op`` gate over ``vals``."""
    if op is or_n:
        return np.bitwise_or.reduce(vals)
    out = np.ones(len(vals[0]), dtype=np.uint64)
    for v in vals:
        out = ring.wrap(out * v)
    return out


@pytest.mark.parametrize("op,ring", [(and_n, BOOL), (or_n, BOOL), (mult_n, Z32)])
def test_bank_runs_mixed_gates_in_one_round(op, ring):
    sess = Session(seed=6)
    sess.provision([Need("bte", ring.width_bits, b, fan_in=f) for f, b in BANK_TAKES])
    plain, gates = _bank_inputs(sess, ring)
    outs = sess.run(bank(sess.store, op, gates))
    for vals, out in zip(plain, outs):
        assert np.array_equal(reconst(*out), _plain_gate(op, ring, vals))
    assert sess.rounds == 1
    bits = sum(f * b * ring.width_bits for f, b in BANK_GATES)
    assert sess.bits == [bits, bits]
    assert sess.store.is_empty()


@pytest.mark.parametrize("op,ring", [(and_n, BOOL), (mult_n, Z32)])
def test_bank_takes_one_table_per_fanin_in_ascending_order(op, ring):
    store = RecordingStore()
    _, gates = _bank_inputs(Session(seed=6), ring)
    Session().run(bank(store, op, gates))
    assert store.needs == [
        Need("bte", ring.width_bits, b, fan_in=f) for f, b in BANK_TAKES
    ]


@pytest.mark.parametrize("op", [and_n, or_n])
def test_bank_stacks_boolean_gates_across_word_boundaries(op):
    """Gates of batches 1, 63 and 130 share one packed table of 194 lanes
    (4 words); each output is cut back out at its own offset."""
    sess = Session(seed=9)
    sess.provision([Need("bte", 1, 194, fan_in=3)])
    rng = np.random.default_rng(9)
    plain = [rng.integers(0, 2, (3, b), dtype=np.uint64) for b in (1, 63, 130)]
    gates = [[sess.share_input(v, BOOL) for v in vals] for vals in plain]
    outs = sess.run(bank(sess.store, op, gates))
    reduce = np.bitwise_or.reduce if op is or_n else np.bitwise_and.reduce
    for vals, out in zip(plain, outs):
        assert np.array_equal(reconst(*out), reduce(vals).astype(np.uint8))
    assert sess.rounds == 1
    assert sess.bits == [3 * 194] * 2
    assert sess.store.is_empty()


def test_bank_without_gates_costs_nothing():
    sess = Session(seed=0)
    store = RecordingStore()
    assert sess.run(bank(store, and_n, [])) == []
    assert sess.rounds == 0
    assert store.needs == []


@pytest.mark.parametrize("op,ring", [(and_n, BOOL), (or_n, BOOL), (mult_n, Z32)])
def test_bank_passes_one_input_gates_as_wires(op, ring):
    """A layer of fan-ins [1, 3, 1, 2, 2] takes what the layer without its
    wires takes, in the same order, and costs one round; each wire's
    output is its input pair itself."""
    sess = Session(seed=12)
    rng = np.random.default_rng(12)
    high = 2 if ring.is_boolean else ring.modulus
    plain = [rng.integers(0, high, (fan, 5), dtype=np.uint64) for fan in (1, 3, 1, 2, 2)]
    layer = [[sess.share_input(v, ring) for v in vals] for vals in plain]
    with_wires, without_wires = RecordingStore(), RecordingStore()
    Session().run(bank(with_wires, op, layer))
    Session().run(bank(without_wires, op, [gate for gate in layer if len(gate) > 1]))
    assert with_wires.needs == without_wires.needs
    sess.provision(with_wires.needs)
    outs = sess.run(bank(sess.store, op, layer))
    for vals, gate, out in zip(plain, layer, outs):
        if len(gate) == 1:
            assert out is gate[0]
        assert np.array_equal(reconst(*out), _plain_gate(op, ring, vals))
    assert sess.rounds == 1
    bits = 7 * 5 * ring.width_bits  # the wires send nothing
    assert sess.bits == [bits, bits]
    assert sess.store.is_empty()


def test_bank_of_wires_alone_takes_nothing_and_costs_no_round():
    sess = Session(seed=0)
    store = RecordingStore()
    pairs = [sess.share_input([1, 0, 1], BOOL) for _ in range(3)]
    outs = sess.run(bank(store, and_n, [[pair] for pair in pairs]))
    assert len(outs) == 3 and all(out is pair for out, pair in zip(outs, pairs))
    assert sess.rounds == 0 and sess.bits == [0, 0]
    assert store.needs == []


@pytest.mark.parametrize("total", [5, 10])  # plans [[4, 1], [2]] and [[4, 4, 2], [3]]
@pytest.mark.parametrize("batch", [1, 63, 65])
@pytest.mark.parametrize("op", [and_n, or_n])
def test_reduce_layers_matches_plaintext_oracle(op, batch, total):
    layers = fanin_schedule(total, 4)
    recording = RecordingStore()
    Session().run(reduce_layers(recording, op, [const_pair(0, BOOL, batch)] * total, layers))
    sess = Session(seed=total)
    sess.provision(recording.needs)
    plain = np.random.default_rng(batch).integers(0, 2, (total, batch), dtype=np.uint64)
    pairs = [sess.share_input(v, BOOL) for v in plain]
    (out,) = sess.run(reduce_layers(sess.store, op, pairs, layers))
    assert np.array_equal(reconst(*out), _plain_gate(op, BOOL, plain).astype(np.uint8))
    assert sess.rounds == len(layers)
    assert sess.store.is_empty()
