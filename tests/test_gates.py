import itertools

import numpy as np
import pytest

from ringmpc.dealer import Need, RecordingStore
from ringmpc.engine import Session
from ringmpc.errors import DomainError, MaterialReuseError, ShapeError
from ringmpc.gates import (
    and_n,
    bank,
    fanin_schedule,
    mult_n,
    or_n,
    schedule_gate_bits,
    schedule_rounds,
)
from ringmpc.ring import BOOL, Z8, Z16, Z32, Z64, reconst


def truth_table_inputs(sess, fan_in):
    rows = np.array(list(itertools.product([0, 1], repeat=fan_in)), dtype=np.uint64)
    return rows, [sess.share_input(rows[:, i], BOOL) for i in range(fan_in)]


@pytest.mark.parametrize("fan_in", range(2, 10))
def test_and_or_exhaustive_truth_tables(fan_in):
    sess = Session(seed=fan_in)
    batch = 1 << fan_in
    sess.provision([Need("bte", 1, batch, fan_in=fan_in, count=2)])
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
    assert schedule_rounds(layers) == 2
    assert schedule_gate_bits(layers, 1) == 13
    # A fan-1 entry is a free pass-through wire.
    assert fanin_schedule(5, 4) == [[4, 1], [2]]
    assert schedule_gate_bits(fanin_schedule(5, 4), 1) == 6


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


@pytest.mark.parametrize("op,ring", [(and_n, BOOL), (or_n, BOOL), (mult_n, Z32)])
def test_bank_runs_mixed_gates_in_one_round(op, ring):
    sess = Session(seed=6)
    sess.provision([Need("bte", ring.width_bits, b, fan_in=f) for f, b in BANK_TAKES])
    plain, gates = _bank_inputs(sess, ring)
    outs = sess.run(bank(sess.store, op, gates))
    for vals, out in zip(plain, outs):
        if op is or_n:
            expect = np.bitwise_or.reduce(vals)
        else:
            expect = np.ones(len(vals[0]), dtype=ring.dtype)
            for v in vals:
                expect = ring.wrap(expect * v)
        assert np.array_equal(reconst(*out), ring.wrap(expect))
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


def test_bank_without_gates_costs_nothing():
    sess = Session(seed=0)
    store = RecordingStore()
    assert sess.run(bank(store, and_n, [])) == []
    assert sess.rounds == 0
    assert store.needs == []
