import struct

import numpy as np
import pytest
from conftest import manifest

from ringmpc import dealer, threads
from ringmpc import protocols as P
from ringmpc.dealer import Dealer, Need
from ringmpc.engine import CostModel, ExchangeItem, Session, Transcript, parallel
from ringmpc.errors import DomainError, MaterialError, ProtocolDesyncError, ShapeError
from ringmpc.ring import RINGS, Z32, pack_lanes, reconst, unpack_lanes


def _row(values, width=8):
    """``values`` as one payload row of the width's layout."""
    return np.asarray(values, dtype=RINGS[width].word)


def _noise_round(n_items=1, length=4, width=8):
    return [
        ExchangeItem(_row(np.arange(length), width), _row(np.arange(length) + 1, width),
                     width, length)
        for _ in range(n_items)
    ]


def simple_protocol(rounds, n_items=1, length=4, width=8):
    for _ in range(rounds):
        yield _noise_round(n_items, length, width)
    return rounds


def test_exchange_accounting():
    sess = Session(seed=0)
    result = sess.run(simple_protocol(3, n_items=2, length=5, width=16))
    assert result == 3
    assert sess.rounds == 3
    assert sess.bits == [3 * 2 * 5 * 16] * 2


def test_empty_yield_costs_nothing():
    def quiet():
        yield []
        return "done"

    sess = Session(seed=0)
    assert sess.run(quiet()) == "done"
    assert sess.rounds == 0
    assert sess.bits == [0, 0]


def test_responses_are_raw_payload_pairs():
    def probe():
        responses = yield [ExchangeItem(_row([1, 2]), _row([3, 4]), 8, 2)]
        p0, p1 = responses[0]
        return p0.tolist(), p1.tolist()

    sess = Session(seed=0)
    assert sess.run(probe()) == ([1, 2], [3, 4])


def test_parallel_rounds_are_max_not_sum():
    sess = Session(seed=0)
    results = sess.run(
        parallel([simple_protocol(1), simple_protocol(4), simple_protocol(2)])
    )
    assert results == [1, 4, 2]
    assert sess.rounds == 4


def test_parallel_handles_zero_round_branches():
    def silent():
        return 42
        yield  # pragma: no cover

    sess = Session(seed=0)
    assert sess.run(parallel([silent(), simple_protocol(2)])) == [42, 2]
    assert sess.rounds == 2


def test_parallel_routes_responses_to_owners():
    def echo(tag):
        responses = yield [ExchangeItem(_row([tag]), _row([tag + 10]), 8, 1)]
        return int(responses[0][0][0]), int(responses[0][1][0])

    sess = Session(seed=0)
    assert sess.run(parallel([echo(1), echo(2)])) == [(1, 11), (2, 12)]
    assert sess.rounds == 1


def test_desync_detection():
    with pytest.raises(ProtocolDesyncError):
        ExchangeItem(_row([1, 2]), _row([1]), 8, 2)


def test_unsupported_payload_width():
    with pytest.raises(ShapeError):
        ExchangeItem(_row([1]), _row([1]), 7, 1)


def test_provision_refused_after_online():
    sess = Session(seed=0)
    sess.run(simple_protocol(1))
    with pytest.raises(MaterialError):
        sess.provision([Need("bte", 8, 1, fan_in=2)])


def test_failed_run_poisons_session():
    def broken():
        yield _noise_round()
        raise RuntimeError("mid-protocol failure")

    sess = Session(seed=0)
    with pytest.raises(RuntimeError):
        sess.run(broken())
    assert sess.rounds == 1
    assert sess.bits == [32, 32]
    assert len(sess.transcript.rounds) == 1
    with pytest.raises(MaterialError):
        sess.run(simple_protocol(1))
    assert sess.rounds == 1
    assert sess.cost_report()["bits_per_party"] == 32


CMP_BATCH = 5000


def _comparison(sess: Session, seed: int = 1):
    """Share two random comparison inputs, run comparison, and return the
    output bits and the plaintext answer."""
    rng = np.random.default_rng(seed)
    xv, yv = (rng.integers(0, 1 << 31, CMP_BATCH, dtype=np.uint64) for _ in range(2))
    x, y = (sess.share_input(v, Z32) for v in (xv, yv))
    return reconst(*sess.run(P.comparison(sess.store, x, y))), (xv < yv).astype(np.uint8)


def _fail_on_call(monkeypatch, owner, name, call):
    """Make ``owner.name`` raise MemoryError on its ``call``-th call."""
    method, calls = getattr(owner, name), []

    def planted(*args):
        calls.append(None)
        if len(calls) == call:
            raise MemoryError("planted allocation failure")
        return method(*args)
    monkeypatch.setattr(owner, name, planted)


@pytest.mark.parametrize("path", ["runs", "gen_bte"])
def test_provision_failing_after_its_checks_fails_the_session(monkeypatch, path):
    """A MemoryError in the middle of the Z_2^32 comparison manifest, while
    building a run's tables or in the 5th ``gen_bte`` call (every table
    made wide by a small ``BLOCK_COLS``), leaves part of the manifest
    stored: the session is failed and refuses provision and run."""
    if path == "runs":
        _fail_on_call(monkeypatch, dealer, "_build_tables", 3)
    else:
        monkeypatch.setattr(threads, "BLOCK_COLS", 64)
        _fail_on_call(monkeypatch, Dealer, "gen_bte", 5)
    needs = manifest("comparison", Z32, CMP_BATCH)
    sess = Session(seed=0)
    with pytest.raises(MemoryError, match="planted"):
        sess.provision(needs)
    assert sess.failed
    assert not sess.store.is_empty()
    with pytest.raises(MaterialError, match="session failed"):
        sess.provision(needs)
    with pytest.raises(MaterialError, match="session failed"):
        sess.run(simple_protocol(1))
    assert sess.rounds == 0


def test_refused_manifest_leaves_the_session_usable():
    """A manifest refused by the dealer's checks draws and stores nothing:
    the session then provisions and runs as a fresh one does."""
    needs = manifest("comparison", Z32, CMP_BATCH)
    sess = Session(seed=0)
    with pytest.raises(DomainError):
        sess.provision(needs + [Need("bte", 32, 0, fan_in=2)])
    assert not sess.failed
    assert sess.store.is_empty() and sess.dealer.draw_count == 0
    _provisions_and_runs_as_a_fresh_session(sess, needs)


def test_provision_failing_before_its_first_draw_leaves_the_session_usable(monkeypatch):
    """A MemoryError in the first run's raw draw, before any draw is
    counted or any table stored, leaves nothing of the manifest behind:
    the session is not failed and provisions again as a fresh one does."""
    _fail_on_call(monkeypatch, dealer, "raw_words", 1)
    needs = manifest("comparison", Z32, CMP_BATCH)
    sess = Session(seed=0)
    with pytest.raises(MemoryError, match="planted"):
        sess.provision(needs)
    assert not sess.failed
    assert sess.store.is_empty() and sess.dealer.draw_count == 0
    _provisions_and_runs_as_a_fresh_session(sess, needs)


def _provisions_and_runs_as_a_fresh_session(sess: Session, needs: list[Need]):
    sess.provision(needs)
    got, want = _comparison(sess)
    assert np.array_equal(got, want)
    assert sess.store.is_empty()
    fresh = Session(seed=0)
    fresh.provision(needs)
    _comparison(fresh)
    assert sess.transcript.to_bytes() == fresh.transcript.to_bytes()


def test_cost_report_model():
    sess = Session(seed=0)
    sess.run(simple_protocol(2, n_items=1, length=1000, width=8))
    rep = sess.cost_report(CostModel(80000.0, 40.0))
    assert rep["rounds"] == 2
    assert rep["bits_per_party"] == 16000
    assert rep["dtt_ms"] == pytest.approx(0.2)
    assert rep["cl_ms"] == pytest.approx(80.0)
    assert rep["online_total_ms"] == pytest.approx(80.2)


def test_transcript_serialization_is_deterministic():
    def run_once():
        sess = Session(seed=5)
        sess.run(simple_protocol(2, n_items=2, length=3, width=32))
        return sess.transcript.to_bytes()

    blob = run_once()
    assert blob == run_once()
    assert blob[:4] == (2).to_bytes(4, "little")


def test_transcript_records_yielded_payloads_read_only():
    """A payload is recorded as the array the protocol yielded, made
    read-only, so writing to it raises instead of changing the record."""
    tr = Transcript()
    arr = np.array([1, 2], dtype=np.uint8)
    item = ExchangeItem(arr, arr.copy(), 8, 2)
    tr.append([item])
    kept = tr.rounds[0][0]
    assert kept.p0 is arr and kept.p1 is item.p1
    with pytest.raises(ValueError):
        item.p0[0] = 99
    assert kept.p0[0] == 1


def test_exchange_item_keeps_payload_arrays_of_its_width():
    arr = np.arange(4, dtype=np.uint16)
    item = ExchangeItem(arr, arr[::-1], 16, 4)
    assert item.p0 is arr and np.shares_memory(item.p1, arr)
    assert item.count == 4 and item.bits == 64


@pytest.mark.parametrize("other", [
    [1, 2, 3, 4], np.arange(4, dtype=np.uint32), np.arange(4, dtype=np.int64),
    np.arange(4, dtype=np.uint16).reshape(2, 2), np.uint16(5), 5,
], ids=["list", "uint32", "int64", "2-d", "numpy-scalar", "int"])
def test_exchange_item_refuses_what_is_not_a_layout_row(other):
    """Payloads are never converted: anything but a 1-D array of the
    width's word dtype is refused, not cast."""
    arr = np.arange(4, dtype=np.uint16)
    with pytest.raises(ShapeError):
        ExchangeItem(other, other, 16, 4)
    with pytest.raises((ShapeError, ProtocolDesyncError)):
        ExchangeItem(other, arr, 16, 4)


def test_exchange_item_needs_its_count_at_every_width():
    with pytest.raises(TypeError):
        ExchangeItem(np.arange(4, dtype=np.uint16), np.arange(4, dtype=np.uint16), 16)
    for count in (3, 5):
        with pytest.raises(ShapeError):
            ExchangeItem(np.arange(4, dtype=np.uint16), np.arange(4, dtype=np.uint16), 16, count)


@pytest.mark.parametrize("batch", [1, 63, 64, 65, 130])
def test_boolean_item_holds_packed_words(batch):
    rng = np.random.default_rng(batch)
    bits = rng.integers(0, 2, (2, batch), dtype=np.uint8)
    p0, p1 = pack_lanes(bits)
    item = ExchangeItem(p0, p1, 1, batch)
    assert item.p0 is p0 and item.p1 is p1  # words are kept as given
    assert item.count == batch and item.bits == batch
    for words, row in ((item.p0, bits[0]), (item.p1, bits[1])):
        assert words.dtype == np.uint64 and words.shape == (-(-batch // 64),)
        assert np.array_equal(unpack_lanes(words, batch), row)
        if batch % 64:
            assert not words[-1] >> np.uint64(batch % 64)  # zero padding


def test_boolean_item_checks_its_words():
    bits = np.ones((2, 70), dtype=np.uint8)
    words = pack_lanes(bits)
    with pytest.raises(TypeError):
        ExchangeItem(words[0], words[1], 1)  # words need their count
    with pytest.raises(ShapeError):
        ExchangeItem(bits[0], bits[1], 1, 70)  # bits are not words
    with pytest.raises(ShapeError):
        ExchangeItem(words[0].tolist(), words[1].tolist(), 1, 70)
    for count in (64, 129):
        with pytest.raises(ShapeError):
            ExchangeItem(words[0], words[1], 1, count)
    with pytest.raises(ShapeError):
        ExchangeItem(words[0].astype(np.uint32), words[1].astype(np.uint32), 1, 70)
    with pytest.raises(ShapeError):
        ExchangeItem(words[0].view(np.uint8), words[1].view(np.uint8), 1, 70)
    with pytest.raises(ProtocolDesyncError):
        ExchangeItem(words[0], words[1, :1], 1, 70)
    with pytest.raises(ShapeError):
        ExchangeItem([1, 2], [3, 4], 8, 3)


def test_boolean_transcript_bytes_are_one_byte_per_bit():
    bits = np.random.default_rng(4).integers(0, 2, (2, 70), dtype=np.uint8)
    words = pack_lanes(bits)
    tr = Transcript()
    tr.append([ExchangeItem(words[0], words[1], 1, 70)])
    expect = struct.pack("<I", 1) + struct.pack("<II", 0, 1)
    for party in (0, 1):
        expect += struct.pack("<BBI", party, 1, 70) + bits[party].tobytes()
    assert tr.to_bytes() == expect


def test_transcript_copies_view_payloads_of_packed_words():
    """A payload that views another array is copied: a write to that
    array leaves the record and its canonical bytes unchanged."""
    words = pack_lanes(np.ones((2, 70), dtype=np.uint8))
    item = ExchangeItem(words[0], words[1], 1, 70)
    tr = Transcript()
    tr.append([item])
    before = tr.to_bytes()
    words[:] = 0
    kept = tr.rounds[0][0]
    assert kept.count == 70 and not np.shares_memory(kept.p0, words)
    assert np.array_equal(unpack_lanes(kept.p0, 70), np.ones(70, np.uint8))
    assert tr.to_bytes() == before


def test_parallel_outside_session():
    gen = parallel([simple_protocol(1)])
    items = gen.send(None)
    assert len(items) == 1
    with pytest.raises(StopIteration) as stop:
        gen.send([(items[0].p0, items[0].p1)])
    assert stop.value.value == [1]
