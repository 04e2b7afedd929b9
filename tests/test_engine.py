import numpy as np
import pytest

from ringmpc.dealer import Need
from ringmpc.engine import CostModel, ExchangeItem, Session, Transcript, parallel
from ringmpc.errors import MaterialError, ProtocolDesyncError, ShapeError


def _noise_round(n_items=1, length=4, width=8):
    return [
        ExchangeItem(np.arange(length), np.arange(length) + 1, width)
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
        responses = yield [ExchangeItem([1, 2], [3, 4], 8)]
        p0, p1 = responses[0]
        return p0.tolist(), p1.tolist()

    sess = Session(seed=0)
    assert sess.run(probe()) == ([1, 2], [3, 4])


def test_parallel_rounds_are_max_not_sum():
    sess = Session(seed=0)
    results = sess.parallel_scope(
        [simple_protocol(1), simple_protocol(4), simple_protocol(2)]
    )
    assert results == [1, 4, 2]
    assert sess.rounds == 4


def test_parallel_handles_zero_round_branches():
    def silent():
        return 42
        yield  # pragma: no cover

    sess = Session(seed=0)
    assert sess.parallel_scope([silent(), simple_protocol(2)]) == [42, 2]
    assert sess.rounds == 2


def test_parallel_routes_responses_to_owners():
    def echo(tag):
        responses = yield [ExchangeItem([tag], [tag + 10], 8)]
        return int(responses[0][0][0]), int(responses[0][1][0])

    sess = Session(seed=0)
    assert sess.parallel_scope([echo(1), echo(2)]) == [(1, 11), (2, 12)]
    assert sess.rounds == 1


def test_desync_detection():
    with pytest.raises(ProtocolDesyncError):
        ExchangeItem([1, 2], [1], 8)


def test_unsupported_payload_width():
    with pytest.raises(ShapeError):
        ExchangeItem([1], [1], 7)


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


def test_transcript_appends_copies():
    tr = Transcript()
    arr = np.array([1, 2], dtype=np.uint8)
    item = ExchangeItem(arr, arr.copy(), 8)
    tr.append([item])
    item.p0[0] = 99
    assert tr.rounds[0][0].p0[0] == 1


def test_parallel_outside_session():
    gen = parallel([simple_protocol(1)])
    items = gen.send(None)
    assert len(items) == 1
    with pytest.raises(StopIteration) as stop:
        gen.send([(items[0].p0, items[0].p1)])
    assert stop.value.value == [1]
