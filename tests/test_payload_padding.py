"""Zero padding lanes in every packed payload of every protocol.

A width-1 payload is ``ceil(count/64)`` uint64 words whose lanes past
``count`` must be zero: the canonical transcript bytes drop them, so a set
padding lane would be sent without being charged or pinned. Each protocol
runs at batches on and off the word boundary, and every width-1 item of
every round is checked in both parties' words.

The same runs check that the transcript records each payload by reference:
every recorded array is the one its protocol yielded, made read-only, so
no protocol yields a view that the transcript would have to copy.
"""
import numpy as np
import pytest

from ringmpc import bench
from ringmpc.editdist import edit_distance, edit_distance_manifest, share_strings
from ringmpc.engine import Session, derive_manifest
from ringmpc.ring import RingSpec

BATCHES = [1, 63, 65, 130]
# Protocols defined at one width only.
WIDTH_ONLY = {"overflow1r": 16, "msnzb": 16}
# Conversions take boolean inputs but open only ring elements.
NO_PACKED_PAYLOAD = {"b2a", "bx2a", "bc2a", "bcx2a"}


def _cases():
    """(id, protocol, input builder, ring) of every protocol to check."""
    for name in (*bench.PROTOCOLS, "max5", "tlu4"):
        for width in (16, 32):
            if WIDTH_ONLY.get(name, width) != width:
                continue
            has_base = name in bench.PROTOCOLS and bench.PROTOCOLS[name][2] is not None
            for baseline in (False, True) if has_base else (False,):
                proto, build = bench._protocol(name, baseline, 9)
                label = f"{name}{'-baseline' if baseline else ''}-z{width}"
                yield label, proto, build, RingSpec(width)
        yield f"2-and-z{width}", *bench._gate("2-AND", 9), RingSpec(width)


CASES = {label: case for label, *case in _cases()}


def _run(proto, build, ring, batch, seen=None) -> Session:
    """Run ``proto`` at ``batch``; with ``seen``, append to it the payload
    arrays of each round as the protocol yielded them."""
    sess = Session(seed=batch)
    args = build(sess, np.random.default_rng(batch), ring, batch)
    zeros = build(bench._ZeroSharer(), np.random.default_rng(0), ring, 1)
    sess.provision(derive_manifest(proto, *zeros, batch=batch))
    gen = proto(sess.store, *args)
    sess.run(gen if seen is None else _watch(gen, seen))
    assert sess.store.is_empty()
    return sess


def _watch(gen, seen: list):
    """``gen`` passed through round by round, appending to ``seen`` the
    ``(p0, p1)`` arrays of each non-empty round it yields."""
    responses = None
    try:
        while True:
            items = gen.send(responses)
            if items:
                seen.append([(item.p0, item.p1) for item in items])
            responses = yield items
    except StopIteration as stop:
        return stop.value


def _run_editdist(pairs, seen=None) -> Session:
    sess = Session(seed=pairs)
    codes = np.random.default_rng(pairs).integers(0, 4, (2, pairs, 3), dtype=np.uint64)
    s, t = (share_strings(c, sess.dealer) for c in codes)
    sess.provision(edit_distance_manifest(3, pairs))
    gen = edit_distance(sess.store, s, t)
    sess.run(gen if seen is None else _watch(gen, seen))
    return sess


def _assert_zero_padding(sess: Session, opens_bits: bool = True):
    packed = 0
    for items in sess.transcript.rounds:
        for item in items:
            if item.width != 1:
                continue
            packed += 1
            for words in (item.p0, item.p1):
                assert words.dtype == np.uint64 and words.shape == (-(-item.count // 64),)
                if item.count % 64:
                    assert not words[-1] >> np.uint64(item.count % 64)
    assert bool(packed) == opens_bits


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("case", CASES)
def test_packed_payloads_have_zero_padding_lanes(case, batch):
    _assert_zero_padding(_run(*CASES[case], batch),
                         case.split("-")[0] not in NO_PACKED_PAYLOAD)


@pytest.mark.parametrize("pairs", BATCHES)
def test_edit_distance_packed_payloads_have_zero_padding_lanes(pairs):
    _assert_zero_padding(_run_editdist(pairs))


def _assert_recorded_uncopied(sess: Session, seen: list):
    recorded = [[(item.p0, item.p1) for item in items] for items in sess.transcript.rounds]
    assert len(recorded) == len(seen) == sess.rounds
    for kept, sent in zip(recorded, seen):
        assert len(kept) == len(sent)
        for arr, yielded in zip(sum(kept, ()), sum(sent, ())):
            assert arr is yielded and not arr.flags.writeable


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("case", CASES)
def test_transcript_records_every_payload_uncopied(case, batch):
    seen = []
    _assert_recorded_uncopied(_run(*CASES[case], batch, seen), seen)


@pytest.mark.parametrize("pairs", BATCHES)
def test_transcript_records_every_edit_distance_payload_uncopied(pairs):
    seen = []
    _assert_recorded_uncopied(_run_editdist(pairs, seen), seen)
