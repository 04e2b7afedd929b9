"""Packed boolean share pairs: every op on words matches the byte-per-bit
reference (unpack, numpy op, pack) and leaves the padding lanes zero.

Batches straddle word boundaries (1, 63, 64, 65, 130); plumbing also runs
with mixed segment sizes and on both sides of the size at which it moves
whole words with shifts instead of regrouping unpacked lanes
(``ring._SHIFT_LANES`` on average).
"""
import numpy as np
import pytest

from ringmpc import protocols as P
from ringmpc.dealer import Dealer, Need
from ringmpc.engine import Session
from ringmpc.errors import ShapeError
from ringmpc.gates import and_n, bank, or_n
from ringmpc.ring import (
    BOOL,
    Share,
    SharePair,
    Z8,
    Z16,
    Z32,
    Z64,
    _SHIFT_LANES,
    add,
    bits_of,
    concat_each,
    concat_pairs,
    const_add,
    const_mult,
    const_pair,
    cut_each,
    fold_segments,
    neg,
    not_,
    pack_lanes,
    reconst,
    share,
    slice_pair,
    split_pair,
    sub,
    sub_mirror,
    trivial,
    uniform,
    unpack_lanes,
    xor,
)

BATCHES = [1, 63, 64, 65, 130]
BIG = _SHIFT_LANES + 37  # segments of this many lanes move with shifts


def _pair(rng, batch) -> SharePair:
    """A boolean pair built from random bits by the checking constructor."""
    b0, b1 = rng.integers(0, 2, (2, batch), dtype=np.uint8)
    return SharePair.of(Share(0, BOOL, b0), Share(1, BOOL, b1))


def _bits(pair) -> np.ndarray:
    return unpack_lanes(pair.v, pair.batch)


def _check(pair, bits):
    """``pair`` is the packed form of ``(2, batch)`` bits, padding zero."""
    batch = bits.shape[-1]
    assert pair.ring == BOOL and pair.batch == batch
    assert pair.v.dtype == np.uint64 and pair.v.shape == (2, -(-batch // 64))
    if batch % 64:
        assert not (pair.v[:, -1] >> np.uint64(batch % 64)).any(), "padding lanes set"
    assert np.array_equal(_bits(pair), bits)
    assert np.array_equal(pair.v, pack_lanes(bits))


@pytest.mark.parametrize("batch", BATCHES)
def test_algebra_matches_byte_reference(batch):
    rng = np.random.default_rng(batch)
    a, b = _pair(rng, batch), _pair(rng, batch)
    x, y = _bits(a), _bits(b)
    flip = np.array([[1], [0]], dtype=np.uint8)
    _check(add(a, b), x ^ y)
    _check(sub(a, b), x ^ y)
    _check(sub_mirror(a, b), x ^ y)
    _check(xor(a, b), x ^ y)
    _check(neg(a), x)
    _check(not_(a), x ^ flip)
    for c in range(4):
        _check(const_add(c, a), x ^ flip * (c & 1))
        _check(const_mult(c, a), x * (c & 1))
    _check(a, x)  # no op wrote into its operand


@pytest.mark.parametrize("batch", BATCHES)
def test_not_clears_padding_and_is_an_involution(batch):
    a = _pair(np.random.default_rng(batch), batch)
    once = not_(a)
    assert not np.shares_memory(once.v, a.v)
    _check(not_(once), _bits(a))
    assert np.array_equal(reconst(*once), reconst(*a) ^ 1)


@pytest.mark.parametrize("batch", BATCHES)
def test_constructors_match_byte_reference(batch):
    rng = np.random.default_rng(batch)
    vals = rng.integers(0, 4, batch, dtype=np.uint64)
    for holder in (0, 1):
        expect = np.zeros((2, batch), dtype=np.uint8)
        expect[holder] = vals & 1
        _check(trivial(holder, vals & np.uint64(1), BOOL), expect)
    for c in (0, 1):
        _check(const_pair(c, BOOL, batch), np.array([[c] * batch, [0] * batch], np.uint8))
    plain = vals & np.uint64(1)
    pair = share(plain, BOOL, rng)
    _check(pair, _bits(pair))
    assert np.array_equal(reconst(*pair), plain)


@pytest.mark.parametrize("batch", [1, 63, 64, 65, 130, 1000])
def test_share_keeps_the_raw_generator_words(batch):
    """Party 0's words are the raw draw with the padding cleared: packed,
    the same bits as the byte-per-bit draw ``uniform(BOOL, ...)``."""
    plain = np.random.default_rng(1).integers(0, 2, batch, dtype=np.uint64)
    pair = share(plain, BOOL, np.random.default_rng(2024))
    old = uniform(BOOL, batch, np.random.default_rng(2024))
    assert np.array_equal(pair.v[0], pack_lanes(old))
    assert np.array_equal(pair.v[1], pack_lanes(old ^ plain.astype(np.uint8)))
    dealt = Dealer(np.random.default_rng(2024)).share_input(plain, BOOL)
    assert np.array_equal(dealt.v, pair.v)


SEGMENTS = [
    [1, 63, 64, 65, 130],  # mixed, every boundary case
    [65, 65, 65],  # equal, unaligned
    [64, 128],  # aligned: whole words
    [130, 64],  # unaligned head, aligned tail
    [BIG, BIG],  # equal, above the crossover
    [BIG, 63, 2 * BIG],  # mixed, above the crossover
]


@pytest.mark.parametrize("sizes", SEGMENTS, ids=lambda s: "-".join(map(str, s)))
def test_concat_slice_split_match_byte_reference(sizes):
    rng = np.random.default_rng(sum(sizes))
    pairs = [_pair(rng, m) for m in sizes]
    bits = np.concatenate([_bits(p) for p in pairs], axis=1)
    big = concat_pairs(pairs)
    _check(big, bits)
    lo = 0
    for m, p in zip(sizes, pairs):
        _check(slice_pair(big, lo, lo + m), bits[:, lo:lo + m])
        _check(p, bits[:, lo:lo + m])  # the inputs are untouched
        lo += m
    for p, part in zip(pairs, cut_each([big], [sizes])[0]):
        _check(part, _bits(p))
    total = sum(sizes)
    for lo, hi in [(0, total), (1, total), (0, total - 1), (total // 3, total // 2),
                   (total, total)]:
        _check(slice_pair(big, lo, hi), bits[:, lo:hi])
    for parts in (1, 2, 3, 5):
        if total % parts == 0:
            step = total // parts
            for k, part in enumerate(split_pair(big, parts)):
                _check(part, bits[:, k * step:(k + 1) * step])


@pytest.mark.parametrize("step", [1, 37, 64, 65, 130, BIG])
def test_concat_each_and_cut_each_match_byte_reference(step):
    rng = np.random.default_rng(step)
    pieces = [_pair(rng, step) for _ in range(5)]
    groups = [[pieces[(g + j) % 5] for j in range(3)] for g in range(4)]
    joined = concat_each(groups)
    for group, out in zip(groups, joined):
        _check(out, np.concatenate([_bits(p) for p in group], axis=1))
    for pair, parts in zip(joined, cut_each(joined, [[step] * 3] * 4)):
        bits = _bits(pair)
        for k, part in enumerate(parts):
            _check(part, bits[:, k * step:(k + 1) * step])
    ragged = [[pieces[0]], pieces[1:3], [pieces[3], _pair(rng, 7)]]
    joined = concat_each(ragged)
    for group, out in zip(ragged, joined):
        _check(out, np.concatenate([_bits(p) for p in group], axis=1))
    sizes = [[p.batch for p in group] for group in ragged]
    for group, parts in zip(ragged, cut_each(joined, sizes)):
        for p, part in zip(group, parts):
            _check(part, _bits(p))
    assert concat_each([]) == [] and cut_each([], []) == []
    with pytest.raises(ShapeError):
        concat_each([pieces[:1], []])
    with pytest.raises(ShapeError):
        cut_each(joined[:1], [[step, 1]])


def test_joins_are_fresh_and_leave_their_inputs():
    """Every join is a fresh array, also of one pair, so a protocol may
    write into it; the regrouped outputs of one call do not overlap."""
    rng = np.random.default_rng(5)
    for sizes in ([64], [65], [64, 64], [65, 3], [2 * BIG, 3]):
        pairs = [_pair(rng, m) for m in sizes]
        before = [p.v.copy() for p in pairs]
        joined = concat_each([pairs, pairs[::-1]])
        for out in joined:
            assert not any([np.shares_memory(out.v, p.v) for p in pairs])
            out.v[0] = 0
        _check(joined[1], np.concatenate([_bits(p) for p in pairs[::-1]], axis=1) * [[0], [1]])
        assert all([np.array_equal(p.v, b) for p, b in zip(pairs, before)])


@pytest.mark.parametrize("step", [1, 63, 64, 65, 128, BIG])
def test_fold_segments_matches_byte_reference(step):
    """Word-aligned steps (64, 128) take the ``add.reduce`` path that every
    arithmetic step takes; the others XOR unpacked lanes or cut words."""
    rng = np.random.default_rng(step)
    ragged = [
        [_pair(rng, k * step) for k in (1, 3, 2)],
        # many pairs of ragged batches, one a view inside a wider pair
        [_pair(rng, 2 * step), slice_pair(_pair(rng, 6 * step), 2 * step, 5 * step),
         *[_pair(rng, k * step) for k in (1, 4, 1)]],
    ]
    for pairs in ragged:
        bits = np.concatenate([_bits(p) for p in pairs], axis=1).reshape(2, -1, step)
        _check(fold_segments(pairs, step), np.bitwise_xor.reduce(bits, axis=1))
    if step > 1:
        with pytest.raises(ShapeError):
            fold_segments([_pair(rng, step + 1)], step)


@pytest.mark.parametrize("step", [1, 63, 130])
@pytest.mark.parametrize("ring", [Z8, Z16, Z32, Z64])
def test_fold_segments_sums_arithmetic_segments(ring, step):
    """Above width 1 each segment is summed mod 2^n, in the ring's dtype."""
    rng = np.random.default_rng(step)

    def pair(batch):
        return SharePair(ring, uniform(ring, 2 * batch, rng).reshape(2, batch), batch)

    pairs = [pair(k * step) for k in (1, 3, 2)]
    joined = np.concatenate([p.v for p in pairs], axis=1).astype(object)
    exact = joined.reshape(2, -1, step).sum(axis=1) % ring.modulus
    out = fold_segments(pairs, step)
    assert out.ring == ring and out.batch == step and out.v.dtype == ring.dtype
    assert np.array_equal(out.v, exact.astype(ring.dtype))
    if step > 1:
        with pytest.raises(ShapeError):
            fold_segments([pair(step), pair(step + 1)], step)


@pytest.mark.parametrize("batch", [1, 63, 64, 65, 130, 2051])
@pytest.mark.parametrize("ring", [Z8, Z16, Z32, Z64])
def test_bit_planes_match_byte_reference(ring, batch):
    rng = np.random.default_rng(batch)
    vals = uniform(ring, 2 * batch, rng).reshape(2, batch)
    planes = bits_of(vals, ring.width_bits)
    for j, words in enumerate(planes):
        expect = ((vals >> ring.dtype(j)) & 1).astype(np.uint8)
        _check(SharePair(BOOL, words, batch), expect)
        _check(P._plane(SharePair(ring, vals, batch), j), expect)


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("op", [and_n, or_n])
def test_gate_outputs_leave_padding_zero(op, batch):
    sess = Session(seed=batch)
    sess.provision([Need("bte", 1, batch, fan_in=3)])
    rng = np.random.default_rng(batch)
    vals = rng.integers(0, 2, (3, batch), dtype=np.uint64)
    inputs = [sess.share_input(v, BOOL) for v in vals]
    before = [p.v.copy() for p in inputs]
    out = sess.run(op(inputs, *sess.store.take_bte(3, BOOL, batch)))
    _check(out, _bits(out))
    reduce = np.bitwise_or.reduce if op is or_n else np.bitwise_and.reduce
    assert np.array_equal(reconst(*out), reduce(vals).astype(np.uint8))
    assert all(np.array_equal(p.v, b) for p, b in zip(inputs, before))


@pytest.mark.parametrize("batches", [[1, 63, 130], [65, 65, 65], [BIG, BIG]])
def test_bank_outputs_leave_padding_zero(batches):
    sess = Session(seed=3)
    sess.provision([Need("bte", 1, sum(batches), fan_in=2)])
    rng = np.random.default_rng(3)
    plain = [rng.integers(0, 2, (2, b), dtype=np.uint64) for b in batches]
    gates = [[sess.share_input(v, BOOL) for v in vals] for vals in plain]
    outs = sess.run(bank(sess.store, and_n, gates))
    for vals, out in zip(plain, outs):
        _check(out, _bits(out))
        assert np.array_equal(reconst(*out), (vals[0] & vals[1]).astype(np.uint8))


@pytest.mark.parametrize("ring", [BOOL, Z8, Z16, Z32, Z64])
def test_slice_rejects_bounds_outside_the_batch(ring):
    pair = const_pair(1, ring, 10)
    for lo, hi in [(5, 20), (7, 3), (-1, 3), (0, 11), (11, 11)]:
        with pytest.raises(ShapeError):
            slice_pair(pair, lo, hi)
    for lo, hi in [(0, 0), (10, 10), (3, 7), (0, 10)]:
        assert slice_pair(pair, lo, hi).batch == hi - lo


@pytest.mark.parametrize("ring", [BOOL, Z8, Z16, Z32, Z64])
def test_plumbing_refuses_bad_part_sizes(ring):
    """A negative part, a split into no parts and a fold of no pairs or of
    empty segments are shape errors at every width."""
    pair = const_pair(1, ring, 4)
    for parts in ([5, -1], [-1, 5], [4, -1, 1], [3], [2, 3]):
        with pytest.raises(ShapeError):
            cut_each([pair], [parts])
    for parts in (0, -2, 3):
        with pytest.raises(ShapeError):
            split_pair(pair, parts)
    for step in (0, -2, 3):
        with pytest.raises(ShapeError):
            fold_segments([pair], step)
    with pytest.raises(ShapeError):
        fold_segments([], 2)
    assert [p.batch for p in cut_each([pair], [[0, 4, 0]])[0]] == [0, 4, 0]


@pytest.mark.parametrize("ring", [BOOL, Z8, Z16, Z32, Z64])
def test_concat_rejects_no_pairs(ring):
    with pytest.raises(ShapeError):
        concat_pairs([])
    assert concat_pairs([const_pair(1, ring, 3)]).batch == 3


@pytest.mark.parametrize("other", [BOOL, Z16])
def test_plumbing_refuses_pairs_of_different_rings(other):
    """Joining, cutting or folding pairs of two rings is a shape error, not
    a sum of one ring's words read as the other's elements."""
    pairs = [trivial(0, [5, 6, 7, 8], Z8), const_pair(1, other, 4)]
    with pytest.raises(ShapeError):
        concat_pairs(pairs)
    with pytest.raises(ShapeError):
        cut_each(pairs, [[2, 2], [1, 3]])
    for step in (1, 4):
        with pytest.raises(ShapeError):
            fold_segments(pairs, step)
    assert reconst(*fold_segments(pairs[:1], 1)) == [26]
