import numpy as np
import pytest
import scipy.stats

from ringmpc import ring as ring_module
from ringmpc import threads
from ringmpc.dealer import Dealer, Need
from ringmpc.engine import Session
from ringmpc.errors import DomainError, ShapeError
from ringmpc.gates import and_n, or_n
from ringmpc.ring import (
    BOOL,
    RingSpec,
    Share,
    SharePair,
    Z8,
    Z16,
    Z32,
    Z64,
    add,
    bit_decompose_local,
    bits_of,
    concat_pairs,
    const_add,
    const_mult,
    const_pair,
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

RINGS = [BOOL, Z8, Z16, Z32, Z64]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.mark.parametrize("ring", RINGS)
def test_share_reconst_roundtrip(ring, rng):
    vals = rng.integers(0, min(ring.modulus, 1 << 63), 100, dtype=np.uint64)
    if ring.width_bits == 64:
        vals = rng.integers(0, 1 << 64, 100, dtype=np.uint64)
    pair = share(vals, ring, rng)
    assert np.array_equal(reconst(*pair), ring.wrap(vals))


def test_unsupported_width_rejected():
    with pytest.raises(DomainError):
        RingSpec(12)


def test_share_out_of_range_rejected(rng):
    with pytest.raises(DomainError):
        share([256], Z8, rng)


# Plaintexts that are not bools or integers in [0, 2^n): each must raise
# DomainError before any cast could truncate, wrap or parse it.
BAD_PLAINTEXTS = {
    "float": [1.5],
    "float-array": np.array([3.7]),
    "integral-float": np.array([2.0]),
    "str": "7",
    "str-list": ["7"],
    "none": [None],
    "complex": [1j],
    "negative-int": -1,
    "negative-list": [0, -1],
    "negative-array": np.array([-1]),
    "above-2^64": [2**64],
    "below-int64": [-2**63 - 1],
}


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: f"z{r.width_bits}")
@pytest.mark.parametrize("bad", BAD_PLAINTEXTS)
def test_share_rejects_plaintext_outside_the_ring(ring, bad, rng):
    with pytest.raises(DomainError):
        share(BAD_PLAINTEXTS[bad], ring, rng)


@pytest.mark.parametrize("ring", [BOOL, Z8, Z16, Z32])
def test_share_rejects_the_modulus_as_a_python_int_and_array(ring, rng):
    for bad in ([ring.modulus], np.array([ring.modulus]), ring.modulus):
        with pytest.raises(DomainError):
            share(bad, ring, rng)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: f"z{r.width_bits}")
def test_share_accepts_bools_and_integers_in_range(ring, rng):
    top = ring.modulus - 1
    for good in ([True, False], np.array([True]), [0, top], np.array([top], np.uint64),
                 np.array([0, 1], np.int8), top):
        want = np.atleast_1d(np.asarray(good, dtype=np.uint64)).astype(ring.dtype)
        assert np.array_equal(reconst(*share(good, ring, rng)), want)


def test_boolean_shares_are_xor(rng):
    pair = share([1, 0, 1, 1], BOOL, rng)
    assert np.array_equal(reconst(*pair), pair[0].values ^ pair[1].values)


@pytest.mark.parametrize("ring", [BOOL, Z8])
def test_party_share_is_a_view_of_the_pair(ring, rng):
    pair = share([1, 0, 1], ring, rng)
    if ring.is_boolean:
        # Packed words hold boolean shares; a party's Share is its lanes
        # unpacked to one uint8 each, a copy that leaves the words alone.
        before = pair.v.copy()
        for party in (0, 1):
            assert np.array_equal(pair[party].values, unpack_lanes(pair.v[party], 3))
        pair[0].values[0] ^= 1
        assert np.array_equal(pair.v, before)
        return
    for party in (0, 1):
        assert np.shares_memory(pair[party].values, pair.v)
    before = int(pair.v[0, 0])
    pair[0].values[0] ^= 1
    assert pair.v[0, 0] == before ^ 1


def test_boolean_share_masks_out_of_range_values():
    s = Share(0, BOOL, [0, 1, 2, 3, 255])
    assert s.values.dtype == np.uint8
    assert np.array_equal(s.values, [0, 1, 0, 1, 1])
    raw = np.array([2, 3], dtype=np.uint8)
    masked = Share(1, BOOL, raw)
    assert np.array_equal(masked.values, [0, 1]) and np.array_equal(raw, [2, 3])


@pytest.mark.parametrize("batch", [1, 63, 64, 65, 300])
def test_pack_unpack_lanes_roundtrip(batch, rng):
    bits = rng.integers(0, 2, (3, batch), dtype=np.uint8)
    words = pack_lanes(bits)
    assert words.dtype == np.uint64 and words.shape == (3, -(-batch // 64))
    assert np.array_equal(unpack_lanes(words, batch), bits)
    if batch % 64:
        assert not (words[:, -1] >> np.uint64(batch % 64)).any()  # zero padding
    # Lane i of word w is element 64 w + i, whatever the host's byte order.
    first = sum(int(b) << i for i, b in enumerate(bits[0, :64]))
    assert int(words[0, 0]) == first


@pytest.mark.parametrize("batch", [1, 63, 64, 65, 130])
def test_pack_lanes_takes_any_leading_shape(batch, rng):
    bits = rng.integers(0, 2, (3, 2, batch), dtype=np.uint8)
    words = pack_lanes(bits)
    assert words.dtype == np.uint64 and words.shape == (3, 2, -(-batch // 64))
    assert np.array_equal(unpack_lanes(words, batch), bits)
    for k in range(3):
        assert np.array_equal(words[k], pack_lanes(bits[k]))
    assert np.array_equal(pack_lanes(bits[0, 0]), words[0, 0])


def test_pack_lanes_writes_into_a_given_buffer(rng):
    bits = rng.integers(0, 2, (2, 70), dtype=np.uint8)
    out = np.zeros((2, 2), dtype="<u8")
    words = pack_lanes(bits, out=out)
    assert np.shares_memory(words, out)
    assert np.array_equal(words, pack_lanes(bits))


def test_boolean_uniform_lanes_are_the_raw_words():
    """Packing a width-1 draw gives back the generator's raw words."""
    bits = uniform(BOOL, 128, np.random.default_rng(5))
    words = uniform(Z64, 2, np.random.default_rng(5))
    assert np.array_equal(pack_lanes(bits[None])[0], words)


def _padding(ring, arr, batch) -> np.ndarray:
    """The padding lanes of an array in the share layout (none above width 1)."""
    if not ring.is_boolean:
        return arr[..., :0]
    return unpack_lanes(arr, 64 * arr.shape[-1])[..., batch:]


@pytest.mark.parametrize("batch", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("ring", RINGS)
def test_ring_ops_match_elementwise_reference(ring, batch, rng):
    """``RingSpec.mul``, ``add`` and ``sub`` over the share layout are the
    ring's multiply, add and subtract element by element and keep the
    padding lanes zero; ``sub(0, x)`` is the additive inverse and ``one``
    the unit of ``mul``."""
    a, b = rng.integers(0, ring.modulus, (2, 2, batch), dtype=np.uint64)
    if ring.is_boolean:  # one byte per bit
        x, y = pack_lanes(a), pack_lanes(b)
        expect = {"mul": a & b, "add": a ^ b, "sub": a ^ b}
    else:  # exact integers, reduced mod 2^n
        x, y = a.astype(ring.dtype), b.astype(ring.dtype)
        big_a, big_b = a.astype(object), b.astype(object)
        expect = {"mul": big_a * big_b, "add": big_a + big_b, "sub": big_a - big_b}
    for name, want in expect.items():
        got = getattr(ring, name)(x, y)
        assert got.shape == x.shape and got.dtype == x.dtype
        elems = unpack_lanes(got, batch) if ring.is_boolean else got
        assert np.array_equal(elems.astype(object), want % ring.modulus), name
        assert not _padding(ring, got, batch).any(), name
    inverse = ring.sub(0, x)
    assert inverse.dtype == x.dtype and not _padding(ring, inverse, batch).any()
    assert not ring.add(x, inverse).any()
    assert np.array_equal(ring.mul(x, ring.one), x)


@pytest.mark.parametrize("ring", [Z8, Z16, Z32, Z64])
def test_linear_ops(ring, rng):
    a_vals = uniform(ring, 64, rng)
    b_vals = uniform(ring, 64, rng)
    a = share(a_vals, ring, rng)
    b = share(b_vals, ring, rng)
    assert np.array_equal(reconst(*add(a, b)), ring.wrap(a_vals + b_vals))
    assert np.array_equal(reconst(*sub(a, b)), ring.wrap(a_vals - b_vals))
    assert np.array_equal(reconst(*neg(a)), ring.wrap(0 - a_vals))
    assert np.array_equal(reconst(*const_add(7, a)), ring.wrap(a_vals + ring.dtype(7)))
    assert np.array_equal(reconst(*const_mult(5, a)), ring.wrap(a_vals * ring.dtype(5)))


def test_sub_mirror_equality_property(rng):
    vals = uniform(Z32, 32, rng)
    other = vals.copy()
    other[::2] = uniform(Z32, 16, rng)
    a = share(vals, Z32, rng)
    b = share(other, Z32, rng)
    t = sub_mirror(a, b)
    assert np.array_equal(t[0].values == t[1].values, vals == other)


def test_trivial_and_const_pair():
    pair = trivial(1, [9, 0], Z16)
    assert np.array_equal(pair[0].values, [0, 0])
    assert np.array_equal(reconst(*pair), [9, 0])
    cpair = const_pair(3, Z16, 4)
    assert np.array_equal(reconst(*cpair), [3, 3, 3, 3])


@pytest.mark.parametrize("bad", [[1.5], np.array([-1]), [-1], [2**32]],
                         ids=["float", "negative-array", "negative-int", "modulus"])
def test_trivial_and_const_pair_reject_plaintext_outside_the_ring(bad):
    # Unchecked, these opened to 1, wrapped to 2^32 - 1, raised a bare
    # OverflowError and wrapped to 0.
    for holder in (0, 1):
        with pytest.raises(DomainError):
            trivial(holder, bad, Z32)
    with pytest.raises(DomainError):
        const_pair(np.asarray(bad)[0], Z32, 3)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: f"z{r.width_bits}")
@pytest.mark.parametrize("bad", BAD_PLAINTEXTS)
def test_trivial_rejects_what_share_rejects(ring, bad):
    with pytest.raises(DomainError):
        trivial(0, BAD_PLAINTEXTS[bad], ring)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: f"z{r.width_bits}")
def test_trivial_and_const_pair_lift_bools_and_integers_in_range(ring):
    top = ring.modulus - 1
    for good in ([True, False], np.array([True]), [0, top], np.array([top], np.uint64),
                 np.array([0, 1], np.int8), top):
        want = np.atleast_1d(np.asarray(good, dtype=np.uint64)).astype(ring.dtype)
        for holder in (0, 1):
            pair = trivial(holder, good, ring)
            assert np.array_equal(pair[holder].values, want)
            assert not pair[1 - holder].values.any()
    for c in (True, 0, top):
        assert np.array_equal(reconst(*const_pair(c, ring, 3)), [c] * 3)


def test_xor_not(rng):
    a = share([0, 1, 0, 1], BOOL, rng)
    b = share([0, 0, 1, 1], BOOL, rng)
    assert np.array_equal(reconst(*xor(a, b)), [0, 1, 1, 0])
    assert np.array_equal(reconst(*not_(a)), [1, 0, 1, 0])
    with pytest.raises(DomainError):
        xor(share([1], Z8, rng), share([1], Z8, rng))


def test_bits_of_lsb_first():
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        width = np.dtype(dtype).itemsize * 8
        top = 1 << (width - 1)
        planes = bits_of(np.array([top | 0b1011, 0b0100], dtype=dtype), width)
        assert len(planes) == width
        # Each plane is packed: one uint64 word holding the two values' bits.
        assert all(p.dtype == np.uint64 and p.shape == (1,) for p in planes)
        planes = [unpack_lanes(p, 2) for p in planes]
        assert [int(p[0]) for p in planes] == [1, 1, 0, 1] + [0] * (width - 5) + [1]
        assert [int(p[1]) for p in planes] == [0, 0, 1] + [0] * (width - 3)


def test_bit_decompose_local_planes_are_own_bits(rng):
    pair = share(uniform(Z16, 8, rng), Z16, rng)
    planes = bit_decompose_local(pair)
    assert len(planes) == 16
    for j in range(16):
        assert planes[j].batch == 8 and planes[j].v.shape == (2, 1)
        assert np.array_equal(
            planes[j][0].values, (pair[0].values >> j).astype(np.uint8) & 1
        )
    with pytest.raises(DomainError):
        bit_decompose_local(share([1], BOOL, rng))


def test_concat_split_roundtrip(rng):
    pairs = [share(uniform(Z32, 5, rng), Z32, rng) for _ in range(3)]
    big = concat_pairs(pairs)
    assert len(big[0]) == 15
    back = split_pair(big, 3)
    for orig, got in zip(pairs, back):
        assert np.array_equal(orig[0].values, got[0].values)
        assert np.array_equal(orig[1].values, got[1].values)
    with pytest.raises(ShapeError):
        split_pair(big, 4)


def test_mismatched_operands_rejected(rng):
    a = share(uniform(Z32, 4, rng), Z32, rng)
    b = share(uniform(Z16, 4, rng), Z16, rng)
    with pytest.raises(ShapeError):
        add(a, b)
    c = share(uniform(Z32, 5, rng), Z32, rng)
    with pytest.raises(ShapeError):
        add(a, c)


def test_share_party_ids():
    with pytest.raises(ShapeError):
        Share(2, Z8, [1])


@pytest.mark.parametrize("holder", [-1, 2])
def test_trivial_refuses_a_holder_outside_the_two_parties(holder):
    # Unchecked, -1 gave the value to party 1 and 2 raised a bare IndexError.
    with pytest.raises(ShapeError):
        trivial(holder, [1], Z8)


PARTY_MAKERS = {
    "trivial": lambda party: trivial(party, [1], Z8),
    "share": lambda party: Share(party, Z8, [1]),
}


@pytest.mark.parametrize("make", PARTY_MAKERS.values(), ids=PARTY_MAKERS.keys())
@pytest.mark.parametrize("party", [1.0, 0.0, True, False, np.bool_(True), np.float64(1), "1", None],
                         ids=["1.0", "0.0", "True", "False", "np-bool", "np-float", "str", "none"])
def test_party_ids_must_be_the_integers_0_and_1(make, party):
    # Compared with ``in (0, 1)``, 1.0 raised a bare IndexError in trivial,
    # and True was taken as party 1.
    with pytest.raises(ShapeError):
        make(party)


@pytest.mark.parametrize("party", [0, 1, np.int64(1), np.uint8(0)],
                         ids=["0", "1", "np-int64", "np-uint8"])
def test_party_ids_accept_python_and_numpy_integers(party):
    share_ = Share(party, Z8, [5])
    assert type(share_.party_id) is int and share_.party_id == party
    pair = trivial(party, [5], Z8)
    assert reconst(*pair)[0] == 5 and pair.v[int(party)][0] == 5


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: f"z{r.width_bits}")
@pytest.mark.parametrize("bad", [1.5, 2.5, np.float64(2.0), "3", None],
                         ids=["1.5", "2.5", "integral-float", "str", "none"])
def test_public_constants_must_be_integers(ring, bad, rng):
    # Unchecked, 1.5 and 2.5 were truncated to 1 and 2.
    pair = share([1, 0, 1], ring, rng)
    for op in (const_add, const_mult):
        with pytest.raises(DomainError):
            op(bad, pair)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: f"z{r.width_bits}")
def test_public_constants_reduce_mod_the_ring(ring, rng):
    # Unchecked, -1 and 2^70 raised a bare OverflowError.
    vals = [0, 1, ring.modulus - 1]
    pair = share(vals, ring, rng)
    for c in (-1, 2**70, 2**70 + 3, ring.modulus + 5, np.int64(-3), True):
        r = int(c) % ring.modulus
        for op, want in ((const_add, [(v + r) % ring.modulus for v in vals]),
                         (const_mult, [v * r % ring.modulus for v in vals])):
            assert reconst(*op(c, pair)).tolist() == want, (op.__name__, c)


@pytest.mark.parametrize("bad", [[2.7], np.array([2.7]), np.array([2.0]), ["7"], [None]],
                         ids=["float", "float-array", "integral-float", "str", "none"])
def test_share_refuses_non_integer_values(bad):
    # Unchecked, [2.7] was truncated to [2].
    for ring in RINGS:
        with pytest.raises(DomainError):
            Share(0, ring, bad)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: f"z{r.width_bits}")
def test_share_reduces_integers_alike_in_any_container(ring):
    # Unchecked, [300] at Z_2^8 raised OverflowError while np.array([300])
    # wrapped to 44.
    values = [300, -1, 2**64 - 1, 2**70 + 1, True]
    want = np.array([v % ring.modulus for v in map(int, values)], dtype=ring.dtype)
    for given in (values, [np.int64(300), np.int64(-1), np.uint64(2**64 - 1), 2**70 + 1, True]):
        assert np.array_equal(Share(0, ring, given).values, want)
    assert np.array_equal(Share(0, ring, np.array([300, -1])).values, want[:2])
    assert np.array_equal(Share(0, ring, [300]).values, Share(0, ring, np.array([300])).values)


def test_uniform_is_full_range_64(rng):
    vals = uniform(Z64, 10000, rng)
    assert vals.dtype == np.uint64
    assert vals.max() > np.uint64(1) << np.uint64(63)


@pytest.mark.parametrize("size", [0, 1, 63, 64, 65, 1000])
@pytest.mark.parametrize("ring", RINGS)
def test_uniform_shape_and_dtype(ring, size, rng):
    vals = uniform(ring, size, rng)
    assert vals.dtype == ring.dtype
    assert vals.shape == (size,)
    assert vals.flags.writeable
    if ring.is_boolean:
        assert np.all(vals <= 1)


@pytest.mark.parametrize("size", [0, 1, 7, 100001])
def test_uniform_64_matches_integers(size):
    ours, ref = np.random.default_rng(99), np.random.default_rng(99)
    got = uniform(Z64, size, ours)
    assert np.array_equal(got, ref.integers(0, 2**64, size, dtype=np.uint64))
    assert ours.bit_generator.state == ref.bit_generator.state


SPLIT = ring_module._SPLIT_WORDS


@pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered-half"])
# Below, at and above the split, and an odd count that 3 does not divide.
@pytest.mark.parametrize("n", [SPLIT - 1, SPLIT, SPLIT + 2, 3 * SPLIT + 1])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_split_draw_equals_one_raw_draw(thread_pool, workers, n, buffered):
    pool = thread_pool(workers)
    split, whole = np.random.default_rng(41), np.random.default_rng(41)
    if buffered:  # a 32-bit draw leaves the other half of its word buffered
        for gen in (split, whole):
            gen.integers(0, 1000, dtype=np.uint32)
        assert whole.bit_generator.state["has_uint32"]
    words = uniform(Z64, n, split)
    assert pool.tasks == (workers if n >= SPLIT else 0)
    assert np.array_equal(words, whole.bit_generator.random_raw(n))
    assert split.bit_generator.state == whole.bit_generator.state
    assert split.integers(0, 1 << 32, 3, dtype=np.uint32).tolist() == \
        whole.integers(0, 1 << 32, 3, dtype=np.uint32).tolist()


def test_a_generator_that_cannot_advance_draws_in_one_call(thread_pool):
    pool = thread_pool(2)
    t0, t1 = Dealer(np.random.Generator(np.random.MT19937(5))).gen_bte(2, Z64, SPLIT)
    ref = np.random.MT19937(5)
    singles, s0 = ref.random_raw(2 * SPLIT).reshape(2, SPLIT), ref.random_raw(3 * SPLIT)
    assert np.array_equal(t0.rows, s0.reshape(3, SPLIT))
    assert np.array_equal(t0.rows[2] + t1.rows[2], singles[0] * singles[1])
    # Only the table build took tasks: one per column block, none for a draw.
    assert pool.tasks == len(threads.blocks(SPLIT))


@pytest.mark.parametrize("workers", [0, 1, 3])
def test_workers_counts_the_pool_threads(thread_pool, workers):
    thread_pool(workers)
    assert threads.workers() == workers


# Each makes a share pair from a plaintext of more than one dimension.
NOT_VECTORS = {
    "session-share-input": lambda sess: sess.share_input([[1, 2, 3]], Z32),
    "dealer-share-input": lambda sess: sess.dealer.share_input(np.ones((2, 2), np.uint8), BOOL),
    "share": lambda sess: share([[1], [2]], Z16, sess.dealer.rng),
    "trivial": lambda sess: trivial(1, [[1, 0, 1]], BOOL),
    "const-pair": lambda sess: const_pair(1, Z32, (2, 3)),
}


@pytest.mark.parametrize("case", NOT_VECTORS)
def test_a_plaintext_that_is_not_a_vector_is_refused_before_any_draw(case):
    sess, fresh = Session(seed=4), Session(seed=4)
    state = sess.dealer.rng.bit_generator.state
    with pytest.raises(ShapeError):
        NOT_VECTORS[case](sess)
    assert sess.dealer.rng.bit_generator.state == state
    assert np.array_equal(sess.share_input([1, 2, 3], Z32).v, fresh.share_input([1, 2, 3], Z32).v)


def test_cols_reads_an_unsigned_numpy_batch_as_an_int():
    assert BOOL.cols(np.uint32(3)) == 1
    assert BOOL.cols(np.uint64(65)) == 2
    assert Z8.cols(np.uint16(5)) == 5


@pytest.mark.parametrize("ring, size", [(BOOL, 64), (Z32, 2)])
def test_uniform_draws_whole_words(ring, size):
    ours, ref = np.random.default_rng(5), np.random.default_rng(5)
    uniform(ring, size, ours)
    ref.bit_generator.random_raw(1)
    assert ours.bit_generator.state == ref.bit_generator.state


# Two draws of rows each: whole words, a part word and a padded word.
@pytest.mark.parametrize("ring", [BOOL, Z8, Z16, Z32, Z64])
@pytest.mark.parametrize("rows, batch", [(1, 1), (3, 63), (2, 65)])
def test_row_draw_cuts_uniform_rows_from_one_longer_draw(ring, rows, batch):
    of, size, words = ring_module.row_draw(ring, rows, batch)
    ours, ref = np.random.default_rng(9), np.random.default_rng(9)
    raw = ring_module.raw_words(ours, 2 * words)
    for k in range(2):
        got = ring_module.elements(of, raw[k * words:(k + 1) * words], size).reshape(rows, -1)
        if ring.is_boolean:
            ring_module.clear_padding(got, batch)
        assert np.array_equal(got, ring_module.uniform_rows(ring, rows, batch, ref))
    assert ours.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("ring, shift", [
    (BOOL, 0), (Z8, 0), (Z16, 0), (Z16, 8), (Z32, 0), (Z32, 24),
])
def test_uniform_bytes_pass_chi_square(ring, shift, rng):
    vals = uniform(ring, 200_000, rng)
    cells = (vals >> vals.dtype.type(shift)) & vals.dtype.type(0xFF)
    counts = np.bincount(cells, minlength=ring.modulus if ring.is_boolean else 256)
    assert scipy.stats.chisquare(counts).pvalue > 0.001


def _vals(ring, rng, size=50):
    return rng.integers(0, min(ring.modulus, 1 << 63), size, dtype=np.uint64)


@pytest.mark.parametrize("ring", RINGS)
def test_pair_is_one_two_row_array(ring, rng):
    for pair in (share(_vals(ring, rng), ring, rng), trivial(1, [1, 0, 1], ring),
                 const_pair(1, ring, 4)):
        assert isinstance(pair.v, np.ndarray)
        assert pair.ring == ring
        if ring.is_boolean:
            # 64 lanes per uint64 word, padding lanes zero.
            assert pair.v.shape == (2, -(-pair.batch // 64))
            assert pair.v.dtype == np.uint64
            assert not (pair.v[:, -1] >> np.uint64(pair.batch % 64)).any()
        else:
            assert pair.v.shape == (2, pair.batch)
            assert pair.v.dtype == ring.dtype


@pytest.mark.parametrize("ring", RINGS)
def test_pair_unpacks_to_party_shares(ring, rng):
    vals = _vals(ring, rng)
    pair = share(vals, ring, rng)
    s0, s1 = pair
    assert (s0.party_id, s1.party_id) == (0, 1)
    rows = unpack_lanes(pair.v, pair.batch) if ring.is_boolean else pair.v
    assert np.array_equal(s0.values, rows[0]) and np.array_equal(s1.values, rows[1])
    assert np.array_equal(reconst(*pair), ring.wrap(vals.astype(ring.dtype)))
    again = SharePair.of(s0, s1)
    assert again.ring == ring
    assert again.v.dtype == (np.uint64 if ring.is_boolean else ring.dtype)
    assert again.batch == pair.batch
    assert np.array_equal(again.v, pair.v)


def test_pair_of_checks_parties_ring_and_batch():
    with pytest.raises(ShapeError):
        SharePair.of(Share(1, Z8, [1]), Share(0, Z8, [2]))
    with pytest.raises(ShapeError):
        SharePair.of(Share(0, Z8, [1]), Share(1, Z16, [2]))
    with pytest.raises(ShapeError):
        SharePair.of(Share(0, Z8, [1, 2]), Share(1, Z8, [3]))


def test_split_and_slice_return_in_order_views(rng):
    """A cut whose pieces all start on a layout column (a multiple of
    ``ring.lanes`` elements) is views of the joined pair, in order; any
    other cut is fresh words with zero padding lanes."""
    for ring in RINGS:
        for step in (4, 64, 130):
            pairs = [share(uniform(ring, step, rng), ring, rng) for _ in range(3)]
            big = concat_pairs(pairs)
            on_columns = step % ring.lanes == 0
            for orig, part in zip(pairs, split_pair(big, 3)):
                assert np.shares_memory(part.v, big.v) == on_columns
                assert part.batch == step and np.array_equal(part.v, orig.v)
            middle = slice_pair(big, step, 2 * step)
            assert np.shares_memory(middle.v, big.v) == on_columns
            assert np.array_equal(middle.v, pairs[1].v)
            head = slice_pair(big, 0, 1)  # starts on a column, may end inside one
            assert np.shares_memory(head.v, big.v) == (ring.lanes == 1)
            assert np.array_equal(head[0].values, pairs[0][0].values[:1])


def _low_bit_pairs():
    """Boolean pairs whose raw byte arithmetic leaves {0, 1}: 1 + 1, 0 - 1."""
    a = SharePair.of(Share(0, BOOL, [0, 0, 1, 1]), Share(1, BOOL, [0, 1, 0, 1]))
    b = SharePair.of(Share(0, BOOL, [1, 1, 1, 1]), Share(1, BOOL, [1, 1, 1, 1]))
    return a, b


def test_boolean_algebra_keeps_the_low_bit():
    a, b = _low_bit_pairs()
    plain_a, plain_b = reconst(*a), reconst(*b)
    results = {
        "add": (add(a, b), plain_a ^ plain_b),
        "sub": (sub(a, b), plain_a ^ plain_b),
        "sub_mirror": (sub_mirror(a, b), None),
        "neg": (neg(a), plain_a),
        "const_add": (const_add(3, a), plain_a ^ 1),
        "const_mult": (const_mult(3, a), plain_a),
        "xor": (xor(a, b), plain_a ^ plain_b),
        "not_": (not_(a), plain_a ^ 1),
        "trivial": (trivial(1, [0, 1, 0, 1], BOOL), [0, 1, 0, 1]),
        "share": (share([1, 0, 1, 0], BOOL, np.random.default_rng(3)), [1, 0, 1, 0]),
    }
    for name, (out, expect) in results.items():
        # Four lanes in one packed word: lanes 4 to 63 must stay zero.
        assert out.v.dtype == np.uint64 and out.v.shape == (2, 1), name
        assert np.all(out.v >> np.uint64(4) == 0), name
        if expect is not None:
            assert np.array_equal(reconst(*out), expect), name


@pytest.mark.parametrize("gate", [and_n, or_n])
def test_boolean_gate_output_keeps_the_low_bit(gate):
    sess = Session(seed=11)
    batch, fan_in = 64, 5
    sess.provision([Need("bte", 1, batch, fan_in=fan_in)])
    bits = np.random.default_rng(12).integers(0, 2, (fan_in, batch), dtype=np.uint64)
    inputs = [sess.share_input(row, BOOL) for row in bits]
    out = sess.run(gate(inputs, *sess.store.take_bte(fan_in, BOOL, batch)))
    assert out.v.dtype == np.uint64 and out.v.shape == (2, 1)  # 64 lanes, one word
    expect = bits.min(axis=0) if gate is and_n else bits.max(axis=0)
    assert np.array_equal(reconst(*out), expect)
