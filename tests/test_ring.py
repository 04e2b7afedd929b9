import numpy as np
import pytest

from ringmpc.errors import DomainError, ShapeError
from ringmpc.ring import (
    BOOL,
    RingSpec,
    Share,
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
    reconst,
    share,
    split_pair,
    sub,
    sub_mirror,
    trivial,
    uniform,
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


def test_boolean_shares_are_xor(rng):
    pair = share([1, 0, 1, 1], BOOL, rng)
    assert np.array_equal(reconst(*pair), pair[0].values ^ pair[1].values)


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
        assert all(p.dtype == np.uint8 for p in planes)
        assert [int(p[0]) for p in planes] == [1, 1, 0, 1] + [0] * (width - 5) + [1]
        assert [int(p[1]) for p in planes] == [0, 0, 1] + [0] * (width - 3)


def test_bit_decompose_local_planes_are_own_bits(rng):
    pair = share(uniform(Z16, 8, rng), Z16, rng)
    planes = bit_decompose_local(pair)
    assert len(planes) == 16
    for j in range(16):
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


def test_uniform_is_full_range_64(rng):
    vals = uniform(Z64, 10000, rng)
    assert vals.dtype == np.uint64
    assert vals.max() > np.uint64(1) << np.uint64(63)
