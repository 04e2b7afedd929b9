import itertools

import numpy as np
import pytest

from conftest import manifest

from ringmpc import protocols as P
from ringmpc.engine import Session
from ringmpc.errors import CapabilityError, DomainError, ShapeError
from ringmpc.ring import BOOL, Share, SharePair, Z8, Z16, Z32, Z64, reconst

RINGS = {8: Z8, 16: Z16, 32: Z32, 64: Z64}

# Reference per-party online bit counts, batch 1.
EQUALITY_BITS = {8: 11, 16: 20, 32: 38, 64: 72}
COMPARISON_BITS = {16: 280, 32: 712, 64: 1900}
MAX3_BITS = {16: 1752, 32: 3960, 64: 9348}


def rand(rng, ring, batch, high=None):
    return ring.wrap(rng.integers(0, high or min(ring.modulus, 1 << 63), batch,
                                  dtype=np.uint64))


def run(seed, needs, gen_factory):
    sess = Session(seed=seed)
    sess.provision(needs)
    result = sess.run(gen_factory(sess))
    assert sess.store.is_empty(), "manifest over-provisioned"
    return sess, result


# ---------------------------------------------------------------------------
# Equality

@pytest.mark.parametrize("width", [8, 16, 32, 64])
def test_equality_costs_and_correctness(width):
    ring = RINGS[width]
    rng = np.random.default_rng(width)
    batch = 2000
    xv = rand(rng, ring, batch)
    yv = xv.copy()
    yv[::3] = rand(rng, ring, (batch + 2) // 3)
    sess, z = run(
        width,
        manifest("equality", ring, batch),
        lambda s: P.equality(s.store, s.share_input(xv, ring), s.share_input(yv, ring)),
    )
    assert np.array_equal(reconst(*z), (xv == yv).astype(np.uint8))
    assert sess.rounds == 2
    assert sess.bits == [EQUALITY_BITS[width] * batch] * 2


def test_equality_rejects_boolean():
    sess = Session(seed=0)
    b = sess.share_input([1], BOOL)
    with pytest.raises(DomainError):
        next(P.equality(sess.store, b, b))


def test_baseline_equality():
    ring = Z32
    rng = np.random.default_rng(3)
    batch = 1000
    xv = rand(rng, ring, batch)
    yv = xv.copy()
    yv[::2] = rand(rng, ring, batch // 2)
    sess, z = run(
        1,
        manifest("equality", ring, batch, baseline=True),
        lambda s: P.baseline_equality(
            s.store, s.share_input(xv, ring), s.share_input(yv, ring)
        ),
    )
    assert np.array_equal(reconst(*z), (xv == yv).astype(np.uint8))
    assert sess.rounds == 5
    assert sess.bits == [62 * batch] * 2


# ---------------------------------------------------------------------------
# MSNZB

def test_msnzb_exhaustive_width16():
    batch = 1 << 16
    vals = np.arange(batch, dtype=np.uint64)
    sess = Session(seed=11)
    sess.provision(manifest("msnzb", Z16, batch))
    planes = [
        sess.share_input((vals >> np.uint64(j)) & np.uint64(1), BOOL)
        for j in range(16)
    ]
    out = sess.run(P.msnzb(sess.store, planes))
    bits = np.stack([reconst(*p) for p in out])
    weights = bits.sum(axis=0)
    assert np.all(weights[vals == 0] == 0)
    assert np.all(weights[vals > 0] == 1)
    msb = np.zeros(batch, dtype=np.int64)
    for j in range(16):
        msb[vals >= (1 << j)] = j
    nz = vals > 0
    assert np.array_equal(bits.argmax(axis=0)[nz], msb[nz])
    assert sess.rounds == 2
    assert sess.bits == [72 * batch] * 2
    assert sess.store.is_empty()


def test_msnzb_rejects_other_widths():
    sess = Session(seed=0)
    planes = [sess.share_input([0], BOOL) for _ in range(8)]
    with pytest.raises(CapabilityError):
        next(P.msnzb(sess.store, planes))


# ---------------------------------------------------------------------------
# Overflow

@pytest.mark.parametrize("k", range(1, 9))
def test_overflow_2r_exhaustive_n8(k):
    batch = 1 << 16
    a = np.repeat(np.arange(256, dtype=np.uint64), 256)
    b = np.tile(np.arange(256, dtype=np.uint64), 256)
    x = SharePair.of(Share(0, Z8, a), Share(1, Z8, b))
    sess, z = run(k, manifest("overflow", Z8, batch),
                  lambda s: P.overflow_2r(s.store, x, k))
    expect = ((a % (1 << k)) + (b % (1 << k)) >= (1 << k)).astype(np.uint8)
    assert np.array_equal(reconst(*z), expect)
    assert sess.rounds == 2


@pytest.mark.parametrize("width", [16, 32, 64])
def test_overflow_2r_random_wider(width):
    ring = RINGS[width]
    rng = np.random.default_rng(width)
    batch = 3000
    a = rand(rng, ring, batch)
    b = rand(rng, ring, batch)
    x = SharePair.of(Share(0, ring, a), Share(1, ring, b))
    for k in (1, width // 2, width - 1, width):
        sess, z = run(width + k, manifest("overflow", ring, batch),
                      lambda s: P.overflow_2r(s.store, x, k))
        mod = 1 << k
        expect = ((a.astype(object) % mod) + (b.astype(object) % mod) >= mod)
        assert np.array_equal(reconst(*z), expect.astype(np.uint8))
        assert sess.rounds == 2


@pytest.mark.parametrize("width,bits", [(8, 38), (16, 92), (32, 236), (64, 632)])
def test_overflow_2r_bit_counts(width, bits):
    ring = RINGS[width]
    x = SharePair.of(Share(0, ring, [1]), Share(1, ring, [2]))
    sess, _ = run(width, manifest("overflow", ring, 1),
                  lambda s: P.overflow_2r(s.store, x, width))
    assert sess.bits == [bits, bits]


def test_overflow_2r_bad_k():
    x = SharePair.of(Share(0, Z8, [1]), Share(1, Z8, [2]))
    sess = Session(seed=0)
    with pytest.raises(DomainError):
        next(P.overflow_2r(sess.store, x, 9))


def test_overflow_1r_exhaustive_n8():
    a = np.repeat(np.arange(256, dtype=np.uint64), 256)
    b = np.tile(np.arange(256, dtype=np.uint64), 256)
    x = SharePair.of(Share(0, Z8, a), Share(1, Z8, b))
    sess, z = run(21, manifest("overflow1r", Z8, 1 << 16),
                  lambda s: P.overflow_1r(s.store, x))
    assert np.array_equal(reconst(*z), ((a + b) >= 256).astype(np.uint8))
    assert sess.rounds == 1


def test_overflow_1r_random_n16():
    rng = np.random.default_rng(8)
    batch = 5000
    a = rand(rng, Z16, batch)
    b = rand(rng, Z16, batch)
    x = SharePair.of(Share(0, Z16, a), Share(1, Z16, b))
    sess, z = run(22, manifest("overflow1r", Z16, batch),
                  lambda s: P.overflow_1r(s.store, x))
    expect = (a.astype(np.uint64) + b.astype(np.uint64) >= (1 << 16)).astype(np.uint8)
    assert np.array_equal(reconst(*z), expect)
    assert sess.rounds == 1


def test_overflow_1r_unsupported_width():
    x = SharePair.of(Share(0, Z32, [1]), Share(1, Z32, [2]))
    sess = Session(seed=0)
    with pytest.raises(CapabilityError):
        next(P.overflow_1r(sess.store, x))


# ---------------------------------------------------------------------------
# Comparison

@pytest.mark.parametrize("width", [16, 32, 64])
def test_comparison_costs_and_correctness(width):
    ring = RINGS[width]
    rng = np.random.default_rng(width + 1)
    batch = 2000
    half = 1 << (width - 1)
    xv = rand(rng, ring, batch, high=half)
    yv = rand(rng, ring, batch, high=half)
    yv[:20] = xv[:20]  # exercise ties -> strictly-less is false
    sess, z = run(
        width,
        manifest("comparison", ring, batch),
        lambda s: P.comparison(
            s.store, s.share_input(xv, ring), s.share_input(yv, ring)
        ),
    )
    assert np.array_equal(reconst(*z), (xv < yv).astype(np.uint8))
    assert sess.rounds == 3
    assert sess.bits == [COMPARISON_BITS[width] * batch] * 2


def test_comparison_exhaustive_small_domain():
    vals = np.array(list(itertools.product(range(16), repeat=2)), dtype=np.uint64)
    batch = len(vals)
    sess, z = run(
        31,
        manifest("comparison", Z16, batch),
        lambda s: P.comparison(
            s.store, s.share_input(vals[:, 0], Z16), s.share_input(vals[:, 1], Z16)
        ),
    )
    assert np.array_equal(reconst(*z), (vals[:, 0] < vals[:, 1]).astype(np.uint8))


def test_baseline_comparison():
    rng = np.random.default_rng(9)
    batch = 1000
    xv = rand(rng, Z32, batch, high=1 << 31)
    yv = rand(rng, Z32, batch, high=1 << 31)
    sess, z = run(
        32,
        manifest("comparison", Z32, batch, baseline=True),
        lambda s: P.baseline_comparison(
            s.store, s.share_input(xv, Z32), s.share_input(yv, Z32)
        ),
    )
    assert np.array_equal(reconst(*z), (xv < yv).astype(np.uint8))
    assert sess.rounds == 7
    assert sess.bits == [970 * batch] * 2


# ---------------------------------------------------------------------------
# Conversions

def all_bit_patterns(batch, rng):
    """Boolean share pairs covering all four (b0, b1) patterns."""
    b0 = rng.integers(0, 2, batch, dtype=np.uint64)
    b1 = rng.integers(0, 2, batch, dtype=np.uint64)
    # Force every pattern to appear.
    b0[:4] = [0, 0, 1, 1]
    b1[:4] = [0, 1, 0, 1]
    return SharePair.of(Share(0, BOOL, b0), Share(1, BOOL, b1)), b0 ^ b1


@pytest.mark.parametrize("width", [8, 16, 32, 64])
def test_b2a(width):
    ring = RINGS[width]
    rng = np.random.default_rng(width + 2)
    batch = 2000
    b, bb = all_bit_patterns(batch, rng)
    sess, z = run(width, manifest("b2a", ring, batch),
                  lambda s: P.b2a(s.store, b, ring))
    assert np.array_equal(reconst(*z), bb.astype(ring.dtype))
    assert sess.rounds == 1
    assert sess.bits == [width * batch] * 2  # n bits per party, not 2n


def test_b2a_rejects_arithmetic_input():
    sess = Session(seed=0)
    x = sess.share_input([1], Z8)
    with pytest.raises(DomainError):
        next(P.b2a(sess.store, x, Z8))


def test_b2a_rejects_boolean_target_ring():
    sess = Session(seed=0)
    x = sess.share_input([1], BOOL)
    with pytest.raises(DomainError):
        next(P.b2a(sess.store, x, BOOL))
    with pytest.raises(DomainError):
        manifest("b2a", BOOL, 4)


@pytest.mark.parametrize("width", [16, 32, 64])
def test_bx2a(width):
    ring = RINGS[width]
    rng = np.random.default_rng(width + 3)
    batch = 2000
    b, bb = all_bit_patterns(batch, rng)
    xv = rand(rng, ring, batch)
    sess, z = run(
        width,
        manifest("bx2a", ring, batch),
        lambda s: P.bx2a(s.store, b, s.share_input(xv, ring)),
    )
    assert np.array_equal(reconst(*z), ring.wrap(bb * xv))
    assert sess.rounds == 1
    assert sess.bits == [5 * width * batch] * 2


@pytest.mark.parametrize("width", [16, 32, 64])
def test_bc2a(width):
    ring = RINGS[width]
    rng = np.random.default_rng(width + 4)
    batch = 2000
    b, bb = all_bit_patterns(batch, rng)
    c, cc = all_bit_patterns(batch, np.random.default_rng(width + 5))
    sess, z = run(width, manifest("bc2a", ring, batch),
                  lambda s: P.bc2a(s.store, b, c, ring))
    assert np.array_equal(reconst(*z), (bb & cc).astype(ring.dtype))
    assert sess.rounds == 1
    assert sess.bits == [14 * width * batch] * 2


@pytest.mark.parametrize("width", [16, 32, 64])
def test_bcx2a(width):
    ring = RINGS[width]
    rng = np.random.default_rng(width + 6)
    batch = 2000
    b, bb = all_bit_patterns(batch, rng)
    c, cc = all_bit_patterns(batch, np.random.default_rng(width + 7))
    xv = rand(rng, ring, batch)
    sess, z = run(
        width,
        manifest("bcx2a", ring, batch),
        lambda s: P.bcx2a(s.store, b, c, s.share_input(xv, ring)),
    )
    assert np.array_equal(reconst(*z), ring.wrap((bb & cc) * xv))
    assert sess.rounds == 1
    assert sess.bits == [19 * width * batch] * 2


# ---------------------------------------------------------------------------
# Max / Min / Argmax

def exhaustive_triples(limit=8):
    vals = np.array(list(itertools.product(range(limit), repeat=3)),
                    dtype=np.uint64)
    return vals


# numpy argmax/argmin break ties at the lowest index, same as the protocols.
# The ids are the ones these cases have always run under; their third part
# names the manifest each took (min3 and argmin3 take max3's and argmax3's).
EXTREMA3 = [
    pytest.param("max3", P.max3, lambda v: v.max(axis=1),
                 id="max3-max3-max3_manifest-<lambda>"),
    pytest.param("min3", P.min3, lambda v: v.min(axis=1),
                 id="min3-min3-max3_manifest-<lambda>"),
    pytest.param("argmax3", P.argmax3, lambda v: v.argmax(axis=1),
                 id="argmax3-argmax3-argmax3_manifest-<lambda>"),
    pytest.param("argmin3", P.argmin3, lambda v: v.argmin(axis=1),
                 id="argmin3-argmin3-argmax3_manifest-<lambda>"),
]


@pytest.mark.parametrize("name,proto,oracle", EXTREMA3)
def test_extremum3_exhaustive_with_ties(name, proto, oracle):
    vals = exhaustive_triples()
    batch = len(vals)
    sess, z = run(
        41,
        manifest(name, Z16, batch),
        lambda s: proto(s.store, [s.share_input(vals[:, i], Z16) for i in range(3)]),
    )
    assert np.array_equal(reconst(*z), oracle(vals).astype(np.uint16))
    assert sess.rounds == 4


@pytest.mark.parametrize("count", [2, 4])
@pytest.mark.parametrize("name,proto,oracle", EXTREMA3)
def test_extremum3_refuses_other_input_counts(name, proto, oracle, count):
    # Unchecked, argmax3 ignored a fourth value and raised a bare
    # IndexError on two.
    sess = Session(seed=0)
    xs = [sess.share_input([1], Z16) for _ in range(count)]
    with pytest.raises(ShapeError):
        next(proto(sess.store, xs))


@pytest.mark.parametrize("width", [16, 32, 64])
def test_max3_costs(width):
    ring = RINGS[width]
    rng = np.random.default_rng(width + 8)
    batch = 100
    vals = [rand(rng, ring, batch, high=1 << (width - 1)) for _ in range(3)]
    sess, z = run(
        width,
        manifest("max3", ring, batch),
        lambda s: P.max3(s.store, [s.share_input(v, ring) for v in vals]),
    )
    assert np.array_equal(reconst(*z), np.max(vals, axis=0).astype(ring.dtype))
    assert sess.rounds == 4
    assert sess.bits == [MAX3_BITS[width] * batch] * 2


def test_max3_trivial_examples():
    for vals, expect in [([1, 5, 3], 5), ([9, 2, 2], 9)]:
        arr = np.array(vals, dtype=np.uint64).reshape(3, 1)
        sess, z = run(
            43,
            manifest("max3", Z16, 1),
            lambda s: P.max3(s.store, [s.share_input(arr[i], Z16) for i in range(3)]),
        )
        assert reconst(*z)[0] == expect


def test_baseline_max3():
    rng = np.random.default_rng(10)
    batch = 500
    vals = np.stack([rand(rng, Z32, batch, high=1 << 31) for _ in range(3)])
    sess, z = run(
        44,
        manifest("max3", Z32, batch, baseline=True),
        lambda s: P.baseline_max3(
            s.store, [s.share_input(vals[i], Z32) for i in range(3)]
        ),
    )
    assert np.array_equal(reconst(*z), vals.max(axis=0).astype(np.uint32))
    assert sess.rounds == 18
    assert sess.bits == [2196 * batch] * 2


@pytest.mark.parametrize("n_vals", [4, 5, 6, 7, 8])
def test_maxn(n_vals):
    rng = np.random.default_rng(n_vals)
    batch = 300
    vals = np.stack([rand(rng, Z16, batch, high=1 << 15) for _ in range(n_vals)])
    sess, z = run(
        50 + n_vals,
        manifest(f"max{n_vals}", Z16, batch),
        lambda s: P.maxn(s.store, [s.share_input(v, Z16) for v in vals]),
    )
    assert np.array_equal(reconst(*z), vals.max(axis=0).astype(np.uint16))
    assert sess.rounds == 5  # 3 (comparison) + 1 (one AND layer at cap 9) + 1 (BX2A)


def test_maxn_smallest():
    rng = np.random.default_rng(60)
    batch = 300
    vals = np.stack([rand(rng, Z16, batch, high=1 << 15) for _ in range(5)])
    sess, z = run(
        61,
        manifest("max5", Z16, batch),
        lambda s: P.maxn(s.store, [s.share_input(v, Z16) for v in vals],
                         smallest=True),
    )
    assert np.array_equal(reconst(*z), vals.min(axis=0).astype(np.uint16))


def test_maxn_comparison_count():
    needs = manifest("max5", Z16, 1)
    # The stacked comparison runs at batch N(N-1)/2 = 10.
    assert needs[0].batch % 10 == 0


def test_maxn_caps():
    sess = Session(seed=0)
    xs3 = [sess.share_input([1], Z16) for _ in range(3)]
    with pytest.raises(ShapeError):
        next(P.maxn(sess.store, xs3))
    xs9 = [sess.share_input([1], Z16) for _ in range(9)]
    with pytest.raises(CapabilityError):
        next(P.maxn(sess.store, xs9))


# ---------------------------------------------------------------------------
# Banked rounds at bit offsets: ``gates.bank`` (and MSNZB's block scan)
# stacks these protocols' boolean gates and cuts their outputs at batches
# that do not fill whole 64-lane words.

OFFSET_BATCHES = [1, 63, 65, 130]


@pytest.mark.parametrize("batch", OFFSET_BATCHES)
@pytest.mark.parametrize("width", [8, 16, 32, 64])
@pytest.mark.parametrize("proto,baseline,rounds", [
    (P.equality, False, lambda width: 2),
    (P.baseline_equality, True, lambda width: width.bit_length() - 1),
], ids=["equality", "baseline"])
def test_equality_at_bit_offsets(proto, baseline, rounds, width, batch):
    ring = RINGS[width]
    rng = np.random.default_rng([width, batch])
    xv = rand(rng, ring, batch)
    yv = rand(rng, ring, batch)
    yv[::3] = xv[::3]
    # Another third differs from x in one bit, so every plane decides.
    flips = rng.integers(0, width, len(yv[1::3])).astype(ring.dtype)
    yv[1::3] = xv[1::3] ^ (ring.dtype(1) << flips)
    sess, z = run(batch, manifest("equality", ring, batch, baseline=baseline),
                  lambda s: proto(s.store, s.share_input(xv, ring), s.share_input(yv, ring)))
    assert np.array_equal(reconst(*z), (xv == yv).astype(np.uint8))
    assert sess.rounds == rounds(width)


@pytest.mark.parametrize("batch", OFFSET_BATCHES)
@pytest.mark.parametrize("name,proto,oracle", EXTREMA3)
def test_extremum3_at_bit_offsets(name, proto, oracle, batch):
    # Argmax/Argmin cut their selectors at [batch, 3 * batch) of each term.
    rng = np.random.default_rng(batch)
    # Three draws from four values: ties in most elements.
    vals = rng.choice(rand(rng, Z16, 4, high=1 << 15), size=(batch, 3))
    sess, z = run(
        batch,
        manifest(name, Z16, batch),
        lambda s: proto(s.store, [s.share_input(vals[:, i], Z16) for i in range(3)]),
    )
    assert np.array_equal(reconst(*z), oracle(vals).astype(np.uint16))
    assert sess.rounds == 4


@pytest.mark.parametrize("batch", OFFSET_BATCHES)
@pytest.mark.parametrize("ring", [Z8, Z16], ids=["z8", "z16"])
def test_overflow_1r_at_bit_offsets(ring, batch):
    rng = np.random.default_rng([ring.width_bits, batch])
    a = rand(rng, ring, batch)
    b = rand(rng, ring, batch)
    # Every other element sits within two of the carry: high halves that
    # sum to all-ones, and the low halves decide.
    near = slice(None, None, 2)
    b[near] = ring.wrap(-a[near].astype(np.int64) + rng.integers(-2, 3, len(a[near])))
    x = SharePair.of(Share(0, ring, a), Share(1, ring, b))
    sess, z = run(batch, manifest("overflow1r", ring, batch),
                  lambda s: P.overflow_1r(s.store, x))
    expect = a.astype(np.uint64) + b.astype(np.uint64) >= ring.modulus
    assert np.array_equal(reconst(*z), expect.astype(np.uint8))
    assert sess.rounds == 1


# Comparison (3) + the AND layers of the N - 1 selector terms under the
# cap + BX2A (1). At cap 2, four terms take two layers and five to seven
# take three; at cap 3 every N here takes two; at cap 9 one.
MAXN_ROUNDS = {
    2: {5: 6, 6: 7, 7: 7, 8: 7},
    3: {5: 6, 6: 6, 7: 6, 8: 6},
    9: {5: 5, 6: 5, 7: 5, 8: 5},
}


@pytest.mark.parametrize("batch", OFFSET_BATCHES)
@pytest.mark.parametrize("cap", [2, 3, 9])
@pytest.mark.parametrize("n_vals", [5, 6, 7, 8])
def test_maxn_at_bit_offsets(n_vals, cap, batch):
    rng = np.random.default_rng([n_vals, cap, batch])
    vals = np.stack([rand(rng, Z16, batch, high=1 << 15) for _ in range(n_vals)])
    vals[n_vals - 1, ::3] = vals[0, ::3]  # ties between the first and last value
    sess, z = run(
        batch,
        manifest(f"max{n_vals}", Z16, batch, fanin_cap=cap),
        lambda s: P.maxn(s.store, [s.share_input(v, Z16) for v in vals], fanin_cap=cap),
    )
    assert np.array_equal(reconst(*z), vals.max(axis=0).astype(np.uint16))
    assert sess.rounds == MAXN_ROUNDS[cap][n_vals]


@pytest.mark.parametrize("batch", OFFSET_BATCHES)
def test_msnzb_matches_its_one_hot_oracle_at_bit_offsets(batch):
    rng = np.random.default_rng(batch)
    # Shifted draws put the highest set bit at every position, and zero.
    vals = rng.integers(0, 1 << 16, batch, dtype=np.uint64) >> rng.integers(
        0, 17, batch, dtype=np.uint64)
    vals[0] = 0
    sess, out = run(
        batch,
        manifest("msnzb", Z16, batch),
        lambda s: P.msnzb(s.store, [
            s.share_input((vals >> np.uint64(j)) & np.uint64(1), BOOL) for j in range(16)]),
    )
    one_hot = np.stack([(vals >> np.uint64(j)) == 1 for j in range(16)])
    assert np.array_equal(np.stack([reconst(*plane) for plane in out]), one_hot.astype(np.uint8))
    assert sess.rounds == 2
    assert sess.bits == [72 * batch] * 2


# ---------------------------------------------------------------------------
# Table lookup

def test_tlu_trivial_example():
    keys, values = [10, 20, 30], [7, 8, 9]
    sess = Session(seed=70)
    sess.provision(manifest("tlu3", Z16, 1))
    table = P.LookupTable(
        [sess.share_input([k], Z16) for k in keys],
        [sess.share_input([v], Z16) for v in values],
    )
    z = sess.run(P.tlu(sess.store, table, sess.share_input([20], Z16)))
    assert reconst(*z)[0] == 8
    assert sess.rounds == 3
    assert sess.store.is_empty()


def test_tlu_single_key():
    sess = Session(seed=71)
    sess.provision(manifest("tlu1", Z16, 1))
    table = P.LookupTable([sess.share_input([5], Z16)],
                          [sess.share_input([123], Z16)])
    z = sess.run(P.tlu(sess.store, table, sess.share_input([5], Z16)))
    assert reconst(*z)[0] == 123


@pytest.mark.parametrize("n_keys", [2, 4, 8])
def test_tlu_random_tables(n_keys):
    rng = np.random.default_rng(n_keys)
    trials = 10_000 // n_keys
    keys = rng.permutation(1 << 15)[:n_keys].astype(np.uint64)
    vals = rng.integers(0, 1 << 16, (n_keys, trials), dtype=np.uint64)
    pick = rng.integers(0, n_keys, trials)
    sess = Session(seed=72)
    sess.provision(manifest(f"tlu{n_keys}", Z16, trials))
    table = P.LookupTable(
        [sess.share_input(np.full(trials, k, np.uint64), Z16) for k in keys],
        [sess.share_input(vals[i], Z16) for i in range(n_keys)],
    )
    z = sess.run(P.tlu(sess.store, table, sess.share_input(keys[pick], Z16)))
    assert np.array_equal(reconst(*z), vals[pick, np.arange(trials)].astype(np.uint16))
    assert sess.rounds == 3


def test_lookup_table_shape_check():
    sess = Session(seed=0)
    with pytest.raises(ShapeError):
        P.LookupTable([sess.share_input([1], Z16)], [])
    with pytest.raises(ShapeError):
        P.LookupTable([], [])
