"""Arithmetic over Z_2^n, additive/XOR secret shares, and local share algebra.

A share pair is one ``(2, batch)`` array in the ring's dtype, row i being
party i's share (``SharePair``); a scalar is a batch of one. Each local op
is one numpy operation over both rows, and batch plumbing slices or
concatenates along the batch axis. ``Share`` is the per-party view:
``pair[i]`` is party i's share, so ``reconst(*pair)`` opens a pair.
Width 1 is the boolean domain: addition and subtraction coincide with XOR,
multiplication with AND, so the same code path serves both share types.
Shares keep one uint8 per bit; ``pack_lanes`` and ``unpack_lanes`` convert
bits to and from 64 lanes per uint64 word, the layout of boolean BTE tables
and of boolean gate payloads.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError

SUPPORTED_WIDTHS = (1, 8, 16, 32, 64)

_DTYPES = {
    1: np.uint8,
    8: np.uint8,
    16: np.uint16,
    32: np.uint32,
    64: np.uint64,
}


@dataclass(frozen=True)
class RingSpec:
    """The ring Z_2^n for n in {1, 8, 16, 32, 64}."""

    width_bits: int

    def __post_init__(self):
        if self.width_bits not in SUPPORTED_WIDTHS:
            raise DomainError(f"unsupported ring width {self.width_bits}")

    @property
    def dtype(self):
        return _DTYPES[self.width_bits]

    @property
    def is_boolean(self) -> bool:
        return self.width_bits == 1

    @property
    def modulus(self) -> int:
        return 1 << self.width_bits

    def wrap(self, arr: np.ndarray) -> np.ndarray:
        """Reduce into the ring. Only width 1 needs an explicit mask; the
        other widths coincide with their numpy dtype and wrap natively."""
        arr = np.asarray(arr, dtype=self.dtype)
        if self.width_bits == 1:
            arr = arr & np.uint8(1)
        return arr


BOOL = RingSpec(1)
Z8 = RingSpec(8)
Z16 = RingSpec(16)
Z32 = RingSpec(32)
Z64 = RingSpec(64)


@dataclass
class Share:
    """One party's additive (or XOR, for width 1) share of a secret vector:
    the per-party view of a ``SharePair``. Values are normalised here: cast
    to the ring's dtype, width 1 masked to its low bit when a value exceeds
    it. In-range values are kept as given, so ``pair[i].values`` is a view
    of ``pair.v`` at every width."""

    party_id: int
    ring: RingSpec
    values: np.ndarray

    def __post_init__(self):
        if self.party_id not in (0, 1):
            raise ShapeError(f"party_id must be 0 or 1, got {self.party_id}")
        self.values = np.atleast_1d(np.asarray(self.values, dtype=self.ring.dtype))
        if self.ring.is_boolean and self.values.max(initial=0) > 1:
            self.values = self.values & np.uint8(1)

    def __len__(self):
        return len(self.values)


@dataclass(eq=False, slots=True)
class SharePair:
    """Both parties' shares of one secret vector: ``v`` is one ``(2, batch)``
    array in the ring's dtype whose row i is party i's share.

    The constructor trusts its arguments; the local ops below keep ``v`` in
    the ring (width 1 masked to {0, 1}). Pairs built by hand from two
    ``Share``s go through ``SharePair.of``, which checks them. ``pair[i]``
    is party i's ``Share``, so ``s0, s1 = pair`` and ``reconst(*pair)``
    work as on a tuple.
    """

    ring: RingSpec
    v: np.ndarray

    @classmethod
    def of(cls, s0: Share, s1: Share) -> "SharePair":
        """Pair party 0's and party 1's shares of one ring and batch."""
        _check_pair(s0, s1)
        return cls(s0.ring, np.stack((s0.values, s1.values)))

    @property
    def batch(self) -> int:
        return self.v.shape[1]

    def __getitem__(self, party: int) -> Share:
        return Share(party, self.ring, self.v[party])

    def __iter__(self):
        yield self[0]
        yield self[1]


def _check_pair(s0: Share, s1: Share):
    if (s0.party_id, s1.party_id) != (0, 1):
        raise ShapeError("expected shares of parties (0, 1)")
    if s0.ring != s1.ring:
        raise ShapeError("ring mismatch between paired shares")
    if len(s0) != len(s1):
        raise ShapeError("batch length mismatch between paired shares")


def _check_same(a: SharePair, b: SharePair):
    if a.ring != b.ring:
        raise ShapeError("ring mismatch between operands")
    if a.v.shape != b.v.shape:
        raise ShapeError("batch length mismatch between operands")


def _wrapped(ring: RingSpec, v: np.ndarray) -> SharePair:
    """A pair over ``v`` after arithmetic that can leave {0, 1} at width 1,
    which keeps the low bit. ``v`` is fresh, so it is masked in place."""
    if ring.is_boolean:
        v &= 1
    return SharePair(ring, v)


def uniform(ring: RingSpec, size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform vector of ring elements, cut from raw 64-bit generator words.

    ``ceil(size * n / 64)`` words are drawn, read as little-endian bytes on
    any host, and cut into consecutive n-bit elements: at width 1 each bit
    is one element, low bit first. At width 64 the words are the elements,
    so a Z_2^64 draw equals ``rng.integers(0, 2**64, size, dtype=np.uint64)``
    and leaves the generator in the same state. Fixed-seed draws at widths
    below 64 differ from versions that drew one ``integers`` value per
    element.
    """
    words = rng.bit_generator.random_raw(-(-size * ring.width_bits // 64))
    if ring.width_bits == 64:
        return words
    raw = words.astype("<u8", copy=False).view(np.uint8)
    if ring.is_boolean:
        return np.unpackbits(raw, count=size, bitorder="little")
    elems = raw.view(np.dtype(ring.dtype).newbyteorder("<"))[:size]
    return elems.astype(ring.dtype, copy=False)


def pack_lanes(bits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Pack ``(..., batch)`` bits, one uint8 0/1 each, into ``(...,
    ceil(batch/64))`` uint64 words: lane i of word w is element 64·w + i,
    little-endian lane order on any host (the order of ``uniform`` at
    width 1). The padding lanes of each row's last word are zero.

    The words go into ``out`` if given, a zeroed little-endian (``"<u8"``)
    array of that shape, else into one freshly zeroed buffer."""
    if out is None:
        *lead, batch = np.shape(bits)
        out = np.zeros((*lead, -(-batch // 64)), dtype="<u8")
    packed = np.packbits(bits, axis=-1, bitorder="little")
    out.view(np.uint8)[..., :packed.shape[-1]] = packed
    return out.astype(np.uint64, copy=False)


def unpack_lanes(words: np.ndarray, batch: int) -> np.ndarray:
    """Inverse of ``pack_lanes``: the first ``batch`` lanes of each row of
    ``words`` as uint8 0/1, along the last axis."""
    raw = np.ascontiguousarray(words).astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(raw, axis=-1, count=batch, bitorder="little")


def share(x, ring: RingSpec, rng: np.random.Generator) -> SharePair:
    """Split a plaintext vector into a uniformly random share pair."""
    x = np.atleast_1d(np.asarray(x, dtype=np.uint64))
    if ring.width_bits < 64 and np.any(x >= ring.modulus):
        raise DomainError("plaintext value out of ring range")
    x = x.astype(ring.dtype)
    r = uniform(ring, len(x), rng)
    return _wrapped(ring, np.stack((r, x - r)))


def reconst(s0: Share, s1: Share) -> np.ndarray:
    """Open a share pair: elementwise sum mod 2^n (XOR for width 1)."""
    _check_pair(s0, s1)
    return s0.ring.wrap(s0.values + s1.values)


def trivial(holder: int, values, ring: RingSpec) -> SharePair:
    """Lift a value held in the clear by one party into a share pair
    (v, 0) or (0, v). No communication."""
    values = np.atleast_1d(np.asarray(values, dtype=np.uint64)).astype(ring.dtype)
    v = np.zeros((2, len(values)), dtype=ring.dtype)
    v[holder] = values
    return _wrapped(ring, v)


def const_pair(c, ring: RingSpec, batch: int) -> SharePair:
    """A public constant as the trivial pair (c, 0)."""
    return trivial(0, np.full(batch, c, dtype=np.uint64), ring)


# ---------------------------------------------------------------------------
# Local (communication-free) share algebra: one numpy op over both parties.

def add(a: SharePair, b: SharePair) -> SharePair:
    _check_same(a, b)
    return _wrapped(a.ring, a.v + b.v)


def sub(a: SharePair, b: SharePair) -> SharePair:
    """Additive subtraction: both parties subtract; reconstructs a - b."""
    _check_same(a, b)
    return _wrapped(a.ring, a.v - b.v)


def sub_mirror(a: SharePair, b: SharePair) -> SharePair:
    """Party-asymmetric difference: t0 = a0 - b0, t1 = b1 - a1.

    The result is NOT an additive sharing of a - b; its defining property is
    t0 == t1 iff a == b, which is what the bitwise equality check consumes.
    """
    _check_same(a, b)
    t = a.v - b.v
    np.negative(t[1], out=t[1])
    return _wrapped(a.ring, t)


def neg(a: SharePair) -> SharePair:
    return _wrapped(a.ring, 0 - a.v)


def _public(c, ring: RingSpec):
    return ring.wrap(np.asarray(c, dtype=np.uint64).astype(ring.dtype))


def const_add(c, a: SharePair) -> SharePair:
    """Add a public constant: party 0 adds c, party 1 adds zero."""
    v = a.v.copy()
    v[0] += _public(c, a.ring)
    return _wrapped(a.ring, v)


def const_mult(c, a: SharePair) -> SharePair:
    """Multiply by a public constant: both parties scale their share."""
    return _wrapped(a.ring, a.v * _public(c, a.ring))


def xor(a: SharePair, b: SharePair) -> SharePair:
    if not a.ring.is_boolean:
        raise DomainError("xor requires boolean shares")
    _check_same(a, b)
    return SharePair(BOOL, a.v ^ b.v)


def not_(a: SharePair) -> SharePair:
    """Boolean NOT: only party 0 flips its share."""
    if not a.ring.is_boolean:
        raise DomainError("not requires boolean shares")
    v = a.v.copy()
    v[0] ^= 1
    return SharePair(BOOL, v)


# ---------------------------------------------------------------------------
# Bit planes.

def bits_of(values: np.ndarray, width: int) -> list:
    """LSB-first bit arrays of a plain value array, shifted in its own dtype."""
    return [(values >> values.dtype.type(j)).astype(np.uint8) & 1 for j in range(width)]


def bit_decompose_local(pair: SharePair) -> list[SharePair]:
    """Each party locally decomposes its own share value into boolean planes,
    LSB first: plane j of party i is bit j of that party's own share value.
    Recomposing the planes across parties via XOR yields the secret only when
    the additive carry chain between the two share values is zero; consumers
    rely on protocol-level structure, not on XOR-recomposition."""
    if pair.ring.is_boolean:
        raise DomainError("bit decomposition needs an arithmetic share")
    return [SharePair(BOOL, plane) for plane in bits_of(pair.v, pair.ring.width_bits)]


# ---------------------------------------------------------------------------
# Batch plumbing used by the protocol layer. Slices and splits are views.

def concat_pairs(pairs) -> SharePair:
    ring = pairs[0].ring
    for p in pairs:
        if p.ring != ring:
            raise ShapeError("ring mismatch in concat")
    return SharePair(ring, np.concatenate([p.v for p in pairs], axis=1))


def slice_pair(pair: SharePair, lo: int, hi: int) -> SharePair:
    return SharePair(pair.ring, pair.v[:, lo:hi])


def split_pair(pair: SharePair, parts: int) -> list[SharePair]:
    n = pair.batch
    if n % parts:
        raise ShapeError("batch not divisible for split")
    step = n // parts
    return [slice_pair(pair, k * step, (k + 1) * step) for k in range(parts)]
