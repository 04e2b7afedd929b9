"""Arithmetic over Z_2^n, additive/XOR secret shares, and local share algebra.

Every share is a batch (1-D numpy vector); a scalar is a batch of one.
Width 1 is the boolean domain: addition and subtraction coincide with XOR,
multiplication with AND, so the same code path serves both share types.
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
    """One party's additive (or XOR, for width 1) share of a secret vector.
    The one place values are normalised: cast to the ring's dtype, width 1
    masked to its low bit; callers pass raw dtype arithmetic unwrapped."""

    party_id: int
    ring: RingSpec
    values: np.ndarray

    def __post_init__(self):
        if self.party_id not in (0, 1):
            raise ShapeError(f"party_id must be 0 or 1, got {self.party_id}")
        self.values = np.atleast_1d(np.asarray(self.values, dtype=self.ring.dtype))
        if self.ring.is_boolean:
            self.values = self.values & np.uint8(1)

    def __len__(self):
        return len(self.values)


SharePair = tuple[Share, Share]


def _check_pair(s0: Share, s1: Share):
    if (s0.party_id, s1.party_id) != (0, 1):
        raise ShapeError("expected shares of parties (0, 1)")
    if s0.ring != s1.ring:
        raise ShapeError("ring mismatch between paired shares")
    if len(s0) != len(s1):
        raise ShapeError("batch length mismatch between paired shares")


def _check_same(a: SharePair, b: SharePair):
    if a[0].ring != b[0].ring:
        raise ShapeError("ring mismatch between operands")
    if len(a[0]) != len(b[0]):
        raise ShapeError("batch length mismatch between operands")


def uniform(ring: RingSpec, size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform vector of ring elements."""
    if ring.width_bits == 64:
        return rng.integers(0, 1 << 64, size=size, dtype=np.uint64)
    return ring.wrap(rng.integers(0, ring.modulus, size=size, dtype=np.uint64))


def share(x, ring: RingSpec, rng: np.random.Generator) -> SharePair:
    """Split a plaintext vector into a uniformly random share pair."""
    x = np.atleast_1d(np.asarray(x, dtype=np.uint64))
    if ring.width_bits < 64 and np.any(x >= ring.modulus):
        raise DomainError("plaintext value out of ring range")
    x = x.astype(ring.dtype)
    r = uniform(ring, len(x), rng)
    return Share(0, ring, r), Share(1, ring, x - r)


def reconst(s0: Share, s1: Share) -> np.ndarray:
    """Open a share pair: elementwise sum mod 2^n (XOR for width 1)."""
    _check_pair(s0, s1)
    return s0.ring.wrap(s0.values + s1.values)


def trivial(holder: int, values, ring: RingSpec) -> SharePair:
    """Lift a value held in the clear by one party into a share pair
    (v, 0) or (0, v). No communication."""
    values = np.atleast_1d(np.asarray(values, dtype=np.uint64)).astype(ring.dtype)
    zero = np.zeros_like(values)
    if holder == 0:
        return Share(0, ring, values), Share(1, ring, zero)
    return Share(0, ring, zero), Share(1, ring, values)


def const_pair(c, ring: RingSpec, batch: int) -> SharePair:
    """A public constant as the trivial pair (c, 0)."""
    return trivial(0, np.full(batch, c, dtype=np.uint64), ring)


# ---------------------------------------------------------------------------
# Local (communication-free) share algebra.

def add(a: SharePair, b: SharePair) -> SharePair:
    _check_same(a, b)
    ring = a[0].ring
    return tuple(Share(i, ring, a[i].values + b[i].values) for i in (0, 1))


def sub(a: SharePair, b: SharePair) -> SharePair:
    """Additive subtraction: both parties subtract; reconstructs a - b."""
    _check_same(a, b)
    ring = a[0].ring
    return tuple(Share(i, ring, a[i].values - b[i].values) for i in (0, 1))


def sub_mirror(a: SharePair, b: SharePair) -> SharePair:
    """Party-asymmetric difference: t0 = a0 - b0, t1 = b1 - a1.

    The result is NOT an additive sharing of a - b; its defining property is
    t0 == t1 iff a == b, which is what the bitwise equality check consumes.
    """
    _check_same(a, b)
    ring = a[0].ring
    return (Share(0, ring, a[0].values - b[0].values),
            Share(1, ring, b[1].values - a[1].values))


def neg(a: SharePair) -> SharePair:
    ring = a[0].ring
    return tuple(Share(i, ring, 0 - a[i].values) for i in (0, 1))


def const_add(c, a: SharePair) -> SharePair:
    """Add a public constant: party 0 adds c, party 1 adds zero."""
    ring = a[0].ring
    c = ring.wrap(np.asarray(c, dtype=np.uint64).astype(ring.dtype))
    return Share(0, ring, a[0].values + c), Share(1, ring, a[1].values.copy())


def const_mult(c, a: SharePair) -> SharePair:
    """Multiply by a public constant: both parties scale their share."""
    ring = a[0].ring
    c = ring.wrap(np.asarray(c, dtype=np.uint64).astype(ring.dtype))
    return tuple(Share(i, ring, a[i].values * c) for i in (0, 1))


def xor(a: SharePair, b: SharePair) -> SharePair:
    if not a[0].ring.is_boolean:
        raise DomainError("xor requires boolean shares")
    _check_same(a, b)
    return tuple(Share(i, BOOL, a[i].values ^ b[i].values) for i in (0, 1))


def not_(a: SharePair) -> SharePair:
    """Boolean NOT: only party 0 flips its share."""
    if not a[0].ring.is_boolean:
        raise DomainError("not requires boolean shares")
    return Share(0, BOOL, a[0].values ^ np.uint8(1)), Share(1, BOOL, a[1].values.copy())


# ---------------------------------------------------------------------------
# Bit planes.

def bits_of(values: np.ndarray, width: int) -> list:
    """LSB-first bit vectors of a plain value array, shifted in its own dtype."""
    return [(values >> values.dtype.type(j)).astype(np.uint8) & 1 for j in range(width)]


def bit_decompose_local(pair: SharePair) -> list[SharePair]:
    """Each party locally decomposes its own share value into boolean planes,
    LSB first: plane j of party i is bit j of that party's own share value.
    Recomposing the planes across parties via XOR yields the secret only when
    the additive carry chain between the two share values is zero; consumers
    rely on protocol-level structure, not on XOR-recomposition."""
    ring = pair[0].ring
    if ring.is_boolean:
        raise DomainError("bit decomposition needs an arithmetic share")
    _check_pair(*pair)
    n = ring.width_bits
    b0 = bits_of(pair[0].values, n)
    b1 = bits_of(pair[1].values, n)
    return [(Share(0, BOOL, b0[j]), Share(1, BOOL, b1[j])) for j in range(n)]


# ---------------------------------------------------------------------------
# Batch plumbing used by the protocol layer.

def concat_pairs(pairs) -> SharePair:
    ring = pairs[0][0].ring
    for p in pairs:
        if p[0].ring != ring:
            raise ShapeError("ring mismatch in concat")
    return tuple(
        Share(i, ring, np.concatenate([p[i].values for p in pairs])) for i in (0, 1)
    )


def slice_pair(pair: SharePair, lo: int, hi: int) -> SharePair:
    ring = pair[0].ring
    return tuple(Share(i, ring, pair[i].values[lo:hi].copy()) for i in (0, 1))


def split_pair(pair: SharePair, parts: int) -> list:
    n = len(pair[0])
    if n % parts:
        raise ShapeError("batch not divisible for split")
    step = n // parts
    return [slice_pair(pair, k * step, (k + 1) * step) for k in range(parts)]
