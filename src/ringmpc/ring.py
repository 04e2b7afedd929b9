"""Arithmetic over Z_2^n, additive/XOR secret shares, and local share algebra.

A share pair is one two-row array, row i being party i's share, and its
batch (``SharePair``); a scalar is a batch of one. Above width 1 the array
is ``(2, batch)`` in the ring's dtype. Width 1 is the boolean domain,
where addition and subtraction coincide with XOR and multiplication with
AND: there the array is ``(2, ceil(batch/64))`` uint64 words, 64 lanes per
word in ``pack_lanes`` layout (little-endian lane order, padding lanes
zero), the layout of boolean BTE tables and of boolean gate payloads too.
Each local op is one numpy operation over both rows, on words at width 1,
and batch plumbing concatenates, slices and splits along the batch axis:
by whole layout columns when every piece starts on one (always above
width 1), at bit offsets only for boolean pieces that do not. ``RingSpec``
owns this layout (``word``, ``lanes``, ``cols``); ``uniform_rows`` draws
it, and ``to_layout`` and ``from_layout`` convert ring elements to and
from it, so no caller builds it by width. ``Share`` is the per-party view
in ring elements: ``pair[i]`` is party i's share (unpacked to one uint8
per bit at width 1), so ``reconst(*pair)`` opens a pair.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate

import numpy as np

from . import threads
from .errors import DomainError, ShapeError

SUPPORTED_WIDTHS = (1, 8, 16, 32, 64)

# Boolean plumbing moves pieces that average fewer lanes than this through
# one unpack to a byte per lane and one pack: a fixed number of numpy calls
# when the pieces share one size. Longer pieces move as whole words with
# shifts, a few numpy calls per piece, which then costs less than a byte
# per lane.
_SHIFT_LANES = 8192
# ``raw_words`` hands a draw of this many 64-bit words or more to
# ``_split_raw``, whose workers draw ``_CHUNK_WORDS`` words at a time, so a
# chunk's copy stays in cache. Only the ``_SEEKABLE`` generators' ``advance``
# skips one step per raw word (Philox's skips blocks of four words).
_SPLIT_WORDS = 1 << 17
_CHUNK_WORDS = 1 << 16
_SEEKABLE = (np.random.PCG64, np.random.PCG64DXSM)
# The weight of each bit of a byte, low bit first.
_BIT_WEIGHTS = np.uint8(1) << np.arange(8, dtype=np.uint8)
# Zero lanes that pad a piece out to whole words.
_PAD = np.zeros((2, 63), dtype=np.uint8)
_PAD.flags.writeable = False

# ``RingSpec``'s fields by width: its element ``dtype`` (``le`` little-endian),
# its share layout (``lanes`` elements per value of dtype ``word``) and its
# ``mul``, ``add``, ``sub`` and ``one`` over that layout. The gates, the dealer
# and the local algebra read them on every call, so each ring holds them.
_LAYOUTS = {
    width: dict(dtype=dtype, le=np.dtype(dtype).newbyteorder("<"), word=dtype, lanes=1,
                mul=np.multiply, add=np.add, sub=np.subtract, one=dtype(1))
    for width, dtype in ((8, np.uint8), (16, np.uint16), (32, np.uint32), (64, np.uint64))
} | {1: dict(dtype=np.uint8, le=np.dtype(np.uint8), word=np.uint64, lanes=64,
             mul=np.bitwise_and, add=np.bitwise_xor, sub=np.bitwise_xor, one=~np.uint64(0))}

_LE64 = np.dtype("<u8")
# On a little-endian host the bytes of a uint64 word are its lanes in order.
_NATIVE_LANES = np.dtype(np.uint64) == _LE64


@dataclass(frozen=True)
class RingSpec:
    """The ring Z_2^n for n in {1, 8, 16, 32, 64}, and the one layout that
    its shares, BTE tables and gate payloads share.

    Elements are ``dtype`` values, written as bytes in ``le``. In the
    layout a row of ``batch`` elements is ``cols(batch)`` values of dtype
    ``word``, ``lanes`` elements each: the elements themselves above width
    1, uint64 words of 64 packed lanes (``pack_lanes``) at width 1. ``mul``, ``add`` and ``sub`` are the
    ring's ops over that layout, as numpy ufuncs, and ``one`` is the unit
    of ``mul``: over the dtype, which wraps natively, above width 1; over
    the words at width 1, where multiplication is AND, addition and
    subtraction are XOR, and ``one`` is the word with every lane set. All
    are set from the width."""

    width_bits: int
    dtype: type = field(init=False, repr=False, compare=False)
    le: np.dtype = field(init=False, repr=False, compare=False)
    word: type = field(init=False, repr=False, compare=False)
    lanes: int = field(init=False, repr=False, compare=False)
    mul: np.ufunc = field(init=False, repr=False, compare=False)
    add: np.ufunc = field(init=False, repr=False, compare=False)
    sub: np.ufunc = field(init=False, repr=False, compare=False)
    one: np.unsignedinteger = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.width_bits not in SUPPORTED_WIDTHS:
            raise DomainError(f"unsupported ring width {self.width_bits}")
        vars(self).update(_LAYOUTS[self.width_bits])  # frozen: filled once, here

    def cols(self, batch: int) -> int:
        """Layout columns of a row of ``batch`` elements. The batch is read
        as a Python int first: negating an unsigned numpy batch would wrap."""
        return -(-operator.index(batch) // self.lanes)

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
RINGS = {ring.width_bits: ring for ring in (BOOL, Z8, Z16, Z32, Z64)}


@dataclass
class Share:
    """One party's additive (or XOR, for width 1) share of a secret vector:
    the per-party view of a ``SharePair`` in ring elements. Values are
    bools or integers, reduced here mod 2^n into the ring's dtype by
    ``_integers``; anything else raises DomainError. An array of the ring's
    dtype is kept as given above width 1, so ``pair[i].values`` is a view
    of ``pair.v``; at width 1 it is the unpacked copy of party i's words."""

    party_id: int
    ring: RingSpec
    values: np.ndarray

    def __post_init__(self):
        self.party_id = _party(self.party_id, "party_id")
        self.values = np.atleast_1d(_integers(self.values, self.ring))

    def __len__(self):
        return len(self.values)


@dataclass(eq=False, slots=True)
class SharePair:
    """Both parties' shares of one secret vector: ``v`` is one two-row
    array whose row i is party i's share, and ``batch`` is the number of
    elements in each row, at every width. Above width 1 ``v`` is ``(2,
    batch)`` in the ring's dtype. At width 1 it is ``(2,
    ceil(batch/64))`` uint64 words in ``pack_lanes`` layout with zero
    padding lanes.

    The constructor trusts its arguments; the local ops below keep ``v`` in
    the ring and the padding lanes zero. Pairs built by hand from two
    ``Share``s go through ``SharePair.of``, which checks them. ``pair[i]``
    is party i's ``Share``, so ``s0, s1 = pair`` and ``reconst(*pair)``
    work as on a tuple.
    """

    ring: RingSpec
    v: np.ndarray
    batch: int

    @classmethod
    def of(cls, s0: Share, s1: Share) -> "SharePair":
        """Pair party 0's and party 1's shares of one ring and batch."""
        _check_pair(s0, s1)
        return cls(s0.ring, to_layout(s0.ring, np.stack((s0.values, s1.values))), len(s0))

    def __getitem__(self, party: int) -> Share:
        return Share(party, self.ring, from_layout(self.ring, self.v[party], self.batch))

    def __iter__(self):
        yield self[0]
        yield self[1]


def _party(party, what: str) -> int:
    """``party`` as the plain int 0 or 1; bools, floats and any other
    value raise ShapeError."""
    is_int = isinstance(party, (int, np.integer)) and not isinstance(party, bool)
    if not (is_int and party in (0, 1)):
        raise ShapeError(f"{what} must be the integer 0 or 1, got {party!r}")
    return int(party)


def _check_pair(s0: Share, s1: Share):
    if (s0.party_id, s1.party_id) != (0, 1):
        raise ShapeError("expected shares of parties (0, 1)")
    if s0.ring != s1.ring:
        raise ShapeError("ring mismatch between paired shares")
    if len(s0) != len(s1):
        raise ShapeError("batch length mismatch between paired shares")


def _check_same(a: SharePair, b: SharePair):
    if a.ring is not b.ring and a.ring != b.ring:
        raise ShapeError("ring mismatch between operands")
    if a.v.shape != b.v.shape or a.batch != b.batch:
        raise ShapeError("batch length mismatch between operands")


# ---------------------------------------------------------------------------
# Packed boolean lanes.

def clear_padding(words: np.ndarray, lanes: int):
    """Zero the lanes past ``lanes`` in the last word of each row, in place."""
    if lanes % 64:
        words[..., -1] &= np.uint64((1 << (lanes % 64)) - 1)


def _lane_bytes(words: np.ndarray) -> np.ndarray:
    """The bytes of ``(..., W)`` words in lane order, ``(..., 8W)`` uint8:
    a view on a little-endian host when the last axis is contiguous."""
    if _NATIVE_LANES:
        try:
            return words.view(np.uint8)
        except ValueError:  # a strided last axis
            pass
    return np.ascontiguousarray(words).astype(_LE64, copy=False).view(np.uint8)


def _as_words(packed: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``packbits`` output, ``(..., nbytes)``, as ``(..., ceil(nbytes/8))``
    uint64 words, zero-extended; into ``out`` if given, a zeroed ``"<u8"``
    array of that shape."""
    nbytes = packed.shape[-1]
    if out is None:
        if nbytes % 8 == 0:
            return np.ascontiguousarray(packed).view(_LE64).astype(np.uint64, copy=False)
        out = np.zeros(packed.shape[:-1] + (-(-nbytes // 8),), dtype=_LE64)
    out.view(np.uint8)[..., :nbytes] = packed
    return out.astype(np.uint64, copy=False)


def pack_lanes(bits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Pack ``(..., batch)`` bits, one 0/1 (or bool) each, into ``(...,
    ceil(batch/64))`` uint64 words: lane i of word w is element 64·w + i,
    little-endian lane order on any host (the order of ``uniform`` at
    width 1). The padding lanes of each row's last word are zero.

    The words go into ``out`` if given, a zeroed little-endian (``"<u8"``)
    array of that shape, else into one fresh buffer."""
    return _as_words(np.packbits(bits, axis=-1, bitorder="little"), out)


def unpack_lanes(words: np.ndarray, batch: int) -> np.ndarray:
    """Inverse of ``pack_lanes``: the first ``batch`` lanes of each row of
    ``words`` as uint8 0/1, along the last axis."""
    return np.unpackbits(_lane_bytes(words), axis=-1, count=batch, bitorder="little")


@lru_cache(maxsize=1024)
def _flip(lanes: int) -> np.ndarray:
    """The read-only pair (1, 0) of ``lanes`` lanes: all lanes set in
    party 0's row, padding lanes clear."""
    v = np.zeros((2, BOOL.cols(lanes)), dtype=np.uint64)
    v[0] = ~np.uint64(0)
    clear_padding(v, lanes)
    v.flags.writeable = False
    return v


def _extract(words: np.ndarray, lo: int, lanes: int) -> np.ndarray:
    """Fresh words holding lanes ``[lo, lo + lanes)`` of each row of
    ``words`` (along the last axis), shifted down to lane 0, padding lanes
    zero."""
    q, r = divmod(lo, 64)
    count = BOOL.cols(lanes)
    if r == 0:
        out = words[..., q:q + count].copy()
    else:
        src = words[..., q:q + count + 1]
        out = src[..., :count] >> np.uint64(r)
        out[..., :src.shape[-1] - 1] |= src[..., 1:] << np.uint64(64 - r)
    clear_padding(out, lanes)
    return out


def _place(dst: np.ndarray, words: np.ndarray, lo: int):
    """OR ``words`` (zero padding lanes) into ``dst`` from lane ``lo`` on,
    along the last axis."""
    q, r = divmod(lo, 64)
    count = words.shape[-1]
    if r == 0:
        dst[..., q:q + count] |= words
        return
    dst[..., q:q + count] |= words << np.uint64(r)
    spill = min(count, dst.shape[-1] - q - 1)  # a last spill past dst is all padding
    dst[..., q + 1:q + 1 + spill] |= words[..., :spill] >> np.uint64(64 - r)


def _by_words(lanes: int, pieces: int) -> bool:
    """Whether ``pieces`` pieces of ``lanes`` lanes in all are long enough
    to move as whole words with shifts."""
    return lanes >= _SHIFT_LANES * pieces


def _lanes(pairs: list) -> np.ndarray:
    """The lanes of the boolean ``pairs`` laid end to end, ``(2, lanes)``
    uint8: one unpack when they share one batch."""
    n = pairs[0].batch
    if all([p.batch == n for p in pairs]):
        words = np.concatenate([p.v for p in pairs]).reshape(len(pairs), 2, -1)
        return unpack_lanes(words, n).transpose(1, 0, 2).reshape(2, -1)
    return np.concatenate([unpack_lanes(p.v, p.batch) for p in pairs], axis=1)


def _rechop(pairs: list, sizes: list) -> list[np.ndarray]:
    """The lanes of the boolean ``pairs`` laid end to end and cut into
    consecutive outputs of ``sizes`` lanes, which sum to all of them: each
    output fresh packed words with zero padding lanes. A join is one output
    of many pairs, a cut many outputs of one pair; both go through here.
    Short pieces go through one unpack and one pack, equal outputs by
    reshapes alone; long ones move with shifts."""
    if _by_words(sum([p.batch for p in pairs]), len(pairs) + len(sizes) - 1):
        return _rechop_words(pairs, sizes)
    bits = _lanes(pairs)
    q = sizes[0]
    if sizes.count(q) == len(sizes):
        out = np.zeros((2, len(sizes), 64 * BOOL.cols(q)), dtype=np.uint8)
        out[..., :q] = bits.reshape(2, len(sizes), q)
        return list(pack_lanes(out).transpose(1, 0, 2))
    ends = list(accumulate(sizes, initial=0))
    pieces = []
    for lo, hi in zip(ends, ends[1:]):
        pieces += [bits[:, lo:hi], _PAD[:, :-(hi - lo) % 64]]
    out = pack_lanes(np.concatenate(pieces, axis=1))
    ends = list(accumulate([BOOL.cols(q) for q in sizes], initial=0))
    return [out[:, lo:hi] for lo, hi in zip(ends, ends[1:])]


def _rechop_words(pairs: list, sizes: list) -> list[np.ndarray]:
    """``_rechop`` by word shifts: each piece of a pair that lands in one
    output is shifted out of the pair and into the output."""
    outs = [np.zeros((2, BOOL.cols(q)), dtype=np.uint64) for q in sizes]
    j, at = 0, 0
    for p in pairs:
        lo = 0
        while lo < p.batch:
            while at == sizes[j]:
                j, at = j + 1, 0
            take = min(p.batch - lo, sizes[j] - at)
            if take == sizes[j]:
                outs[j] = _extract(p.v, lo, take)
            else:
                _place(outs[j], p.v if take == p.batch else _extract(p.v, lo, take), at)
            lo += take
            at += take
    return outs


def uniform(ring: RingSpec, size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform vector of ring elements, cut from raw 64-bit generator words.

    ``ceil(size * n / 64)`` words are drawn (``raw_words``) and cut into
    consecutive n-bit elements (``elements``): at width 1 each bit is one
    element, low bit first. At width 64 the words are the elements, so a
    Z_2^64 draw equals ``rng.integers(0, 2**64, size, dtype=np.uint64)``
    and leaves the generator in the same state. Fixed-seed draws at widths
    below 64 differ from versions that drew one ``integers`` value per
    element.
    """
    return elements(ring, raw_words(rng, _words(ring, size)), size)


def _words(ring: RingSpec, size: int) -> int:
    """Raw 64-bit words that ``size`` elements of ``ring`` are cut from."""
    return -(-size * ring.width_bits // 64)


def raw_words(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` raw 64-bit words of ``rng``'s bit generator: the words that
    consecutive smaller draws of the same total would give, in order. A
    draw of ``_SPLIT_WORDS`` words or more runs on up to one thread per
    CPU the process may use (``_split_raw``), with the same words at any
    thread count."""
    bit_generator = rng.bit_generator
    return bit_generator.random_raw(n) if n < _SPLIT_WORDS else _split_raw(bit_generator, n)


def elements(ring: RingSpec, words: np.ndarray, size: int | None = None) -> np.ndarray:
    """The first ``size`` ring elements (all, when ``size`` is None) in the
    little-endian bits of raw generator ``words``, on any host: the words
    themselves at width 64, a view of their bytes at widths 8 to 32 on a
    little-endian host, one uint8 per bit at width 1."""
    if ring.width_bits == 64:
        return words[:size]
    raw = words.astype(_LE64, copy=False).view(np.uint8)
    if ring.is_boolean:
        return np.unpackbits(raw, count=size, bitorder="little")
    elems = raw.view(ring.le)[:size]
    return elems.astype(ring.dtype, copy=False)


def _split_raw(bit_generator: np.random.BitGenerator, n: int) -> np.ndarray:
    """``bit_generator.random_raw(n)``: the same words, and the generator
    left in the same state, its buffered 32-bit half included.

    A PCG64 draw in a process with a thread pool is cut into one
    contiguous range per pool thread (``threads.workers``). Each fills its
    range in chunks of ``_CHUNK_WORDS`` words from a copy of the
    generator's state ``advance``d to the range's offset; the generator
    itself is then advanced past all ``n`` words. Any other draw is one ``random_raw``
    call in this thread.
    """
    parts = threads.workers()
    if not parts or type(bit_generator) not in _SEEKABLE:
        return bit_generator.random_raw(n)
    state = bit_generator.state
    ends = [n * k // parts for k in range(parts + 1)]
    out = np.empty(n, np.uint64)

    def fill(k: int):
        gen = type(bit_generator)(0)
        gen.state = state
        gen.advance(ends[k])
        for lo in range(ends[k], ends[k + 1], _CHUNK_WORDS):
            hi = min(lo + _CHUNK_WORDS, ends[k + 1])
            out[lo:hi] = gen.random_raw(hi - lo)

    threads.run(fill, range(parts))
    # ``advance`` drops the buffered 32-bit half, which ``random_raw`` keeps.
    bit_generator.advance(n)
    bit_generator.state = {**bit_generator.state, "has_uint32": state["has_uint32"],
                           "uinteger": state["uinteger"]}
    return out


def row_draw(ring: RingSpec, rows: int, batch: int) -> tuple[RingSpec, int, int]:
    """How a uniform ``(rows, ring.cols(batch))`` layout array is drawn:
    ``(of, size, words)``, the array being the first ``size`` elements of
    ring ``of`` (``elements``) in ``words`` raw generator words, row after
    row. ``of`` is the ring whose elements are the layout's values: the
    ring itself above width 1, Z_2^64 words at width 1. ``uniform_rows``
    draws exactly these words, so the same words cut from a longer draw at
    the array's word offset give the same array, once its padding lanes
    are cleared."""
    of = Z64 if ring.is_boolean else ring
    size = rows * ring.cols(batch)
    return of, size, _words(of, size)


def uniform_rows(ring: RingSpec, rows: int, batch: int, rng: np.random.Generator) -> np.ndarray:
    """A uniform ``(rows, ring.cols(batch))`` array in the share layout,
    ``batch`` elements per row, from one ``uniform`` draw (``row_draw``):
    of ring elements above width 1; at width 1 of raw Z_2^64 generator
    words, 64 lanes each, with the padding lanes cleared."""
    of, size, _ = row_draw(ring, rows, batch)
    out = uniform(of, size, rng).reshape(rows, -1)
    if ring.is_boolean:
        clear_padding(out, batch)
    return out


def to_layout(ring: RingSpec, elems) -> np.ndarray:
    """``(..., batch)`` values as ring elements in the share layout,
    ``(..., ring.cols(batch))``: reduced into the ring, and packed at width 1."""
    elems = ring.wrap(elems)
    return pack_lanes(elems) if ring.is_boolean else elems


def from_layout(ring: RingSpec, arr: np.ndarray, batch: int) -> np.ndarray:
    """Inverse of ``to_layout``: the ``batch`` ring elements along the last
    axis of ``arr``, unpacked to one uint8 per element at width 1 and
    ``arr`` itself above it."""
    return unpack_lanes(arr, batch) if ring.is_boolean else arr


def _integer_array(x) -> np.ndarray:
    """``x`` as an array of a bool or integer dtype, or of Python ints as
    objects. Floats (integral ones too), strings and other objects raise
    DomainError before any cast could truncate, parse or wrap them."""
    arr = np.asarray(x)
    if arr.dtype.kind not in "biu":
        # Python ints past the int64 range come out as floats or objects.
        arr = np.asarray(x, dtype=object)
        if not all([isinstance(v, (int, np.integer, np.bool_)) for v in arr.flat]):
            raise DomainError("values must be bools or integers")
    return arr


def _integers(x, ring: RingSpec) -> np.ndarray:
    """Bools or integers of any sign and size, in any container, reduced
    mod 2^n into the ring's dtype; above width 1 an array of that dtype is
    kept as given."""
    arr = _integer_array(x)
    if arr.dtype == object:  # reduced as Python ints: a numpy one would overflow
        arr = np.array([int(v) % ring.modulus for v in arr.flat], np.uint64).reshape(arr.shape)
    arr = arr.astype(ring.dtype, copy=False)  # integer casts wrap mod 2^8k
    if ring.is_boolean and arr.max(initial=0) > 1:
        arr = arr & np.uint8(1)
    return arr


def plaintext(x, bound: int, dims: int = 1) -> np.ndarray:
    """``x`` as a uint64 array after checking that every value is a bool or
    an integer in ``[0, bound)``, and that it has at most ``dims`` dimensions."""
    arr = _integer_array(x)
    if arr.size and not 0 <= int(arr.min()) <= int(arr.max()) < bound:
        raise DomainError(f"plaintext value outside [0, {bound})")
    if arr.ndim > dims:
        raise ShapeError(f"plaintext of shape {arr.shape} has more than {dims} dimensions")
    return arr.astype(np.uint64, copy=False)


def share(x, ring: RingSpec, rng: np.random.Generator) -> SharePair:
    """Split a plaintext vector of bools or integers in ``[0, 2^n)`` into a
    uniformly random share pair: party 0's share is one ``uniform_rows``
    row, party 1's the plaintext minus it."""
    x = np.atleast_1d(plaintext(x, ring.modulus))
    (r,) = uniform_rows(ring, 1, len(x), rng)
    return SharePair(ring, np.stack((r, ring.sub(to_layout(ring, x), r))), len(x))


def reconst(s0: Share, s1: Share) -> np.ndarray:
    """Open a share pair: elementwise sum mod 2^n (XOR for width 1)."""
    _check_pair(s0, s1)
    return s0.ring.wrap(s0.values + s1.values)


def trivial(holder: int, values, ring: RingSpec) -> SharePair:
    """Lift a plaintext of bools or integers in ``[0, 2^n)`` held in the
    clear by one party into a share pair (v, 0) or (0, v). No
    communication."""
    holder = _party(holder, "holder")
    values = np.atleast_1d(plaintext(values, ring.modulus))
    v = np.zeros((2, ring.cols(len(values))), dtype=ring.word)
    v[holder] = to_layout(ring, values)
    return SharePair(ring, v, len(values))


def const_pair(c, ring: RingSpec, batch: int) -> SharePair:
    """A public constant as the trivial pair (c, 0)."""
    return trivial(0, np.full(batch, c), ring)


# ---------------------------------------------------------------------------
# Local (communication-free) share algebra: one numpy op over both parties,
# the ring's own op over its layout (word ops at width 1).

def add(a: SharePair, b: SharePair) -> SharePair:
    _check_same(a, b)
    return SharePair(a.ring, a.ring.add(a.v, b.v), a.batch)


def sub(a: SharePair, b: SharePair) -> SharePair:
    """Additive subtraction: both parties subtract; reconstructs a - b."""
    _check_same(a, b)
    return SharePair(a.ring, a.ring.sub(a.v, b.v), a.batch)


def sub_mirror(a: SharePair, b: SharePair) -> SharePair:
    """Party-asymmetric difference: t0 = a0 - b0, t1 = b1 - a1.

    The result is NOT an additive sharing of a - b; its defining property is
    t0 == t1 iff a == b, which is what the bitwise equality check consumes.
    """
    _check_same(a, b)
    t = a.ring.sub(a.v, b.v)
    a.ring.sub(0, t[1], out=t[1])
    return SharePair(a.ring, t, a.batch)


def neg(a: SharePair) -> SharePair:
    return SharePair(a.ring, a.ring.sub(0, a.v), a.batch)


def _public(c, ring: RingSpec):
    """A public bool or integer, reduced mod 2^n, in the share layout: a
    ring element, or at width 1 a word with its low bit in every lane."""
    return ring.one * _integers(c, ring)


def const_add(c, a: SharePair) -> SharePair:
    """Add a public integer constant: party 0 adds c, party 1 adds zero."""
    c = _public(c, a.ring)
    if a.ring.is_boolean:
        return not_(a) if c else neg(a)
    v = a.v.copy()
    v[0] += c
    return SharePair(a.ring, v, a.batch)


def const_mult(c, a: SharePair) -> SharePair:
    """Multiply by a public integer constant: both parties scale."""
    return SharePair(a.ring, a.ring.mul(a.v, _public(c, a.ring)), a.batch)


def xor(a: SharePair, b: SharePair) -> SharePair:
    if not a.ring.is_boolean:
        raise DomainError("xor requires boolean shares")
    _check_same(a, b)
    return SharePair(BOOL, a.v ^ b.v, a.batch)


def not_(a: SharePair) -> SharePair:
    """Boolean NOT: only party 0 flips its share, one word XOR with a ones
    mask whose padding lanes are clear."""
    if not a.ring.is_boolean:
        raise DomainError("not requires boolean shares")
    return SharePair(BOOL, a.v ^ _flip(a.batch), a.batch)


# ---------------------------------------------------------------------------
# Bit planes.

def _le_bytes(values: np.ndarray) -> np.ndarray:
    """The little-endian bytes of a ``(..., batch)`` value array, ``(...,
    batch, itemsize)``: byte b of a value holds its bits 8b to 8b + 7."""
    raw = np.ascontiguousarray(values).astype(values.dtype.newbyteorder("<"), copy=False)
    return raw.view(np.uint8).reshape(*values.shape, values.dtype.itemsize)


def bit_plane(values: np.ndarray, j: int) -> np.ndarray:
    """Bit j of every value of a plain ``(..., batch)`` array, packed."""
    return pack_lanes(_le_bytes(values)[..., j // 8] & np.uint8(1 << j % 8))


def bits_of(values: np.ndarray, width: int) -> list:
    """LSB-first packed bit planes of a plain ``(..., batch)`` value array:
    plane j is ``pack_lanes`` of bit j of every value, ``(...,
    ceil(batch/64))`` uint64 words. Each byte of the values is copied out
    once, masked with all its bit weights in one op and packed in one call:
    a few numpy calls per byte at any batch."""
    raw = _le_bytes(values)
    lead = raw.shape[:-2]
    out = np.zeros((width, *lead, BOOL.cols(raw.shape[-2])), dtype=_LE64)
    weights = _BIT_WEIGHTS.reshape(8, *[1] * (len(lead) + 1))
    for b in range(-(-width // 8)):
        k = min(8, width - 8 * b)
        pack_lanes(np.ascontiguousarray(raw[..., b]) & weights[:k], out=out[8 * b:8 * b + k])
    return list(out.astype(np.uint64, copy=False))


def bit_decompose_local(pair: SharePair) -> list[SharePair]:
    """Each party locally decomposes its own share value into boolean planes,
    LSB first: plane j of party i is bit j of that party's own share value.
    Recomposing the planes across parties via XOR yields the secret only when
    the additive carry chain between the two share values is zero; consumers
    rely on protocol-level structure, not on XOR-recomposition."""
    if pair.ring.is_boolean:
        raise DomainError("bit decomposition needs an arithmetic share")
    return [SharePair(BOOL, plane, pair.batch)
            for plane in bits_of(pair.v, pair.ring.width_bits)]


# ---------------------------------------------------------------------------
# Batch plumbing used by the protocol layer: one join, ``concat_each``, and
# one cut, ``cut_each``, each over many pairs in one pass. A join or cut
# whose pieces all start on a layout column moves whole columns: a cut is
# views and a join one ``concatenate`` per list. That is every join and
# cut above width 1 and every one on word boundaries at width 1. Only
# boolean pieces at bit offsets are shifted into fresh words.

def _one_ring(pairs: list[SharePair], op: str) -> RingSpec:
    """The ring of every pair in ``pairs``, which must not be empty: pairs
    of different rings raise ShapeError."""
    ring = pairs[0].ring
    for p in pairs:
        if p.ring is not ring and p.ring != ring:
            raise ShapeError(f"ring mismatch in {op}")
    return ring


def concat_each(groups) -> list[SharePair]:
    """The concatenation of each list of pairs in ``groups``, in order:
    fresh arrays, one per list."""
    pairs = [p for group in groups for p in group]
    if not all(groups) or not pairs:
        if groups:
            raise ShapeError("concat of no pairs")
        return []
    ring = _one_ring(pairs, "concat")
    totals = [sum([p.batch for p in group]) for group in groups]
    if all([p.batch % ring.lanes == 0 for group in groups for p in group[:-1]]):
        outs = [np.concatenate([p.v for p in group], axis=1) for group in groups]
    else:
        outs = _rechop(pairs, totals)
    return [SharePair(ring, out, total) for out, total in zip(outs, totals)]


def concat_pairs(pairs) -> SharePair:
    return concat_each([pairs])[0]


def slice_pair(pair: SharePair, lo: int, hi: int) -> SharePair:
    """Elements ``[lo, hi)`` of ``pair``: a view when they start on a layout
    column and end on one or at the end of the batch, else fresh words."""
    ring, n = pair.ring, pair.batch
    if not 0 <= lo <= hi <= n:
        raise ShapeError(f"slice [{lo}, {hi}) outside a batch of {n}")
    if lo % ring.lanes == 0 and (hi % ring.lanes == 0 or hi == n):
        return SharePair(ring, pair.v[:, lo // ring.lanes:ring.cols(hi)], hi - lo)
    return SharePair(ring, _extract(pair.v, lo, hi - lo), hi - lo)


def cut_each(pairs: list[SharePair], sizes: list[list[int]]) -> list[list[SharePair]]:
    """Each pair cut into consecutive parts of ``sizes[i]`` elements, none
    negative, which sum to its batch, in order: views when every part
    starts on a layout column, else fresh words from one ``_rechop``."""
    for p, parts in zip(pairs, sizes, strict=True):
        if sum(parts) != p.batch or min(parts, default=0) < 0:
            raise ShapeError(f"parts {parts} do not cut a batch of {p.batch}")
    if not pairs:
        return []
    ring = _one_ring(pairs, "cut")
    if not all([q % ring.lanes == 0 for parts in sizes for q in parts[:-1]]):
        outs = iter(_rechop(pairs, [q for parts in sizes for q in parts]))
        return [[SharePair(ring, next(outs), q) for q in parts] for parts in sizes]
    out = []
    for p, parts in zip(pairs, sizes):
        ends = list(accumulate(parts, initial=0))
        out.append([slice_pair(p, lo, hi) for lo, hi in zip(ends, ends[1:])])
    return out


def split_pair(pair: SharePair, parts: int) -> list[SharePair]:
    if parts < 1 or pair.batch % parts:
        raise ShapeError(f"a batch of {pair.batch} does not split into {parts} parts")
    return cut_each([pair], [[pair.batch // parts] * parts])[0]


def fold_segments(pairs: list[SharePair], step: int) -> SharePair:
    """The ring sum of every ``step``-element segment of ``pairs``, whose
    batches are multiples of ``step``, as one pair of batch ``step``. When
    a segment is whole layout columns (at every step above width 1) it is
    one ``add.reduce`` over the joined pairs. Otherwise, at width 1, the
    sum is XOR: short segments are XORed as unpacked lanes and packed once,
    long ones as the words ``cut_each`` cuts."""
    if not pairs or step < 1 or any([p.batch % step for p in pairs]):
        raise ShapeError(f"batches not divisible into segments of {step}")
    ring = _one_ring(pairs, "fold")
    if step % ring.lanes == 0:
        v = np.concatenate([p.v for p in pairs], axis=1).reshape(2, -1, ring.cols(step))
        return SharePair(ring, ring.add.reduce(v, axis=1, dtype=ring.word), step)
    lanes = sum([p.batch for p in pairs])
    if not _by_words(lanes, lanes // step):
        folded = np.bitwise_xor.reduce(_lanes(pairs).reshape(2, -1, step), axis=1)
        return SharePair(BOOL, pack_lanes(folded), step)
    parts = cut_each(pairs, [[step] * (p.batch // step) for p in pairs])
    return SharePair(BOOL, np.bitwise_xor.reduce([q.v for cut in parts for q in cut]), step)
