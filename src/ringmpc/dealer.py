"""Trusted client ("dealer") producing all correlated randomness offline.

The dealer runs before the online phase and hands each party its half of
every multiplication table and conversion blind the protocols will consume.
Neither computing party ever learns the other's half, so in the two-engine
simulation both halves live side by side in one MaterialStore.
"""
from __future__ import annotations

import os
import struct
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import threads
from .errors import (
    CapabilityError,
    DomainError,
    MaterialError,
    MaterialReuseError,
)
from .ring import RINGS, RingSpec, SharePair, from_layout, share, to_layout, uniform_rows

MAX_FANIN = 16  # a fan-in-N table holds 2**N - 1 entries per element


@dataclass
class BteTable:
    """One party's half of a Beaver-triple extension for an N-fan-in gate.

    ``rows`` holds one row per nonempty subset of input slots: row
    ``mask - 1`` is this party's share of a_I, where I is the subset of
    input slots encoded by the bitmask (bit ``l`` set means slot ``l`` is
    in I). Reconstructed across parties, a_I equals the product of the
    singleton masks a_{l} for l in I. There is no row for the empty set.
    Ascending mask order is also the dump order. The rows are one
    ``(2^N - 1, ring.cols(batch))`` array in the ring's share layout
    (``table_layout``): ring elements above width 1, uint64 words of 64
    packed lanes with zero padding lanes at width 1. ``entries`` is a
    read-only mask-keyed view of the same rows. A gate folds ``rows`` in
    place, which ``consume`` makes safe: a table is used once.
    """

    party_id: int
    fan_in: int
    ring: RingSpec
    batch: int
    rows: np.ndarray
    consumed: bool = False

    @property
    def entries(self) -> Mapping[int, np.ndarray]:
        return MappingProxyType(dict(enumerate(self.rows, start=1)))

    def consume(self):
        if self.consumed:
            raise MaterialReuseError(
                f"{self.fan_in}-fan-in table for party {self.party_id} used twice"
            )
        self.consumed = True


@dataclass
class B2aMaterial:
    """Blinding material for one boolean-to-arithmetic conversion batch.

    Party 0 holds (a, c0), party 1 holds (b, c1), with c0 + c1 = a*b.
    """

    ring: RingSpec
    batch: int
    a: np.ndarray
    b: np.ndarray
    c0: np.ndarray
    c1: np.ndarray
    consumed: bool = False

    def consume(self):
        if self.consumed:
            raise MaterialReuseError("b2a material used twice")
        self.consumed = True


@dataclass(frozen=True)
class Need:
    """One line of a protocol's material manifest."""

    kind: str  # "bte" or "b2a"
    width: int
    batch: int
    fan_in: int = 0  # bte only

    def scaled(self, factor: int) -> "Need":
        """The same need at ``factor`` times the batch."""
        return Need(self.kind, self.width, self.batch * factor, self.fan_in)


def table_layout(fan_in: int, ring: RingSpec, batch: int) -> tuple[tuple[int, int], type]:
    """Shape and dtype of one party's ``BteTable.rows``: one row per nonempty
    subset, each the ring's share layout of ``batch`` elements."""
    return ((1 << fan_in) - 1, ring.cols(batch)), ring.word


def check_fan_in(fan_in: int, cap: int = MAX_FANIN):
    """Refuse a BTE table outside fan-in [2, cap]: it has 2**fan_in - 1 entries."""
    if not 2 <= fan_in <= cap:
        raise CapabilityError(
            f"fan-in {fan_in} outside [2, {cap}]; table size grows as 2**fan_in")


def check_b2a_ring(ring: RingSpec):
    """Refuse B2A material over the boolean ring: it blinds arithmetic shares."""
    if ring.is_boolean:
        raise DomainError("b2a material needs an arithmetic ring")


def _party1_half(ring: RingSpec, singles: np.ndarray, s0: np.ndarray, out: np.ndarray):
    """Fill ``out`` with the subset products of the rows of ``singles``,
    less party 0's half ``s0``: row ``mask - 1`` is the product of the
    singles in ``mask`` minus ``s0[mask - 1]``. All three share one layout
    and columns; any column range of them is built alone."""
    for l in range(len(singles)):
        h = 1 << l
        out[h - 1] = singles[l]
        ring.mul(out[:h - 1], singles[l], out=out[h:2 * h - 1])
    ring.sub(out, s0, out=out)


class Dealer:
    """Generates BTE tables, B2A material, and input shares from one seeded
    generator. ``draw_count`` counts uniform-vector draws, which lets tests
    pin the per-instance randomness budget. It refuses only tables of a
    fan-in outside [2, MAX_FANIN]; a plan's lower cap is the plan's to keep."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.draw_count = 0

    def _draw(self, ring: RingSpec, rows: int, batch: int) -> np.ndarray:
        self.draw_count += 1
        return uniform_rows(ring, rows, batch, self.rng)

    def gen_bte(self, fan_in: int, ring: RingSpec, batch: int) -> tuple[BteTable, BteTable]:
        """Two draws per table: the N singleton masks, then party 0's half.

        The plain products are filled by doubling: once the rows of every
        subset of slots below l are known, slot l's row is a_l and the
        rows of its supersets are those rows times a_l. Party 1's half is
        the plain table minus party 0's, computed in place with the ring's
        ``mul`` and ``sub`` over its layout (``table_layout``). Both draws
        are ``ring.uniform_rows`` arrays in that layout; at width 1 their
        padding lanes are zero, and AND and XOR keep them zero.

        With a thread pool (``threads.POOL``), a table wider than
        ``threads.BLOCK_COLS`` columns is built one column block per task,
        the doubling and then the subtraction while the block is in cache;
        blocks share no column, so the tables are the same bits at any
        thread count. A narrower table is built whole in this thread.
        """
        check_fan_in(fan_in)
        singles = self._draw(ring, fan_in, batch)
        s0 = self._draw(ring, (1 << fan_in) - 1, batch)
        plain = np.empty_like(s0)
        cols = s0.shape[1]
        if threads.POOL is not None and cols > threads.BLOCK_COLS:
            threads.run(lambda block: _party1_half(ring, singles[:, block], s0[:, block],
                                                   plain[:, block]), threads.blocks(cols))
        else:
            _party1_half(ring, singles, s0, plain)
        return BteTable(0, fan_in, ring, batch, s0), BteTable(1, fan_in, ring, batch, plain)

    def gen_b2a_material(self, ring: RingSpec, batch: int) -> B2aMaterial:
        check_b2a_ring(ring)
        a, b, r = (self._draw(ring, 1, batch)[0] for _ in range(3))
        return B2aMaterial(ring, batch, a=a, b=b, c0=r, c1=a * b - r)

    def share_input(self, x, ring: RingSpec) -> SharePair:
        return share(x, ring, self.rng)

    def provision(self, store: "MaterialStore", needs: list[Need]):
        """Generate one record per need, in order, once every need has been
        checked: a manifest with a need this dealer cannot meet is refused
        before anything is drawn or stored."""
        for need in needs:
            self._check(need)
        for need in needs:
            ring, batch = RINGS[need.width], int(need.batch)  # a numpy batch may be unsigned
            if need.kind == "bte":
                store.put_bte(*self.gen_bte(int(need.fan_in), ring, batch))
            else:
                store.put_b2a(self.gen_b2a_material(ring, batch))

    def _check(self, need: Need):
        """Raise what generating ``need`` would raise, without drawing; a
        batch and fan-in must be integers (not bools), the batch at least 1."""
        if need.width not in RINGS:
            raise DomainError(f"unsupported ring width {need.width}")
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                   for v in (need.batch, need.fan_in)) or need.batch < 1:
            raise DomainError(f"batch {need.batch!r} and fan-in {need.fan_in!r} must be "
                              "integers, the batch at least 1")
        if need.kind == "bte":
            check_fan_in(need.fan_in)
        elif need.kind == "b2a":
            check_b2a_ring(RINGS[need.width])
        else:
            raise DomainError(f"unknown material kind {need.kind!r}")


class MaterialStore:
    """FIFO pools of pre-distributed correlated randomness."""

    def __init__(self):
        self._bte: dict[tuple[int, int], deque] = {}
        self._b2a: dict[int, deque] = {}

    def put_bte(self, t0: BteTable, t1: BteTable):
        self._bte.setdefault((t0.fan_in, t0.ring.width_bits), deque()).append((t0, t1))

    def put_b2a(self, mat: B2aMaterial):
        self._b2a.setdefault(mat.ring.width_bits, deque()).append(mat)

    def take_bte(self, fan_in: int, ring: RingSpec, batch: int) -> tuple[BteTable, BteTable]:
        pool = self._bte.get((fan_in, ring.width_bits))
        if not pool:
            raise MaterialError(
                f"no {fan_in}-fan-in table over width {ring.width_bits} provisioned"
            )
        if pool[0][0].batch != batch:
            raise MaterialError(
                f"table batch {pool[0][0].batch} does not match requested batch {batch}"
            )
        return pool.popleft()

    def take_b2a(self, ring: RingSpec, batch: int) -> B2aMaterial:
        pool = self._b2a.get(ring.width_bits)
        if not pool:
            raise MaterialError(f"no b2a material over width {ring.width_bits} provisioned")
        if pool[0].batch != batch:
            raise MaterialError(
                f"b2a batch {pool[0].batch} does not match requested batch {batch}"
            )
        return pool.popleft()

    def is_empty(self) -> bool:
        return not any(self._bte.values()) and not any(self._b2a.values())


class RecordingStore:
    """Stand-in for a MaterialStore that serves any request with zero-filled
    material of the requested shape and records one Need per take. Running
    a protocol on it yields the protocol's manifest in consumption order."""

    def __init__(self):
        self.needs: list[Need] = []

    def take_bte(self, fan_in: int, ring: RingSpec, batch: int) -> tuple[BteTable, BteTable]:
        self.needs.append(Need("bte", ring.width_bits, batch, fan_in=fan_in))
        # One zero block for both halves: the gate's in-place fold keeps it zero.
        rows = np.zeros(*table_layout(fan_in, ring, batch))
        return BteTable(0, fan_in, ring, batch, rows), BteTable(1, fan_in, ring, batch, rows)

    def take_b2a(self, ring: RingSpec, batch: int) -> B2aMaterial:
        self.needs.append(Need("b2a", ring.width_bits, batch))
        zero = np.zeros(batch, ring.dtype)
        return B2aMaterial(ring, batch, a=zero, b=zero, c0=zero, c1=zero)


# ---------------------------------------------------------------------------
# Material dump file: a store's material written out and read back, so it
# can be generated in one process and consumed in another. No CLI option
# writes or reads one yet.
# Layout: magic, record count; per record a header (kind, ring width, fan-in,
# batch >= 1) followed by the record's arrays as little-endian fixed-width
# integers: for a BTE table each party's rows, i.e. its entries in ascending
# mask order, one ring element per entry element (``ring.from_layout`` on
# dump and ``ring.to_layout`` on load, so boolean rows are one byte per
# bit); for B2A material a, c0, b, c1.

_MAGIC = b"RMPCMAT1"


def _le_dtype(ring: RingSpec) -> np.dtype:
    return np.dtype(ring.dtype).newbyteorder("<")


def _arr_bytes(arr: np.ndarray, ring: RingSpec) -> bytes:
    return np.ascontiguousarray(arr).astype(_le_dtype(ring)).tobytes()


def _arr_from(buf: bytes, ring: RingSpec, count: int) -> np.ndarray:
    return np.frombuffer(buf, dtype=_le_dtype(ring), count=count).astype(ring.dtype)


def dump_material(path: str, store: MaterialStore):
    records = []
    for (fan_in, width), pool in sorted(store._bte.items()):
        for t0, t1 in pool:
            records.append(("bte", width, fan_in, t0.batch, t0, t1))
    for width, pool in sorted(store._b2a.items()):
        for mat in pool:
            records.append(("b2a", width, 0, mat.batch, mat, None))
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(records)))
        for kind, width, fan_in, batch, obj, other in records:
            ring = RINGS[width]
            fh.write(struct.pack("<4sIII", kind.encode(), width, fan_in, batch))
            if kind == "bte":
                for table in (obj, other):
                    fh.write(_arr_bytes(from_layout(ring, table.rows, batch), ring))
            else:
                for arr in (obj.a, obj.c0, obj.b, obj.c1):
                    fh.write(_arr_bytes(arr, ring))


def load_material(path: str) -> MaterialStore:
    """Read a dump written by ``dump_material``. A malformed dump (unknown
    kind, bad width, fan-in or batch, a record larger than the rest of the
    file, trailing bytes) raises MaterialError before its arrays are read;
    a boolean table entry outside {0, 1} raises it before the record is
    stored."""
    store = MaterialStore()
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def left() -> int:
            return size - fh.tell()

        if fh.read(8) != _MAGIC or left() < 4:
            raise MaterialError(f"{path} is not a material dump")
        (count,) = struct.unpack("<I", fh.read(4))
        for _ in range(count):
            if left() < 16:
                raise MaterialError(f"{path}: truncated record header")
            kind, width, fan_in, batch = struct.unpack("<4sIII", fh.read(16))
            kind = kind.rstrip(b"\x00")
            ring = RINGS.get(width)
            if ring is None or batch < 1:
                raise MaterialError(f"{path}: bad record width {width} or batch {batch}")
            nbytes = batch * _le_dtype(ring).itemsize
            if kind == b"bte" and 2 <= fan_in <= MAX_FANIN:
                arrays = 2 * ((1 << fan_in) - 1)
            elif kind == b"b2a" and fan_in == 0 and not ring.is_boolean:
                arrays = 4
            else:
                raise MaterialError(f"{path}: bad {kind!r} record with fan-in {fan_in}")
            if arrays * nbytes > left():
                raise MaterialError(f"{path}: record larger than the rest of the file")
            if kind == b"bte":
                rows = arrays // 2
                halves = [_arr_from(fh.read(rows * nbytes), ring, rows * batch)
                          .reshape(rows, batch) for _ in (0, 1)]
                if ring.is_boolean and any(half.max() > 1 for half in halves):
                    raise MaterialError(f"{path}: boolean table entry outside {{0, 1}}")
                store.put_bte(*(BteTable(party, fan_in, ring, batch, to_layout(ring, half))
                                for party, half in enumerate(halves)))
            else:
                a, c0, b, c1 = (_arr_from(fh.read(nbytes), ring, batch) for _ in range(4))
                store.put_b2a(B2aMaterial(ring, batch, a=a, b=b, c0=c0, c1=c1))
        if left():
            raise MaterialError(f"{path}: {left()} trailing bytes")
    return store
