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
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    CapabilityError,
    DomainError,
    MaterialError,
    MaterialReuseError,
)
from .ring import SUPPORTED_WIDTHS, RingSpec, SharePair, uniform

DEFAULT_FANIN_CAP = 9


@dataclass
class BteTable:
    """One party's half of a Beaver-triple extension for an N-fan-in gate.

    ``entries[mask]`` is this party's share of a_I where I is the subset of
    input slots encoded by the bitmask (bit ``l-1`` set means slot ``l`` is
    in I). Reconstructed across parties, a_I equals the product of the
    singleton masks a_{l} for l in I. Exactly 2^N - 1 entries; ascending
    mask order is the canonical (serialization) order.
    """

    party_id: int
    fan_in: int
    ring: RingSpec
    batch: int
    entries: dict[int, np.ndarray]
    consumed: bool = False

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
    count: int = 1

    def scaled(self, factor: int) -> "Need":
        """The same need at ``factor`` times the batch."""
        return replace(self, batch=self.batch * factor)


def check_fan_in(fan_in: int, cap: int):
    """Refuse a BTE table outside fan-in [2, cap]: it has 2**fan_in - 1 entries."""
    if not 2 <= fan_in <= cap:
        raise CapabilityError(
            f"fan-in {fan_in} outside [2, {cap}]; table size grows as 2**fan_in")


class Dealer:
    """Generates BTE tables, B2A material, and input shares from one seeded
    generator. ``draw_count`` counts uniform-vector draws, which lets tests
    pin the per-instance randomness budget."""

    def __init__(self, rng: np.random.Generator, fanin_cap: int = DEFAULT_FANIN_CAP):
        self.rng = rng
        self.fanin_cap = fanin_cap
        self.draw_count = 0

    def _draw(self, ring: RingSpec, size: int) -> np.ndarray:
        self.draw_count += 1
        return uniform(ring, size, self.rng)

    def gen_bte(self, fan_in: int, ring: RingSpec, batch: int) -> tuple[BteTable, BteTable]:
        check_fan_in(fan_in, self.fanin_cap)
        full = (1 << fan_in) - 1
        plain: dict[int, np.ndarray] = {}
        e0: dict[int, np.ndarray] = {}
        e1: dict[int, np.ndarray] = {}
        for bit in range(fan_in):
            mask = 1 << bit
            s0 = self._draw(ring, batch)
            s1 = self._draw(ring, batch)
            plain[mask] = ring.wrap(s0 + s1)
            e0[mask], e1[mask] = s0, s1
        for mask in range(1, full + 1):
            if mask & (mask - 1) == 0:
                continue  # singleton, done above
            low = mask & -mask
            plain[mask] = ring.wrap(plain[mask ^ low] * plain[low])
            s0 = self._draw(ring, batch)
            e0[mask] = s0
            e1[mask] = ring.wrap(plain[mask] - s0)
        t0 = BteTable(0, fan_in, ring, batch, e0)
        t1 = BteTable(1, fan_in, ring, batch, e1)
        return t0, t1

    def gen_b2a_material(self, ring: RingSpec, batch: int) -> B2aMaterial:
        if ring.is_boolean:
            raise DomainError("b2a material needs an arithmetic ring")
        a = self._draw(ring, batch)
        b = self._draw(ring, batch)
        r = self._draw(ring, batch)
        c = ring.wrap(a * b)
        return B2aMaterial(ring, batch, a=a, b=b, c0=r, c1=ring.wrap(c - r))

    def share_input(self, x, ring: RingSpec) -> SharePair:
        from .ring import share

        return share(x, ring, self.rng)

    def provision(self, store: "MaterialStore", needs: list[Need]):
        for need in needs:
            ring = RingSpec(need.width)
            for _ in range(need.count):
                if need.kind == "bte":
                    store.put_bte(*self.gen_bte(need.fan_in, ring, need.batch))
                elif need.kind == "b2a":
                    store.put_b2a(self.gen_b2a_material(ring, need.batch))
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
        entries = dict.fromkeys(range(1, 1 << fan_in), np.zeros(batch, ring.dtype))
        return (BteTable(0, fan_in, ring, batch, entries),
                BteTable(1, fan_in, ring, batch, entries))

    def take_b2a(self, ring: RingSpec, batch: int) -> B2aMaterial:
        self.needs.append(Need("b2a", ring.width_bits, batch))
        zero = np.zeros(batch, ring.dtype)
        return B2aMaterial(ring, batch, a=zero, b=zero, c0=zero, c1=zero)


# ---------------------------------------------------------------------------
# Material dump file: lets the CLI separate the offline and online phases.
# Layout: magic, record count; per record a header (kind, ring width, fan-in,
# batch >= 1) followed by the per-party entry arrays in ascending mask order,
# little-endian fixed-width integers.

_MAGIC = b"RMPCMAT1"


def _le_dtype(ring: RingSpec) -> np.dtype:
    return np.dtype(ring.dtype).newbyteorder("<")


def _arr_bytes(arr: np.ndarray, ring: RingSpec) -> bytes:
    return np.ascontiguousarray(arr).astype(_le_dtype(ring)).tobytes()


def _arr_from(buf: bytes, ring: RingSpec, batch: int) -> np.ndarray:
    return np.frombuffer(buf, dtype=_le_dtype(ring), count=batch).astype(ring.dtype)


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
            ring = RingSpec(width)
            fh.write(struct.pack("<4sIII", kind.encode(), width, fan_in, batch))
            if kind == "bte":
                for table in (obj, other):
                    for mask in sorted(table.entries):
                        fh.write(_arr_bytes(table.entries[mask], ring))
            else:
                for arr in (obj.a, obj.c0, obj.b, obj.c1):
                    fh.write(_arr_bytes(arr, ring))


def load_material(path: str) -> MaterialStore:
    """Read a dump written by ``dump_material``. A malformed dump (unknown
    kind, bad width, fan-in or batch, a record larger than the rest of the
    file, trailing bytes) raises MaterialError before its arrays are read."""
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
            if width not in SUPPORTED_WIDTHS or batch < 1:
                raise MaterialError(f"{path}: bad record width {width} or batch {batch}")
            ring = RingSpec(width)
            nbytes = batch * _le_dtype(ring).itemsize
            if kind == b"bte" and 2 <= fan_in <= left().bit_length():
                # The bit-length bound keeps 1 << fan_in small; the size
                # check below is the exact one.
                arrays = 2 * ((1 << fan_in) - 1)
            elif kind == b"b2a" and fan_in == 0 and not ring.is_boolean:
                arrays = 4
            else:
                raise MaterialError(f"{path}: bad {kind!r} record with fan-in {fan_in}")
            if arrays * nbytes > left():
                raise MaterialError(f"{path}: record larger than the rest of the file")
            if kind == b"bte":
                tables = []
                for party in (0, 1):
                    entries = {}
                    for mask in range(1, 1 << fan_in):
                        entries[mask] = _arr_from(fh.read(nbytes), ring, batch)
                    tables.append(BteTable(party, fan_in, ring, batch, entries))
                store.put_bte(*tables)
            else:
                a, c0, b, c1 = (_arr_from(fh.read(nbytes), ring, batch) for _ in range(4))
                store.put_b2a(B2aMaterial(ring, batch, a=a, b=b, c0=c0, c1=c1))
        if left():
            raise MaterialError(f"{path}: {left()} trailing bytes")
    return store
