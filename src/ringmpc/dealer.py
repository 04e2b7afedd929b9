"""Trusted client ("dealer") producing all correlated randomness offline.

The dealer runs before the online phase and hands each party its half of
every multiplication table and conversion blind the protocols will consume.
Neither computing party ever learns the other's half, so in the two-engine
simulation both halves live side by side in one MaterialStore.

The dealer knows a whole manifest before it draws anything, so
``provision`` builds its tables in runs: consecutive tables whose layout
columns sum to at most ``threads.BLOCK_COLS``. A run takes all its
tables' words in one raw draw, in manifest order, builds its tables of
one fan-in and width in one pass, side by side, copies each table's rows
out, and stores that group's tables in one ``MaterialStore.put_btes``
call: the same bits as one ``gen_bte`` call per table. A wider table is
one ``gen_bte`` call, and every B2A record one ``gen_b2a_material`` call.
``_check`` is the one rule for a valid record, for ``provision``,
both generators and ``load_material``, which also checks correlations.
"""
from __future__ import annotations

import os
import struct
from collections import deque
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import threads
from .errors import (
    CapabilityError,
    DomainError,
    MaterialError,
    MaterialReuseError,
)
from .ring import (
    RINGS,
    RingSpec,
    SharePair,
    elements,
    from_layout,
    raw_words,
    row_draw,
    share,
    to_layout,
    uniform_rows,
)

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


def _integer(v) -> bool:
    """An int or numpy integer, not a bool. A plain int is tested first, a
    quarter of the cost, since ``provision`` checks every need."""
    return type(v) is int or (isinstance(v, (int, np.integer)) and not isinstance(v, bool))


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


def _check(need: Need):
    """The one rule for a valid record: raise what generating ``need``
    would raise, without drawing. A width, batch and fan-in must be
    integers (not bools, which would read as width 1, nor integral
    floats), the batch at least 1; a table's fan-in in [2, MAX_FANIN]; a
    B2A record over an arithmetic ring, which it blinds, with no fan-in."""
    if not (_integer(need.width) and _integer(need.batch) and _integer(need.fan_in)):
        raise DomainError(f"width {need.width!r}, batch {need.batch!r} and fan-in "
                          f"{need.fan_in!r} must be integers")
    if need.width not in RINGS:
        raise DomainError(f"unsupported ring width {need.width}")
    if need.batch < 1:
        raise DomainError(f"batch {need.batch} must be at least 1")
    if need.kind == "bte":
        check_fan_in(need.fan_in)
    elif need.kind == "b2a":
        if RINGS[need.width].is_boolean:
            raise DomainError("b2a material needs an arithmetic ring")
        if need.fan_in:
            raise DomainError(f"b2a material has no fan-in, not {need.fan_in}")
    else:
        raise DomainError(f"unknown material kind {need.kind!r}")


def _draw_rows(fan_in: int) -> tuple[int, int]:
    """The rows of each ``uniform_rows`` draw of one table, in order: its
    N singleton masks, then party 0's 2^N - 1 rows."""
    return fan_in, (1 << fan_in) - 1


class _Record(NamedTuple):
    """How ``provision`` draws and builds the table of one need. Its
    draws, one ``(start, size, rows)`` per ``_draw_rows`` entry, are the
    first ``size`` elements of ring ``of`` from element ``start`` of the
    table's words on (``row_draw``), ``per`` elements to a word. ``keep``
    is, at width 1 when the batch is not a multiple of 64, the last word's
    real lanes, which ``uniform_rows`` keeps while it clears the rest;
    None otherwise. ``span``, when each draw starts where the one before
    ends, as at widths 1 and 64, is the number of elements from the
    table's first word that hold all its rows, singles first; None when a
    draw ends inside a word."""

    ring: RingSpec
    batch: int
    fan_in: int
    cols: int
    words: int
    of: RingSpec
    per: int
    draws: tuple
    keep: np.uint64 | None
    span: int | None


def _record(need: Need) -> _Record:
    ring, batch, fan_in = RINGS[need.width], int(need.batch), int(need.fan_in)
    draws, words, sizes = [], 0, 0
    for rows in _draw_rows(fan_in):
        of, size, n = row_draw(ring, rows, batch)
        per = 64 // of.width_bits
        draws.append((words * per, size, rows))
        words += n
        sizes += size
    keep = np.uint64((1 << batch % 64) - 1) if ring.is_boolean and batch % 64 else None
    span = draws[-1][0] + draws[-1][1]
    return _Record(ring, batch, fan_in, ring.cols(batch), words, of, per, tuple(draws), keep,
                   span if span == sizes else None)


def _runs(needs: list[Need]):
    """Checked ``needs`` in order: ``(words, records)`` for a run of tables,
    ``words`` being the raw generator words it draws at once and each
    record ``(record, offset)``, the table's first word in them; ``(None,
    need)`` for a record built alone, that is every B2A record and every
    table of more than ``threads.BLOCK_COLS`` layout columns. A run closes
    before such a record and before a table that would take it past that
    many columns."""
    # keyed by numbers, whose tuple hashes and compares in C, not by the
    # Need, whose dataclass hash and equality run in Python
    records: dict[tuple, _Record] = {}
    run, words, cols_left = [], 0, threads.BLOCK_COLS
    for need in needs:
        rec = None
        if need.kind == "bte":
            key = need.width, need.batch, need.fan_in
            rec = records.get(key)
            if rec is None:
                rec = records[key] = _record(need)
        if run and (rec is None or rec.cols > cols_left):
            yield words, run
            run, words, cols_left = [], 0, threads.BLOCK_COLS
        if rec is None or rec.cols > cols_left:
            yield None, need
            continue
        run.append((rec, words))
        words += rec.words
        cols_left -= rec.cols
    if run:
        yield words, run


def _build_tables(group: list) -> list:
    """The ``(t0, t1)`` tables of ``group``'s ``(record, rows)`` entries,
    all of one fan-in and ring, from one ``_party1_half`` over their drawn
    rows (singles, then party 0's) side by side, each record's padding
    lanes cleared first. A record's rows are then copied out, C-contiguous
    and its own."""
    rec0 = group[0][0]
    ring, fan_in = rec0.ring, rec0.fan_in
    rows = np.concatenate([entry[1] for entry in group], axis=1)
    if ring.is_boolean:
        keep, lo = np.full(rows.shape[1], ring.one), 0
        for rec, _ in group:
            lo += rec.cols
            if rec.keep is not None:
                keep[lo - 1] = rec.keep
        rows &= keep
    singles, s0 = rows[:fan_in], rows[fan_in:]
    plain = np.empty_like(s0)
    _party1_half(ring, singles, s0, plain)
    tables, lo = [], 0
    for rec, _ in group:
        hi = lo + rec.cols
        tables.append((BteTable(0, fan_in, ring, rec.batch, s0[:, lo:hi].copy()),
                       BteTable(1, fan_in, ring, rec.batch, plain[:, lo:hi].copy())))
        lo = hi
    return tables


class Dealer:
    """Generates BTE tables, B2A material, and input shares from one seeded
    generator. ``draw_count`` counts uniform-vector draws, two per table
    and three per B2A record, whether ``provision`` took a table's words
    in a run's one raw draw or in the table's own ``uniform_rows`` calls;
    it lets tests pin the per-instance randomness budget. It refuses only
    what ``_check`` refuses, so tables of any fan-in in [2, MAX_FANIN]; a
    plan's lower cap is the plan's to keep."""

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

        A table wider than ``threads.BLOCK_COLS`` columns is built one
        column block per ``threads.run`` task, the doubling and then the
        subtraction while the block is in cache; blocks share no column,
        so the tables are the same bits at any thread count, or with no
        pool. A narrower table is built whole in this thread.
        ``provision`` builds only such wide tables here; it builds narrower
        ones in runs, to the same bits. A table ``_check`` refuses raises
        before any draw.
        """
        _check(Need("bte", ring.width_bits, batch, fan_in))
        singles, s0 = (self._draw(ring, rows, batch) for rows in _draw_rows(fan_in))
        plain = np.empty_like(s0)
        cols = s0.shape[1]
        if cols > threads.BLOCK_COLS:
            threads.run(lambda block: _party1_half(ring, singles[:, block], s0[:, block],
                                                   plain[:, block]), threads.blocks(cols))
        else:
            _party1_half(ring, singles, s0, plain)
        return BteTable(0, fan_in, ring, batch, s0), BteTable(1, fan_in, ring, batch, plain)

    def gen_b2a_material(self, ring: RingSpec, batch: int) -> B2aMaterial:
        """Three one-row draws, a, b and c0, with c1 = a*b - c0; ``provision``
        builds every B2A record here. A record ``_check`` refuses raises
        before any draw."""
        _check(Need("b2a", ring.width_bits, batch))
        a, b, r = (self._draw(ring, 1, batch)[0] for _ in range(3))
        return B2aMaterial(ring, batch, a=a, b=b, c0=r, c1=a * b - r)

    def share_input(self, x, ring: RingSpec) -> SharePair:
        return share(x, ring, self.rng)

    def provision(self, store: "MaterialStore", needs: Iterable[Need]):
        """Generate one record per need, once every need has been checked:
        a manifest with a need this dealer cannot meet is refused before
        anything is drawn or stored.

        Tables are built in runs (``_runs``): the words of a run of narrow
        tables come from one raw draw, its tables of one fan-in and width
        from one ``_party1_half``, and they go to the store in one call
        per such group. A table wider than ``threads.BLOCK_COLS`` columns
        is one ``gen_bte`` call, threaded as that is, and every B2A record
        one ``gen_b2a_material`` call. Every
        record is the same bits, and the generator is left in the same
        state, as one such call per need in order would give; each
        record's arrays are its own, C-contiguous, and each pool gets its
        records in order. ``needs`` is read once, so it may be any iterable."""
        needs = list(needs)
        for need in needs:
            _check(need)
        for words, run in _runs(needs):
            if words is not None:
                self._provision_run(store, words, run)
            elif run.kind == "bte":
                store.put_btes([self.gen_bte(run.fan_in, RINGS[run.width], run.batch)])
            else:
                store.put_b2a(self.gen_b2a_material(RINGS[run.width], run.batch))

    def _provision_run(self, store: "MaterialStore", words: int, run: list):
        """Build a run of narrow tables from one raw draw of its words, and
        store each group of one fan-in and width with one ``put_btes``
        call."""
        raw, values, groups = raw_words(self.rng, words), {}, {}
        for rec, offset in run:
            self.draw_count += len(rec.draws)
            vals = values.get(rec.per)
            if vals is None:
                vals = values[rec.per] = elements(rec.of, raw)
            at = offset * rec.per
            if rec.span is not None:
                rows = vals[at:at + rec.span].reshape(-1, rec.cols)
            else:
                rows = np.concatenate([vals[at + start:at + start + size].reshape(-1, rec.cols)
                                       for start, size, _ in rec.draws])
            groups.setdefault((rec.fan_in, rec.ring.width_bits), []).append((rec, rows))
        for group in groups.values():
            store.put_btes(_build_tables(group))


class MaterialStore:
    """FIFO pools of pre-distributed correlated randomness."""

    def __init__(self):
        self._bte: dict[tuple[int, int], deque] = {}
        self._b2a: dict[int, deque] = {}

    def put_btes(self, tables: list):
        """Queue each ``(t0, t1)`` of ``tables``, in order, all of one
        fan-in and width."""
        t0 = tables[0][0]
        self._bte.setdefault((t0.fan_in, t0.ring.width_bits), deque()).extend(tables)

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


def _arr_bytes(arr: np.ndarray, ring: RingSpec) -> bytes:
    return np.ascontiguousarray(arr).astype(ring.le).tobytes()


def _arr_from(buf: bytes, ring: RingSpec, count: int) -> np.ndarray:
    return np.frombuffer(buf, dtype=ring.le, count=count).astype(ring.dtype)


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


def _check_correlated(path: str, index: int, need: Need, got: np.ndarray, want: np.ndarray):
    """Refuse loaded record ``index`` unless ``got``, its reconstructed
    values, equal ``want``, what they must be: a B2A record's c0 + c1 must
    be a*b, and a table's rows the subset products of its singleton rows.
    A flip of a singleton entry whose product partners are all zero leaves
    a valid table, which is stored."""
    if not np.array_equal(got, want):
        raise MaterialError(f"{path}: record {index}, {need}, is not correlated material")


def load_material(path: str) -> MaterialStore:
    """Read a dump written by ``dump_material``. A malformed dump (a record
    header ``_check`` refuses, a record larger than the rest of the file,
    trailing bytes) raises MaterialError before its arrays are read. A
    boolean table entry outside {0, 1}, or a record that is not correlated
    (``_check_correlated``), raises it before the record is stored."""
    store = MaterialStore()
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def left() -> int:
            return size - fh.tell()

        if fh.read(8) != _MAGIC or left() < 4:
            raise MaterialError(f"{path} is not a material dump")
        (count,) = struct.unpack("<I", fh.read(4))
        for index in range(count):
            if left() < 16:
                raise MaterialError(f"{path}: truncated record header")
            kind, width, fan_in, batch = struct.unpack("<4sIII", fh.read(16))
            need = Need(kind.rstrip(b"\x00").decode("latin-1"), width, batch, fan_in)
            try:
                _check(need)
            except (CapabilityError, DomainError) as exc:
                raise MaterialError(f"{path}: bad record {need}: {exc}") from exc
            ring = RINGS[width]
            nbytes = batch * ring.le.itemsize
            arrays = 2 * ((1 << fan_in) - 1) if need.kind == "bte" else 4
            if arrays * nbytes > left():
                raise MaterialError(f"{path}: record larger than the rest of the file")
            if need.kind == "bte":
                rows = arrays // 2
                halves = [_arr_from(fh.read(rows * nbytes), ring, rows * batch)
                          .reshape(rows, batch) for _ in (0, 1)]
                if ring.is_boolean and any(half.max() > 1 for half in halves):
                    raise MaterialError(f"{path}: boolean table entry outside {{0, 1}}")
                t0, t1 = (BteTable(party, fan_in, ring, batch, to_layout(ring, half))
                          for party, half in enumerate(halves))
                plain, products = ring.add(t0.rows, t1.rows), np.empty_like(t0.rows)
                _party1_half(ring, plain[[(1 << l) - 1 for l in range(fan_in)]],
                             np.zeros_like(plain), products)
                _check_correlated(path, index, need, plain, products)
                store.put_btes([(t0, t1)])
            else:
                a, c0, b, c1 = (_arr_from(fh.read(nbytes), ring, batch) for _ in range(4))
                _check_correlated(path, index, need, ring.add(c0, c1), ring.mul(a, b))
                store.put_b2a(B2aMaterial(ring, batch, a=a, b=b, c0=c0, c1=c1))
        if left():
            raise MaterialError(f"{path}: {left()} trailing bytes")
    return store
