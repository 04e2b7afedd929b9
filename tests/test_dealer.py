import hashlib
import struct
import tracemalloc
from itertools import product

import numpy as np
import pytest

from ringmpc import editdist, threads
from ringmpc.dealer import (
    MAX_FANIN,
    Dealer,
    MaterialStore,
    Need,
    RecordingStore,
    _record,
    _runs,
    dump_material,
    load_material,
    table_layout,
)
from ringmpc.errors import (
    CapabilityError,
    DomainError,
    MaterialError,
    MaterialReuseError,
)
from ringmpc.ring import (
    BOOL,
    RINGS,
    Z8,
    Z16,
    Z32,
    Z64,
    RingSpec,
    pack_lanes,
    uniform,
    unpack_lanes,
)


@pytest.fixture
def dealer():
    return Dealer(np.random.default_rng(7))


def masks(fan_in):
    return range(1, 1 << fan_in)


def plain_rows(table):
    """A table's rows with one ring element per entry element."""
    if table.ring.is_boolean:
        return unpack_lanes(table.rows, table.batch)
    return table.rows


@pytest.mark.parametrize("ring", [BOOL, Z8, Z32, Z64])
@pytest.mark.parametrize("fan_in", [2, 3, 5, 9])
def test_bte_entries_reconstruct_to_products(dealer, ring, fan_in):
    batch = 50
    t0, t1 = dealer.gen_bte(fan_in, ring, batch)
    plain = ring.wrap(plain_rows(t0) + plain_rows(t1))
    singles = {1 << b: plain[(1 << b) - 1] for b in range(fan_in)}
    for mask in masks(fan_in):
        expect = np.ones(batch, dtype=ring.dtype)
        for b in range(fan_in):
            if mask & (1 << b):
                expect = ring.wrap(expect * singles[1 << b])
        assert np.array_equal(plain[mask - 1], expect)


@pytest.mark.parametrize("ring", [BOOL, Z16, Z64])
def test_bte_rows_are_one_array_per_party(dealer, ring):
    t0, t1 = dealer.gen_bte(4, ring, 3)
    # Boolean rows are packed: 3 lanes of one uint64 word per row.
    shape, dtype = ((15, 1), np.uint64) if ring.is_boolean else ((15, 3), ring.dtype)
    for table in (t0, t1):
        assert table.rows.shape == shape and table.rows.dtype == dtype
        assert table.rows.flags.c_contiguous
        assert sorted(table.entries) == list(masks(4)) and len(table.entries) == 15
        for mask in masks(4):
            assert np.shares_memory(table.entries[mask], table.rows)
            assert np.array_equal(table.entries[mask], table.rows[mask - 1])
    for missing in (0, 16):
        with pytest.raises(KeyError):
            t0.entries[missing]
    with pytest.raises(TypeError):
        t0.entries[1] = t0.rows[0]


@pytest.mark.parametrize("ring", [BOOL, Z8, Z32, Z64])
@pytest.mark.parametrize("fan_in", [2, 5, 9])
def test_gen_bte_takes_two_draws_party0_rows_in_one(ring, fan_in):
    batch = 7
    d = Dealer(np.random.default_rng(3))
    t0, t1 = d.gen_bte(fan_in, ring, batch)
    assert d.draw_count == 2
    # Replaying the two draws: the singleton masks, then all of party 0's
    # rows. At width 1 both are raw Z_2^64 words, one per row of 7 lanes,
    # with the 57 padding lanes of each word cleared.
    replay = np.random.default_rng(3)
    rows = (1 << fan_in) - 1
    if ring.is_boolean:
        keep = np.uint64((1 << batch) - 1)
        singles = unpack_lanes(uniform(Z64, fan_in, replay).reshape(fan_in, 1) & keep, batch)
        rows0 = uniform(Z64, rows, replay).reshape(rows, 1) & keep
    else:
        singles = uniform(ring, fan_in * batch, replay).reshape(fan_in, batch)
        rows0 = uniform(ring, rows * batch, replay).reshape(rows, batch)
    assert np.array_equal(t0.rows, rows0)
    plain = ring.wrap(plain_rows(t0) + plain_rows(t1))
    for l in range(fan_in):
        assert np.array_equal(plain[(1 << l) - 1], singles[l])


def test_bte_has_all_subsets(dealer):
    t0, _ = dealer.gen_bte(4, Z32, 3)
    assert sorted(t0.entries) == list(masks(4))


def test_fanin_cap(dealer):
    with pytest.raises(CapabilityError):
        dealer.gen_bte(MAX_FANIN + 1, BOOL, 1)
    with pytest.raises(CapabilityError):
        dealer.gen_bte(1, BOOL, 1)
    assert dealer.draw_count == 0
    t0, _ = dealer.gen_bte(MAX_FANIN, BOOL, 1)
    assert t0.rows.shape == ((1 << MAX_FANIN) - 1, 1)


def test_b2a_material_correlation(dealer):
    mat = dealer.gen_b2a_material(Z32, 100)
    assert np.array_equal(Z32.wrap(mat.c0 + mat.c1), Z32.wrap(mat.a * mat.b))


def test_b2a_material_costs_three_draws(dealer):
    before = dealer.draw_count
    dealer.gen_b2a_material(Z32, 10)
    assert dealer.draw_count - before == 3


def test_b2a_material_boolean_rejected(dealer):
    with pytest.raises(DomainError):
        dealer.gen_b2a_material(BOOL, 1)


def test_material_reuse_detected(dealer):
    t0, _ = dealer.gen_bte(2, Z8, 1)
    t0.consume()
    with pytest.raises(MaterialReuseError):
        t0.consume()
    mat = dealer.gen_b2a_material(Z8, 1)
    mat.consume()
    with pytest.raises(MaterialReuseError):
        mat.consume()


def test_store_fifo_and_batch_check(dealer):
    store = MaterialStore()
    dealer.provision(store, [Need("bte", 8, 4, fan_in=2)] * 2)
    first = store.take_bte(2, Z8, 4)
    second = store.take_bte(2, Z8, 4)
    assert first[0] is not second[0]
    assert store.is_empty()
    with pytest.raises(MaterialError):
        store.take_bte(2, Z8, 4)
    dealer.provision(store, [Need("bte", 8, 4, fan_in=2), Need("b2a", 16, 4)])
    with pytest.raises(MaterialError):
        store.take_bte(2, Z8, 5)
    with pytest.raises(MaterialError):
        store.take_b2a(Z16, 5)
    # A refused request leaves the material in place.
    store.take_bte(2, Z8, 4)
    store.take_b2a(Z16, 4)
    assert store.is_empty()


def test_recording_store_serves_zero_material_and_records_takes():
    store = RecordingStore()
    t0, t1 = store.take_bte(3, Z32, 5)
    mat = store.take_b2a(Z8, 2)
    assert store.needs == [Need("bte", 32, 5, fan_in=3), Need("b2a", 8, 2)]
    for table in (t0, t1):
        assert (table.fan_in, table.ring, table.batch) == (3, Z32, 5)
        assert table.rows.dtype == np.uint32 and table.rows.shape == (7, 5)
        assert not table.rows.any()
        assert sorted(table.entries) == list(masks(3))
    for arr in (mat.a, mat.b, mat.c0, mat.c1):
        assert arr.dtype == np.uint8 and arr.shape == (2,) and not arr.any()


def test_recording_store_serves_packed_boolean_zero_block():
    t0, t1 = RecordingStore().take_bte(4, BOOL, 130)
    assert t0.rows is t1.rows
    assert t0.rows.dtype == np.uint64 and t0.rows.shape == (15, 3)
    assert not t0.rows.any()


def _padding_lanes(table) -> np.ndarray:
    """The lanes past the batch in each row's last word."""
    return table.rows[:, -1] >> np.uint64(table.batch % 64)


@pytest.mark.parametrize("batch", [1, 63, 130])
def test_gen_bte_boolean_padding_lanes_are_zero(batch):
    t0, t1 = Dealer(np.random.default_rng(batch)).gen_bte(5, BOOL, batch)
    for table in (t0, t1):
        assert table.rows.shape == (31, -(-batch // 64))
        assert not _padding_lanes(table).any()
    assert t0.rows[:, -1].any()  # the last word still carries the batch's lanes


def test_gen_bte_takes_an_unsigned_numpy_batch(dealer):
    t0, t1 = dealer.gen_bte(2, BOOL, np.uint32(3))
    assert t0.rows.shape == t1.rows.shape == (3, 1)
    assert not _padding_lanes(t0).any() and not _padding_lanes(t1).any()


def test_boolean_dump_is_one_byte_per_entry_element(dealer, tmp_path):
    store = MaterialStore()
    dealer.provision(store, [Need("bte", 1, 130, fan_in=3)])
    path = tmp_path / "material.bin"
    dump_material(str(path), store)
    assert path.stat().st_size == 12 + 16 + 2 * 7 * 130
    body = np.frombuffer(path.read_bytes()[28:], dtype=np.uint8).reshape(2, 7, 130)
    loaded = load_material(str(path))
    orig, back = store.take_bte(3, BOOL, 130), loaded.take_bte(3, BOOL, 130)
    for party in (0, 1):
        assert np.array_equal(body[party], plain_rows(orig[party]))
        assert back[party].rows.dtype == np.uint64 and back[party].rows.shape == (7, 3)
        assert np.array_equal(back[party].rows, orig[party].rows)
        assert not _padding_lanes(back[party]).any()


def _table_dump(bits: np.ndarray) -> bytes:
    """A dump of one 2-fan-in boolean table whose halves are ``bits``, one
    byte per entry element, ``(2, 3, batch)``."""
    return (b"RMPCMAT1" + struct.pack("<I", 1)
            + struct.pack("<4sIII", b"bte", 1, 2, bits.shape[2]) + bits.tobytes())


def test_load_packs_a_byte_per_bit_dump(tmp_path):
    """A dump holding one byte per boolean entry element, as every dump of
    this format does, loads as packed rows whatever the bytes' origin."""
    bits = np.random.default_rng(4).integers(0, 2, (2, 3, 70), dtype=np.uint8)
    # Party 1's product row makes the reconstructed product row the AND of
    # the reconstructed singleton rows.
    uncorrelated = bits.copy()
    single = bits[0, :2] ^ bits[1, :2]
    bits[1, 2] = single[0] & single[1] ^ bits[0, 2]
    path = tmp_path / "material.bin"
    path.write_bytes(_table_dump(bits))
    t0, t1 = load_material(str(path)).take_bte(2, BOOL, 70)
    for party, table in enumerate((t0, t1)):
        assert np.array_equal(table.rows, pack_lanes(bits[party]))
        assert np.array_equal(unpack_lanes(table.rows, 70), bits[party])
    # The same bits with party 1's product row uniform are not a table.
    assert not np.array_equal(uncorrelated, bits)
    path.write_bytes(_table_dump(uncorrelated))
    with pytest.raises(MaterialError, match="record 0, .* not correlated"):
        load_material(str(path))


def test_load_rejects_boolean_entry_above_one(tmp_path):
    bits = np.zeros((2, 3, 5), dtype=np.uint8)
    bits[1, 2, 4] = 2
    path = tmp_path / "material.bin"
    path.write_bytes(_table_dump(bits))
    with pytest.raises(MaterialError):
        load_material(str(path))


def test_provision_unknown_kind(dealer):
    with pytest.raises(DomainError):
        dealer.provision(MaterialStore(), [Need("nope", 8, 1)])


def test_provision_refuses_an_unsupported_width_before_any_draw(dealer):
    store = MaterialStore()
    with pytest.raises(DomainError):
        dealer.provision(store, [Need("bte", 8, 4, fan_in=2), Need("bte", 12, 4, fan_in=2)])
    assert store.is_empty() and dealer.draw_count == 0


# The need each bad manifest ends with, and the error that refuses it. Before
# every need was checked up front, the manifest's first need was already
# stored and had taken two draws when the last one was refused.
REFUSED_NEEDS = {
    "unknown-kind": (Need("nope", 8, 1), DomainError),
    "fan-in-1": (Need("bte", 8, 4, fan_in=1), CapabilityError),
    "fan-in-above-cap": (Need("bte", 8, 4, fan_in=MAX_FANIN + 1), CapabilityError),
    "b2a-over-bool": (Need("b2a", 1, 4), DomainError),
    "unsupported-width": (Need("b2a", 12, 4), DomainError),
    "bte-batch-0": (Need("bte", 8, 0, fan_in=2), DomainError),
    "b2a-batch-negative": (Need("b2a", 16, -2), DomainError),
    "bte-batch-negative": (Need("bte", 8, -3, fan_in=2), DomainError),
    "batch-float": (Need("bte", 8, 2.5, fan_in=2), DomainError),
    "batch-bool": (Need("b2a", 16, True), DomainError),
    "fan-in-float": (Need("bte", 8, 4, fan_in=2.0), DomainError),
    "fan-in-bool": (Need("bte", 8, 4, fan_in=True), DomainError),
    # True == 1 and 16.0 == 16 as keys of RINGS: unchecked, these would
    # provision a Boolean and a Z_2^16 record.
    "width-bool": (Need("bte", True, 4, fan_in=2), DomainError),
    "width-float": (Need("b2a", 16.0, 4), DomainError),
    "b2a-fan-in": (Need("b2a", 16, 4, fan_in=3), DomainError),
}


@pytest.mark.parametrize("bad", REFUSED_NEEDS)
def test_provision_refuses_a_bad_manifest_before_any_draw(dealer, bad):
    need, error = REFUSED_NEEDS[bad]
    store = MaterialStore()
    state = dealer.rng.bit_generator.state
    with pytest.raises(error):
        dealer.provision(store, [Need("bte", 8, 4, fan_in=2), need])
    assert store.is_empty() and dealer.draw_count == 0
    assert dealer.rng.bit_generator.state == state


# The refused needs a generator's arguments can express: a table or a B2A
# record without a fan-in, over a ring it is given.
GENERATOR_REFUSALS = [bad for bad, (need, _) in REFUSED_NEEDS.items()
                      if type(need.width) is int and need.width in RINGS
                      and (need.kind == "bte" or need.kind == "b2a" and not need.fan_in)]


@pytest.mark.parametrize("bad", GENERATOR_REFUSALS)
def test_generators_refuse_what_provision_refuses_before_any_draw(dealer, bad):
    need, error = REFUSED_NEEDS[bad]
    state = dealer.rng.bit_generator.state
    with pytest.raises(error):
        if need.kind == "bte":
            dealer.gen_bte(need.fan_in, RINGS[need.width], need.batch)
        else:
            dealer.gen_b2a_material(RINGS[need.width], need.batch)
    assert dealer.draw_count == 0
    assert dealer.rng.bit_generator.state == state


def test_provision_takes_numpy_integer_batches_and_fan_ins(dealer):
    store = MaterialStore()
    dealer.provision(store, [Need("bte", 8, np.int64(4), fan_in=np.uint8(2)),
                             Need("b2a", 16, np.uint32(3))])
    t0, _ = store.take_bte(2, RingSpec(8), 4)
    assert t0.rows.shape == (3, 4)
    assert store.take_b2a(RingSpec(16), 3).a.shape == (3,)
    assert store.is_empty()


def test_dump_load_roundtrip(dealer, tmp_path):
    store = MaterialStore()
    dealer.provision(
        store,
        [
            Need("bte", 1, 3, fan_in=3),
            Need("bte", 1, 3, fan_in=3),
            Need("bte", 64, 2, fan_in=2),
            Need("b2a", 32, 5),
        ],
    )
    path = tmp_path / "material.bin"
    dump_material(str(path), store)
    loaded = load_material(str(path))
    for fan, width, batch in [(3, 1, 3), (3, 1, 3), (2, 64, 2)]:
        o0, o1 = store.take_bte(fan, RingSpec(width), batch)
        l0, l1 = loaded.take_bte(fan, RingSpec(width), batch)
        for orig, back in ((o0, l0), (o1, l1)):
            assert back.rows.dtype == orig.rows.dtype
            assert np.array_equal(back.rows, orig.rows)
    omat = store.take_b2a(Z32, 5)
    lmat = loaded.take_b2a(Z32, 5)
    for field in ("a", "b", "c0", "c1"):
        assert np.array_equal(getattr(omat, field), getattr(lmat, field))
    assert loaded.is_empty()


def test_dump_bytes_are_mask_ordered_entries(dealer, tmp_path):
    store = MaterialStore()
    dealer.provision(store, [Need("bte", 1, 3, fan_in=3), Need("bte", 32, 2, fan_in=2),
                             Need("b2a", 16, 2)])
    path = tmp_path / "material.bin"
    dump_material(str(path), store)

    def le(arr, ring):
        return arr.astype(np.dtype(ring.dtype).newbyteorder("<")).tobytes()

    expect = [b"RMPCMAT1", struct.pack("<I", 3)]
    for fan, ring, batch in [(2, Z32, 2), (3, BOOL, 3)]:  # by (fan-in, width)
        expect.append(struct.pack("<4sIII", b"bte", ring.width_bits, fan, batch))
        for table in store.take_bte(fan, ring, batch):
            expect += [le(plain_rows(table)[mask - 1], ring) for mask in masks(fan)]
    mat = store.take_b2a(Z16, 2)
    expect.append(struct.pack("<4sIII", b"b2a", 16, 0, 2))
    expect += [le(arr, Z16) for arr in (mat.a, mat.c0, mat.b, mat.c1)]
    assert path.read_bytes() == b"".join(expect)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"not a dump")
    with pytest.raises(MaterialError):
        load_material(str(path))


def test_load_rejects_malformed_dumps(dealer, tmp_path):
    store = MaterialStore()
    dealer.provision(store, [Need("bte", 8, 3, fan_in=2), Need("b2a", 16, 2)])
    path = tmp_path / "material.bin"
    dump_material(str(path), store)
    good = path.read_bytes()
    # Record headers (kind, width, fan-in, batch) follow the 12-byte file
    # header; the 2-fan-in table holds 2 * 3 arrays of 3 bytes, each
    # party's product row last, and the B2A record a, c0, b and c1.
    bte, b2a = 12, 12 + 16 + 2 * 3 * 3

    def patched(offset, value):
        return good[:offset] + value + good[offset + len(value):]

    def flipped(offset, bit):
        return patched(offset, bytes([good[offset] ^ bit]))

    def u32(value):
        return struct.pack("<I", value)

    bad = [good[:cut] for cut in range(len(good))]
    bad += [
        good + b"\x00",
        patched(8, u32(3)),  # more records than the file holds
        patched(bte, b"xyz\x00"),
        patched(bte + 4, u32(12)),
        patched(bte + 8, u32(1)),
        patched(bte + 8, u32(MAX_FANIN + 1)),
        patched(bte + 8, u32(2**32 - 1)),
        patched(bte + 12, u32(0)),
        patched(bte + 12, u32(2**32 - 1)),
        patched(b2a + 4, u32(1)),
        patched(b2a + 8, u32(2)),
        # Material that is not correlated: a flipped product-row entry in
        # either party's half, and a flipped c0.
        flipped(bte + 16 + 2 * 3 + 1, 0x80),
        flipped(bte + 16 + 3 * 3 + 2 * 3 + 2, 0x01),
        flipped(b2a + 16 + 2 * 2 + 1, 0x10),
    ]
    for blob in bad:
        path.write_bytes(blob)
        with pytest.raises(MaterialError):
            load_material(str(path))


def test_share_input_deterministic_per_seed():
    d1 = Dealer(np.random.default_rng(42))
    d2 = Dealer(np.random.default_rng(42))
    p1 = d1.share_input([1, 2, 3], Z32)
    p2 = d2.share_input([1, 2, 3], Z32)
    assert np.array_equal(p1[0].values, p2[0].values)
    assert np.array_equal(p1[1].values, p2[1].values)


# SHA-256 of the dump of ``_pinned_store()``. Dealer draws, the material they
# make and the dump format are all frozen, so a change to any of them
# changes this digest.
DUMP_PIN = "f7dde3d027b08f2fc2724adddc71ebe7911b7824ef90a17dca923aec10ede16e"


def _pinned_store() -> MaterialStore:
    """One 3-fan-in BTE record at every width and one B2A record at every
    arithmetic width, all at batch 70, from a fixed seed."""
    store = MaterialStore()
    Dealer(np.random.default_rng(2019)).provision(
        store, [Need("bte", w, 70, fan_in=3) for w in (1, 8, 16, 32, 64)]
        + [Need("b2a", w, 70) for w in (8, 16, 32, 64)])
    return store


def test_dump_bytes_are_pinned(tmp_path):
    path = tmp_path / "material.bin"
    dump_material(str(path), _pinned_store())
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DUMP_PIN


# -- provisioning in runs -----------------------------------------------------

BLOCK = threads.BLOCK_COLS

# BTE and B2A records at every width, at batches on either side of a word
# of 64 lanes, with fan-ins 2 to 9.
MIXED = [need for i, (width, batch) in enumerate(product((1, 8, 16, 32, 64), (1, 63, 64, 65, 130)))
         for need in [Need("bte", width, batch, fan_in=2 + i % 8)]
         + ([Need("b2a", width, batch)] if width > 1 else [])]
# Each fan-in from 2 to 9 several times in one run, interleaved, and the
# largest fan-in at batch 1.
FAN_INS = [Need("bte", width, batch, fan_in=fan_in) for batch in (1, 65, 130)
           for fan_in in range(2, 10) for width in (1, 16)] + [
    Need("bte", 1, 1, fan_in=MAX_FANIN), Need("bte", 64, 1, fan_in=MAX_FANIN)]
# A run whose columns sum to exactly BLOCK, a table and a B2A record wider
# than BLOCK between narrow records, a narrow B2A record, and a run of one
# narrow record.
EDGES = [
    Need("bte", 64, BLOCK - 100, fan_in=2), Need("bte", 16, 99, fan_in=3),
    Need("bte", 8, 1, fan_in=2),
    Need("bte", 1, 65, fan_in=2), Need("b2a", 32, 63),
    Need("bte", 32, BLOCK + 1, fan_in=2),
    Need("bte", 1, 130, fan_in=2), Need("bte", 16, 64, fan_in=3),
    Need("b2a", 16, BLOCK + 5),
    Need("bte", 8, 64, fan_in=3),
]
RUN_MANIFESTS = {"mixed": MIXED, "fan-ins": FAN_INS, "edges": EDGES}


def _per_record(dealer: Dealer, needs: list[Need]) -> list:
    """The reference: one ``gen_bte`` or ``gen_b2a_material`` call per need,
    in manifest order."""
    return [dealer.gen_bte(need.fan_in, RINGS[need.width], need.batch) if need.kind == "bte"
            else dealer.gen_b2a_material(RINGS[need.width], need.batch) for need in needs]


def test_edges_manifest_covers_the_run_boundaries():
    runs = list(_runs(EDGES))
    assert [rec.cols for rec, _ in runs[0][1]] == [BLOCK - 100, 99, 1]
    # Every B2A record and every wider table is built alone.
    assert [need for words, need in runs if words is None] == [
        Need("b2a", 32, 63), Need("bte", 32, BLOCK + 1, fan_in=2), Need("b2a", 16, BLOCK + 5)]
    words, last = runs[-1]
    assert words is not None and [rec.cols for rec, _ in last] == [64]  # after a lone record


def test_run_manifests_cover_joined_and_split_draws():
    """Every run manifest has tables whose two draws lie back to back in
    the words, taken as one view of all rows (``_Record.span``), and tables
    whose first draw ends inside a word; widths 1 and 64 are always joined."""
    for needs in RUN_MANIFESTS.values():
        recs = [_record(need) for need in needs if need.kind == "bte"]
        assert {rec.span is None for rec in recs} == {True, False}
        assert all(rec.span is not None for rec in recs if rec.ring.width_bits in (1, 64))


@pytest.mark.parametrize("name", RUN_MANIFESTS)
def test_provision_in_runs_equals_per_record_generation(name):
    needs = RUN_MANIFESTS[name]
    ref, dealer = Dealer(np.random.default_rng(11)), Dealer(np.random.default_rng(11))
    expected = _per_record(ref, needs)
    store = MaterialStore()
    dealer.provision(store, needs)
    assert dealer.draw_count == ref.draw_count
    assert dealer.rng.bit_generator.state == ref.rng.bit_generator.state
    for need, want in zip(needs, expected):
        ring = RINGS[need.width]
        if need.kind == "bte":
            for got, table in zip(store.take_bte(need.fan_in, ring, need.batch), want):
                assert (got.party_id, got.fan_in, got.ring, got.batch) == (
                    table.party_id, table.fan_in, table.ring, table.batch)
                assert got.rows.dtype == table.rows.dtype
                assert np.array_equal(got.rows, table.rows)
        else:
            got = store.take_b2a(ring, need.batch)
            for field in ("a", "b", "c0", "c1"):
                assert getattr(got, field).dtype == getattr(want, field).dtype
                assert np.array_equal(getattr(got, field), getattr(want, field))
    assert store.is_empty()
    for ring in (BOOL, Z16):
        x = np.arange(70) % ring.modulus
        assert np.array_equal(dealer.share_input(x, ring).v, ref.share_input(x, ring).v)


def _held_bytes(arr: np.ndarray) -> int:
    """Bytes of the buffer that ``arr`` keeps alive: its own, or its
    outermost base's."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr.nbytes


def _material_bytes(needs: list[Need]) -> int:
    """Bytes of both parties' material: each table's ``table_layout``
    rows, and each B2A record's a, b, c0 and c1."""
    total = 0
    for need in needs:
        ring = RINGS[need.width]
        if need.kind == "bte":
            (rows, cols), word = table_layout(need.fan_in, ring, need.batch)
            total += 2 * rows * cols * np.dtype(word).itemsize
        else:
            total += 4 * need.batch * np.dtype(ring.dtype).itemsize
    return total


@pytest.mark.parametrize("name", RUN_MANIFESTS)
def test_provisioned_arrays_are_contiguous_and_their_own(name):
    store = MaterialStore()
    Dealer(np.random.default_rng(5)).provision(store, RUN_MANIFESTS[name])
    arrays = [t.rows for pool in store._bte.values() for pair in pool for t in pair]
    arrays += [getattr(mat, field) for pool in store._b2a.values() for mat in pool
               for field in ("a", "b", "c0", "c1")]
    assert len({id(arr) for arr in arrays}) == len(arrays)
    for arr in arrays:
        assert arr.flags.c_contiguous and arr.flags.writeable
        # Its own words, and at most the unused rest of its last draw's
        # last word: no other record's.
        assert _held_bytes(arr) < arr.nbytes + 8


# Allocations that stay with the store beside its arrays: the table, B2A,
# array and deque objects, under 1 KiB per record (about 660 B per record
# on the L=128 edit-distance manifest, 6 % of its material). A pinned run
# buffer would add the run's words, as much as 60 % more.
OBJECT_SLACK = 0.10


def test_provision_holds_only_its_material():
    needs = editdist.edit_distance_manifest(128, 1)
    dealer = Dealer(np.random.default_rng(3))
    tracemalloc.start()
    try:
        store = MaterialStore()
        before = tracemalloc.get_traced_memory()[0]
        dealer.provision(store, needs)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    material = _material_bytes(needs)
    assert material <= held <= material * (1 + OBJECT_SLACK)
