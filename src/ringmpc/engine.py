"""Round-synchronous two-party execution fabric.

Protocols are generator coroutines. Each ``yield`` hands the fabric one
round: a list of ExchangeItem, where item ``k`` carries what party 0 sends
and what party 1 sends (simultaneous full-duplex exchange). The fabric
advances the round counter by exactly one per non-empty yield, charges each
party's outbound-bit ledger, appends the payloads to the transcript, and
resumes the generator with the raw ``(p0, p1)`` payload pairs — so each
party can either open the sum or use the counterpart's raw masked value.
Ledgers count logical bits, ``count * width`` per item and party.

The transcript records the items the protocol yielded, not copies: each
payload array is made read-only in place, so a recorded payload never
changes and a protocol that writes to one raises. Only a payload that is
a view of another array is replaced by a read-only copy.

Boolean payloads travel packed, 64 lanes per uint64 word in
``ring.pack_lanes`` layout, from the gate that masks them through the
transcript to the gate that opens them. Only ``Transcript.to_bytes``
unpacks them: its canonical bytes hold one element per payload entry at
every width, one byte per bit at width 1.

``parallel`` merges several sub-protocol generators so their rounds
coalesce: total rounds = max over the branches, never the sum.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .dealer import Dealer, MaterialStore, Need, RecordingStore
from .errors import DomainError, MaterialError, ProtocolDesyncError, ShapeError
from .ring import RINGS, RingSpec, from_layout


@dataclass
class ExchangeItem:
    """One message pair inside a round: party 0 sends ``p0`` and party 1
    sends ``p1``, each ``count`` elements of ``width`` bits.

    A payload is one row of the width's share layout (``RingSpec``): a
    1-D array of ``cols(count)`` values of its ``word`` dtype, kept as
    given and never converted. Above width 1 that is ``count`` ring
    elements; at width 1 it is ``ceil(count/64)`` uint64 words in
    ``ring.pack_lanes`` layout, padding lanes zero. The item charges
    ``count * width`` bits, and ``Transcript.to_bytes`` writes ``count``
    elements per party, one byte per bit at width 1. Once the fabric
    records a round, its payloads are read-only."""

    p0: np.ndarray
    p1: np.ndarray
    width: int
    count: int

    def __post_init__(self):
        ring = RINGS.get(self.width)
        if ring is None:
            raise ShapeError(f"unsupported payload width {self.width}")
        p0, p1 = self.p0, self.p1
        shape = (ring.cols(self.count),)
        if not (isinstance(p0, np.ndarray) and isinstance(p1, np.ndarray)
                and p0.shape == shape == p1.shape and p0.dtype == ring.word == p1.dtype):
            if np.shape(p0) != np.shape(p1):
                raise ProtocolDesyncError(
                    "parties disagree on payload length at a round barrier"
                )
            raise ShapeError(f"a payload of {self.count} {self.width}-bit elements is "
                             f"{shape[0]} {np.dtype(ring.word)} values, got "
                             f"{np.shape(p0)} {np.asarray(p0).dtype}")

    @property
    def bits(self) -> int:
        return self.count * self.width


@dataclass(frozen=True)
class CostModel:
    """WAN model: DTT = bits / bandwidth, CL = rounds * rtt. The bandwidth
    is finite and positive, the round-trip time finite and non-negative."""

    bandwidth_bits_per_ms: float = 80000.0
    rtt_ms: float = 40.0

    def __post_init__(self):
        if not 0 < self.bandwidth_bits_per_ms < math.inf:  # NaN fails too
            raise DomainError(f"bandwidth {self.bandwidth_bits_per_ms} bits/ms must be "
                              "finite and positive")
        if not 0 <= self.rtt_ms < math.inf:
            raise DomainError(f"rtt {self.rtt_ms} ms must be finite and non-negative")


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself made read-only, or a read-only copy if it is a view."""
    if arr.base is not None:
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


class Transcript:
    """Ordered record of every round's items (both directions), as the
    protocol yielded them, with read-only payloads."""

    def __init__(self):
        self.rounds: list[list[ExchangeItem]] = []

    def append(self, items: list[ExchangeItem]):
        """Record the round's list of items itself, each payload replaced by
        ``_frozen(payload)``, so a later write to a recorded array raises
        instead of leaving the record behind."""
        for item in items:
            item.p0, item.p1 = _frozen(item.p0), _frozen(item.p1)
        self.rounds.append(items)

    def to_bytes(self) -> bytes:
        """Canonical serialization: per round, per item, per party —
        (round, party, payload length, payload) with little-endian payloads
        of one element each, so a packed width-1 payload is unpacked to one
        byte per bit."""
        out = [struct.pack("<I", len(self.rounds))]
        for r, items in enumerate(self.rounds):
            out.append(struct.pack("<II", r, len(items)))
            for item in items:
                ring = RINGS[item.width]
                dt = np.dtype(ring.dtype).newbyteorder("<")
                for party, arr in ((0, item.p0), (1, item.p1)):
                    payload = from_layout(ring, arr, item.count).astype(dt).tobytes()
                    out.append(
                        struct.pack("<BBI", party, item.width, len(payload))
                    )
                    out.append(payload)
        return b"".join(out)


class Session:
    """Paired party engines plus the dealer, material store, and ledgers."""

    def __init__(self, seed: int = 0):
        ss = np.random.SeedSequence(seed)
        (k_dealer,) = ss.spawn(1)
        self.dealer = Dealer(np.random.default_rng(k_dealer))
        self.store = MaterialStore()
        self.rounds = 0
        self.bits = [0, 0]  # outbound bits per party
        self.transcript = Transcript()
        self.online_started = False
        self.failed = False

    # -- offline phase ------------------------------------------------------

    def provision(self, needs: list[Need]):
        """Provision ``needs`` into the store. A manifest the dealer refuses
        raises before any draw and leaves the session as it was. A failure
        once the dealer has drawn, such as a failed allocation, may leave
        part of the manifest in the store: the session is then marked
        failed and refuses further provisions and runs."""
        self._refuse_if_failed()
        if self.online_started:
            raise MaterialError("cannot provision material after the online phase began")
        drawn = self.dealer.draw_count
        try:
            self.dealer.provision(self.store, needs)
        except BaseException:
            self.failed = self.dealer.draw_count != drawn
            raise

    def _refuse_if_failed(self):
        if self.failed:
            raise MaterialError("session failed in an earlier provision or run; "
                                "start a new one")

    def share_input(self, x, ring: RingSpec):
        return self.dealer.share_input(x, ring)

    # -- online phase -------------------------------------------------------

    def _exchange(self, items: list[ExchangeItem]) -> list[tuple[np.ndarray, np.ndarray]]:
        if not items:
            return []
        self.rounds += 1
        for item in items:
            self.bits[0] += item.bits
            self.bits[1] += item.bits
        self.transcript.append(items)
        return [(item.p0, item.p1) for item in items]

    def run(self, gen):
        """Drive a protocol generator to completion, return its result.

        A protocol that raises leaves material half-consumed and the ledgers
        partly charged: the session is marked failed and refuses further
        provisions and runs, while its ledgers and transcript stay readable."""
        self._refuse_if_failed()
        self.online_started = True
        try:
            items = gen.send(None)
            while True:
                items = gen.send(self._exchange(items))
        except StopIteration as stop:
            return stop.value
        except BaseException:
            self.failed = True
            raise

    # -- accounting ---------------------------------------------------------

    def cost_report(self, model: CostModel = CostModel()) -> dict:
        dtt = max(self.bits) / model.bandwidth_bits_per_ms
        cl = self.rounds * model.rtt_ms
        return {
            "rounds": self.rounds,
            "bits_per_party": max(self.bits),
            "dtt_ms": dtt,
            "cl_ms": cl,
            "online_total_ms": dtt + cl,
        }


def derive_manifest(protocol, *args, batch: int = 1) -> list[Need]:
    """The material manifest of ``protocol(store, *args)`` at ``batch``.

    Protocols are data-oblivious and take material linear in their batch,
    so ``args`` are batch-1 zero sharings: one recording run on a throwaway
    session lists every take in order, and each is scaled by ``batch``.
    """
    store = RecordingStore()
    Session().run(protocol(store, *args))
    return [need.scaled(batch) for need in store.needs]


def parallel(gens):
    """Merge generators round-by-round; returns their results in order.

    Every active branch contributes its items to one shared round; branches
    that finish early simply stop contributing, so the merged round count is
    the maximum branch depth.
    """
    gens = list(gens)
    results = [None] * len(gens)
    live: dict[int, list[ExchangeItem]] = {}  # branch -> its items this round, in branch order
    for idx, gen in enumerate(gens):
        try:
            live[idx] = gen.send(None)
        except StopIteration as stop:
            results[idx] = stop.value
    while live:
        responses = yield [item for items in live.values() for item in items]
        lo = 0
        for idx, items in list(live.items()):
            hi = lo + len(items)
            try:
                live[idx] = gens[idx].send(responses[lo:hi])
            except StopIteration as stop:
                results[idx] = stop.value
                del live[idx]
            lo = hi
    return results
