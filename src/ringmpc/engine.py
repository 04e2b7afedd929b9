"""Round-synchronous two-party execution fabric.

Protocols are generator coroutines. Each ``yield`` hands the fabric one
round: a list of ExchangeItem, where item ``k`` carries what party 0 sends
and what party 1 sends (simultaneous full-duplex exchange). The fabric
advances the round counter by exactly one per non-empty yield, charges each
party's outbound-bit ledger, appends the payloads to the transcript, and
resumes the generator with the raw ``(p0, p1)`` payload pairs — so each
party can either open the sum or use the counterpart's raw masked value.

``parallel`` merges several sub-protocol generators so their rounds
coalesce: total rounds = max over the branches, never the sum.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .dealer import DEFAULT_FANIN_CAP, Dealer, MaterialStore, Need, RecordingStore
from .errors import MaterialError, ProtocolDesyncError, ShapeError
from .ring import RingSpec, SUPPORTED_WIDTHS, _DTYPES


@dataclass
class ExchangeItem:
    """One message pair inside a round: party 0 sends ``p0`` and party 1
    sends ``p1``, both vectors of ``width``-bit ring elements."""

    p0: np.ndarray
    p1: np.ndarray
    width: int

    def __post_init__(self):
        if self.width not in SUPPORTED_WIDTHS:
            raise ShapeError(f"unsupported payload width {self.width}")
        self.p0 = np.atleast_1d(np.asarray(self.p0, dtype=_DTYPES[self.width]))
        self.p1 = np.atleast_1d(np.asarray(self.p1, dtype=_DTYPES[self.width]))
        if self.p0.shape != self.p1.shape:
            raise ProtocolDesyncError(
                "parties disagree on payload length at a round barrier"
            )

    @property
    def bits(self) -> int:
        return len(self.p0) * self.width


@dataclass(frozen=True)
class CostModel:
    """WAN model: DTT = bits / bandwidth, CL = rounds * rtt."""

    bandwidth_bits_per_ms: float = 80000.0
    rtt_ms: float = 40.0


class Transcript:
    """Ordered record of every round's payloads (both directions)."""

    def __init__(self):
        self.rounds: list[list[ExchangeItem]] = []

    def append(self, items: list[ExchangeItem]):
        self.rounds.append(
            [ExchangeItem(i.p0.copy(), i.p1.copy(), i.width) for i in items]
        )

    def to_bytes(self) -> bytes:
        """Canonical serialization: per round, per item, per party —
        (round, party, payload length, payload) with little-endian payloads."""
        out = [struct.pack("<I", len(self.rounds))]
        for r, items in enumerate(self.rounds):
            out.append(struct.pack("<II", r, len(items)))
            for item in items:
                dt = np.dtype(_DTYPES[item.width]).newbyteorder("<")
                for party, arr in ((0, item.p0), (1, item.p1)):
                    payload = np.ascontiguousarray(arr).astype(dt).tobytes()
                    out.append(
                        struct.pack("<BBI", party, item.width, len(payload))
                    )
                    out.append(payload)
        return b"".join(out)


class Session:
    """Paired party engines plus the dealer, material store, and ledgers."""

    def __init__(self, seed: int = 0, fanin_cap: int = DEFAULT_FANIN_CAP):
        ss = np.random.SeedSequence(seed)
        k_dealer, k_p0, k_p1 = ss.spawn(3)
        self.dealer = Dealer(np.random.default_rng(k_dealer), fanin_cap=fanin_cap)
        self.party_rngs = (np.random.default_rng(k_p0), np.random.default_rng(k_p1))
        self.store = MaterialStore()
        self.rounds = 0
        self.bits = [0, 0]  # outbound bits per party
        self.transcript = Transcript()
        self.online_started = False
        self.failed = False

    # -- offline phase ------------------------------------------------------

    def provision(self, needs: list[Need]):
        if self.online_started:
            raise MaterialError("cannot provision material after the online phase began")
        self.dealer.provision(self.store, needs)

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
        runs, while its ledgers and transcript stay readable."""
        if self.failed:
            raise MaterialError("session failed in an earlier run; start a new one")
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

    def parallel_scope(self, gens):
        """Run several protocol generators with their rounds coalesced."""
        return self.run(parallel(gens))

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
    current: dict[int, list] = {}
    pending: dict[int, object] = {}
    for idx, gen in enumerate(gens):
        try:
            current[idx] = gen.send(None)
            pending[idx] = gen
        except StopIteration as stop:
            results[idx] = stop.value
    while pending:
        merged: list[ExchangeItem] = []
        spans: dict[int, tuple[int, int]] = {}
        for idx in sorted(pending):
            items = current[idx]
            spans[idx] = (len(merged), len(merged) + len(items))
            merged.extend(items)
        responses = yield merged
        for idx in sorted(pending):
            lo, hi = spans[idx]
            try:
                current[idx] = pending[idx].send(responses[lo:hi])
            except StopIteration as stop:
                results[idx] = stop.value
                del pending[idx]
    return results
