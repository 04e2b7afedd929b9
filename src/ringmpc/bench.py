"""Benchmark harness: one session per row, model-derived cost columns.

The bits/rounds/DTT/CL columns are asserted quantities — fully determined
by the protocol, batch, and WAN model. The two wall-clock columns
(pre-computation and online compute time) are informational, hardware-bound
measurements; they stay empty unless measurement is requested so that CSV
and JSON output is byte-identical across runs.
"""
from __future__ import annotations

import re
import time

import numpy as np

from .dealer import Need
from .editdist import (
    edit_distance,
    edit_distance_manifest,
    share_strings,
)
from .engine import CostModel, Session, derive_manifest
from .errors import DomainError
from .gates import and_n, mult_n, or_n
from . import protocols as P
from .ring import BOOL, RingSpec, const_pair

ROW_FIELDS = [
    "target",
    "name",
    "ring",
    "batch",
    "baseline",
    "precomp_ms",
    "online_compute_ms",
    "comm_bits",
    "dtt_ms",
    "rounds",
    "cl_ms",
    "online_total_ms",
]

_GATE_RE = re.compile(r"(\d+)-(and|or|mult)", re.IGNORECASE)


def _rand_inputs(sess: Session, rng, ring: RingSpec, batch: int, count: int,
                 high: int | None = None):
    limit = high if high is not None else ring.modulus
    return [
        sess.share_input(rng.integers(0, limit, size=batch, dtype=np.uint64), ring)
        for _ in range(count)
    ]


def _rand_bits(sess: Session, rng, batch: int, count: int):
    return _rand_inputs(sess, rng, BOOL, batch, count, high=2)


def _gate_setup(sess, rng, name, ring, batch):
    m = _GATE_RE.fullmatch(name)
    if not m:
        raise DomainError(f"unknown gate {name!r}; expected e.g. 2-AND, 3-MULT")
    fan = int(m.group(1))
    kind = m.group(2).lower()
    gate_ring = BOOL if kind in ("and", "or") else ring
    needs = [Need("bte", gate_ring.width_bits, batch, fan_in=fan)]
    fn = {"and": and_n, "or": or_n, "mult": mult_n}[kind]
    high = 2 if gate_ring.is_boolean else None

    def gen(store):
        inputs = _rand_inputs(sess, rng, gate_ring, batch, fan, high=high)
        return fn(inputs, *store.take_bte(fan, gate_ring, batch))

    return needs, gen


# ---------------------------------------------------------------------------
# Protocol registry: name -> (protocol, input builder, baseline protocol).
# A builder ``(sess, rng, ring, batch) -> args`` shares random inputs for
# ``protocol(store, *args)``.

def _values(count: int, half: bool = False):
    """Builder for ``count`` uniform ring values; below 2^(n-1) with
    ``half``, comparison's plaintext domain."""
    def build(sess, rng, ring, batch):
        high = ring.modulus // 2 if half else None
        return _rand_inputs(sess, rng, ring, batch, count, high=high)
    return build


def _listed(build):
    """The same inputs passed as one list, as the N-input protocols take them."""
    return lambda *spec: [build(*spec)]


def _msnzb_inputs(sess, rng, ring, batch):
    vals = rng.integers(0, ring.modulus, size=batch, dtype=np.uint64)
    return [[sess.share_input((vals >> np.uint64(j)) & np.uint64(1), BOOL)
             for j in range(ring.width_bits)]]


def _tlu_inputs(n_keys: int):
    def build(sess, rng, ring, batch):
        keys = rng.permutation(ring.modulus if ring.modulus < 2**20 else 2**20)[:n_keys]
        key_shares = [sess.share_input(np.full(batch, k, np.uint64), ring) for k in keys]
        val_shares = _rand_inputs(sess, rng, ring, batch, n_keys)
        idx = sess.share_input(np.full(batch, keys[0], np.uint64), ring)
        return [P.LookupTable(key_shares, val_shares), idx]
    return build


PROTOCOLS = {
    "equality": (P.equality, _values(2), P.baseline_equality),
    "comparison": (P.comparison, _values(2, half=True), P.baseline_comparison),
    "max3": (P.max3, _listed(_values(3, half=True)), P.baseline_max3),
    "min3": (P.min3, _listed(_values(3, half=True)), None),
    "argmax3": (P.argmax3, _listed(_values(3, half=True)), None),
    "argmin3": (P.argmin3, _listed(_values(3, half=True)), None),
    "overflow": (P.overflow_2r, lambda sess, rng, ring, batch: [
        *_rand_inputs(sess, rng, ring, batch, 1), ring.width_bits], None),
    "overflow1r": (P.overflow_1r, _values(1), None),
    "msnzb": (P.msnzb, _msnzb_inputs, None),
    "b2a": (P.b2a, lambda sess, rng, ring, batch: [
        *_rand_bits(sess, rng, batch, 1), ring], None),
    "bx2a": (P.bx2a, lambda sess, rng, ring, batch: [
        *_rand_bits(sess, rng, batch, 1), *_rand_inputs(sess, rng, ring, batch, 1)], None),
    "bc2a": (P.bc2a, lambda sess, rng, ring, batch: [
        *_rand_bits(sess, rng, batch, 2), ring], None),
    "bcx2a": (P.bcx2a, lambda sess, rng, ring, batch: [
        *_rand_bits(sess, rng, batch, 2), *_rand_inputs(sess, rng, ring, batch, 1)], None),
}


def _lookup(name: str, fanin_cap: int):
    if name in PROTOCOLS:
        return PROTOCOLS[name]
    if m := re.fullmatch(r"max(\d+)", name):
        xs = _values(int(m.group(1)), half=True)
        return P.maxn, lambda *spec: [xs(*spec), fanin_cap], None
    if m := re.fullmatch(r"tlu(\d+)", name):
        return P.tlu, _tlu_inputs(int(m.group(1))), None
    return None


class _ZeroSharer:
    """Stands in for the session when an input builder makes the batch-1
    inputs of a manifest's recording run: every share is zero, so no dealer
    randomness is drawn."""

    @staticmethod
    def share_input(x, ring: RingSpec):
        return const_pair(0, ring, np.size(x))


def _protocol_setup(sess, rng, name, ring, batch, baseline, fanin_cap):
    proto, build, base = _lookup(name, fanin_cap) or (None, None, None)
    if baseline:
        if base is None:
            raise DomainError(f"no baseline variant of {name}")
        proto = base
    if proto is None:
        raise DomainError(f"unknown protocol {name!r}")
    args = build(sess, rng, ring, batch)
    zeros = build(_ZeroSharer(), np.random.default_rng(0), ring, 1)
    return (derive_manifest(proto, *zeros, batch=batch),
            lambda store: proto(store, *args))


def run_bench(target: str, name: str = "", ring_width: int = 32, batch: int = 1,
              fanin_cap: int = 9, bandwidth_bits_per_ms: float = 80000.0,
              rtt_ms: float = 40.0, seed: int = 0, baseline: bool = False,
              length: int = 4, measure: bool = False) -> dict:
    """Execute one benchmark configuration and return its report row."""
    sess = Session(seed=seed, fanin_cap=fanin_cap)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB]))
    ring = RingSpec(ring_width)

    if target == "gate":
        needs, gen_factory = _gate_setup(sess, rng, name, ring, batch)
    elif target == "protocol":
        needs, gen_factory = _protocol_setup(
            sess, rng, name, ring, batch, baseline, fanin_cap
        )
    elif target == "editdist":
        if baseline:
            raise DomainError("no baseline variant of editdist")
        codes = rng.integers(0, 4, size=(2, batch, length), dtype=np.uint64)
        s = share_strings(codes[0], sess.dealer)
        t = share_strings(codes[1], sess.dealer)
        needs = edit_distance_manifest(length, batch)
        gen_factory = lambda store: edit_distance(store, s, t)
        name = name or f"L{length}"
        ring_width = 16  # the app is fixed to Z_2^16
    else:
        raise DomainError(f"unknown target {target!r}")

    t0 = time.perf_counter()
    sess.provision(needs)
    precomp_ms = (time.perf_counter() - t0) * 1000.0

    t0 = time.perf_counter()
    sess.run(gen_factory(sess.store))
    online_ms = (time.perf_counter() - t0) * 1000.0

    rep = sess.cost_report(CostModel(bandwidth_bits_per_ms, rtt_ms))
    return {
        "target": target,
        "name": name,
        "ring": ring_width,
        "batch": batch,
        "baseline": baseline,
        "precomp_ms": round(precomp_ms, 3) if measure else None,
        "online_compute_ms": round(online_ms, 3) if measure else None,
        "comm_bits": rep["bits_per_party"],
        "dtt_ms": rep["dtt_ms"],
        "rounds": rep["rounds"],
        "cl_ms": rep["cl_ms"],
        "online_total_ms": rep["online_total_ms"],
    }
