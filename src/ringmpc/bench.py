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

from .dealer import Need, check_fan_in
from .editdist import (
    MAX_LENGTH,
    RING,
    edit_distance,
    edit_distance_manifest,
    share_strings,
)
from .engine import CostModel, Session, derive_manifest
from .errors import DomainError
from .gates import DEFAULT_FANIN_CAP, and_n, bank, mult_n, or_n
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
        space = min(ring.modulus, 1 << 20)  # distinct keys are drawn below this
        if n_keys > space:
            raise DomainError(f"tlu{n_keys} needs {n_keys} distinct keys; over "
                              f"Z_2^{ring.width_bits} the builder draws at most {space}")
        keys = rng.permutation(space)[:n_keys]
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


def _gate(name: str, fanin_cap: int):
    """An ``N-AND``/``N-OR``/``N-MULT`` gate as a (protocol, input builder)
    entry: AND and OR run over bits, MULT over the row's ring. The fan-in
    is checked before a recording run would build its 2**N table."""
    m = _GATE_RE.fullmatch(name)
    if not m:
        raise DomainError(f"unknown gate {name!r}; expected e.g. 2-AND, 3-MULT")
    fan, kind = int(m.group(1)), m.group(2).lower()
    check_fan_in(fan, fanin_cap)
    op = {"and": and_n, "or": or_n, "mult": mult_n}[kind]

    def gate(store, inputs):
        (out,) = yield from bank(store, op, [inputs])
        return out

    def build(sess, rng, ring, batch):
        if kind == "mult":
            return [_rand_inputs(sess, rng, ring, batch, fan)]
        return [_rand_bits(sess, rng, batch, fan)]

    return gate, build


def _protocol(name: str, baseline: bool, fanin_cap: int):
    """The (protocol, input builder) entry of a registry name, maxN or tluN."""
    base = None
    if name in PROTOCOLS:
        proto, build, base = PROTOCOLS[name]
    elif m := re.fullmatch(r"max(\d+)", name):
        xs = _values(int(m.group(1)), half=True)
        proto, build = P.maxn, lambda *spec: [xs(*spec), fanin_cap]
    elif m := re.fullmatch(r"tlu(\d+)", name):
        n_keys = int(m.group(1))
        if n_keys < 1:
            raise DomainError(f"{name} has no keys; a lookup needs at least one")
        proto, build = P.tlu, _tlu_inputs(n_keys)
    elif not baseline:
        raise DomainError(f"unknown protocol {name!r}")
    if baseline:
        if base is None:
            raise DomainError(f"no baseline variant of {name}")
        proto = base
    return proto, build


class _ZeroSharer:
    """Stands in for the session when an input builder makes the batch-1
    inputs of a manifest's recording run: every share is zero, so no dealer
    randomness is drawn."""

    @staticmethod
    def share_input(x, ring: RingSpec):
        return const_pair(0, ring, np.size(x))


def manifest(protocol, build, ring: RingSpec, batch: int) -> list[Need]:
    """The material ``protocol`` takes at ``batch`` over ``ring``, need for
    need in take order. ``(protocol, build)`` is a registry pair, as
    ``_protocol`` and ``_gate`` return: ``build`` makes batch-1 zero inputs,
    and ``engine.derive_manifest`` records one run on them and scales it.
    A data-oblivious protocol takes the same material on any inputs."""
    zeros = build(_ZeroSharer(), np.random.default_rng(0), ring, 1)
    return derive_manifest(protocol, *zeros, batch=batch)


def run_bench(target: str, name: str = "", ring_width: int = 32, batch: int = 1,
              fanin_cap: int = DEFAULT_FANIN_CAP,
              bandwidth_bits_per_ms: float = CostModel.bandwidth_bits_per_ms,
              rtt_ms: float = CostModel.rtt_ms, seed: int = 0, baseline: bool = False,
              length: int = 4, measure: bool = False) -> dict:
    """Execute one benchmark configuration and return its report row. The
    keywords and defaults are ``ringmpc-bench``'s run options too."""
    if batch < 1:
        raise DomainError(f"batch {batch} must be at least 1")
    if seed < 0:
        raise DomainError(f"seed {seed} must be non-negative")
    check_fan_in(fanin_cap)  # the cap is itself a fan-in the dealer must meet
    model = CostModel(bandwidth_bits_per_ms, rtt_ms)
    sess = Session(seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB]))
    ring = RingSpec(ring_width)

    # Inputs are shared before provisioning, outside both timers. Edit
    # distance's material is not linear in L, so its manifest is composed.
    if target == "editdist":
        if baseline:
            raise DomainError("no baseline variant of editdist")
        if not 1 <= length <= MAX_LENGTH:
            raise DomainError(f"length {length} outside [1, {MAX_LENGTH}]")
        codes = rng.integers(0, 4, size=(2, batch, length), dtype=np.uint64)
        proto = edit_distance
        args = [share_strings(c, sess.dealer) for c in codes]
        needs = edit_distance_manifest(length, batch)
        name = name or f"L{length}"
        ring_width = RING.width_bits  # the app's one ring
    else:
        if target == "gate":
            if baseline:
                raise DomainError(f"no baseline variant of {name}")
            proto, build = _gate(name, fanin_cap)
        elif target == "protocol":
            proto, build = _protocol(name, baseline, fanin_cap)
        else:
            raise DomainError(f"unknown target {target!r}")
        args = build(sess, rng, ring, batch)
        needs = manifest(proto, build, ring, batch)

    t0 = time.perf_counter()
    sess.provision(needs)
    precomp_ms = (time.perf_counter() - t0) * 1000.0

    t0 = time.perf_counter()
    sess.run(proto(sess.store, *args))
    online_ms = (time.perf_counter() - t0) * 1000.0

    rep = sess.cost_report(model)
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
