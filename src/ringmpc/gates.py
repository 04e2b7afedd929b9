"""Single-round N-fan-in MULT/AND/OR gates driven by Beaver triple extension.

Every gate is a protocol generator (see engine): it yields exactly one
round carrying the N masked inputs (N * width bits per party) and finishes
locally. Over the boolean ring multiplication *is* AND and addition *is*
XOR, so one code path serves both share types. ``bank`` runs many gates in
one round and decides how they share material.

Subset products and sums run in the ring's own dtype, which wraps natively.
Width 1 accumulates in uint8, which is exact: 2^8 is even, so parity survives
the wrap even for fan-in 9's 511 terms, and ``Share`` keeps the low bit.
"""
from __future__ import annotations

import numpy as np

from .dealer import BteTable
from .engine import ExchangeItem, parallel
from .errors import DomainError, ShapeError
from .ring import Share, SharePair, concat_pairs, not_, slice_pair


def _validate(inputs, t0: BteTable, t1: BteTable):
    n = len(inputs)
    if n < 2:
        raise ShapeError("a gate needs at least two inputs")
    if t0.fan_in != n or t1.fan_in != n:
        raise ShapeError(f"table fan-in {t0.fan_in} does not match {n} inputs")
    ring = inputs[0][0].ring
    batch = len(inputs[0][0])
    for pair in inputs:
        if pair[0].ring != ring:
            raise ShapeError("ring mismatch among gate inputs")
        if len(pair[0]) != batch:
            raise ShapeError("batch mismatch among gate inputs")
    if t0.ring != ring:
        raise ShapeError("table ring does not match inputs")
    if t0.batch != batch:
        raise ShapeError("table batch does not match inputs")
    return ring, batch, n


def mult_n(inputs: list[SharePair], t0: BteTable, t1: BteTable):
    """N-fan-in multiplication. One round, N * width bits per party.

    Party k sends x'_l = <x_l>_k - <a_{l}>_k for each input slot l; both
    parties open x'_l and evaluate their subset sum. Only party 0 adds the
    leading product of all opened values.
    """
    ring, batch, n = _validate(inputs, t0, t1)
    t0.consume()
    t1.consume()
    items = [
        ExchangeItem(
            ring.wrap(inputs[l][0].values - t0.entries[1 << l]),
            ring.wrap(inputs[l][1].values - t1.entries[1 << l]),
            ring.width_bits,
        )
        for l in range(n)
    ]
    responses = yield items
    opened = [ring.wrap(p0 + p1) for p0, p1 in responses]

    # Partial products of the opened masks for every subset, built by
    # peeling the lowest set bit; q[mask] = prod_{l in mask} x'_l.
    full = (1 << n) - 1
    q = [None] * (full + 1)
    q[0] = np.ones(batch, dtype=ring.dtype)
    for mask in range(1, full + 1):
        low = mask & -mask
        q[mask] = q[mask ^ low] * opened[low.bit_length() - 1]
    z0 = q[full].copy()
    z1 = np.zeros(batch, dtype=ring.dtype)
    for mask in range(1, full + 1):
        outside = q[full ^ mask]
        z0 += outside * t0.entries[mask]
        z1 += outside * t1.entries[mask]
    return Share(0, ring, z0), Share(1, ring, z1)


def and_n(inputs: list[SharePair], t0: BteTable, t1: BteTable):
    """N-fan-in AND: boolean multiplication."""
    if not inputs[0][0].ring.is_boolean:
        raise DomainError("and_n needs boolean shares")
    result = yield from mult_n(inputs, t0, t1)
    return result


def or_n(inputs: list[SharePair], t0: BteTable, t1: BteTable):
    """N-fan-in OR: De Morgan around the AND gate."""
    if not inputs[0][0].ring.is_boolean:
        raise DomainError("or_n needs boolean shares")
    result = yield from mult_n([not_(pair) for pair in inputs], t0, t1)
    return not_(result)


def bank(store, op, gates: list[list[SharePair]]):
    """Run ``gates`` of ``op`` (``and_n``, ``or_n`` or ``mult_n``) in one
    round; returns one output pair per gate, in gate order.

    Each gate is a list of input pairs and may have any batch. Gates of
    equal fan-in are stacked in gate order into one table of their summed
    batch, and the tables are taken in ascending fan-in order; a group of
    one gate is neither stacked nor sliced. No gates cost no round.
    """
    groups: dict[int, list[int]] = {}
    for i, gate in enumerate(gates):
        groups.setdefault(len(gate), []).append(i)
    groups = dict(sorted(groups.items()))
    gens = []
    for fan, idxs in groups.items():
        inputs = gates[idxs[0]] if len(idxs) == 1 else [
            concat_pairs([gates[i][slot] for i in idxs]) for slot in range(fan)
        ]
        gens.append(op(inputs, *store.take_bte(fan, inputs[0][0].ring, len(inputs[0][0]))))
    results = yield from parallel(gens)

    out = [None] * len(gates)
    for idxs, res in zip(groups.values(), results):
        if len(idxs) == 1:
            out[idxs[0]] = res
            continue
        lo = 0
        for i in idxs:
            hi = lo + len(gates[i][0][0])
            out[i] = slice_pair(res, lo, hi)
            lo = hi
    return out


def fanin_schedule(total_inputs: int, max_fanin: int) -> list[list[int]]:
    """Layered reduction plan for an AND/MULT of ``total_inputs`` wires
    using gates of fan-in at most ``max_fanin``, packed widest-first.

    Each layer is a list of fan-ins; an entry of 1 is a pass-through wire
    (no gate, no communication).
    """
    if total_inputs < 2:
        raise ShapeError("need at least two inputs to schedule")
    if max_fanin < 2:
        raise DomainError("max fan-in must be at least 2")
    layers = []
    width = total_inputs
    while width > 1:
        full, rem = divmod(width, max_fanin)
        fans = [max_fanin] * full
        if rem:
            fans.append(rem)
        layers.append(fans)
        width = len(fans)
    return layers


def schedule_rounds(layers: list[list[int]]) -> int:
    return sum(1 for layer in layers if any(f >= 2 for f in layer))


def schedule_gate_bits(layers: list[list[int]], width_bits: int, batch: int = 1) -> int:
    """Per-party online bits of the layered plan: each gate costs
    fan-in * width per element."""
    return sum(f * width_bits * batch for layer in layers for f in layer if f >= 2)
