"""Single-round N-fan-in MULT/AND/OR gates driven by Beaver triple extension.

Every gate is a protocol generator (see engine): it yields exactly one
round carrying the N masked inputs (N * width bits per party) and finishes
locally. Over the boolean ring multiplication *is* AND and addition *is*
XOR, so one protocol serves both share types, on packed words at width 1.
``bank`` runs the gates of one round, a gate of one input as a free wire,
and decides how they share material; it is the only code that takes BTE
tables from a store. ``fanin_schedule`` writes layered plans and
``reduce_layers`` runs them, one ``bank`` round per layer.

Shares, tables and payloads share one layout per ring, which the ring
owns (``RingSpec.word``, ``lanes`` and ``cols``: the ring's dtype, or
packed uint64 words, 64 lanes each, at width 1) with its ops over it
(``RingSpec.mul``, ``add``, ``sub`` and ``one``). So one gate body masks,
opens and folds at every width, and nothing is packed or unpacked on the
way. A table wider than ``_FOLD_COLS`` columns is folded one column
block at a time, both parties' rows of a block in turn, so each block
stays in cache through all N levels; a narrower one is folded whole.
"""
from __future__ import annotations

from itertools import accumulate

import numpy as np

from .dealer import BteTable, table_layout
from .engine import ExchangeItem, parallel
from .errors import DomainError, ShapeError
from .ring import SharePair, concat_each, cut_each, not_

# The fold takes a table in blocks of this many layout columns (32 KiB per
# row at Z_2^64), so all N levels of a block run while its rows are in
# cache. Blocks of 2048 columns or fewer ran slower than one pass over the
# whole table, at Z_2^16 and at width 1 as at Z_2^64, so this is a least
# block width in columns, not a cache budget.
_FOLD_COLS = 4096

# The widest gate of a layered plan (``fanin_schedule``) unless a caller
# sets another cap; the dealer makes tables up to ``dealer.MAX_FANIN``.
DEFAULT_FANIN_CAP = 9


def _validate(inputs, t0: BteTable, t1: BteTable):
    n = len(inputs)
    if n < 2:
        raise ShapeError("a gate needs at least two inputs")
    if t0.fan_in != n or t1.fan_in != n:
        raise ShapeError(f"table fan-in {t0.fan_in} does not match {n} inputs")
    ring = inputs[0].ring
    batch = inputs[0].batch
    for pair in inputs:
        if pair.ring != ring:
            raise ShapeError("ring mismatch among gate inputs")
        if pair.batch != batch:
            raise ShapeError("batch mismatch among gate inputs")
    if t0.ring != ring:
        raise ShapeError("table ring does not match inputs")
    if t0.batch != batch:
        raise ShapeError("table batch does not match inputs")
    shape, dtype = table_layout(n, ring, batch)
    for t in (t0, t1):
        if t.rows.shape != shape or t.rows.dtype != dtype:
            raise ShapeError(f"table rows {t.rows.shape} {t.rows.dtype}, "
                             f"expected {shape} {np.dtype(dtype)}")
    return ring, batch, n


def mult_n(inputs: list[SharePair], t0: BteTable, t1: BteTable):
    """N-fan-in multiplication. One round, N * width bits per party.

    Party k sends x'_l = <x_l>_k - <a_{l}>_k for each input slot l; both
    parties open x'_l. Since x_l = x'_l + a_l, the product is the sum over
    subsets I of a_I times the opened values outside I, with a_{} = 1 held
    by party 0 alone. Each party folds that sum out of its own table into
    its row of the output. Every step is the ring's own op over the share
    layout, so the body serves every width.
    """
    ring, batch, n = _validate(inputs, t0, t1)
    t0.consume()
    t1.consume()
    responses = yield [
        ExchangeItem(ring.sub(pair.v[0], t0.rows[(1 << l) - 1]),
                     ring.sub(pair.v[1], t1.rows[(1 << l) - 1]), ring.width_bits, batch)
        for l, pair in enumerate(inputs)
    ]
    opened = [ring.add(p0, p1) for p0, p1 in responses]
    out = np.empty_like(inputs[0].v)
    out[0] = ring.one
    out[1] = 0
    _fold_blocks((t0.rows, t1.rows), opened, out, ring.mul, ring.add)
    return SharePair(ring, out, batch)  # at width 1 the first fold cleared the padding


def _fold_blocks(tables, opened, out: np.ndarray, mul, add):
    """Fold both parties' ``tables`` into their rows of ``out`` one block of
    ``_FOLD_COLS`` columns at a time, party 0 then party 1, so a block's
    rows are still in cache for every level and both parties read the same
    opened slices. A table no wider than one block is folded whole,
    unsliced; the blocks of a wider one are views, folded in place.
    """
    cols = out.shape[1]
    if cols > _FOLD_COLS:
        for lo in range(0, cols, _FOLD_COLS):
            block = slice(lo, lo + _FOLD_COLS)
            _fold_blocks([rows[:, block] for rows in tables], [x[block] for x in opened],
                         out[:, block], mul, add)
        return
    for party, rows in enumerate(tables):
        _fold(rows, opened, out[party], mul, add)


def _fold(rows: np.ndarray, opened, head: np.ndarray, mul, add):
    """Fold one opened slot at a time, top slot first: a fast Mobius/Yates
    transform in O(N) numpy calls per column block (``_fold_blocks``), in
    place over ``rows`` and ``head``.

    ``mul`` and ``add`` are the ring's ops (``RingSpec.mul``,
    ``RingSpec.add``) over the layout that ``rows``, the opened slots and
    ``head`` share. ``head`` starts as this party's share of a_{}. Once
    the slots above l are folded, entry m < 2h (h = 2^l; row m - 1, or
    ``head`` for m = 0) is the subset sum over those slots with the slots
    up to l fixed to m. Folding slot l multiplies each entry without l by
    x'_l and adds its partner with l; after slot 0, ``head`` is the output
    share.
    """
    for l in reversed(range(len(opened))):
        h = 1 << l
        x = opened[l]
        mul(head, x, out=head)
        add(head, rows[h - 1], out=head)
        low = rows[:h - 1]
        mul(low, x, out=low)
        add(low, rows[h:2 * h - 1], out=low)


def and_n(inputs: list[SharePair], t0: BteTable, t1: BteTable):
    """N-fan-in AND: boolean multiplication."""
    if not inputs[0].ring.is_boolean:
        raise DomainError("and_n needs boolean shares")
    result = yield from mult_n(inputs, t0, t1)
    return result


def or_n(inputs: list[SharePair], t0: BteTable, t1: BteTable):
    """N-fan-in OR: De Morgan around the AND gate."""
    if not inputs[0].ring.is_boolean:
        raise DomainError("or_n needs boolean shares")
    result = yield from mult_n([not_(pair) for pair in inputs], t0, t1)
    return not_(result)


def bank(store, op, gates: list[list[SharePair]]):
    """Run ``gates`` of ``op`` (``and_n``, ``or_n`` or ``mult_n``) in one
    round; returns one output pair per gate, in gate order.

    Each gate is a list of input pairs and may have any batch; a gate of
    one input is a wire, whose output is that pair itself, with no table
    and no message. Gates of equal fan-in are stacked in gate order into
    one table of their summed batch, taken in ascending fan-in order; a
    group of one gate is neither stacked nor sliced. All groups are
    stacked by one ``concat_each`` and cut back at their gates' batches
    by one ``cut_each``. Wires alone, or no gates, cost no round.
    """
    groups: dict[int, list[int]] = {}
    for i, gate in enumerate(gates):
        groups.setdefault(len(gate), []).append(i)
    groups.pop(1, None)
    groups = dict(sorted(groups.items()))
    stacked = iter(concat_each([
        [gates[i][slot] for i in idxs]
        for fan, idxs in groups.items() if len(idxs) > 1 for slot in range(fan)
    ]))
    gens = []
    for fan, idxs in groups.items():
        inputs = gates[idxs[0]] if len(idxs) == 1 else [next(stacked) for _ in range(fan)]
        gens.append(op(inputs, *store.take_bte(fan, inputs[0].ring, inputs[0].batch)))
    results = yield from parallel(gens)

    out = [gate[0] if len(gate) == 1 else None for gate in gates]
    cut = []
    for idxs, res in zip(groups.values(), results):
        if len(idxs) == 1:
            out[idxs[0]] = res
        else:
            cut.append((idxs, res))
    sizes = [[gates[i][0].batch for i in idxs] for idxs, _ in cut]
    for (idxs, _), parts in zip(cut, cut_each([res for _, res in cut], sizes)):
        for i, part in zip(idxs, parts):
            out[i] = part
    return out


def fanin_schedule(total_inputs: int, max_fanin: int) -> list[list[int]]:
    """Layered reduction plan for an AND/MULT of ``total_inputs`` wires
    using gates of fan-in at most ``max_fanin``, packed widest-first.

    Each layer is a list of fan-ins, run by ``reduce_layers``; an entry
    of 1 is a pass-through wire (no gate, no communication).
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


def reduce_layers(store, op, pairs: list[SharePair], layers: list[list[int]]):
    """A layered tree of ``op`` gates over ``pairs``, one ``bank`` round per
    layer, each a list of fan-ins (``fanin_schedule``) that cuts the current
    list in order, 1 for a wire. Returns the last layer's outputs."""
    for layer in layers:
        ends = list(accumulate(layer, initial=0))
        pairs = yield from bank(store, op, [pairs[lo:hi] for lo, hi in zip(ends, ends[1:])])
    return pairs
