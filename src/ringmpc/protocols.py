"""Round-efficient protocol suite built on multi-fan-in gates.

Every protocol is a generator coroutine over the engine fabric and comes
with a ``*_manifest`` companion listing exactly the correlated randomness
it consumes, so a dealer can pre-provision the store and a test can assert
the store drains to empty. The generator is the only source of truth: each
manifest is read off a batch-1 run on zero inputs against a recording store
(``engine.derive_manifest``) and scaled to the real batch.

Width-specific gate plans are data, not code. The 16-bit plans follow the
block layouts spelled out for that width; the 32/64-bit plans use wider
blocks (fan-in at most 7 and 9 respectively) chosen so that both the round
counts and the per-party bit counts of the reference cost tables are
reproduced exactly.

Every gate round runs through ``gates.bank``, the one caller of
``take_bte``: gates of equal fan-in share one stacked table, taken in
ascending fan-in order, and a gate of one input is a wire, so each round
passes ``bank`` its whole layer. ``gates.reduce_layers`` runs every gate
tree from a plan this module supplies: equality's OR layers
(``EQ_PLANS``), the baseline's 2-OR tree and N-Max's AND layers
(``gates.fanin_schedule``). One selector construction
(``_selector_terms``) gives 3-Max/3-Min, Argmax/Argmin and N-Max their
selector terms from one comparison over every pair of values. MSNZB and
the two-round overflow share one block scan (``_block_scan``): suffix ORs
inside each block, then one AND per block with the emptiness of every
higher block.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .dealer import MaterialStore, Need
from .engine import ExchangeItem, derive_manifest
from .errors import CapabilityError, DomainError, ShapeError
from .gates import DEFAULT_FANIN_CAP, and_n, bank, fanin_schedule, mult_n, or_n, reduce_layers
from .ring import (
    BOOL,
    RingSpec,
    SharePair,
    add,
    bit_decompose_local,
    bit_plane,
    bits_of,
    concat_each,
    concat_pairs,
    const_mult,
    const_pair,
    cut_each,
    fold_segments,
    not_,
    pack_lanes,
    slice_pair,
    split_pair,
    sub,
    sub_mirror,
    trivial,
    unpack_lanes,
    xor,
)

# First-layer OR block widths for the equality check, low bits first; the
# second layer is a single OR across the block outputs.
EQ_PLANS = {
    8: [3, 3, 2],
    16: [4, 4, 4, 4],
    32: [6, 6, 6, 6, 4, 4],
    64: [8, 8, 8, 8, 8, 8, 8, 8],
}

# Overflow block widths, most significant block first. Block i (from the
# top) pays an AND of fan-in 2 + i in the second round, so the bottom block
# of the 64-bit plan peaks at fan-in 9.
OVF_BLOCKS = {
    8: [4, 4],
    16: [4, 4, 4, 4],
    32: [6, 6, 5, 5, 5, 5],
    64: [8, 8, 8, 8, 8, 8, 8, 8],
}

# High/low splits (n1, n2) for the one-round overflow variant. Wider rings
# would need 2**n2 - 1 parallel gates per bank, which is impractical.
OVF1R_SPLITS = {8: (4, 4), 16: (8, 8)}

MAXN_CAP = 8


def _zeros(ring: RingSpec, count: int) -> list[SharePair]:
    """Batch-1 zero sharings: the inputs of a manifest's recording run."""
    return [const_pair(0, ring, 1) for _ in range(count)]


def _check_arith(pair: SharePair):
    if pair.ring.is_boolean:
        raise DomainError("protocol needs arithmetic shares")


def _plane(pair: SharePair, j: int) -> SharePair:
    """Boolean share plane j of an arithmetic pair (each party's own bit)."""
    return SharePair(BOOL, bit_plane(pair.v, j), pair.batch)


# ---------------------------------------------------------------------------
# Equality

def equality(store: MaterialStore, x: SharePair, y: SharePair):
    """z = 1 iff x == y. Two rounds; n + (#blocks) bits per party."""
    _check_arith(x)
    plan = EQ_PLANS[x.ring.width_bits]
    planes = bit_decompose_local(sub_mirror(x, y))  # equal shares iff x == y
    (top,) = yield from reduce_layers(store, or_n, planes, [plan, [len(plan)]])
    return not_(top)


def equality_manifest(ring: RingSpec, batch: int) -> list[Need]:
    return derive_manifest(equality, *_zeros(ring, 2), batch=batch)


def baseline_equality(store: MaterialStore, x: SharePair, y: SharePair):
    """Two-fan-in-only equality: a 2-OR tree over the difference bits."""
    _check_arith(x)
    planes = bit_decompose_local(sub_mirror(x, y))
    (top,) = yield from reduce_layers(store, or_n, planes, fanin_schedule(len(planes), 2))
    return not_(top)


def baseline_equality_manifest(ring: RingSpec, batch: int) -> list[Need]:
    return derive_manifest(baseline_equality, *_zeros(ring, 2), batch=batch)


# ---------------------------------------------------------------------------
# Block scan: the two rounds that MSNZB and the two-round overflow share

def _u_bits(pair: SharePair) -> SharePair:
    """Zero party 0's row of ``pair`` in place and return it: the u bits of
    ``_overflow_planes`` are party 1's alone."""
    pair.v[0] = 0
    return pair


def _block_scan(store: MaterialStore, planes: list[SharePair], spans, u_bits: bool = False):
    """Two rounds over boolean ``planes`` cut into blocks ``spans`` of
    positions ``[lo, hi)``, given in gate order; returns one pair per
    block, stacked over its planes: its hits, cleared unless every higher
    block is empty.

    Round 1 takes the suffix ORs t_j = OR(planes[j:hi]) in each block, the
    top one a wire. The hits tp_j = t_j XOR t_{j+1} (t_j at the top) fold
    back to t_lo, so NOT t_lo says the block is empty. Round 2 is one AND
    per block over its hits, with ``u_bits`` its planes as party 1's u
    bits, and the emptiness of each higher block (larger ``lo``) in span
    order. Its inputs are cut from one concatenation; a block with nothing
    to AND is a wire, so it keeps its hits.
    """
    starts = [(j, hi) for lo, hi in spans for j in range(lo, hi)]
    suffix = yield from bank(store, or_n, [planes[j:hi] for j, hi in starts])
    t = {j: part for (j, _), part in zip(starts, suffix)}
    tp = {j: xor(t[j], t[j + 1]) if j + 1 < hi else t[j] for j, hi in starts}
    empty = [not_(t[lo]) for lo, _ in spans]

    slots = [
        [[tp[j] for j in range(lo, hi)], *([planes[lo:hi]] if u_bits else []),
         *([e] * (hi - lo) for e, (above, _) in zip(empty, spans) if above > lo)]
        for lo, hi in spans
    ]
    joined = iter(concat_each([segments for gate in slots for segments in gate]))
    gates = [[next(joined) for _ in gate] for gate in slots]
    if u_bits:
        for gate in gates:
            _u_bits(gate[1])
    return (yield from bank(store, and_n, gates))


# ---------------------------------------------------------------------------
# MSNZB (width 16)

def msnzb(store: MaterialStore, planes: list[SharePair]):
    """One-hot (or zero) indicator of the highest set bit of a 16-bit value
    given as boolean share planes, LSB first. Two rounds: a block scan over
    four 4-bit blocks, whose outputs are cut back into planes."""
    if len(planes) != 16:
        raise CapabilityError("msnzb supports width 16")
    spans = [(lo, lo + 4) for lo in range(0, 16, 4)]
    blocks = yield from _block_scan(store, planes, spans)
    return [plane for parts in cut_each(blocks, [[planes[0].batch] * 4] * 4) for plane in parts]


def msnzb_manifest(batch: int) -> list[Need]:
    return derive_manifest(msnzb, _zeros(BOOL, 16), batch=batch)


# ---------------------------------------------------------------------------
# Overflow (two-round) and comparison

def _overflow_planes(x: SharePair, k: int):
    """Boolean planes of a = <x>_0 mod 2^k and u = -<x>_1 mod 2^k, LSB first:
    ``dplanes[j]`` pairs party 0's a_j with party 1's u_j. Also the packed
    per-element flag of the zero-share correction."""
    ring = x.ring
    mask = ring.dtype((1 << k) - 1) if k < 64 else ring.dtype(np.uint64(2**64 - 1))
    d = x.v.copy()
    np.negative(d[1], out=d[1])
    d &= mask
    dplanes = [SharePair(BOOL, plane, x.batch) for plane in bits_of(d, ring.width_bits)]
    zero_flag = pack_lanes((x.v[1] & mask) == 0)
    return dplanes, zero_flag


def _overflow_out(v: SharePair, zero_flag: np.ndarray) -> SharePair:
    """z = NOT v, plus the zero-share correction: when <x>_1 mod 2^k == 0
    party 1 flips locally."""
    z = not_(v)
    z.v[1] ^= zero_flag
    return z


def overflow_2r(store: MaterialStore, x: SharePair, k: int):
    """z = 1 iff (<x>_0 mod 2^k) + (<x>_1 mod 2^k) >= 2^k. Two rounds."""
    _check_arith(x)
    n = x.ring.width_bits
    if not 1 <= k <= n:
        raise DomainError(f"k={k} outside [1, {n}]")
    dplanes, zero_flag = _overflow_planes(x, k)

    # Block i (0 = most significant) covers positions [lo_i, hi_i), the
    # edges running down from n, and ANDs its hits, the u bits and i
    # emptiness bits: fan-in 2 + i.
    ends = list(accumulate(OVF_BLOCKS[n], lambda hi, width: hi - width, initial=n))
    blocks = yield from _block_scan(store, dplanes, list(zip(ends[1:], ends)), u_bits=True)
    return _overflow_out(fold_segments(blocks, x.batch), zero_flag)


def overflow_manifest(ring: RingSpec, batch: int) -> list[Need]:
    return derive_manifest(overflow_2r, *_zeros(ring, 1), ring.width_bits, batch=batch)


def overflow_1r(store: MaterialStore, x: SharePair):
    """One-round overflow over the full ring: z = 1 iff
    <x>_0 + <x>_1 >= 2^n as integers: three gates, one round."""
    _check_arith(x)
    ring = x.ring
    n = ring.width_bits
    if n not in OVF1R_SPLITS:
        raise CapabilityError(
            f"no practical (n1, n2) split for width {n}; the gate banks grow as 2**n2")
    n1, n2 = OVF1R_SPLITS[n]
    y = x.v >> ring.dtype(n2)
    z = x.v & ring.dtype((1 << n2) - 1)
    (y0, y1), (z0, z1) = y, z
    # The conditions are plain bits, one row per candidate a1 (or a2) and
    # the rows laid end to end, each packed once into a boolean pair.
    a1 = np.arange(1, 1 << n1)[:, None]
    a2 = np.arange(1, 1 << n2)[:, None]

    def bits(cond):
        """Each party's own condition bits, ``(2, ..., batch)``, as a pair."""
        cond = cond.reshape(2, -1)
        return SharePair(BOOL, pack_lanes(cond), cond.shape[1])

    # Bank 1: overflow of the high halves, expanded over all possible y0.
    alpha0 = trivial(0, (y0 == a1).ravel(), BOOL)
    alpha1 = trivial(1, (y1 >= (1 << n1) - a1).ravel(), BOOL)

    # Bank 2: high halves sum to all-ones AND the low halves overflow; each
    # party degrades its y bits to 1 whenever its own low-half condition
    # fails (or its y is zero), which zeroes the XOR-AND term.
    keep = np.stack(((y0 != 0) & (z0 == a2), (y1 != 0) & (z1 >= (1 << n2) - a2)))
    beta_inputs = [
        bits(np.where(keep, (y[:, None] >> ring.dtype(j)) & 1, 1)) for j in range(n1)
    ]

    # Bank 3: correction when exactly one party's high half is zero.
    groups = (1 << n2) - 1
    g1 = bits(np.tile(y == 0, groups))
    g2 = bits(np.tile(y == (1 << n1) - 1, groups))
    g3 = trivial(0, (z0 == a2).ravel(), BOOL)
    g4 = trivial(1, (z1 >= (1 << n2) - a2).ravel(), BOOL)

    banks = yield from bank(store, and_n, [[alpha0, alpha1], beta_inputs, [g1, g2, g3, g4]])
    return fold_segments(banks, x.batch)


def overflow_1r_manifest(ring: RingSpec, batch: int) -> list[Need]:
    return derive_manifest(overflow_1r, *_zeros(ring, 1), batch=batch)


def _comparison(store, x: SharePair, y: SharePair, overflow):
    """z = 1 iff x < y: the overflow bits of x, y and x - y, stacked, give
    their three MSBs, which one 2-AND round combines."""
    _check_arith(x)
    n = x.ring.width_bits
    stacked = concat_pairs([x, y, sub(x, y)])
    of = yield from overflow(store, stacked, n - 1)
    xp, yp, dp = split_pair(xor(of, _plane(stacked, n - 1)), 3)
    e = xor(xp, yp)
    v, w = yield from bank(store, and_n, [[e, yp], [not_(e), dp]])
    return xor(v, w)


def comparison(store: MaterialStore, x: SharePair, y: SharePair):
    """z = 1 iff x < y, for plaintexts in [0, 2^(n-1)). Three rounds."""
    result = yield from _comparison(store, x, y, overflow_2r)
    return result


def comparison_manifest(ring: RingSpec, batch: int) -> list[Need]:
    return derive_manifest(comparison, *_zeros(ring, 2), batch=batch)


def baseline_overflow(store: MaterialStore, x: SharePair, k: int):
    """Two-fan-in-only overflow: log2(n) suffix-OR rounds plus one AND round."""
    _check_arith(x)
    n = x.ring.width_bits
    suffix, zero_flag = _overflow_planes(x, k)
    u = _u_bits(concat_pairs(suffix))
    dist = 1
    while dist < n:  # positions j and j + dist where there is one, else a wire
        suffix = yield from bank(store, or_n, [suffix[j:j + dist + 1:dist] for j in range(n)])
        dist *= 2
    tp = [xor(suffix[j], suffix[j + 1]) for j in range(n - 1)] + [suffix[n - 1]]
    (res,) = yield from bank(store, and_n, [[concat_pairs(tp), u]])
    return _overflow_out(fold_segments([res], x.batch), zero_flag)


def baseline_overflow_manifest(ring: RingSpec, batch: int) -> list[Need]:
    return derive_manifest(baseline_overflow, *_zeros(ring, 1), ring.width_bits,
                           batch=batch)


def baseline_comparison(store: MaterialStore, x: SharePair, y: SharePair):
    result = yield from _comparison(store, x, y, baseline_overflow)
    return result


def baseline_comparison_manifest(ring: RingSpec, batch: int) -> list[Need]:
    return derive_manifest(baseline_comparison, *_zeros(ring, 2), batch=batch)


# ---------------------------------------------------------------------------
# Share-type conversions

def b2a(store: MaterialStore, x: SharePair, ring: RingSpec):
    """Boolean-to-arithmetic conversion. One round, n bits per party:
    thanks to pre-disclosed blinds each party sends its masked share
    directly instead of running a full multiplication."""
    if not x.ring.is_boolean:
        raise DomainError("b2a converts boolean shares")
    if ring.is_boolean:
        raise DomainError("b2a needs an arithmetic target ring")
    mat = store.take_b2a(ring, x.batch)
    mat.consume()
    z = unpack_lanes(x.v, x.batch).astype(ring.dtype)
    ((xp, xpp),) = yield [ExchangeItem(z[0] - mat.a, z[1] - mat.b, ring.width_bits, x.batch)]
    z[0] -= 2 * (xp * xpp + xpp * mat.a + mat.c0)
    z[1] -= 2 * (xp * mat.b + mat.c1)
    return SharePair(ring, z, x.batch)


def b2a_manifest(ring: RingSpec, batch: int) -> list[Need]:
    return derive_manifest(b2a, *_zeros(BOOL, 1), ring, batch=batch)


def _lifts(pair: SharePair, ring: RingSpec):
    """A boolean pair's bits as ring elements, each party's share bit read
    as its share; then the trivial-share lifts of each party's own bit and
    of its complement."""
    bits = unpack_lanes(pair.v, pair.batch)
    lifts = np.zeros((4, 2, pair.batch), dtype=ring.dtype)
    lifts[0, 0] = bits[0]
    lifts[1, 1] = bits[1]
    lifts[2, 0] = bits[0] ^ 1
    lifts[3, 1] = bits[1] ^ 1
    return (SharePair(ring, bits.astype(ring.dtype), pair.batch),
            *(SharePair(ring, v, pair.batch) for v in lifts))


def bx2a(store: MaterialStore, b: SharePair, x: SharePair):
    """b * x in one round: the naive product bx over-counts by 2*b0*b1*x."""
    ring = x.ring
    _check_arith(x)
    b_ring, bp, bpp, _, _ = _lifts(b, ring)
    s, t = yield from bank(store, mult_n, [[b_ring, x], [bp, bpp, x]])
    return sub(s, const_mult(2, t))


def bx2a_manifest(ring: RingSpec, batch: int) -> list[Need]:
    return derive_manifest(bx2a, *_zeros(BOOL, 1), *_zeros(ring, 1), batch=batch)


def _bc_gates(b: SharePair, c: SharePair, ring: RingSpec) -> list[list[SharePair]]:
    """The five products whose combination g1 + 2(g4 + g5 - g2 - g3) is b * c:
    three 2-MULTs and two 4-MULTs over the trivial-share lifts."""
    b_ring, bp, bpp, nbp, nbpp = _lifts(b, ring)
    c_ring, cp, cpp, ncp, ncpp = _lifts(c, ring)
    return [
        [b_ring, c_ring], [bp, bpp], [cp, cpp],
        [bp, ncp, bpp, ncpp], [nbp, cp, nbpp, cpp],
    ]


def _bc_combine(g1, g2, g3, g4, g5) -> SharePair:
    corr = sub(add(g4, g5), add(g2, g3))
    return add(g1, const_mult(2, corr))


def bc2a(store: MaterialStore, b: SharePair, c: SharePair, ring: RingSpec):
    """b * c as an arithmetic share in one round (three stacked 2-MULTs and
    two stacked 4-MULTs)."""
    products = yield from bank(store, mult_n, _bc_gates(b, c, ring))
    return _bc_combine(*products)


def bc2a_manifest(ring: RingSpec, batch: int) -> list[Need]:
    return derive_manifest(bc2a, *_zeros(BOOL, 2), ring, batch=batch)


def bcx2a(store: MaterialStore, b: SharePair, c: SharePair, x: SharePair):
    """b * c * x in one round (three stacked 3-MULTs, two stacked 5-MULTs):
    BC2A with x joined to every gate."""
    _check_arith(x)
    gates = [[*gate, x] for gate in _bc_gates(b, c, x.ring)]
    products = yield from bank(store, mult_n, gates)
    return _bc_combine(*products)


def bcx2a_manifest(ring: RingSpec, batch: int) -> list[Need]:
    return derive_manifest(bcx2a, *_zeros(BOOL, 2), *_zeros(ring, 1), batch=batch)


# ---------------------------------------------------------------------------
# Max / Min / Argmax

def _selector_terms(store, xs: list[SharePair], smallest: bool):
    """The N - 1 AND terms of the N selectors of the largest (with
    ``smallest``, the smallest) of ``xs``, lowest index winning ties.

    One comparison runs stacked over every pair i < j in (i, j) order;
    c[i, j] says x_i loses to x_j. Selector j is set when every earlier
    value lost to x_j and no later value beat it. Each term is one pair
    stacked over the N selectors: term s of selector j is c[s, j] for
    s < j, else NOT c[j, s + 1]."""
    n_vals = len(xs)
    idx_pairs = [(i, j) for i in range(n_vals) for j in range(i + 1, n_vals)]
    x_side = concat_pairs([xs[i] for i, _ in idx_pairs])
    y_side = concat_pairs([xs[j] for _, j in idx_pairs])
    if smallest:
        x_side, y_side = y_side, x_side
    c = yield from comparison(store, x_side, y_side)
    cmap = dict(zip(idx_pairs, split_pair(c, len(idx_pairs))))
    return concat_each([
        [cmap[(s, j)] if s < j else not_(cmap[(j, s + 1)]) for j in range(n_vals)]
        for s in range(n_vals - 1)
    ])


def _check_three(xs: list[SharePair]):
    if len(xs) != 3:
        raise ShapeError("expected three inputs")


def _extreme3(store, xs, smallest):
    """One BCX2A over both selector terms and the three values."""
    _check_three(xs)
    sel_b, sel_c = yield from _selector_terms(store, xs, smallest)
    t = yield from bcx2a(store, sel_b, sel_c, concat_pairs(xs))
    return fold_segments([t], xs[0].batch)


def max3(store: MaterialStore, xs: list[SharePair]):
    """Largest of three values (lowest index wins ties). Four rounds."""
    result = yield from _extreme3(store, xs, smallest=False)
    return result


def min3(store: MaterialStore, xs: list[SharePair]):
    """Smallest of three values (lowest index wins ties). Four rounds."""
    result = yield from _extreme3(store, xs, smallest=True)
    return result


def max3_manifest(ring: RingSpec, batch: int) -> list[Need]:
    return derive_manifest(max3, _zeros(ring, 3), batch=batch)


min3_manifest = max3_manifest  # same takes; only the comparison sides differ


def _argextreme3(store, xs, smallest):
    """1 * sel_1 + 2 * sel_2: one BC2A over selectors 1 and 2 of both
    terms (elements ``[batch, 3 * batch)``); selector 0 weighs nothing."""
    _check_three(xs)
    batch = xs[0].batch
    terms = yield from _selector_terms(store, xs, smallest)
    sel_b, sel_c = (slice_pair(term, batch, 3 * batch) for term in terms)
    t = yield from bc2a(store, sel_b, sel_c, xs[0].ring)
    t1, t2 = split_pair(t, 2)
    return add(t1, const_mult(2, t2))


def argmax3(store: MaterialStore, xs: list[SharePair]):
    """Index of the largest of three values (lowest index wins ties)."""
    result = yield from _argextreme3(store, xs, smallest=False)
    return result


def argmin3(store: MaterialStore, xs: list[SharePair]):
    result = yield from _argextreme3(store, xs, smallest=True)
    return result


def argmax3_manifest(ring: RingSpec, batch: int) -> list[Need]:
    return derive_manifest(argmax3, _zeros(ring, 3), batch=batch)


argmin3_manifest = argmax3_manifest  # same takes; only the comparison sides differ


def maxn(store: MaterialStore, xs: list[SharePair], fanin_cap: int = DEFAULT_FANIN_CAP,
         smallest: bool = False):
    """Max (or min) of N > 3 values: the selector terms of all N(N-1)/2
    comparisons in parallel, ANDed by the layered reducer under
    ``fanin_cap``, then one BX2A round whose N products are summed by one
    ``fold_segments``. Each term is one pair stacked over all N selectors,
    so every gate of a layer serves all N of them."""
    n_vals = len(xs)
    if n_vals <= 3:
        raise ShapeError("maxn expects more than three inputs")
    if n_vals > MAXN_CAP:
        raise CapabilityError(f"maxn capped at {MAXN_CAP} inputs")
    terms = yield from _selector_terms(store, xs, smallest)
    (sel,) = yield from reduce_layers(store, and_n, terms, fanin_schedule(n_vals - 1, fanin_cap))
    prod = yield from bx2a(store, sel, concat_pairs(xs))
    return fold_segments([prod], xs[0].batch)


def maxn_manifest(ring: RingSpec, n_vals: int, batch: int,
                  fanin_cap: int = DEFAULT_FANIN_CAP) -> list[Need]:
    return derive_manifest(maxn, _zeros(ring, n_vals), fanin_cap, batch=batch)


# ---------------------------------------------------------------------------
# Table lookup

@dataclass
class LookupTable:
    keys: list[SharePair]
    values: list[SharePair]

    def __post_init__(self):
        if not self.keys:
            raise ShapeError("a lookup table needs at least one key")
        if len(self.keys) != len(self.values):
            raise ShapeError("key/value count mismatch")


def tlu(store: MaterialStore, table: LookupTable, idx: SharePair):
    """Oblivious table lookup: V_j where idx == K_j. Three rounds. The
    result contract assumes exactly one key matches."""
    n_keys = len(table.keys)
    hits = yield from equality(
        store,
        concat_pairs([idx] * n_keys),
        concat_pairs(table.keys),
    )
    prods = yield from bx2a(store, hits, concat_pairs(table.values))
    return fold_segments([prods], idx.batch)


def tlu_manifest(ring: RingSpec, n_keys: int, batch: int) -> list[Need]:
    table = LookupTable(_zeros(ring, n_keys), _zeros(ring, n_keys))
    return derive_manifest(tlu, table, *_zeros(ring, 1), batch=batch)


# ---------------------------------------------------------------------------
# Baseline 3-Max (tournament with 2-fan-in building blocks)

def _baseline_b2a(store, b: SharePair, ring: RingSpec):
    """Trivial-share product conversion: x0' + x1'' - 2 * x0' * x1''."""
    _, bp, bpp, _, _ = _lifts(b, ring)
    (prod,) = yield from bank(store, mult_n, [[bp, bpp]])
    return sub(add(bp, bpp), const_mult(2, prod))


def baseline_max3(store: MaterialStore, xs: list[SharePair]):
    """Tournament 3-Max: two sequential (compare, convert, select) stages."""
    ring = xs[0].ring
    best = xs[0]
    for challenger in xs[1:]:
        c = yield from baseline_comparison(store, best, challenger)
        c_arith = yield from _baseline_b2a(store, c, ring)
        (prod,) = yield from bank(store, mult_n, [[c_arith, sub(challenger, best)]])
        best = add(best, prod)
    return best


def baseline_max3_manifest(ring: RingSpec, batch: int) -> list[Need]:
    return derive_manifest(baseline_max3, _zeros(ring, 3), batch=batch)
