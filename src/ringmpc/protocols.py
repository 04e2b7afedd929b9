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

Rounds that run several gates are packed by ``gates.bank``: gates of equal
fan-in share one stacked table, taken in ascending fan-in order. Two
protocols keep one table per gate on ``engine.parallel`` instead, because
merging their equal fan-ins would change the material they consume:
``maxn``'s selector layers (at fan-in cap 3, 8-Max's first layer takes two
3-fan-in tables) and ``overflow_1r``'s three banks (at width 8, two 4-fan-in
tables).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dealer import MaterialStore, Need
from .engine import ExchangeItem, derive_manifest, parallel
from .errors import CapabilityError, DomainError, ShapeError
from .gates import and_n, bank, fanin_schedule, mult_n, or_n
from .ring import (
    BOOL,
    RingSpec,
    Share,
    SharePair,
    add,
    bit_decompose_local,
    bits_of,
    concat_pairs,
    const_mult,
    const_pair,
    not_,
    split_pair,
    sub,
    sub_mirror,
    trivial,
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

# Default high/low splits for the one-round overflow variant. Wider rings
# would need 2**n2 - 1 parallel gates per bank, which is impractical.
OVF1R_SPLITS = {8: (4, 4), 16: (8, 8)}

MAXN_CAP = 8


def _zeros(ring: RingSpec, count: int) -> list[SharePair]:
    """Batch-1 zero sharings: the inputs of a manifest's recording run."""
    return [const_pair(0, ring, 1) for _ in range(count)]


def _check_arith(pair: SharePair):
    if pair[0].ring.is_boolean:
        raise DomainError("protocol needs arithmetic shares")


def _xor_fold(pairs: list[SharePair]) -> SharePair:
    out = pairs[0]
    for p in pairs[1:]:
        out = xor(out, p)
    return out


def _fold_groups(pair: SharePair, groups: int) -> SharePair:
    """XOR-fold a stacked boolean batch of ``groups`` equal segments."""
    batch = len(pair[0]) // groups
    return tuple(
        Share(i, BOOL, np.bitwise_xor.reduce(pair[i].values.reshape(groups, batch), axis=0))
        for i in (0, 1)
    )


def _tile(pair: SharePair, times: int) -> SharePair:
    return concat_pairs([pair] * times)


def _plane(pair: SharePair, j: int) -> SharePair:
    """Boolean share plane j of an arithmetic pair (each party's own bit)."""
    shift = pair[0].ring.dtype(j)
    return tuple(
        Share(i, BOOL, ((pair[i].values >> shift) & 1).astype(np.uint8)) for i in (0, 1)
    )


# ---------------------------------------------------------------------------
# Equality

def equality(store: MaterialStore, x: SharePair, y: SharePair):
    """z = 1 iff x == y. Two rounds; n + (#blocks) bits per party."""
    _check_arith(x)
    plan = EQ_PLANS[x[0].ring.width_bits]

    t = sub_mirror(x, y)  # t0 == t1 elementwise iff x == y
    planes = bit_decompose_local(t)
    blocks, pos = [], 0
    for width in plan:
        blocks.append(planes[pos:pos + width])
        pos += width
    level1 = yield from bank(store, or_n, blocks)
    (top,) = yield from bank(store, or_n, [level1])
    return not_(top)


def equality_manifest(ring: RingSpec, batch: int) -> list[Need]:
    return derive_manifest(equality, *_zeros(ring, 2), batch=batch)


def baseline_equality(store: MaterialStore, x: SharePair, y: SharePair):
    """Two-fan-in-only equality: a 2-OR tree over the difference bits."""
    _check_arith(x)
    cur = bit_decompose_local(sub_mirror(x, y))
    while len(cur) > 1:
        nxt = yield from bank(store, or_n, [cur[g:g + 2] for g in range(0, len(cur) - 1, 2)])
        if len(cur) % 2:
            nxt.append(cur[-1])
        cur = nxt
    return not_(cur[0])


def baseline_equality_manifest(ring: RingSpec, batch: int) -> list[Need]:
    return derive_manifest(baseline_equality, *_zeros(ring, 2), batch=batch)


# ---------------------------------------------------------------------------
# MSNZB (width 16)

def msnzb(store: MaterialStore, planes: list[SharePair]):
    """One-hot (or zero) indicator of the highest set bit of a 16-bit value
    given as boolean share planes, LSB first. Two rounds."""
    if len(planes) != 16:
        raise CapabilityError("msnzb supports width 16")

    # Round 1: in-block suffix ORs t_j = OR(planes[j:top of its block]).
    t = list(planes)
    starts = [j for j in range(16) if j % 4 != 3]
    suffix = yield from bank(store, or_n, [planes[j:j - j % 4 + 4] for j in starts])
    for j, part in zip(starts, suffix):
        t[j] = part

    tp = [t[j] if j % 4 == 3 else xor(t[j], t[j + 1]) for j in range(16)]
    empty = {b: not_(_xor_fold(tp[4 * b:4 * b + 4])) for b in (1, 2, 3)}

    # Round 2: clear a block's hits when any higher block already has one.
    cleared = yield from bank(store, and_n, [
        [tp[j], *(empty[h] for h in range(j // 4 + 1, 4))] for j in range(12)
    ])
    return [*cleared, *tp[12:]]


def msnzb_manifest(batch: int) -> list[Need]:
    return derive_manifest(msnzb, _zeros(BOOL, 16), batch=batch)


# ---------------------------------------------------------------------------
# Overflow (two-round) and comparison

def _overflow_planes(x: SharePair, k: int):
    """Boolean planes of a = <x>_0 mod 2^k and u = -<x>_1 mod 2^k, LSB first:
    ``dplanes[j]`` pairs party 0's a_j with party 1's u_j, ``uplanes[j]``
    shares u_j alone. Also the per-element flag of the zero-share correction."""
    ring = x[0].ring
    n = ring.width_bits
    mask = ring.dtype((1 << k) - 1) if k < 64 else ring.dtype(np.uint64(2**64 - 1))
    d0 = bits_of(x[0].values & mask, n)
    d1 = bits_of((0 - x[1].values) & mask, n)
    zero = np.zeros(len(x[0]), np.uint8)
    dplanes = [(Share(0, BOOL, d0[j]), Share(1, BOOL, d1[j])) for j in range(n)]
    uplanes = [(Share(0, BOOL, zero), Share(1, BOOL, d1[j])) for j in range(n)]
    zero_flag = (x[1].values & mask) == 0
    return dplanes, uplanes, zero_flag


def _overflow_out(v: SharePair, zero_flag: np.ndarray) -> SharePair:
    """z = NOT v, plus the zero-share correction: when <x>_1 mod 2^k == 0
    party 1 flips locally."""
    z = not_(v)
    return z[0], Share(1, BOOL, z[1].values ^ zero_flag.astype(np.uint8))


def overflow_2r(store: MaterialStore, x: SharePair, k: int):
    """z = 1 iff (<x>_0 mod 2^k) + (<x>_1 mod 2^k) >= 2^k. Two rounds."""
    _check_arith(x)
    ring = x[0].ring
    n = ring.width_bits
    if not 1 <= k <= n:
        raise DomainError(f"k={k} outside [1, {n}]")
    dplanes, uplanes, zero_flag = _overflow_planes(x, k)

    # Block i (0 = most significant) covers positions [lo_i, hi_i).
    spans, hi = [], n
    for width in OVF_BLOCKS[n]:
        spans.append((hi - width, hi))
        hi -= width

    # Round 1: suffix ORs t_j = OR(dplanes[j:hi_i]) inside each block.
    t = list(dplanes)
    starts = [(j, hi_) for lo, hi_ in spans for j in range(lo, hi_ - 1)]
    suffix = yield from bank(store, or_n, [dplanes[j:hi_] for j, hi_ in starts])
    for (j, _), part in zip(starts, suffix):
        t[j] = part

    tp = [None] * n
    for lo, hi_ in spans:
        tp[hi_ - 1] = t[hi_ - 1]
        for j in range(lo, hi_ - 1):
            tp[j] = xor(t[j], t[j + 1])

    # w_i: whether block i holds the top set bit (weight-at-most-one fold).
    w = [_xor_fold(tp[lo:hi_]) for lo, hi_ in spans]

    # Round 2: block i needs its own hit, the u bit, and emptiness of every
    # higher block — fan-in 2 + i. One gate stacked over the block's bits,
    # folded by one reshape, costs fewer small calls than a gate per bit.
    results = yield from bank(store, and_n, [
        [concat_pairs(tp[lo:hi_]), concat_pairs(uplanes[lo:hi_]),
         *(_tile(not_(w[h]), hi_ - lo) for h in range(i))]
        for i, (lo, hi_) in enumerate(spans)
    ])
    v = _xor_fold([_fold_groups(res, hi_ - lo) for res, (lo, hi_) in zip(results, spans)])
    return _overflow_out(v, zero_flag)


def overflow_manifest(ring: RingSpec, batch: int) -> list[Need]:
    return derive_manifest(overflow_2r, *_zeros(ring, 1), ring.width_bits, batch=batch)


def overflow_1r(store: MaterialStore, x: SharePair, n1: int | None = None,
                n2: int | None = None):
    """One-round overflow over the full ring: z = 1 iff
    <x>_0 + <x>_1 >= 2^n as integers. Costs three parallel gate banks."""
    _check_arith(x)
    ring = x[0].ring
    n = ring.width_bits
    if n1 is None or n2 is None:
        if n not in OVF1R_SPLITS:
            raise CapabilityError(
                f"no practical (n1, n2) split for width {n}; the gate banks "
                "grow as 2**n2"
            )
        n1, n2 = OVF1R_SPLITS[n]
    if n1 + n2 != n or n1 < 2 or n2 < 1:
        raise CapabilityError(f"infeasible split ({n1}, {n2}) for width {n}")
    batch = len(x[0])
    y0 = x[0].values >> ring.dtype(n2)
    y1 = x[1].values >> ring.dtype(n2)
    z0 = x[0].values & ring.dtype((1 << n2) - 1)
    z1 = x[1].values & ring.dtype((1 << n2) - 1)
    y0bits = bits_of(y0, n1)
    y1bits = bits_of(y1, n1)

    def bitpair(v0, v1):
        return (Share(0, BOOL, v0.astype(np.uint8)), Share(1, BOOL, v1.astype(np.uint8)))

    # Bank 1: overflow of the high halves, expanded over all possible y0.
    alpha0 = concat_pairs([
        trivial(0, (y0 == a1).astype(np.uint8), BOOL) for a1 in range(1, 1 << n1)
    ])
    alpha1 = concat_pairs([
        trivial(1, (y1 >= (1 << n1) - a1).astype(np.uint8), BOOL)
        for a1 in range(1, 1 << n1)
    ])

    # Bank 2: high halves sum to all-ones AND the low halves overflow; each
    # party degrades its y bits to 1 whenever its own low-half condition
    # fails (or its y is zero), which zeroes the XOR-AND term.
    beta_inputs = []
    for j in range(n1):
        cols0, cols1 = [], []
        for a2 in range(1, 1 << n2):
            keep0 = (y0 != 0) & (z0 == a2)
            keep1 = (y1 != 0) & (z1 >= (1 << n2) - a2)
            cols0.append(np.where(keep0, y0bits[j], 1).astype(np.uint8))
            cols1.append(np.where(keep1, y1bits[j], 1).astype(np.uint8))
        beta_inputs.append(bitpair(np.concatenate(cols0), np.concatenate(cols1)))

    # Bank 3: correction when exactly one party's high half is zero.
    groups = (1 << n2) - 1
    g1 = _tile(bitpair(y0 == 0, y1 == 0), groups)
    g2 = _tile(bitpair(y0 == (1 << n1) - 1, y1 == (1 << n1) - 1), groups)
    g3 = concat_pairs([
        trivial(0, (z0 == a3).astype(np.uint8), BOOL) for a3 in range(1, 1 << n2)
    ])
    g4 = concat_pairs([
        trivial(1, (z1 >= (1 << n2) - a3).astype(np.uint8), BOOL)
        for a3 in range(1, 1 << n2)
    ])

    gens = [
        and_n([alpha0, alpha1], *store.take_bte(2, BOOL, ((1 << n1) - 1) * batch)),
        and_n(beta_inputs, *store.take_bte(n1, BOOL, groups * batch)),
        and_n([g1, g2, g3, g4], *store.take_bte(4, BOOL, groups * batch)),
    ]
    b1, b2, b3 = yield from parallel(gens)
    return _xor_fold([
        _fold_groups(b1, (1 << n1) - 1),
        _fold_groups(b2, groups),
        _fold_groups(b3, groups),
    ])


def overflow_1r_manifest(ring: RingSpec, batch: int, n1: int | None = None,
                         n2: int | None = None) -> list[Need]:
    return derive_manifest(overflow_1r, *_zeros(ring, 1), n1, n2, batch=batch)


def _comparison(store, x: SharePair, y: SharePair, overflow):
    """z = 1 iff x < y: the overflow bits of x, y and x - y, stacked, give
    their three MSBs, which one 2-AND round combines."""
    _check_arith(x)
    n = x[0].ring.width_bits
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
    n = x[0].ring.width_bits
    suffix, uplanes, zero_flag = _overflow_planes(x, k)
    dist = 1
    while dist < n:
        gates = [[suffix[j], suffix[j + dist]] for j in range(n - dist)]
        suffix = (yield from bank(store, or_n, gates)) + suffix[n - dist:]
        dist *= 2
    tp = [xor(suffix[j], suffix[j + 1]) for j in range(n - 1)] + [suffix[n - 1]]
    (res,) = yield from bank(store, and_n, [[concat_pairs(tp), concat_pairs(uplanes)]])
    return _overflow_out(_fold_groups(res, n), zero_flag)


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

def _as_ring(pair: SharePair, ring: RingSpec) -> SharePair:
    """Reinterpret each party's boolean share bit as a ring element."""
    return (
        Share(0, ring, pair[0].values.astype(ring.dtype)),
        Share(1, ring, pair[1].values.astype(ring.dtype)),
    )


def b2a(store: MaterialStore, x: SharePair, ring: RingSpec):
    """Boolean-to-arithmetic conversion. One round, n bits per party:
    thanks to pre-disclosed blinds each party sends its masked share
    directly instead of running a full multiplication."""
    if not x[0].ring.is_boolean:
        raise DomainError("b2a converts boolean shares")
    batch = len(x[0])
    mat = store.take_b2a(ring, batch)
    mat.consume()
    x0 = x[0].values.astype(ring.dtype)
    x1 = x[1].values.astype(ring.dtype)
    ((xp, xpp),) = yield [
        ExchangeItem(ring.wrap(x0 - mat.a), ring.wrap(x1 - mat.b), ring.width_bits)
    ]
    z0 = x0 - 2 * (xp * xpp + xpp * mat.a + mat.c0)
    z1 = x1 - 2 * (xp * mat.b + mat.c1)
    return Share(0, ring, z0), Share(1, ring, z1)


def b2a_manifest(ring: RingSpec, batch: int) -> list[Need]:
    return derive_manifest(b2a, *_zeros(BOOL, 1), ring, batch=batch)


def _lifts(pair: SharePair, ring: RingSpec):
    """Trivial-share lifts of a boolean pair: each party's own bit and its
    complement as arithmetic values."""
    own0 = trivial(0, pair[0].values, ring)
    own1 = trivial(1, pair[1].values, ring)
    neg0 = trivial(0, 1 - pair[0].values.astype(np.int64), ring)
    neg1 = trivial(1, 1 - pair[1].values.astype(np.int64), ring)
    return own0, own1, neg0, neg1


def bx2a(store: MaterialStore, b: SharePair, x: SharePair):
    """b * x in one round: the naive product bx over-counts by 2*b0*b1*x."""
    ring = x[0].ring
    _check_arith(x)
    bp, bpp, _, _ = _lifts(b, ring)
    s, t = yield from bank(store, mult_n, [[_as_ring(b, ring), x], [bp, bpp, x]])
    return sub(s, const_mult(2, t))


def bx2a_manifest(ring: RingSpec, batch: int) -> list[Need]:
    return derive_manifest(bx2a, *_zeros(BOOL, 1), *_zeros(ring, 1), batch=batch)


def _bc_gates(b: SharePair, c: SharePair, ring: RingSpec) -> list[list[SharePair]]:
    """The five products whose combination g1 + 2(g4 + g5 - g2 - g3) is b * c:
    three 2-MULTs and two 4-MULTs over the trivial-share lifts."""
    bp, bpp, nbp, nbpp = _lifts(b, ring)
    cp, cpp, ncp, ncpp = _lifts(c, ring)
    return [
        [_as_ring(b, ring), _as_ring(c, ring)], [bp, bpp], [cp, cpp],
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
    gates = [[*gate, x] for gate in _bc_gates(b, c, x[0].ring)]
    products = yield from bank(store, mult_n, gates)
    return _bc_combine(*products)


def bcx2a_manifest(ring: RingSpec, batch: int) -> list[Need]:
    return derive_manifest(bcx2a, *_zeros(BOOL, 2), *_zeros(ring, 1), batch=batch)


# ---------------------------------------------------------------------------
# Max / Min / Argmax

def _compare_all3(store, xs, smallest):
    x_side = concat_pairs([xs[0], xs[0], xs[1]])
    y_side = concat_pairs([xs[1], xs[2], xs[2]])
    if smallest:
        x_side, y_side = y_side, x_side
    c = yield from comparison(store, x_side, y_side)
    return split_pair(c, 3)


def _extreme3(store, xs, smallest):
    if len(xs) != 3:
        raise ShapeError("expected three inputs")
    c01, c02, c12 = yield from _compare_all3(store, xs, smallest)
    sel_b = concat_pairs([not_(c01), c01, c02])
    sel_c = concat_pairs([not_(c02), not_(c12), c12])
    t = yield from bcx2a(store, sel_b, sel_c, concat_pairs(xs))
    t0, t1, t2 = split_pair(t, 3)
    return add(add(t0, t1), t2)


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


def _argextreme3(store, xs, ring, smallest):
    c01, c02, c12 = yield from _compare_all3(store, xs, smallest)
    sel_b = concat_pairs([c01, c02])
    sel_c = concat_pairs([not_(c12), c12])
    t = yield from bc2a(store, sel_b, sel_c, ring)
    t1, t2 = split_pair(t, 2)
    return add(t1, const_mult(2, t2))


def argmax3(store: MaterialStore, xs: list[SharePair]):
    """Index of the largest of three values (lowest index wins ties)."""
    ring = xs[0][0].ring
    result = yield from _argextreme3(store, xs, ring, smallest=False)
    return result


def argmin3(store: MaterialStore, xs: list[SharePair]):
    ring = xs[0][0].ring
    result = yield from _argextreme3(store, xs, ring, smallest=True)
    return result


def argmax3_manifest(ring: RingSpec, batch: int) -> list[Need]:
    return derive_manifest(argmax3, _zeros(ring, 3), batch=batch)


argmin3_manifest = argmax3_manifest  # same takes; only the comparison sides differ


def maxn(store: MaterialStore, xs: list[SharePair], fanin_cap: int = 9,
         smallest: bool = False):
    """Max (or min) of N > 3 values: all N(N-1)/2 comparisons in parallel,
    a layered AND for the N selector bits, then one BX2A round."""
    n_vals = len(xs)
    if n_vals <= 3:
        raise ShapeError("maxn expects more than three inputs")
    if n_vals > MAXN_CAP:
        raise CapabilityError(f"maxn capped at {MAXN_CAP} inputs")
    ring = xs[0][0].ring
    batch = len(xs[0][0])
    idx_pairs = [(i, j) for i in range(n_vals) for j in range(i + 1, n_vals)]
    x_side = concat_pairs([xs[i] for i, _ in idx_pairs])
    y_side = concat_pairs([xs[j] for _, j in idx_pairs])
    if smallest:
        x_side, y_side = y_side, x_side
    c = yield from comparison(store, x_side, y_side)
    cmap = dict(zip(idx_pairs, split_pair(c, len(idx_pairs))))

    # Selector j: every earlier value lost and no later value won.
    terms = [
        [cmap[(k, j)] for k in range(j)]
        + [not_(cmap[(j, k)]) for k in range(j + 1, n_vals)]
        for j in range(n_vals)
    ]
    for layer in fanin_schedule(n_vals - 1, fanin_cap):
        gens, spans, pos = [], [], 0
        for fan in layer:
            if fan >= 2:
                inputs = [
                    concat_pairs([terms[j][pos + slot] for j in range(n_vals)])
                    for slot in range(fan)
                ]
                gens.append(and_n(inputs, *store.take_bte(fan, BOOL, n_vals * batch)))
            spans.append((pos, fan))
            pos += fan
        results = yield from parallel(gens)
        nxt = [[] for _ in range(n_vals)]
        res_iter = iter(results)
        for pos, fan in spans:
            if fan >= 2:
                parts = split_pair(next(res_iter), n_vals)
                for j in range(n_vals):
                    nxt[j].append(parts[j])
            else:
                for j in range(n_vals):
                    nxt[j].append(terms[j][pos])
        terms = nxt
    selectors = concat_pairs([terms[j][0] for j in range(n_vals)])

    prod = yield from bx2a(store, selectors, concat_pairs(xs))
    parts = split_pair(prod, n_vals)
    out = parts[0]
    for part in parts[1:]:
        out = add(out, part)
    return out


def maxn_manifest(ring: RingSpec, n_vals: int, batch: int,
                  fanin_cap: int = 9) -> list[Need]:
    return derive_manifest(maxn, _zeros(ring, n_vals), fanin_cap, batch=batch)


def maxn_rounds(n_vals: int, fanin_cap: int = 9) -> int:
    return 3 + len(fanin_schedule(n_vals - 1, fanin_cap)) + 1


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
    parts = split_pair(prods, n_keys)
    out = parts[0]
    for part in parts[1:]:
        out = add(out, part)
    return out


def tlu_manifest(ring: RingSpec, n_keys: int, batch: int) -> list[Need]:
    table = LookupTable(_zeros(ring, n_keys), _zeros(ring, n_keys))
    return derive_manifest(tlu, table, *_zeros(ring, 1), batch=batch)


# ---------------------------------------------------------------------------
# Baseline 3-Max (tournament with 2-fan-in building blocks)

def _baseline_b2a(store, b: SharePair, ring: RingSpec):
    """Trivial-share product conversion: x0' + x1'' - 2 * x0' * x1''."""
    batch = len(b[0])
    bp = trivial(0, b[0].values, ring)
    bpp = trivial(1, b[1].values, ring)
    prod = yield from mult_n([bp, bpp], *store.take_bte(2, ring, batch))
    return sub(add(bp, bpp), const_mult(2, prod))


def baseline_max3(store: MaterialStore, xs: list[SharePair]):
    """Tournament 3-Max: two sequential (compare, convert, select) stages."""
    ring = xs[0][0].ring
    batch = len(xs[0][0])
    best = xs[0]
    for challenger in xs[1:]:
        c = yield from baseline_comparison(store, best, challenger)
        c_arith = yield from _baseline_b2a(store, c, ring)
        gap = sub(challenger, best)
        prod = yield from mult_n([c_arith, gap], *store.take_bte(2, ring, batch))
        best = add(best, prod)
    return best


def baseline_max3_manifest(ring: RingSpec, batch: int) -> list[Need]:
    return derive_manifest(baseline_max3, _zeros(ring, 3), batch=batch)
