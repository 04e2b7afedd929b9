"""Privacy-preserving exact edit distance via shared dynamic programming.

Both strings live as per-character arithmetic shares over Z_2^16. Phase 1
computes the full L x L mismatch matrix in 3 rounds (stacked equality, one
conversion, local complement). Phase 2 sweeps the 2L - 1 anti-diagonals of
the DP table; every cell of a diagonal is independent, so each diagonal is
a single batched 3-Min (4 rounds), giving exactly 8L - 1 rounds total.

The DP table is one share pair over (L + 1) x (L + 1) cells of P elements:
cell (i, j) occupies segment (i * (L + 1) + j) * P. Row 0 and column 0 hold
the public boundary i + j on party 0; each diagonal gathers its up, left
and diagonal neighbours by one index vector and scatters its 3-Min back.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dealer import Dealer, MaterialStore, Need
from .engine import derive_manifest
from .errors import DomainError, ShapeError
from .protocols import b2a, equality, min3
from .ring import SharePair, Z16, add, const_add, const_pair, neg, plaintext, trivial

ALPHABET = 4  # characters encoded 0..3 (A, T, G, C)
RING = Z16
MAX_LENGTH = 1 << 13  # distances stay far below the comparison domain


@dataclass
class GenomeShareString:
    """P strings of length L, character shares flattened row-major."""

    length: int
    pairs: int
    shares: SharePair

    def __post_init__(self):
        if not 1 <= self.length <= MAX_LENGTH:
            raise DomainError(f"length {self.length} outside [1, {MAX_LENGTH}]")
        if self.shares.ring != RING:
            raise DomainError("genome shares must live over Z_2^16")
        if self.shares.batch != self.length * self.pairs:
            raise ShapeError("share batch does not match length * pairs")


def encode_strings(strings) -> np.ndarray:
    """Validate and stack plaintext code sequences into a (P, L) array."""
    return np.atleast_2d(plaintext(strings, ALPHABET))


def share_strings(strings, dealer: Dealer) -> GenomeShareString:
    arr = encode_strings(strings)
    pairs, length = arr.shape
    return GenomeShareString(length, pairs, dealer.share_input(arr.ravel(), RING))


def _gather(pair: SharePair, idx: np.ndarray) -> SharePair:
    """Party-local fancy indexing: pure data movement, no communication."""
    return SharePair(pair.ring, pair.v[:, idx], len(idx))


def _diag_rows(length: int, d: int) -> np.ndarray:
    """Rows i of the inner cells (i, d - i) on anti-diagonal d, ascending."""
    return np.arange(max(1, d - length), min(length, d - 1) + 1)


def _segments(cells: np.ndarray, pairs: int) -> np.ndarray:
    """Element indices of the P-element segments of ``cells``, in order."""
    return (cells[:, None] * pairs + np.arange(pairs)).ravel()


def mismatch_matrix(store: MaterialStore, s: GenomeShareString,
                    t: GenomeShareString):
    """Arithmetic shares of e[i][j] = 0 iff s[i] == t[j], for every cell of
    every string pair; cell (i, j) occupies segment (i*L + j) * P. 3 rounds."""
    if (s.length, s.pairs) != (t.length, t.pairs):
        raise ShapeError("string collections must have equal shape")
    length, pairs = s.length, s.pairs
    ii, jj = np.meshgrid(np.arange(length), np.arange(length), indexing="ij")
    p_base = np.arange(pairs) * length
    s_idx = (p_base[None, :] + ii.ravel()[:, None]).ravel()
    t_idx = (p_base[None, :] + jj.ravel()[:, None]).ravel()
    eq = yield from equality(store, _gather(s.shares, s_idx), _gather(t.shares, t_idx))
    m = yield from b2a(store, eq, RING)
    return const_add(1, neg(m))  # e = 1 - [equal]


def mismatch_manifest(length: int, pairs: int = 1) -> list[Need]:
    one = GenomeShareString(1, 1, const_pair(0, RING, 1))  # a single cell
    return derive_manifest(mismatch_matrix, one, one, batch=length * length * pairs)


def edit_distance(store: MaterialStore, s: GenomeShareString,
                  t: GenomeShareString):
    """Levenshtein distance of each string pair, as a Z_2^16 share of
    batch P. Exactly 8L - 1 rounds."""
    length, pairs = s.length, s.pairs
    e = yield from mismatch_matrix(store, s, t)

    side = length + 1
    row, col = np.divmod(np.arange(side * side), side)
    table = trivial(0, np.repeat(np.where(row * col == 0, row + col, 0), pairs), RING)
    for d in range(2, 2 * length + 1):
        i = _diag_rows(length, d)
        j = d - i
        at = _segments(i * side + j, pairs)
        up = const_add(1, _gather(table, at - side * pairs))
        left = const_add(1, _gather(table, at - pairs))
        diag = add(_gather(table, at - (side + 1) * pairs),
                   _gather(e, _segments((i - 1) * length + j - 1, pairs)))
        best = yield from min3(store, [up, left, diag])
        table.v[:, at] = best.v
    return best  # the last diagonal is the single cell (L, L)


def edit_distance_manifest(length: int, pairs: int = 1) -> list[Need]:
    """Mismatch matrix plus one batched 3-Min per anti-diagonal. Material is
    not linear in the length, so this composes per-phase manifests instead
    of recording edit_distance itself; the 3-Min needs of one DP cell are
    recorded once and scaled once per cell count, and the two diagonals
    of each count share those needs."""
    needs = mismatch_manifest(length, pairs)
    cell = derive_manifest(min3, [const_pair(0, RING, 1) for _ in range(3)])
    scaled = {}
    for d in range(2, 2 * length + 1):
        cells = len(_diag_rows(length, d)) * pairs
        if cells not in scaled:
            scaled[cells] = [need.scaled(cells) for need in cell]
        needs += scaled[cells]
    return needs
