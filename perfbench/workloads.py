"""The benchmark's workloads: inputs, offline phase, plaintext oracle, and
the frozen round and bit counts each one must reproduce.

Each workload drives only the public API. ``setup`` is the offline phase
(input sharing and provisioning the manifest) and returns the protocol
generator that ``Session.run`` drives in the online phase.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ringmpc import Need, Session, Z32, Z64
from ringmpc import gates
from ringmpc import protocols as P
from ringmpc import editdist as E

BATCH = 100_000
EDIT_LENGTH = 128
MULT_FANIN = 9


@dataclass(frozen=True)
class Workload:
    name: str
    outputs: int  # output elements per iteration
    rounds: int  # frozen: asserted on every iteration
    bits_per_party: int  # frozen: asserted on every iteration
    make_inputs: Callable[[np.random.Generator], tuple]
    setup: Callable[[Session, tuple], object]
    oracle: Callable[[tuple], np.ndarray]


# -- comparison over Z_2^32 ---------------------------------------------------
# Kernel-bound: 3 wide rounds; ring.uniform dominates set-up and
# gates.mult_n the online phase.

def _cmp_inputs(rng):
    # Comparison's plaintext domain is [0, 2^(n-1)).
    return tuple(rng.integers(0, 1 << 31, size=BATCH, dtype=np.uint64) for _ in range(2))


def _cmp_setup(sess, inputs):
    x, y = (sess.share_input(v, Z32) for v in inputs)
    sess.provision(P.comparison_manifest(Z32, BATCH))
    return P.comparison(sess.store, x, y)


def _cmp_oracle(inputs):
    x, y = inputs
    return (x < y).astype(np.uint64)


# -- edit distance ------------------------------------------------------------
# Round-bound: 1023 rounds on batches of at most 128 cells, so per-call
# overhead in ring, dealer, engine and protocols dominates.

def _edit_inputs(rng):
    return tuple(rng.integers(0, E.ALPHABET, size=(1, EDIT_LENGTH), dtype=np.uint64)
                 for _ in range(2))


def _edit_setup(sess, inputs):
    s, t = (E.share_strings(codes, sess.dealer) for codes in inputs)
    sess.provision(E.edit_distance_manifest(EDIT_LENGTH, 1))
    return E.edit_distance(sess.store, s, t)


def levenshtein(a, b) -> int:
    """Textbook O(len(a) * len(b)) dynamic program."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _edit_oracle(inputs):
    s, t = inputs
    return np.array([levenshtein(s[0].tolist(), t[0].tolist())], dtype=np.uint64)


# -- 9-fan-in MULT over Z_2^64 ------------------------------------------------
# The arithmetic path through the same dealer and gates layers, with no
# boolean ring or protocol glue: a boolean-only change should not move it.

def _mult_inputs(rng):
    return tuple(rng.integers(0, 1 << 64, size=BATCH, dtype=np.uint64)
                 for _ in range(MULT_FANIN))


def _mult_setup(sess, inputs):
    xs = [sess.share_input(v, Z64) for v in inputs]
    sess.provision([Need("bte", 64, BATCH, fan_in=MULT_FANIN)])
    return gates.mult_n(xs, *sess.store.take_bte(MULT_FANIN, Z64, BATCH))


def _mult_oracle(inputs):
    out = np.ones(BATCH, dtype=np.uint64)
    for v in inputs:
        out *= v  # uint64 arrays wrap mod 2^64
    return out


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="cmp32-b100k",
            outputs=BATCH,
            rounds=3,
            bits_per_party=71_200_000,
            make_inputs=_cmp_inputs,
            setup=_cmp_setup,
            oracle=_cmp_oracle,
        ),
        Workload(
            name="edit-L128",
            outputs=1,
            rounds=1023,
            bits_per_party=29_294_592,
            make_inputs=_edit_inputs,
            setup=_edit_setup,
            oracle=_edit_oracle,
        ),
        Workload(
            name="mult9-z64-b100k",
            outputs=BATCH,
            rounds=1,
            bits_per_party=57_600_000,
            make_inputs=_mult_inputs,
            setup=_mult_setup,
            oracle=_mult_oracle,
        ),
    )
}
