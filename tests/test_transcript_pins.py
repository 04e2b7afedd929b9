"""Fixed-seed digests of whole protocol runs.

Each configuration is run at a fixed seed, and one SHA-256 covers its
derived manifest (every need in take order), its rounds and bits,
``Transcript.to_bytes()`` and both parties' output shares. A refactor that
must not change behaviour keeps every digest. A deliberate change to the
material or to the order of dealer draws changes them: regenerate the
digests with ``python tests/test_transcript_pins.py`` and say so in
CHANGES.md.
"""
import hashlib

import numpy as np
import pytest

from ringmpc import bench
from ringmpc import protocols as P
from ringmpc.dealer import Need
from ringmpc.editdist import edit_distance, edit_distance_manifest, share_strings
from ringmpc.engine import Session, derive_manifest
from ringmpc.gates import and_n, mult_n
from ringmpc.ring import BOOL, RingSpec, Share, Z64, const_pair

SEED = 7
BATCH = 3


class _ZeroSharer:
    @staticmethod
    def share_input(x, ring):
        return const_pair(0, ring, np.size(x))


def _shares(out):
    if isinstance(out, Share):
        yield out
    else:
        for part in out:
            yield from _shares(part)


def _digest(sess, needs, out) -> str:
    h = hashlib.sha256()
    h.update(repr(needs).encode())
    h.update(repr((sess.rounds, sess.bits)).encode())
    h.update(sess.transcript.to_bytes())
    for share in _shares(out):
        h.update(bytes([share.party_id]))
        h.update(share.values.astype("<u8").tobytes())
    return h.hexdigest()


def _run_protocol(proto, build, ring):
    sess = Session(seed=SEED)
    args = build(sess, np.random.default_rng(SEED), ring, BATCH)
    needs = derive_manifest(proto, *build(_ZeroSharer(), np.random.default_rng(0), ring, 1),
                            batch=BATCH)
    sess.provision(needs)
    return _digest(sess, needs, sess.run(proto(sess.store, *args)))


def _run_gate(op, ring, fan):
    sess = Session(seed=SEED)
    rng = np.random.default_rng(SEED)
    high = 2 if ring.is_boolean else 1 << 63
    inputs = [sess.share_input(rng.integers(0, high, BATCH, dtype=np.uint64), ring)
              for _ in range(fan)]
    needs = [Need("bte", ring.width_bits, BATCH, fan_in=fan)]
    sess.provision(needs)
    out = sess.run(op(inputs, *sess.store.take_bte(fan, ring, BATCH)))
    return _digest(sess, needs, out)


def _run_editdist(length, pairs):
    sess = Session(seed=SEED)
    codes = np.random.default_rng(SEED).integers(0, 4, (2, pairs, length), dtype=np.uint64)
    s = share_strings(codes[0], sess.dealer)
    t = share_strings(codes[1], sess.dealer)
    needs = edit_distance_manifest(length, pairs)
    sess.provision(needs)
    return _digest(sess, needs, sess.run(edit_distance(sess.store, s, t)))


def _maxn_inputs(n_vals, cap):
    def build(sess, rng, ring, batch):
        return [[sess.share_input(rng.integers(0, ring.modulus // 2, batch, dtype=np.uint64),
                                  ring) for _ in range(n_vals)], cap]
    return build


def _tlu_inputs(n_keys):
    def build(sess, rng, ring, batch):
        keys = rng.permutation(64)[:n_keys]
        table = P.LookupTable(
            [sess.share_input(np.full(batch, k, np.uint64), ring) for k in keys],
            [sess.share_input(rng.integers(0, ring.modulus, batch, dtype=np.uint64), ring)
             for _ in keys],
        )
        return [table, sess.share_input(np.full(batch, keys[1], np.uint64), ring)]
    return build


def _configs():
    """name -> zero-argument runner returning the digest."""
    runs = {}
    for name, (proto, build, base) in bench.PROTOCOLS.items():
        ring = RingSpec(16 if name in ("msnzb", "overflow1r") else 32)
        runs[name] = lambda p=proto, b=build, r=ring: _run_protocol(p, b, r)
        if base is not None:
            runs[f"{name}-baseline"] = lambda p=base, b=build, r=ring: _run_protocol(p, b, r)
    for cap in (9, 3):
        runs[f"max5-cap{cap}"] = lambda c=cap: _run_protocol(
            P.maxn, _maxn_inputs(5, c), RingSpec(32))
    runs["tlu3"] = lambda: _run_protocol(P.tlu, _tlu_inputs(3), RingSpec(32))
    runs["9-mult-z64"] = lambda: _run_gate(mult_n, Z64, 9)
    runs["9-and-bool"] = lambda: _run_gate(and_n, BOOL, 9)
    runs["editdist-L5-P3"] = lambda: _run_editdist(5, 3)
    return runs


PINS = {
    "equality": "91f8fa6176018140e5a6ca1c4a5a2e953e2ca28861e79864770f98fbb7fcce75",
    "equality-baseline": "3b53cc73a59a0748b7c6ebfbaf35605245ca7b673c4e79ba7ae9315c34f577cf",
    "comparison": "3908b37510b50fbc33c6b9b5da3dad431a2359fb3a777d08e9f88f7a29f29fcb",
    "comparison-baseline": "0f2a8b36f0ce87e04b5d958c120a9f270fdb2c50be71817af23c280b4397f9f3",
    "max3": "e9718928f5d62fce6caa50212ddc4b37e69d3dd5c2c7048758d9da8050f84133",
    "max3-baseline": "50034c2cf25ad673def13cbe3225f670ddd81e85cadf79b8314250ef71275490",
    "min3": "1a839e9a83d0cf61a6fc32732c607d1f2cc7eeddc39bee358cc8b1883e85aa86",
    "argmax3": "db847d887b6e74e029d9d63db6e58985400666e559860650aff3510278232509",
    "argmin3": "ef2c859a3ab38be099d6f68e6de13eaef227496a06a24304d10e7dac10c7e1f9",
    "overflow": "88fd5db12b2d55106ffb49934ffbfd40e390a3f5e9900f983cf67af737e043e5",
    "overflow1r": "4142425713fbc17f6c235ec65e0e6508c612259e6e6c7a55109453d811bd1259",
    "msnzb": "0ce43a6b64eca8bcae25d2c8df84d9d1d5eede426e2aa23adba7a83b5b8196d6",
    "b2a": "12275a62362b3d762b97cd6a8cb1b33f918d15d5dc168cdb79dadb3b67538bff",
    "bx2a": "ce49930a264c2c704efa0c79edf7ac0afc41d421839a987bc570b883e87ab93e",
    "bc2a": "145b38c681819726c9ff4efdbda1f82cc45b3e718dac6548ff6ea90dbec5f3e2",
    "bcx2a": "358049beb4121b4936a2f7aa8b0ee2e406265b286515bae0bd47dcfd34d37d67",
    "max5-cap9": "0825f15aa5335fe32b889d4b6d8c6f3a5a75388910a516b1b21fd12799c47e23",
    "max5-cap3": "8f99c578959a5d97fe98048fad7c37c1a91f6c7537fd3c62e7a3251cf61159d8",
    "tlu3": "65059a6742d491735a452c756d70bc2b552d97ae76eb146bbeef9b1231b77f76",
    "9-mult-z64": "6b7aa1cf727ce89f84b657907e2fa29bfd1e53c93b3b93313eb6ecda4b878bee",
    "9-and-bool": "36372c8c13baf7856e363b254020a0d52e0a3d661b1499bb5a911fd59081e122",
    "editdist-L5-P3": "1ef0fb2a35de63654847e4bb3b5556b5fa7c6203e36bd1dd61524ca22ab777b1",
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_fixed_seed_run_matches_pin(name):
    assert _configs()[name]() == PINS[name]


def test_every_configuration_is_pinned():
    assert sorted(_configs()) == sorted(PINS)


if __name__ == "__main__":
    print("PINS = {")
    for name, run in _configs().items():
        print(f'    "{name}": "{run()}",')
    print("}")
