"""Fixed-seed digests of whole protocol runs.

Each configuration is run at a fixed seed, and one SHA-256 covers its
derived manifest (every need in take order), its rounds and bits,
``Transcript.to_bytes()`` and both parties' output shares. A refactor that
must not change behaviour keeps every digest. A deliberate change to the
material or to the order of dealer draws changes them: regenerate the
digests with ``python tests/test_transcript_pins.py`` and say so in
CHANGES.md.
"""
import dataclasses
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


def _needs_text(needs) -> str:
    """Every field of every need, in take order, in the text the digests
    were taken with: the dataclass repr from when ``Need`` also had a
    ``count`` field, which derived manifests always set to 1."""
    assert [f.name for f in dataclasses.fields(Need)] == ["kind", "width", "batch", "fan_in"]
    return "[" + ", ".join(
        f"Need(kind={n.kind!r}, width={n.width}, batch={n.batch}, fan_in={n.fan_in}, count=1)"
        for n in needs
    ) + "]"


def _digest(sess, needs, out) -> str:
    h = hashlib.sha256()
    h.update(_needs_text(needs).encode())
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
    "equality": "fb3dc6b78f7a1ad01412d788bf9d939d0eb3c87c1ffa3f921fdd270e766170b8",
    "equality-baseline": "d96548996b32c3bdc4118890138d55ab6b30805a963a003ae61eaa68d6b8dc52",
    "comparison": "9dff2ab0df5db4e8b02c55fa74c39de2aeec2260f26370f0aa4118e4bf480598",
    "comparison-baseline": "61a420bca6d8f274eb8c4106701bb77e2fadc246715098d8aceffd9813534d53",
    "max3": "cd774467fa7f49607c46f066a16590c345293bae79b04ff3f0ecebb9902d6da3",
    "max3-baseline": "e6a748c59b48ed0360967def1ecf9fdf5ca41cf01f94d94387944a14806e9b35",
    "min3": "13a0f94eae510638150d590d2bcdeb11235ce8b49c5c5f84a6b09c7457d5835f",
    "argmax3": "56039e77fa63f244c6f47fac9e668d7d6b1ca75e6005ddc0225ad26c8bcb6fe6",
    "argmin3": "5a93df36e9384b6b141b40981af1847df24dbacf2f39a4787fbe1196e03b3191",
    "overflow": "c6a7c35116a843006b774e9095a2ea95a04e0156645dfab27fb392fc3711c520",
    "overflow1r": "3bc64656923c960b19f9ac798689fcb0f7176dd10da090faff07ea68381f1158",
    "msnzb": "38439e0eb777c1c4ca086749f2e70640926c6db3666744d89df7ed1b8b4ad539",
    "b2a": "ad4d479ee6ee9ecd38d36d5b625c95bf053d0d0a9fa1c01b1562c9c9095d81fc",
    "bx2a": "ec9efa6da15b53d9a73add8d0b883be817ecc0d04de478025de234c43e9d1241",
    "bc2a": "412c7443341cc2aaf36c0ed52c7c8d8cae061d6556d2008caf744c7e05aefc4a",
    "bcx2a": "b2cf2b02b724cf9224c02f67792511cb767653799f4e47aebdbeba23bfaf2cd9",
    "max5-cap9": "50d7aa9c08cb5f9d1ad634cc463733f3cc1169a46902b7007d33539e8bcbc24d",
    "max5-cap3": "944eda720a8e5cf731c00294b2db2e9fdb1ce8cc9614d475b9b8d33e21560d5d",
    "tlu3": "02fe4d437cc47c47f8a1925281e0e145c77a1caa25747ac9d4ff10dd295eb1dc",
    "9-mult-z64": "8b0250ad8d499f1f68e286645f2294d6b2abc82bb409d59cc356e85a48f41208",
    "9-and-bool": "d10e350525c3fd4952fc1f0e7cc209aa5a8cd2da7fdae3d13fdd27d7a10e9580",
    "editdist-L5-P3": "7266c1b2d9c0ba4945df38b7490bdd9e919174df0559d8630bced72fc5d85237",
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_fixed_seed_run_matches_pin(name):
    assert _configs()[name]() == PINS[name]


def test_every_configuration_is_pinned():
    assert sorted(_configs()) == sorted(PINS)


if __name__ == "__main__":
    digests = {name: run() for name, run in _configs().items()}
    print("PINS = {")
    for name, digest in digests.items():
        print(f'    "{name}": "{digest}",')
    print("}")
    kept = [name for name, digest in digests.items() if PINS.get(name) == digest]
    print("changed:", ", ".join(sorted(set(digests) - set(kept))) or "none")
    print("kept:", ", ".join(kept) or "none")
