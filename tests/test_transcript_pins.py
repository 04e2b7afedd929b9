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
    "equality": "6db9353fda5add9f1c84c38f12a8639a70b038dcf85cf93e2c3efb9d87f10c09",
    "equality-baseline": "767e62ada2b44272a11e2d5d56653a5b121cba8835235704c5a35a8b06bbd036",
    "comparison": "c3549019e3ea53ee400cebc16b8fb24dc41294617696908834967931c8e7e9e6",
    "comparison-baseline": "bf55a91c4ae4cda885ec47b79b1d8b2892be4fbb263eb9558b50ce8978463d05",
    "max3": "3db547bcd1a4a2d846164983f08623ec286b03e169695b87e473bb1a5b6163a1",
    "max3-baseline": "5ea7f1584d609b406842adea50519a068f9aa17ad54ad1f93006576df600ceb3",
    "min3": "c38c5773cc9bcd2b05a39b963dfbd846992b2d531e7802cf472ca4e565c103e2",
    "argmax3": "202967f62871e7ec7a206010a58184c7e19e06e7c14dcdd3568129dd95c800c2",
    "argmin3": "d58b0ccad7d8004fc86a0a950082e4135cec7d670f1a15a9d02296b14427ba3e",
    "overflow": "74654d6392fd05ad2595b295477ebdc79da678122b290331094f7282cd876680",
    "overflow1r": "fa02f4dfdb09c4ffc3fc54d2fc8e100bf03f14591dfd4f71c16abe2beb7179c6",
    "msnzb": "c41ce8133ae3f61d73e062fe824c6801376b8226ad6b5c8f5bba28fe415cd369",
    "b2a": "ad4d479ee6ee9ecd38d36d5b625c95bf053d0d0a9fa1c01b1562c9c9095d81fc",
    "bx2a": "dcdddfac2317b04c1705fae558841682bd2e0852bb1c960562bee506db0404a2",
    "bc2a": "e66b6383db921658dab0094ab834ef37935e3a4b7013b96e64a8d82ec93c25ea",
    "bcx2a": "90f298d108615ffc90332453a4c6d3693da23c328648a052a12d470e54a5009a",
    "max5-cap9": "20f07fd1304be28914cf0a7b1ac71a916d1f01e8e1111870c2f8eb067f9a225e",
    "max5-cap3": "6568f5d82e9d71c25f489bcbae74cf83de410a09ee2ff87d055cc886382c3340",
    "tlu3": "db59a21c627f239337f6549b727c2083e1c5e381c436911f68db2b86541561ac",
    "9-mult-z64": "6b7aa1cf727ce89f84b657907e2fa29bfd1e53c93b3b93313eb6ecda4b878bee",
    "9-and-bool": "34512609bc8d9ec82598768e5fea50a815d244f6c7a04379d980c28b815937c6",
    "editdist-L5-P3": "c333bc901ce1af09384dfc921ea5465fff677dd0687a24c11e1eaa612755aea6",
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
