"""Fixed-seed digests of whole protocol runs.

Each configuration is run at a fixed seed, and one SHA-256 covers its
derived manifest (every need in take order), its rounds and bits,
``Transcript.to_bytes()`` and both parties' output shares. A refactor that
must not change behaviour keeps every digest. A deliberate change to the
material or to the order of dealer draws changes them: regenerate the
digests with ``python tests/test_transcript_pins.py`` and say so in
CHANGES.md. Run as a script it prints the digests and the names whose
digest changed ("changed: none" if none did), and exits with status 1
when any digest changed, so a script can check for that.
"""
import dataclasses
import hashlib
import sys

import numpy as np
import pytest

from ringmpc import bench
from ringmpc import protocols as P
from ringmpc.dealer import Need
from ringmpc.editdist import edit_distance, edit_distance_manifest, share_strings
from ringmpc.engine import Session, derive_manifest
from ringmpc.gates import and_n, mult_n
from ringmpc.ring import BOOL, RingSpec, Share, Z64

SEED = 7
BATCH = 3


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
    zeros = build(bench._ZeroSharer(), np.random.default_rng(0), ring, 1)
    needs = derive_manifest(proto, *zeros, batch=BATCH)
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
    "equality": "3336f24be32547ab7f57482386a53cb6cc1f2d5067b93cc50895544063f559f2",
    "equality-baseline": "c7d3a7dd09f39c61072539805cff14af231c5f457f89380f45cc5fde28188a31",
    "comparison": "768f892a1ec94e47bd4fbd5baa623d3b44eefbcc5d9b89706a80eb94768af81e",
    "comparison-baseline": "5f8ea12c5abadcf5455e34b75342374ffc9f7356ae6cb031d4adf6b5509a57dd",
    "max3": "74612df1b48f0d4576f9730355d6a7f3e0de8aaa43a47da68cbfa9a680c2f2cd",
    "max3-baseline": "88757f8954b96f57472591e72c81575210f132af6bdd8b4039dc20ab470da556",
    "min3": "8fb7b7bfa040f27f9d6f4f68fab259647b51fef0d3facea400faf01190f27a70",
    "argmax3": "bd9f993c77c1ea6cd05944016af17f6552625aa842d01d3041eab45caecd8297",
    "argmin3": "a672e10ff69fa3487bcfab73b9063fc7fa09106a66e4d3793b4e94ec913b1c52",
    "overflow": "31d6f9c4ea68d59e75d2c9efa4fb16876b949604d19a844585b5e7528f0dc2cc",
    "overflow1r": "592a116d6c0c4497cd02aaf3b4b99b2413956f8cd76d8377dc3f95f32323c55f",
    "msnzb": "76f6c883b81e124b592b14b4f01782f9cb5fbdf2f053f41bbc69d1c3723a6ed6",
    "b2a": "ad4d479ee6ee9ecd38d36d5b625c95bf053d0d0a9fa1c01b1562c9c9095d81fc",
    "bx2a": "ec9efa6da15b53d9a73add8d0b883be817ecc0d04de478025de234c43e9d1241",
    "bc2a": "412c7443341cc2aaf36c0ed52c7c8d8cae061d6556d2008caf744c7e05aefc4a",
    "bcx2a": "b2cf2b02b724cf9224c02f67792511cb767653799f4e47aebdbeba23bfaf2cd9",
    "max5-cap9": "2207a0d20dd1f6222ece78b840d85434455e2a6b5a184a2c1135e27cb8d25f72",
    "max5-cap3": "4b0c60435bc3441a6cce36e2ecbad74d2b8c353b5058f9129515fe274473736d",
    "tlu3": "bef4809a2dbb5fc520c063786ff6b9bd2d6388032ec778a03ba769fad6238621",
    "9-mult-z64": "8b0250ad8d499f1f68e286645f2294d6b2abc82bb409d59cc356e85a48f41208",
    "9-and-bool": "dafd5f7882433043b108da64be3350edcebc7b0f0e9fe5883a95ddbb3e6ddf57",
    "editdist-L5-P3": "29add6edbc9c04ee4a31dfb2acf1d22663a5873c36b86f5fd4bad3246d484baa",
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
    changed = sorted(set(digests) - set(kept))
    print("changed:", ", ".join(changed) or "none")
    print("kept:", ", ".join(kept) or "none")
    sys.exit(1 if changed else 0)
