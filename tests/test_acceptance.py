"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

Each criterion runs self-contained sessions with fixed seeds; reference
numbers are the library's published cost tables (see README).
"""
import itertools
import sys

import numpy as np
import pytest
import scipy.stats

from conftest import edit_distance_oracle

from ringmpc import editdist as E
from ringmpc import protocols as P
from ringmpc.bench import run_bench
from ringmpc.cli import render
from ringmpc.dealer import Need
from ringmpc.engine import CostModel, Session
from ringmpc.gates import and_n, mult_n, or_n
from ringmpc.ring import BOOL, Share, SharePair, Z8, Z16, Z32, Z64, reconst

RINGS = {8: Z8, 16: Z16, 32: Z32, 64: Z64}


def _report(criterion: int, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion}: {status}"
    if detail:
        line += f" ({detail})"
    print(line, file=sys.stderr)
    assert ok, line


def _run(seed, manifest, gen_factory):
    sess = Session(seed=seed)
    sess.provision(manifest)
    result = sess.run(gen_factory(sess))
    return sess, result


def _rand(rng, high, batch):
    return rng.integers(0, high, batch, dtype=np.uint64)


def test_criterion_1_round_counts():
    """Equality 2, Comparison 3, 3-Max 4; baselines 5, 7, 18 — exact."""
    rng = np.random.default_rng(100)
    xv, yv = _rand(rng, 1 << 31, 4), _rand(rng, 1 << 31, 4)
    triple = [_rand(rng, 1 << 31, 4) for _ in range(3)]
    rounds = {}

    sess, _ = _run(1, P.equality_manifest(Z32, 4),
                   lambda s: P.equality(s.store, s.share_input(xv, Z32),
                                        s.share_input(yv, Z32)))
    rounds["equality"] = sess.rounds
    sess, _ = _run(2, P.comparison_manifest(Z32, 4),
                   lambda s: P.comparison(s.store, s.share_input(xv, Z32),
                                          s.share_input(yv, Z32)))
    rounds["comparison"] = sess.rounds
    sess, _ = _run(3, P.max3_manifest(Z32, 4),
                   lambda s: P.max3(s.store, [s.share_input(v, Z32) for v in triple]))
    rounds["max3"] = sess.rounds
    sess, _ = _run(4, P.baseline_equality_manifest(Z32, 4),
                   lambda s: P.baseline_equality(s.store, s.share_input(xv, Z32),
                                                 s.share_input(yv, Z32)))
    rounds["baseline equality"] = sess.rounds
    sess, _ = _run(5, P.baseline_comparison_manifest(Z32, 4),
                   lambda s: P.baseline_comparison(s.store, s.share_input(xv, Z32),
                                                   s.share_input(yv, Z32)))
    rounds["baseline comparison"] = sess.rounds
    sess, _ = _run(6, P.baseline_max3_manifest(Z32, 4),
                   lambda s: P.baseline_max3(
                       s.store, [s.share_input(v, Z32) for v in triple]))
    rounds["baseline max3"] = sess.rounds

    expect = {"equality": 2, "comparison": 3, "max3": 4,
              "baseline equality": 5, "baseline comparison": 7,
              "baseline max3": 18}
    _report(1, rounds == expect, f"rounds={rounds}")


def test_criterion_2_bit_counts():
    """Z_2^32 batch 1: 38 / 712 / 3960 bits per party; linear batch scaling."""
    rng = np.random.default_rng(101)
    observed = {}
    for batch in (1, 1000):
        xv, yv = _rand(rng, 1 << 31, batch), _rand(rng, 1 << 31, batch)
        triple = [_rand(rng, 1 << 31, batch) for _ in range(3)]
        sess, _ = _run(7, P.equality_manifest(Z32, batch),
                       lambda s: P.equality(s.store, s.share_input(xv, Z32),
                                            s.share_input(yv, Z32)))
        observed[("equality", batch)] = max(sess.bits)
        sess, _ = _run(8, P.comparison_manifest(Z32, batch),
                       lambda s: P.comparison(s.store, s.share_input(xv, Z32),
                                              s.share_input(yv, Z32)))
        observed[("comparison", batch)] = max(sess.bits)
        sess, _ = _run(9, P.max3_manifest(Z32, batch),
                       lambda s: P.max3(s.store,
                                        [s.share_input(v, Z32) for v in triple]))
        observed[("max3", batch)] = max(sess.bits)
    expect = {("equality", 1): 38, ("comparison", 1): 712, ("max3", 1): 3960,
              ("equality", 1000): 38_000, ("comparison", 1000): 712_000,
              ("max3", 1000): 3_960_000}
    _report(2, observed == expect, f"bits={observed}")


def test_criterion_3_gate_budget():
    """N-AND: 1 round, N bits per party per gate; 10^6 2-ANDs -> DTT 25 ms."""
    ok = True
    detail = []
    for fan in range(2, 10):
        sess = Session(seed=fan)
        sess.provision([Need("bte", 1, 1, fan_in=fan)])
        inputs = [sess.share_input([1], BOOL) for _ in range(fan)]
        sess.run(and_n(inputs, *sess.store.take_bte(fan, BOOL, 1)))
        if sess.rounds != 1 or sess.bits != [fan, fan]:
            ok = False
            detail.append(f"{fan}-AND rounds={sess.rounds} bits={sess.bits}")
    batch = 1_000_000
    sess = Session(seed=200)
    sess.provision([Need("bte", 1, batch, fan_in=2)])
    rng = np.random.default_rng(0)
    a = sess.share_input(rng.integers(0, 2, batch, dtype=np.uint64), BOOL)
    b = sess.share_input(rng.integers(0, 2, batch, dtype=np.uint64), BOOL)
    sess.run(and_n([a, b], *sess.store.take_bte(2, BOOL, batch)))
    rep = sess.cost_report(CostModel())
    if not (rep["dtt_ms"] == 25.0 and rep["rounds"] == 1):
        ok = False
        detail.append(f"batch run dtt={rep['dtt_ms']}")
    _report(3, ok, "; ".join(detail) or "N in [2,9], DTT 25.0 ms")


def test_criterion_4_correctness_oracles():
    mismatches = []

    # MSNZB exhaustive over all 2^16 inputs.
    batch = 1 << 16
    vals = np.arange(batch, dtype=np.uint64)
    sess = Session(seed=300)
    sess.provision(P.msnzb_manifest(batch))
    planes = [sess.share_input((vals >> np.uint64(j)) & np.uint64(1), BOOL)
              for j in range(16)]
    out = np.stack([reconst(*p) for p in sess.run(P.msnzb(sess.store, planes))])
    msb = np.zeros(batch, dtype=np.int64)
    for j in range(16):
        msb[vals >= (1 << j)] = j
    good = (np.all(out.sum(axis=0)[vals == 0] == 0)
            and np.all(out.sum(axis=0)[vals > 0] == 1)
            and np.array_equal(out.argmax(axis=0)[vals > 0], msb[vals > 0]))
    if not good:
        mismatches.append("msnzb")

    # Overflow (2-round) exhaustive at n=8 for every k.
    a = np.repeat(np.arange(256, dtype=np.uint64), 256)
    b = np.tile(np.arange(256, dtype=np.uint64), 256)
    x = SharePair.of(Share(0, Z8, a), Share(1, Z8, b))
    for k in range(1, 9):
        sess, z = _run(301, P.overflow_manifest(Z8, 1 << 16),
                       lambda s: P.overflow_2r(s.store, x, k))
        expect = ((a % (1 << k)) + (b % (1 << k)) >= (1 << k)).astype(np.uint8)
        if not np.array_equal(reconst(*z), expect):
            mismatches.append(f"overflow_2r k={k}")

    # Overflow (1-round) exhaustive at n=8, split (4,4).
    sess, z = _run(302, P.overflow_1r_manifest(Z8, 1 << 16),
                   lambda s: P.overflow_1r(s.store, x))
    if not np.array_equal(reconst(*z), ((a + b) >= 256).astype(np.uint8)):
        mismatches.append("overflow_1r")

    # and_n / or_n exhaustive truth tables, N <= 6.
    for fan in range(2, 7):
        rows = np.array(list(itertools.product([0, 1], repeat=fan)),
                        dtype=np.uint64)
        sess = Session(seed=303 + fan)
        sess.provision([Need("bte", 1, len(rows), fan_in=fan)] * 2)
        ins = [sess.share_input(rows[:, i], BOOL) for i in range(fan)]
        za = sess.run(and_n(ins, *sess.store.take_bte(fan, BOOL, len(rows))))
        zo = sess.run(or_n(ins, *sess.store.take_bte(fan, BOOL, len(rows))))
        if not (np.array_equal(reconst(*za), rows.min(axis=1).astype(np.uint8))
                and np.array_equal(reconst(*zo), rows.max(axis=1).astype(np.uint8))):
            mismatches.append(f"{fan}-AND/OR")

    # Equality and comparison: 10^5 randomized trials each, zero mismatches.
    rng = np.random.default_rng(304)
    total = 100_000
    xv = _rand(rng, 1 << 32, total)
    yv = xv.copy()
    flip = rng.random(total) < 0.5
    yv[flip] = _rand(rng, 1 << 32, int(flip.sum()))
    sess, z = _run(305, P.equality_manifest(Z32, total),
                   lambda s: P.equality(s.store, s.share_input(xv, Z32),
                                        s.share_input(yv, Z32)))
    if not np.array_equal(reconst(*z), (xv == yv).astype(np.uint8)):
        mismatches.append("equality 1e5")

    chunk = 25_000
    xv = _rand(rng, 1 << 31, total)
    yv = _rand(rng, 1 << 31, total)
    yv[::100] = xv[::100]
    for lo in range(0, total, chunk):
        xs, ys = xv[lo:lo + chunk], yv[lo:lo + chunk]
        sess, z = _run(306, P.comparison_manifest(Z32, chunk),
                       lambda s: P.comparison(s.store, s.share_input(xs, Z32),
                                              s.share_input(ys, Z32)))
        if not np.array_equal(reconst(*z), (xs < ys).astype(np.uint8)):
            mismatches.append(f"comparison chunk {lo}")

    _report(4, not mismatches, "; ".join(mismatches) or "all oracles exact")


def test_criterion_5_b2a_family():
    """All share patterns x randomized material reconstruct exactly;
    B2A costs n (not 2n) bits per party."""
    bad = []
    trials = 2000  # >= 10^3 independent material instances per conversion
    rng = np.random.default_rng(400)
    b0 = _rand(rng, 2, trials)
    b1 = _rand(rng, 2, trials)
    c0 = _rand(rng, 2, trials)
    c1 = _rand(rng, 2, trials)
    # Ensure every (share0, share1) pattern occurs for both bits.
    b0[:4], b1[:4] = [0, 0, 1, 1], [0, 1, 0, 1]
    c0[:4], c1[:4] = [1, 1, 0, 0], [1, 0, 1, 0]
    b = SharePair.of(Share(0, BOOL, b0), Share(1, BOOL, b1))
    c = SharePair.of(Share(0, BOOL, c0), Share(1, BOOL, c1))
    bb, cc = b0 ^ b1, c0 ^ c1
    for width in (16, 32, 64):
        ring = RINGS[width]
        xv = _rand(rng, 1 << min(width, 63), trials)
        sess, z = _run(401, P.b2a_manifest(ring, trials),
                       lambda s: P.b2a(s.store, b, ring))
        if not np.array_equal(reconst(*z), bb.astype(ring.dtype)):
            bad.append(f"b2a n={width}")
        if sess.bits != [width * trials] * 2:
            bad.append(f"b2a bits n={width}: {sess.bits}")
        sess, z = _run(402, P.bx2a_manifest(ring, trials),
                       lambda s: P.bx2a(s.store, b, s.share_input(xv, ring)))
        if not np.array_equal(reconst(*z), ring.wrap(bb * xv)):
            bad.append(f"bx2a n={width}")
        sess, z = _run(403, P.bc2a_manifest(ring, trials),
                       lambda s: P.bc2a(s.store, b, c, ring))
        if not np.array_equal(reconst(*z), (bb & cc).astype(ring.dtype)):
            bad.append(f"bc2a n={width}")
        sess, z = _run(404, P.bcx2a_manifest(ring, trials),
                       lambda s: P.bcx2a(s.store, b, c, s.share_input(xv, ring)))
        if not np.array_equal(reconst(*z), ring.wrap((bb & cc) * xv)):
            bad.append(f"bcx2a n={width}")
    _report(5, not bad, "; ".join(bad) or "all conversions exact, b2a = n bits")


def _distance_batch(seed, S, T):
    length = S.shape[1]
    sess = Session(seed=seed)
    sess.provision(E.edit_distance_manifest(length, S.shape[0]))
    z = sess.run(E.edit_distance(sess.store,
                                 E.share_strings(S, sess.dealer),
                                 E.share_strings(T, sess.dealer)))
    return sess, reconst(*z)


def test_criterion_6_edit_distance():
    bad = []

    # Exhaustive, binary alphabet, L <= 6 (L in {5, 6} sampled as full
    # cross-products of all strings; smaller L covered in the unit tests too).
    for length in range(1, 7):
        combos = np.array(list(itertools.product(range(2), repeat=length)),
                          dtype=np.uint64)
        idx = np.array(list(itertools.product(range(len(combos)), repeat=2)))
        S, T = combos[idx[:, 0]], combos[idx[:, 1]]
        sess, d = _distance_batch(500 + length, S, T)
        expect = np.array([edit_distance_oracle(S[i], T[i])
                           for i in range(len(S))], dtype=np.uint16)
        if not np.array_equal(d, expect):
            bad.append(f"exhaustive L={length}")
        if sess.rounds != 8 * length - 1:
            bad.append(f"rounds L={length}: {sess.rounds}")

    # 10^3 random DNA pairs per length.
    rng = np.random.default_rng(501)
    for length, chunk in ((16, 1000), (32, 250), (64, 100)):
        done = 0
        while done < 1000:
            S = rng.integers(0, 4, (chunk, length), dtype=np.uint64)
            T = rng.integers(0, 4, (chunk, length), dtype=np.uint64)
            sess, d = _distance_batch(502, S, T)
            expect = np.array([edit_distance_oracle(S[i], T[i])
                               for i in range(chunk)], dtype=np.uint16)
            if not np.array_equal(d, expect):
                bad.append(f"random L={length} chunk@{done}")
                break
            if sess.rounds != 8 * length - 1:
                bad.append(f"rounds L={length}: {sess.rounds}")
                break
            done += chunk

    # CL at defaults for L = 128, from an actual run.
    rng = np.random.default_rng(503)
    S = rng.integers(0, 4, (1, 128), dtype=np.uint64)
    T = rng.integers(0, 4, (1, 128), dtype=np.uint64)
    sess, d = _distance_batch(504, S, T)
    cl_s = sess.cost_report(CostModel())["cl_ms"] / 1000.0
    if not (abs(cl_s - 40.9) <= 0.05):
        bad.append(f"CL(L=128) = {cl_s} s")
    if d[0] != edit_distance_oracle(S[0], T[0]):
        bad.append("L=128 value")

    _report(6, not bad, "; ".join(bad) or "oracle-exact, 8L-1 rounds, CL 40.92 s")


def test_criterion_7_masked_values_uniform_and_secret_independent():
    """Opened masked values at n=8: chi-square uniform (p > 0.001) and the
    histogram does not depend on the secret."""
    def opened_stream(secret):
        batch = 100_000
        sess = Session(seed=700)  # same seed: same masks for both secrets
        sess.provision([Need("bte", 8, batch, fan_in=2)])
        x = sess.share_input(np.full(batch, secret, np.uint64), Z8)
        y = sess.share_input(np.full(batch, secret ^ 0x3C, np.uint64), Z8)
        sess.run(mult_n([x, y], *sess.store.take_bte(2, Z8, batch)))
        opened = []
        for items in sess.transcript.rounds:
            for item in items:
                opened.append((item.p0 + item.p1) & 0xFF)
        return np.concatenate(opened)

    ok = True
    detail = []
    streams = {}
    for secret in (5, 200):
        stream = opened_stream(secret)
        streams[secret] = np.bincount(stream, minlength=256)
        chi = scipy.stats.chisquare(streams[secret])
        if chi.pvalue <= 0.001:
            ok = False
            detail.append(f"uniformity p={chi.pvalue:.2e} secret={secret}")
    # Independence: same masks, different secrets -> shifted masked values
    # must still look identically distributed.
    table = np.stack([streams[5], streams[200]])
    chi2 = scipy.stats.chi2_contingency(table + 1)
    if chi2.pvalue <= 0.001:
        ok = False
        detail.append(f"independence p={chi2.pvalue:.2e}")
    _report(7, ok, "; ".join(detail) or "uniform and secret-independent")


def test_criterion_8_determinism():
    def transcript_bytes():
        rng = np.random.default_rng(800)
        xv = _rand(rng, 1 << 31, 50)
        yv = _rand(rng, 1 << 31, 50)
        sess, _ = _run(801, P.comparison_manifest(Z32, 50),
                       lambda s: P.comparison(s.store, s.share_input(xv, Z32),
                                              s.share_input(yv, Z32)))
        return sess.transcript.to_bytes()

    def bench_csv():
        return "".join(
            render(run_bench("protocol", name, seed=9), "csv")
            for name in ("equality", "comparison", "max3")
        )

    ok = transcript_bytes() == transcript_bytes() and bench_csv() == bench_csv()
    _report(8, ok, "transcripts and CSV byte-identical")
