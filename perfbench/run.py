#!/usr/bin/env python3
"""Closed-loop wall-time and memory benchmark of ringmpc.

    python3 perfbench/run.py --workload cmp32-b100k --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout: ringmpc is imported from ``src/``
of the checkout this file sits in, never from an installed copy. One client
in one single-threaded process runs iterations back to back; each uses a
fresh ``Session`` and fresh inputs drawn from ``--seed``. Iterations start
until the next one would end after ``--seconds``; at least one runs.

Every output is checked against a plaintext oracle, and every iteration's
rounds and bits per party against the frozen counts. The last line of
standard output is one JSON object: the end-to-end metrics with
``--trace 0``, and the per-layer metrics of a traced run with
``--trace 1``. The exit code is nonzero when any iteration failed.

The times are scaled to a reference machine speed (see ``calibrate``).
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench_out"

END_TO_END = {
    "setup_s": "s",
    "online_s": "s",
    "wan_latency_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "rounds": "count",
    "bits_per_party": "bit",
    "ok_rate": "ratio",
}

PER_LAYER = {
    "ring.uniform.calls": "count",
    "ring.uniform.elems": "count",
    "ring.uniform.self_s": "s",
    "ring.plumbing.calls": "count",
    "ring.plumbing.self_s": "s",
    "ring.algebra.calls": "count",
    "ring.algebra.self_s": "s",
    "dealer.provision_s": "s",
    "dealer.gen_bte.calls": "count",
    "dealer.gen_bte.self_s": "s",
    "dealer.gen_b2a.calls": "count",
    "dealer.gen_b2a.self_s": "s",
    "dealer.other.self_s": "s",
    "dealer.draws": "count",
    "dealer.material_bytes": "B",
    "gates.mult_n.calls": "count",
    "gates.mult_n.self_s": "s",
    "gates.opened_elems": "count",
    "gates.subset_products": "count",
    "engine.run.self_s": "s",
    "engine.parallel.self_s": "s",
    "engine.round_samples": "count",
    "engine.round_compute_p50_ms": "ms",
    "engine.round_compute_p99_ms": "ms",
    "engine.transcript_bytes": "B",
    "engine.logical_bytes": "B",
    "protocols.calls": "count",
    "protocols.self_s": "s",
    "editdist.mismatch_s": "s",
    "editdist.dp_s": "s",
    "editdist.self_s": "s",
    "phase.setup.self_s": "s",
    "trace.setup_s": "s",
    "trace.online_s": "s",
    "trace.overhead_s": "s",
}


# The vCPUs of a shared host run a fixed Python loop 1.6x slower in one
# minute than in the next, and ringmpc's times swing with them. So a fixed
# kernel that does not touch ringmpc is timed before the offline phase and
# after each phase, once per started second of the phase, and each
# end-to-end time is reported as its median times CALIBRATION_REF_S / the
# median kernel time of the same run: seconds on a machine that runs the
# kernel in CALIBRATION_REF_S. A change to ringmpc moves these times as it
# moves the wall time; a change in the speed of the host does not.
CALIBRATION_REF_S = 0.025


def calibrate(after_s: float = 0.0) -> list:
    """Time the fixed kernel once per started second of ``after_s``, and at
    least once. The kernel does the three kinds of work the workloads do: an
    interpreter loop, small NumPy calls, and in-place passes over a 16 MiB
    array, larger than a core's L2 cache. Returns the times in seconds."""
    import numpy as np

    times = []
    for _ in range(max(1, math.ceil(after_s))):
        small = np.arange(128, dtype=np.uint64)
        large = np.arange(1 << 21, dtype=np.uint64)
        t0 = perf_counter()
        acc = 0
        for i in range(75_000):
            acc += i ^ (i >> 3)
        a = small
        for _ in range(1500):
            a = (a * np.uint64(3) + small) & np.uint64(0xFFFFFFFF)
        for _ in range(3):
            np.multiply(large, np.uint64(0x9E3779B97F4A7C15), out=large)
            np.bitwise_xor(large, np.uint64(0x5BD1E995), out=large)
        times.append(perf_counter() - t0)
    return times


def load_ringmpc():
    pkg = SRC / "ringmpc"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: no ringmpc sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import ringmpc

    if Path(ringmpc.__file__).resolve().parent != pkg:
        sys.exit(f"perfbench: imported ringmpc from {ringmpc.__file__}, not {pkg}")


def iteration(wl, seed: int, k: int, tracer=None):
    """Run iteration ``k``: offline phase, online phase, then the checks.
    Returns (setup_s, online_s, calibration times, session, problems)."""
    import numpy as np
    from ringmpc import Session, reconst

    rng = np.random.default_rng([seed, k])
    inputs = wl.make_inputs(rng)
    session_seed = int(rng.integers(1 << 63))

    cal = calibrate()
    t0 = perf_counter()
    if tracer:
        tracer.enter("phase.setup")
    try:
        sess = Session(seed=session_seed)
        gen = wl.setup(sess, inputs)
    finally:
        if tracer:
            tracer.exit()
    t1 = perf_counter()
    cal += calibrate(t1 - t0)
    t2 = perf_counter()
    out = sess.run(gen)
    t3 = perf_counter()
    cal += calibrate(t3 - t2)

    problems = []
    rep = sess.cost_report()
    if (rep["rounds"], rep["bits_per_party"]) != (wl.rounds, wl.bits_per_party):
        problems.append(
            f"counts drifted: {rep['rounds']} rounds, {rep['bits_per_party']} bits; "
            f"frozen at {wl.rounds} rounds, {wl.bits_per_party} bits"
        )
    if not sess.store.is_empty():
        problems.append("correlated randomness left in the store")
    if not np.array_equal(reconst(*out).astype(np.uint64), wl.oracle(inputs)):
        problems.append("output differs from the plaintext oracle")
    return t1 - t0, t3 - t2, cal, sess, problems


def layer_metrics(tracer, traced: list, untraced: list) -> dict:
    """Per-iteration means over the traced iterations. ``traced`` holds
    (span range, counts) per iteration; ``untraced`` holds setup + online
    times of the untraced timed iterations of the same process."""
    import numpy as np
    import tracing as T

    spans = tracer.arrays()
    rows, rounds = [], []
    for (lo, hi), counts in traced:
        row = T.summarize(tracer.names, spans, lo, hi)
        rounds += row.pop("round_compute_ms")
        row.update(T.layer_counts(counts))
        rows.append(row)
    mean = {key: statistics.fmean(r.get(key, 0) for r in rows)
            for key in set().union(*rows)}
    traced_total = mean["trace.setup_s"] + mean["trace.online_s"]
    mean.update({
        "engine.round_samples": len(rounds),
        "engine.round_compute_p50_ms": float(np.percentile(rounds, 50)),
        "engine.round_compute_p99_ms": float(np.percentile(rounds, 99)),
        "trace.overhead_s": traced_total - statistics.fmean(untraced),
    })
    return {name: mean.get(name, 0) for name in PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    load_ringmpc()
    import tracing as T
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    tracer = T.Tracer() if args.trace else None
    attempted = failed = 0
    timed, untraced, traced, cal_times = [], [], [], []
    report = None
    longest = 0.0
    start = perf_counter()
    # With --trace 1 the iterations alternate untraced (even k) and traced
    # (odd k), so that the tracing overhead is measured in the same process.
    for k in itertools.count():
        tracing = tracer is not None and k % 2 == 1
        if tracing:
            tracer.counts.clear()
            tracer.install()
            lo = tracer.span_count()
        t_iter = perf_counter()
        attempted += 1
        try:
            setup_s, online_s, cal, sess, problems = iteration(wl, args.seed, k, tracer if tracing else None)
        except Exception:
            failed += 1
            print(f"iteration {k} raised:\n{traceback.format_exc()}", file=sys.stderr)
        else:
            if problems:
                failed += 1
                print(f"iteration {k} failed: {'; '.join(problems)}", file=sys.stderr)
            else:
                report = sess.cost_report()
                if tracing:
                    counts = tracer.counts.copy()
                    counts["dealer.draws"] = sess.dealer.draw_count
                    counts["engine.transcript_bytes"] = T.transcript_bytes(sess.transcript)
                    counts["engine.logical_bytes"] = 2 * report["bits_per_party"] // 8
                    traced.append(((lo, tracer.span_count()), counts))
                elif tracer:
                    untraced.append(setup_s + online_s)
                else:
                    timed.append((setup_s, online_s))
                    cal_times += cal
            del sess
        finally:
            if tracing:
                tracer.uninstall()
        longest = max(longest, perf_counter() - t_iter)
        enough = (traced and untraced) if tracer else timed
        if failed or (enough and perf_counter() - start + longest > args.seconds):
            break

    if tracer and traced and untraced:
        values = layer_metrics(tracer, traced, untraced)
        units = PER_LAYER
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{wl.name}-seed{args.seed}.npz"
        tracer.save(path)
        print(f"spans written to {path.relative_to(ROOT)}", file=sys.stderr)
    elif timed:
        wall_setup_s = statistics.median(s for s, _ in timed)
        wall_online_s = statistics.median(o for _, o in timed)
        calibration_s = statistics.median(cal_times)
        scale = CALIBRATION_REF_S / calibration_s
        setup_s, online_s = wall_setup_s * scale, wall_online_s * scale
        print(f"wall clock: setup {wall_setup_s:.6g} s, online {wall_online_s:.6g} s; "
              f"calibration kernel {calibration_s * 1e3:.4g} ms (reference "
              f"{CALIBRATION_REF_S * 1e3:g} ms), scale {scale:.4f}")
        values = {
            "setup_s": setup_s,
            "online_s": online_s,
            "wan_latency_s": online_s + report["online_total_ms"] / 1e3,
            "ops_per_s": wl.outputs / (setup_s + online_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "rounds": report["rounds"],
            "bits_per_party": report["bits_per_party"],
            "ok_rate": (attempted - failed) / attempted,
        }
        units = END_TO_END
    else:
        values, units = {}, {}

    samples = len(traced) if tracer else len(timed)
    print(f"{wl.name}: {attempted} iterations ({samples} measured"
          f"{', traced' if tracer else ''}), {failed} failed")
    for name, value in values.items():
        print(f"  {name:<30} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
