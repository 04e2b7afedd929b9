"""Outside-in layer tracing for the benchmark's traced run.

The tracer wraps public functions of ringmpc's layers from the outside: it
rebinds every module attribute that holds the original function (modules
import names by value, e.g. ``ringmpc.dealer.uniform`` or
``ringmpc.protocols.or_n``) and patches class methods. Gates and protocols
are generator coroutines, so their wrapper records one span per resume: the
time the generator really computes, not the rounds it waits through.

Spans (name, start, end, parent) stay in memory and are written out once at
the end. A span's self time is its duration minus that of its child spans.
"""
from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

from ringmpc import dealer, editdist, engine, gates, protocols, ring

RING_PLUMBING = ("concat_pairs", "split_pair", "slice_pair", "bits_of", "bit_decompose_local")
RING_ALGEBRA = ("add", "sub", "sub_mirror", "neg", "const_add", "const_mult", "xor",
                "not_", "trivial")
PROTOCOLS = tuple(
    name for name, fn in vars(protocols).items()
    if inspect.isgeneratorfunction(fn) and fn.__module__ == protocols.__name__
    and not name.startswith("_")
)

# Span name -> the layer bucket its self time is charged to. Self times of
# all buckets add up to the traced set-up plus online time.
LAYER = {
    "phase.setup": "phase.setup",
    "ring.uniform": "ring.uniform",
    **{f"ring.{n}": "ring.plumbing" for n in RING_PLUMBING},
    **{f"ring.{n}": "ring.algebra" for n in RING_ALGEBRA},
    "dealer.share_input": "dealer.other",
    "dealer.provision": "dealer.other",
    "dealer.gen_bte": "dealer.gen_bte",
    "dealer.gen_b2a": "dealer.gen_b2a",
    "gates.mult_n": "gates.mult_n",
    "engine.run": "engine.run",
    "engine.parallel": "engine.parallel",
    **{f"protocols.{n}": "protocols" for n in PROTOCOLS},
    "editdist.edit_distance": "editdist",
    "editdist.mismatch_matrix": "editdist",
}
BUCKETS = tuple(dict.fromkeys(LAYER.values()))


def _count_uniform(counts, ring_spec, size, rng):
    counts["ring.uniform.elems"] += int(size)


def _count_mult_n(counts, inputs, t0, t1):
    n, batch = len(inputs), len(inputs[0][0])
    counts["gates.opened_elems"] += n * batch
    counts["gates.subset_products"] += ((1 << n) - 1) * batch


def _count_material(counts, _dealer, store, needs):
    counts["dealer.material_bytes"] = store_bytes(store)


def store_bytes(store) -> int:
    """Bytes of correlated randomness held in a material store."""
    total = 0
    for pool in store._bte.values():
        for t0, t1 in pool:
            total += sum(a.nbytes for t in (t0, t1) for a in t.entries.values())
    for pool in store._b2a.values():
        total += sum(m.a.nbytes + m.b.nbytes + m.c0.nbytes + m.c1.nbytes for m in pool)
    return total


def transcript_bytes(transcript) -> int:
    return sum(i.p0.nbytes + i.p1.nbytes for items in transcript.rounds for i in items)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # One span per index; flat arrays keep millions of spans cheap and
        # out of the garbage collector's way.
        self._name, self._parent = array("i"), array("q")
        self._start, self._end = array("d"), array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def enter(self, name: str):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self._stack.append(len(self._start))
        self._name.append(nid)
        self._parent.append(self._stack[-2])
        self._end.append(0.0)
        self._start.append(perf_counter())

    def exit(self):
        self._end[self._stack.pop()] = perf_counter()

    def span_count(self) -> int:
        return len(self._start)

    # -- wrappers -----------------------------------------------------------

    def _traced_gen(self, name, gen):
        """Proxy a protocol generator, one span per resume. The engine and
        ``parallel`` only ever ``send`` into protocol generators."""
        value = None
        while True:
            self.enter(name)
            try:
                items = gen.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                self.exit()
            value = yield items

    def wrap(self, name: str, fn, count=None):
        counts, calls = self.counts, name + ".calls"
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[calls] += 1
                if count:
                    count(counts, *args, **kwargs)
                return self._traced_gen(name, fn(*args, **kwargs))
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[calls] += 1
                if count:
                    count(counts, *args, **kwargs)
                self.enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.exit()
        return wrapper

    # -- patching -----------------------------------------------------------

    def _rebind(self, name: str, fn, count=None):
        """Replace every module-level binding of ``fn`` inside ringmpc."""
        wrapper = self.wrap(name, fn, count)
        modules = [m for k, m in sys.modules.items()
                   if k == "ringmpc" or k.startswith("ringmpc.")]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._undo.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, name: str, cls, attr: str, after=None):
        fn = vars(cls)[attr]
        wrapper = self.wrap(name, fn)
        if after:
            traced = wrapper

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = traced(*args, **kwargs)
                after(self.counts, *args, **kwargs)
                return result
        self._undo.append((cls, attr, fn))
        setattr(cls, attr, wrapper)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        self._rebind("ring.uniform", ring.uniform, _count_uniform)
        for n in RING_PLUMBING + RING_ALGEBRA:
            self._rebind(f"ring.{n}", getattr(ring, n))
        for n in PROTOCOLS:
            self._rebind(f"protocols.{n}", getattr(protocols, n))
        self._rebind("gates.mult_n", gates.mult_n, _count_mult_n)
        self._rebind("engine.parallel", engine.parallel)
        self._rebind("editdist.edit_distance", editdist.edit_distance)
        self._rebind("editdist.mismatch_matrix", editdist.mismatch_matrix)
        self._patch_method("engine.run", engine.Session, "run")
        self._patch_method("dealer.share_input", dealer.Dealer, "share_input")
        self._patch_method("dealer.gen_bte", dealer.Dealer, "gen_bte")
        self._patch_method("dealer.gen_b2a", dealer.Dealer, "gen_b2a_material")
        self._patch_method("dealer.provision", dealer.Dealer, "provision",
                           after=_count_material)

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def arrays(self):
        """(name id, start, end, parent index) of every span, as arrays."""
        return tuple(np.array(a) for a in (self._name, self._start, self._end, self._parent))

    def save(self, path):
        name, start, end, parent = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, start=start,
                            end=end, parent=parent)


def layer_counts(counts: Counter) -> dict:
    """Fold per-function call counts into per-layer ones."""
    out = Counter()
    for key, value in counts.items():
        name, dot, tail = key.rpartition(".")
        if tail == "calls":
            out[f"{LAYER[name]}.calls"] += value
        else:
            out[key] += value
    return out


def summarize(names: list[str], spans, lo: int, hi: int) -> dict:
    """Per-layer times of the spans ``[lo, hi)`` of ``Tracer.arrays()``,
    which must hold exactly one benchmark iteration: one ``phase.setup`` and
    one ``engine.run`` root."""
    name, start, end, parent = (a[lo:hi] for a in spans)
    parent = parent - lo
    dur = end - start
    nested = parent >= 0
    self_t = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    ids = {n: i for i, n in enumerate(names)}

    def of(span_name):
        return name == ids.get(span_name, -1)

    out = {f"{b}.self_s": 0.0 for b in BUCKETS}
    for n, nid in ids.items():
        out[f"{LAYER[n]}.self_s"] += float(self_t[name == nid].sum())
    run = of("engine.run")
    # Resumes of the top-level protocol generator: the local compute of one
    # round each, plus the compute after the last round.
    rounds = dur[nested & np.isin(parent, np.flatnonzero(run))]
    edit_s = float(dur[of("editdist.edit_distance")].sum())
    mismatch_s = float(dur[of("editdist.mismatch_matrix")].sum())
    out.update({
        "trace.setup_s": float(dur[of("phase.setup")].sum()),
        "trace.online_s": float(dur[run].sum()),
        "dealer.provision_s": float(dur[of("dealer.provision")].sum()),
        "editdist.mismatch_s": mismatch_s,
        "editdist.dp_s": edit_s - mismatch_s,
        "round_compute_ms": (rounds * 1e3).tolist(),
    })
    return out
