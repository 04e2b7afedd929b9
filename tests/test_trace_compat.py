"""The benchmark's layer tracer still fits the library.

``perfbench/tracing.py`` patches ringmpc from the outside by name: the ring
plumbing and algebra functions it lists, ``gates.mult_n`` (whose counter
takes exactly ``(inputs, t0, t1)``), the protocols and a few methods. A
renamed op or a changed gate signature breaks ``run.py --trace 1`` only at
run time, so this test installs the tracer, runs two protocols under it,
and uninstalls it again. The tracer module is loaded from its file and
only read.
"""
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import edit_distance_oracle
from ringmpc import dealer, engine, gates, ring
from ringmpc import editdist as E
from ringmpc import protocols as P
from ringmpc.engine import Session
from ringmpc.ring import Z32, reconst

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


T = _load_tracing()
PATCHED_METHODS = [(engine.Session, "run"), (dealer.Dealer, "share_input"),
                   (dealer.Dealer, "gen_bte"), (dealer.Dealer, "gen_b2a_material"),
                   (dealer.Dealer, "provision")]


def _bindings() -> dict:
    """Every module-level binding inside ringmpc and every patched method."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "ringmpc" or name.startswith("ringmpc."):
            for attr, val in vars(mod).items():
                out[(name, attr)] = val
    for cls, attr in PATCHED_METHODS:
        out[(cls.__name__, attr)] = vars(cls)[attr]
    return out


def _opened_elems(needs) -> int:
    """Logical sum of fan-in times batch over the gates of a manifest: each
    BTE table is consumed by one gate that opens fan-in x batch elements."""
    return sum(n.fan_in * n.batch for n in needs if n.kind == "bte")


def test_traced_names_are_ring_functions():
    for name in T.RING_PLUMBING + T.RING_ALGEBRA:
        assert inspect.isfunction(getattr(ring, name)), name
    assert list(inspect.signature(gates.mult_n).parameters) == ["inputs", "t0", "t1"]


@pytest.fixture
def tracer():
    before = _bindings()
    tracer = T.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert not changed, f"uninstall left {changed} patched"


def test_traced_comparison(tracer):
    batch = 1000
    rng = np.random.default_rng(17)
    xv, yv = (rng.integers(0, 1 << 31, batch, dtype=np.uint64) for _ in range(2))
    sess = Session(seed=17)
    x, y = sess.share_input(xv, Z32), sess.share_input(yv, Z32)
    needs = P.comparison_manifest(Z32, batch)
    sess.provision(needs)
    tracer.counts.clear()
    out = sess.run(P.comparison(sess.store, x, y))
    assert np.array_equal(reconst(*out), (xv < yv).astype(np.uint8))
    assert tracer.counts["gates.opened_elems"] == _opened_elems(needs) == 712 * batch
    assert tracer.counts["gates.mult_n.calls"] == len(needs)
    assert tracer.counts["ring.concat_pairs.calls"] > 0


def test_traced_edit_distance(tracer):
    length = 4
    codes = np.random.default_rng(4).integers(0, E.ALPHABET, (2, 1, length), dtype=np.uint64)
    sess = Session(seed=4)
    s, t = (E.share_strings(c, sess.dealer) for c in codes)
    needs = E.edit_distance_manifest(length, 1)
    sess.provision(needs)
    tracer.counts.clear()
    out = sess.run(E.edit_distance(sess.store, s, t))
    assert int(reconst(*out)[0]) == edit_distance_oracle(codes[0, 0].tolist(),
                                                         codes[1, 0].tolist())
    assert tracer.counts["gates.opened_elems"] == _opened_elems(needs)
    assert sess.store.is_empty()
