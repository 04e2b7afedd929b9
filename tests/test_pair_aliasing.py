"""Protocols never write into their input pairs.

Slices and splits of a pair are views of its array (for packed boolean
pairs, when they cut on word boundaries), so a protocol that wrote in place
into an input would corrupt its caller's data. Each input here is cut from
a larger parent pair, a view wherever the layout allows; after the run both
the inputs and the parent must be bit-identical to before.
"""
import numpy as np
import pytest

from ringmpc import editdist as E
from ringmpc import protocols as P
from ringmpc.engine import Session
from ringmpc.ring import BOOL, Z32, concat_pairs, split_pair

BATCH = 6


def _views(sess, ring, count, high, seed, batch=BATCH):
    """``count`` pairs split from one parent pair: views of it above width
    1, and at width 1 too when ``batch`` is a whole number of words."""
    vals = np.random.default_rng(seed).integers(0, high, count * batch, dtype=np.uint64)
    parent = sess.share_input(vals, ring)
    return parent, split_pair(parent, count)


def _comparison(sess):
    parent, (x, y) = _views(sess, Z32, 2, 1 << 31, 1)
    return [parent, x, y], P.comparison_manifest(Z32, BATCH), P.comparison(sess.store, x, y)


def _max3(sess):
    parent, xs = _views(sess, Z32, 3, 1 << 31, 2)
    return [parent, *xs], P.max3_manifest(Z32, BATCH), P.max3(sess.store, xs)


def _bcx2a(sess):
    bits, (b, c) = _views(sess, BOOL, 2, 2, 3)
    parent, (x,) = _views(sess, Z32, 1, 1 << 32, 4)
    return ([bits, b, c, parent, x], P.bcx2a_manifest(Z32, BATCH),
            P.bcx2a(sess.store, b, c, x))


def _bcx2a_word_views(sess):
    bits, (b, c) = _views(sess, BOOL, 2, 2, 3, batch=64)
    assert np.shares_memory(b.v, bits.v) and np.shares_memory(c.v, bits.v)
    parent, (x,) = _views(sess, Z32, 1, 1 << 32, 4, batch=64)
    return ([bits, b, c, parent, x], P.bcx2a_manifest(Z32, 64),
            P.bcx2a(sess.store, b, c, x))


def _tlu(sess):
    parent, pairs = _views(sess, Z32, 7, 1 << 32, 5)
    keys = [sess.share_input(np.full(BATCH, k, np.uint64), Z32) for k in (4, 9, 2)]
    table = P.LookupTable(keys, pairs[:3])
    idx = concat_pairs([keys[1]])
    return ([parent, *pairs, *keys, idx], P.tlu_manifest(Z32, 3, BATCH),
            P.tlu(sess.store, table, idx))


def _edit_distance(sess):
    codes = np.random.default_rng(6).integers(0, E.ALPHABET, (2, 2, 3), dtype=np.uint64)
    s, t = (E.share_strings(c, sess.dealer) for c in codes)
    return [s.shares, t.shares], E.edit_distance_manifest(3, 2), E.edit_distance(sess.store, s, t)


@pytest.mark.parametrize("case", [_comparison, _max3, _bcx2a, _bcx2a_word_views, _tlu,
                                  _edit_distance],
                         ids=lambda f: f.__name__.lstrip("_"))
def test_protocol_leaves_its_inputs_untouched(case):
    sess = Session(seed=8)
    pairs, needs, gen = case(sess)
    before = [(p.v.dtype, p.v.shape, p.v.tobytes()) for p in pairs]
    sess.provision(needs)
    sess.run(gen)
    assert sess.store.is_empty()
    assert [(p.v.dtype, p.v.shape, p.v.tobytes()) for p in pairs] == before
