import itertools

import numpy as np
import pytest
from conftest import edit_distance_oracle, edit_distance_oracle_batch

from ringmpc import editdist as E
from ringmpc.engine import Session, derive_manifest
from ringmpc.errors import DomainError, ShapeError
from ringmpc.protocols import min3
from ringmpc.ring import const_pair, reconst


def run_distance(seed, codes_s, codes_t):
    codes_s = np.atleast_2d(np.asarray(codes_s, dtype=np.uint64))
    codes_t = np.atleast_2d(np.asarray(codes_t, dtype=np.uint64))
    length = codes_s.shape[1]
    pairs = codes_s.shape[0]
    sess = Session(seed=seed)
    sess.provision(E.edit_distance_manifest(length, pairs))
    s = E.share_strings(codes_s, sess.dealer)
    t = E.share_strings(codes_t, sess.dealer)
    z = sess.run(E.edit_distance(sess.store, s, t))
    assert sess.store.is_empty()
    return sess, reconst(*z)


def test_known_example():
    # "GATT" vs "GCTT" differs by one substitution.
    code = {"A": 0, "T": 1, "G": 2, "C": 3}
    s = [code[ch] for ch in "GATT"]
    t = [code[ch] for ch in "GCTT"]
    sess, d = run_distance(1, s, t)
    assert d[0] == 1
    assert sess.rounds == 31  # 8L - 1 at L = 4


def test_identity_strings():
    rng = np.random.default_rng(2)
    codes = rng.integers(0, 4, (20, 8), dtype=np.uint64)
    _, d = run_distance(2, codes, codes)
    assert np.all(d == 0)


@pytest.mark.parametrize("length", [1, 2, 3, 4])
def test_exhaustive_binary(length):
    combos = list(itertools.product(range(2), repeat=length))
    pairs = [(s, t) for s in combos for t in combos]
    S = np.array([p[0] for p in pairs], dtype=np.uint64)
    T = np.array([p[1] for p in pairs], dtype=np.uint64)
    sess, d = run_distance(10 + length, S, T)
    expect = np.array([edit_distance_oracle(a, b) for a, b in pairs])
    assert np.array_equal(d, expect.astype(np.uint16))
    assert sess.rounds == 8 * length - 1


def test_random_dna_batch():
    rng = np.random.default_rng(5)
    S = rng.integers(0, 4, (100, 8), dtype=np.uint64)
    T = rng.integers(0, 4, (100, 8), dtype=np.uint64)
    sess, d = run_distance(20, S, T)
    expect = np.array([edit_distance_oracle(S[i], T[i]) for i in range(100)])
    assert np.array_equal(d, expect.astype(np.uint16))
    assert sess.rounds == 63


@pytest.mark.parametrize("la, lb", itertools.product(range(5), repeat=2))
def test_batched_oracle_matches_scalar_on_every_binary_pair(la, lb):
    S = np.array(list(itertools.product(range(2), repeat=la)), dtype=np.uint64)
    T = np.array(list(itertools.product(range(2), repeat=lb)), dtype=np.uint64)
    i, j = (ix.ravel() for ix in np.meshgrid(np.arange(len(S)), np.arange(len(T))))
    expect = [edit_distance_oracle(S[a], T[b]) for a, b in zip(i, j)]
    assert edit_distance_oracle_batch(S[i], T[j]).tolist() == expect


@pytest.mark.parametrize("length", [1, 7, 16, 64])
def test_batched_oracle_matches_scalar_on_random_dna(length):
    rng = np.random.default_rng(length)
    S, T = rng.integers(0, 4, (2, 200, length), dtype=np.uint64)
    expect = [edit_distance_oracle(a, b) for a, b in zip(S, T)]
    assert edit_distance_oracle_batch(S, T).tolist() == expect


def test_mismatch_matrix():
    rng = np.random.default_rng(6)
    length, pairs = 8, 10
    S = rng.integers(0, 4, (pairs, length), dtype=np.uint64)
    T = rng.integers(0, 4, (pairs, length), dtype=np.uint64)
    sess = Session(seed=30)
    sess.provision(E.mismatch_manifest(length, pairs))
    e = sess.run(
        E.mismatch_matrix(
            sess.store,
            E.share_strings(S, sess.dealer),
            E.share_strings(T, sess.dealer),
        )
    )
    got = reconst(*e).reshape(length, length, pairs)
    for p in range(pairs):
        expect = (S[p][:, None] != T[p][None, :]).astype(np.uint16)
        assert np.array_equal(got[:, :, p], expect)
    assert sess.rounds == 3
    assert sess.store.is_empty()


def test_alphabet_and_shape_validation():
    sess = Session(seed=0)
    with pytest.raises(DomainError):
        E.share_strings([[0, 4]], sess.dealer)
    s = E.share_strings([[0, 1, 2]], sess.dealer)
    t = E.share_strings([[0, 1]], sess.dealer)
    with pytest.raises(ShapeError):
        next(E.edit_distance(sess.store, s, t))
    with pytest.raises(DomainError):
        E.GenomeShareString(0, 1, s.shares)


def test_strings_of_more_than_two_dimensions_are_refused_before_any_draw():
    sess, fresh = Session(seed=2), Session(seed=2)
    state = sess.dealer.rng.bit_generator.state
    with pytest.raises(ShapeError):
        E.share_strings(np.zeros((2, 2, 3), np.uint64), sess.dealer)
    assert sess.dealer.rng.bit_generator.state == state
    s, t = (E.share_strings([[0, 1, 2]], one.dealer) for one in (sess, fresh))
    assert np.array_equal(s.shares.v, t.shares.v)


@pytest.mark.parametrize("bad", [
    [[0.5, 1]], np.array([[1.0, 2.0]]), [["1", "2"]], "12", [[None, 1]],
    [[0, -1]], np.array([[-1, 0]]), [[2**64, 0]], [[0, 4]], np.array([[4]], np.uint8),
], ids=repr)
def test_encode_strings_rejects_non_codes(bad):
    with pytest.raises(DomainError):
        E.encode_strings(bad)


def test_encode_strings_accepts_bools_and_codes():
    assert E.encode_strings([[True, 3]]).tolist() == [[1, 3]]
    assert E.encode_strings(np.array([[0, 1, 2, 3]], np.int8)).dtype == np.uint64


# -- the manifest ---------------------------------------------------------------

def _composed_manifest(length, pairs):
    """The mismatch matrix's needs, then one DP cell's 3-Min needs scaled to
    each anti-diagonal d in [2, 2L], which holds len(_diag_rows(L, d))
    cells of each string pair."""
    needs = E.mismatch_manifest(length, pairs)
    cell = derive_manifest(min3, [const_pair(0, E.RING, 1) for _ in range(3)])
    for d in range(2, 2 * length + 1):
        needs += [need.scaled(len(E._diag_rows(length, d)) * pairs) for need in cell]
    return needs


@pytest.mark.parametrize("length, pairs",
                         list(itertools.product(range(1, 9), (1, 3))) + [(128, 1)])
def test_manifest_equals_the_per_diagonal_composition(length, pairs):
    """Each anti-diagonal's needs are scaled once per cell count and shared
    with the diagonal of the same count: the same needs, in order."""
    assert E.edit_distance_manifest(length, pairs) == _composed_manifest(length, pairs)
