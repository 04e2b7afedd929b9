"""The offline material budget of every protocol, pinned by a literal table.

Manifests are read off the generators, so a run that drains the store to
empty shows only that provisioning matches consumption. This table shows
that consumption itself stays put: per pool (kind, ring width, fan-in), the
batches taken in order by one batch-1 instance, over Z_2^32 unless named
otherwise (MSNZB is width-16 only, the 1-round overflow runs at Z_2^8, edit
distance at Z_2^16).
"""
import pytest

from ringmpc import Z8, Z32
from ringmpc import editdist as E
from ringmpc import protocols as P

BUDGET = {
    "equality": {("bte", 1, 4): [2], ("bte", 1, 6): [4, 1]},
    "baseline_equality": {("bte", 1, 2): [16, 8, 4, 2, 1]},
    "msnzb": {("bte", 1, 2): [4, 4], ("bte", 1, 3): [4, 4], ("bte", 1, 4): [4, 4]},
    "overflow": {
        ("bte", 1, 2): [6, 6], ("bte", 1, 3): [6, 6], ("bte", 1, 4): [6, 5],
        ("bte", 1, 5): [6, 5], ("bte", 1, 6): [2, 5], ("bte", 1, 7): [5],
    },
    "overflow_1r": {("bte", 1, 2): [15], ("bte", 1, 4): [30]},
    "comparison": {
        ("bte", 1, 2): [18, 18, 2], ("bte", 1, 3): [18, 18], ("bte", 1, 4): [18, 15],
        ("bte", 1, 5): [18, 15], ("bte", 1, 6): [6, 15], ("bte", 1, 7): [15],
    },
    "baseline_overflow": {("bte", 1, 2): [31, 30, 28, 24, 16, 32]},
    "baseline_comparison": {("bte", 1, 2): [93, 90, 84, 72, 48, 96, 2]},
    "b2a": {("b2a", 32, 0): [1]},
    "bx2a": {("bte", 32, 2): [1], ("bte", 32, 3): [1]},
    "bc2a": {("bte", 32, 2): [3], ("bte", 32, 4): [2]},
    "bcx2a": {("bte", 32, 3): [3], ("bte", 32, 5): [2]},
    "max3": {
        ("bte", 1, 2): [54, 54, 6], ("bte", 1, 3): [54, 54], ("bte", 1, 4): [54, 45],
        ("bte", 1, 5): [54, 45], ("bte", 1, 6): [18, 45], ("bte", 1, 7): [45],
        ("bte", 32, 3): [9], ("bte", 32, 5): [6],
    },
    "min3": {
        ("bte", 1, 2): [54, 54, 6], ("bte", 1, 3): [54, 54], ("bte", 1, 4): [54, 45],
        ("bte", 1, 5): [54, 45], ("bte", 1, 6): [18, 45], ("bte", 1, 7): [45],
        ("bte", 32, 3): [9], ("bte", 32, 5): [6],
    },
    "argmax3": {
        ("bte", 1, 2): [54, 54, 6], ("bte", 1, 3): [54, 54], ("bte", 1, 4): [54, 45],
        ("bte", 1, 5): [54, 45], ("bte", 1, 6): [18, 45], ("bte", 1, 7): [45],
        ("bte", 32, 2): [6], ("bte", 32, 4): [4],
    },
    "argmin3": {
        ("bte", 1, 2): [54, 54, 6], ("bte", 1, 3): [54, 54], ("bte", 1, 4): [54, 45],
        ("bte", 1, 5): [54, 45], ("bte", 1, 6): [18, 45], ("bte", 1, 7): [45],
        ("bte", 32, 2): [6], ("bte", 32, 4): [4],
    },
    "max5": {
        ("bte", 1, 2): [180, 180, 20], ("bte", 1, 3): [180, 180],
        ("bte", 1, 4): [180, 150, 5], ("bte", 1, 5): [180, 150], ("bte", 1, 6): [60, 150],
        ("bte", 1, 7): [150], ("bte", 32, 2): [5], ("bte", 32, 3): [5],
    },
    "max8": {
        ("bte", 1, 2): [504, 504, 56], ("bte", 1, 3): [504, 504],
        ("bte", 1, 4): [504, 420], ("bte", 1, 5): [504, 420], ("bte", 1, 6): [168, 420],
        ("bte", 1, 7): [420, 8], ("bte", 32, 2): [8], ("bte", 32, 3): [8],
    },
    "max8_cap3": {
        ("bte", 1, 2): [504, 504, 56], ("bte", 1, 3): [504, 504, 16, 8],
        ("bte", 1, 4): [504, 420], ("bte", 1, 5): [504, 420], ("bte", 1, 6): [168, 420],
        ("bte", 1, 7): [420], ("bte", 32, 2): [8], ("bte", 32, 3): [8],
    },
    "tlu4": {
        ("bte", 1, 4): [8], ("bte", 1, 6): [16, 4], ("bte", 32, 2): [4],
        ("bte", 32, 3): [4],
    },
    "baseline_max3": {
        ("bte", 1, 2): [93, 90, 84, 72, 48, 96, 2, 93, 90, 84, 72, 48, 96, 2],
        ("bte", 32, 2): [1, 1, 1, 1],
    },
    "mismatch_L3": {("bte", 1, 4): [36, 9], ("b2a", 16, 0): [9]},
    "edit_distance_L3": {
        ("bte", 1, 4): [36, 9, 36, 36, 72, 72, 108, 108, 72, 72, 36, 36],
        ("b2a", 16, 0): [9],
        ("bte", 1, 2): [36, 36, 6, 72, 72, 12, 108, 108, 18, 72, 72, 12, 36, 36, 6],
        ("bte", 1, 3): [36, 36, 72, 72, 108, 108, 72, 72, 36, 36],
        ("bte", 1, 5): [36, 72, 108, 72, 36], ("bte", 16, 3): [9, 18, 27, 18, 9],
        ("bte", 16, 5): [6, 12, 18, 12, 6],
    },
}

MANIFESTS = {
    "equality": lambda: P.equality_manifest(Z32, 1),
    "baseline_equality": lambda: P.baseline_equality_manifest(Z32, 1),
    "msnzb": lambda: P.msnzb_manifest(1),
    "overflow": lambda: P.overflow_manifest(Z32, 1),
    "overflow_1r": lambda: P.overflow_1r_manifest(Z8, 1),
    "comparison": lambda: P.comparison_manifest(Z32, 1),
    "baseline_overflow": lambda: P.baseline_overflow_manifest(Z32, 1),
    "baseline_comparison": lambda: P.baseline_comparison_manifest(Z32, 1),
    "b2a": lambda: P.b2a_manifest(Z32, 1),
    "bx2a": lambda: P.bx2a_manifest(Z32, 1),
    "bc2a": lambda: P.bc2a_manifest(Z32, 1),
    "bcx2a": lambda: P.bcx2a_manifest(Z32, 1),
    "max3": lambda: P.max3_manifest(Z32, 1),
    "min3": lambda: P.min3_manifest(Z32, 1),
    "argmax3": lambda: P.argmax3_manifest(Z32, 1),
    "argmin3": lambda: P.argmin3_manifest(Z32, 1),
    "max5": lambda: P.maxn_manifest(Z32, 5, 1),
    "max8": lambda: P.maxn_manifest(Z32, 8, 1),
    "max8_cap3": lambda: P.maxn_manifest(Z32, 8, 1, fanin_cap=3),
    "tlu4": lambda: P.tlu_manifest(Z32, 4, 1),
    "baseline_max3": lambda: P.baseline_max3_manifest(Z32, 1),
    "mismatch_L3": lambda: E.mismatch_manifest(3),
    "edit_distance_L3": lambda: E.edit_distance_manifest(3),
}


def pools(needs):
    out = {}
    for need in needs:
        key = (need.kind, need.width, need.fan_in)
        out.setdefault(key, []).append(need.batch)
    return out


@pytest.mark.parametrize("name", list(BUDGET))
def test_material_budget(name):
    assert pools(MANIFESTS[name]()) == BUDGET[name]
