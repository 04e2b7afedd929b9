"""The offline material budget of every protocol, pinned by a literal table.

Manifests are read off the generators, so a run that drains the store to
empty shows only that provisioning matches consumption. This table shows
that consumption itself stays put: per pool (kind, ring width, fan-in), the
batches taken in order by one batch-1 instance, over Z_2^32 unless named
otherwise (MSNZB is width-16 only, the 1-round overflow runs at Z_2^8, edit
distance at Z_2^16).
"""
import pytest

from conftest import manifest

from ringmpc import Z8, Z16, Z32, bench
from ringmpc import editdist as E
from ringmpc import protocols as P
from ringmpc.engine import derive_manifest
from ringmpc.ring import const_pair

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

# BUDGET row -> (registry name, ring, keyword arguments of conftest.manifest).
REGISTRY_ROWS = {
    "equality": ("equality", Z32, {}),
    "baseline_equality": ("equality", Z32, {"baseline": True}),
    "msnzb": ("msnzb", Z16, {}),
    "overflow": ("overflow", Z32, {}),
    "overflow_1r": ("overflow1r", Z8, {}),
    "comparison": ("comparison", Z32, {}),
    "baseline_comparison": ("comparison", Z32, {"baseline": True}),
    "b2a": ("b2a", Z32, {}),
    "bx2a": ("bx2a", Z32, {}),
    "bc2a": ("bc2a", Z32, {}),
    "bcx2a": ("bcx2a", Z32, {}),
    "max3": ("max3", Z32, {}),
    "min3": ("min3", Z32, {}),
    "argmax3": ("argmax3", Z32, {}),
    "argmin3": ("argmin3", Z32, {}),
    "max5": ("max5", Z32, {}),
    "max8": ("max8", Z32, {}),
    "max8_cap3": ("max8", Z32, {"fanin_cap": 3}),
    "tlu4": ("tlu4", Z32, {}),
    "baseline_max3": ("max3", Z32, {"baseline": True}),
}

MANIFESTS = {
    **{row: lambda name=name, ring=ring, kw=kw: manifest(name, ring, 1, **kw)
       for row, (name, ring, kw) in REGISTRY_ROWS.items()},
    # Not a registry entry: the baseline comparison's overflow step alone.
    "baseline_overflow": lambda: derive_manifest(P.baseline_overflow, const_pair(0, Z32, 1), 32),
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


def test_every_registry_entry_is_budgeted():
    """A protocol added to the registry, or a baseline added to an entry,
    needs a BUDGET row before this passes."""
    assert sorted(MANIFESTS) == sorted(BUDGET)
    budgeted = {(name, kw.get("baseline", False)) for name, _, kw in REGISTRY_ROWS.values()}
    entries = {(name, False) for name in bench.PROTOCOLS}
    entries |= {(name, True) for name, (_, _, base) in bench.PROTOCOLS.items() if base is not None}
    assert entries <= budgeted
