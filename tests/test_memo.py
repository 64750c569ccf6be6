"""The per-ring memo against plain scans, and rings freed once dropped.

Every regularity search reads and fills one memo on the ring instance, and
every condition of the theorem engine reads the same memo, so a wrong entry
would skew them all alike. The oracles here therefore rescan each carrier
with nothing but the ring's add and mul, written out in this file, on every
curated ring and on both corners of each of its idempotents.
"""

import gc
import weakref

import pytest

from ringlab import (
    CURATED_FAMILY,
    TableRing,
    ZmodRing,
    build_ring,
    classify_payload,
    complement,
    corner_ring,
    idempotents,
    regular_set,
    regular_witness,
    unit_regular_set,
    unit_regular_witness,
    verify_payload,
    zero_divisor_status,
)


def scan_units(ring):
    elems = list(ring.elements())
    one = ring.one
    units = {}
    for u in elems:
        for v in elems:
            if ring.mul(u, v) == one and ring.mul(v, u) == one:
                units[u] = v
                break
    return units


def assert_memo_matches_scans(ring):
    elems = list(ring.elements())
    units = scan_units(ring)
    zero = ring.zero
    expected_ur, expected_reg = [], []
    for a in elems:
        pair = next(((u, v) for u, v in units.items()
                     if ring.mul(ring.mul(a, u), a) == a), None)
        t = next((t for t in elems if ring.mul(ring.mul(a, t), a) == a), None)
        left = any(ring.mul(a, c) == zero for c in elems if c != zero)
        right = any(ring.mul(c, a) == zero for c in elems if c != zero)
        for _ in range(2):  # first call fills the memo, second reads it
            assert unit_regular_witness(ring, a) == pair, (ring, a)
            assert regular_witness(ring, a) == t, (ring, a)
            status = zero_divisor_status(ring, a)
            assert (status.left, status.right) == (left, right), (ring, a)
        if pair is not None:
            expected_ur.append(a)
        if t is not None:
            expected_reg.append(a)
    assert unit_regular_set(ring) == tuple(expected_ur)
    assert regular_set(ring) == tuple(expected_reg)


@pytest.mark.parametrize("spec", CURATED_FAMILY)
def test_memo_matches_plain_scans_on_ring_and_corners(spec):
    ring = build_ring(spec)
    assert_memo_matches_scans(ring)
    for idem in idempotents(ring):
        assert_memo_matches_scans(corner_ring(ring, idem))
        assert_memo_matches_scans(corner_ring(ring, complement(ring, idem)))


def test_sets_read_from_a_filled_memo_match_scans():
    # sets first, per-element lookups afterwards: the other fill order
    ring = build_ring("M2(Z2)xZ2")
    unit_regular_set(ring)
    regular_set(ring)
    assert_memo_matches_scans(ring)


def test_fault_injected_ring_same_answer_both_ways_and_still_fails():
    broken = TableRing.from_ring(ZmodRing(6), override_mul={(5, 5): 5},
                                 label="Z6")
    assert_memo_matches_scans(broken)
    payload, ok = verify_payload(broken)
    assert not ok
    assert payload["axioms"]["ok"] is False
    assert payload["verdicts"] is None


def test_classified_and_verified_ring_is_freed():
    ring = build_ring("M2(Z2)")
    classify_payload(ring)
    _, ok = verify_payload(ring)
    assert ok
    refs = [weakref.ref(ring)]
    refs += [weakref.ref(corner_ring(ring, idem)) for idem in idempotents(ring)]
    del ring
    gc.collect()
    assert all(ref() is None for ref in refs)
