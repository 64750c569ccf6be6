"""The per-ring memo against plain scans, and rings freed once dropped.

Every regularity search reads and fills one memo on the ring instance, and
every condition of the theorem engine reads the same memo, so a wrong entry
would skew them all alike. The oracles here therefore rescan each carrier
with nothing but the ring's add and mul, written out in this file, on every
curated ring and on both corners of each of its idempotents, and on one
carrier for each kind of compact table row. The unit-regular witnesses of
a whole carrier are found in one pass of the ring's middle_terms kernel,
by a loop over the table rows or, on a carrier above the table threshold,
one find_sandwich per element; it is checked against find_sandwich and
the witnesses against the scan. units() asks each element's inverse_of,
tabled or not, so it is checked against a two-sided scan on filled
carriers up to the 1024-element edge, and the two-sided scan behind the
generic inverse_of is checked where an inverse is only one-sided.
"""

import gc
import weakref

import pytest

from ringlab import (
    CURATED_FAMILY,
    TableRing,
    ZmodRing,
    as_idempotent,
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
from ringlab.regularity import unit_regular_witnesses


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


def scan_unit_regular(ring, units):
    """a -> the first (u, v) of units, in their order, with (a*u)*a == a."""
    return {a: next(((u, v) for u, v in units.items()
                     if ring.mul(ring.mul(a, u), a) == a), None)
            for a in ring.elements()}


def assert_middle_terms_match_find_sandwich(ring):
    # the one-pass kernel against one find_sandwich per element, over the
    # units and over every element
    for xs in (ring.units(), ring.elements()):
        found = ring.middle_terms(xs)
        assert list(found) == list(ring.elements())
        for a in ring.elements():
            assert found[a] == ring.find_sandwich(a, xs, a, a), (ring, a)


def assert_memo_matches_scans(ring):
    assert_middle_terms_match_find_sandwich(ring)
    elems = list(ring.elements())
    units = scan_units(ring)
    pairs = scan_unit_regular(ring, units)
    zero = ring.zero
    expected_ur, expected_reg = [], []
    for a in elems:
        pair = pairs[a]
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


@pytest.mark.parametrize("spec, typecode", [("M2(Z4)", "B"), ("T2(Z8)", "H")])
def test_memo_matches_plain_scans_on_array_rows(spec, typecode):
    ring = build_ring(spec)
    ring._fill_tables()
    assert {row.typecode for row in ring._mul_table} == {typecode}
    assert_memo_matches_scans(ring)
    idems = idempotents(ring)
    # the zero and full corners, and both corners of the first proper idempotent
    proper = next(idem for idem in idems if idem.e not in (0, ring.one))
    for idem in (idems[0], proper, complement(ring, proper)):
        corner = corner_ring(ring, idem)
        assert corner._kernel_table() is ring._mul_table
        assert_memo_matches_scans(corner)


@pytest.mark.parametrize("spec", ["Z300", "Z1000", "M2(Z5)", "T4(Z2)", "M2(Z4)xZ2",
                                  "T2(Z4)xZ2"])
def test_units_of_filled_carriers_match_scan(spec):
    # 'H' rows, a product over a factor with 'B' rows, one with list rows,
    # and the 1024-element edge: each carrier fills its tables before the
    # sweep, and units() still asks inverse_of
    ring = build_ring(spec)
    units = ring.units()
    assert ring._mul_table is not None
    assert units == scan_units(ring)
    assert units == {x: v for x in ring.elements() if (v := ring._scan_inverse(x)) is not None}


def test_units_skip_one_sided_inverses_in_list_rows():
    # 3*2 = 1 but 2*3 = 6, ahead of 3's inverse 5; 4*3 = 1, 3*4 = 5, and 4
    # has no two-sided inverse left
    broken = TableRing.from_ring(ZmodRing(7), override_mul={(3, 2): 1, (4, 2): 6,
                                                            (4, 3): 1})
    units = broken.units()
    assert units == {x: v for x in broken.elements()
                     if (v := broken._scan_inverse(x)) is not None}
    assert units[3] == 5 and 4 not in units


@pytest.mark.parametrize("n, typecode", [(200, "B"), (300, "H")])
def test_scan_inverse_skips_one_sided_inverses_in_array_rows(n, typecode):
    # Z_n's units come from gcd, so the generic scan is asked directly: it
    # reads these rows through mul
    ring = ZmodRing(n)
    ring._fill_tables()
    table = ring._mul_table
    assert table[7].typecode == typecode
    inverse = pow(7, -1, n)
    table[7][2] = 1  # 7*2 = 1 now, but 2*7 = 14
    assert ring._scan_inverse(7) == inverse > 2


def assert_witnesses_match_scan(ring):
    assert_middle_terms_match_find_sandwich(ring)
    expected = scan_unit_regular(ring, scan_units(ring))
    assert {a: unit_regular_witness(ring, a) for a in ring.elements()} == expected
    assert unit_regular_set(ring) == tuple(a for a, pair in expected.items() if pair)


def test_untabled_witnesses_match_scans_on_z1025_and_corners():
    # above the table threshold: one find_sandwich per element, on the ring
    # and on its corners of 25 and 41 elements
    ring = ZmodRing(1025)
    assert_witnesses_match_scan(ring)
    assert ring._kernel_table() is None
    for e, size in ((451, 25), (575, 41)):
        corner = corner_ring(ring, as_idempotent(ring, e))
        assert corner.size == size
        assert_witnesses_match_scan(corner)


def test_tabled_witness_is_the_first_unit_with_au_then_a():
    # 3*1 = 0 now, so (3*1)*3 = 0 and 1 fails, though 3*(1*3) = 3; the
    # witness of 3 is the next unit, 5
    rigged = TableRing.from_ring(ZmodRing(6), override_mul={(3, 1): 0})
    assert rigged._kernel_table() is not None
    assert rigged.units() == {1: 1, 5: 5}
    assert unit_regular_witness(rigged, 3) == (5, 5)
    assert_memo_matches_scans(rigged)


@pytest.mark.parametrize("spec", ["M2(Z2)", "Z12", "Z1025"])
def test_unit_regular_set_fills_the_witness_of_every_element(spec):
    # one pass: the set's sweep leaves a memo entry for every element, on
    # the ring and on a proper corner
    ring = build_ring(spec)
    corner = corner_ring(ring, next(idem for idem in idempotents(ring)
                                    if idem.e not in (0, ring.one)))
    for r in (ring, corner):
        unit_regular_set(r)
        assert r._memo["unit_regular_witness"].keys() == set(r.elements())


def scan_witness_units(ring):
    return {a: pair and pair[0] for a, pair in scan_unit_regular(ring, ring.units()).items()}


def test_whole_ring_corner_takes_the_ring_map():
    # the corner at e = 1 has R's carrier and units: it reads R's map, and
    # that map is what its own search would find
    ring = build_ring("M2(Z4)")
    whole = corner_ring(ring, as_idempotent(ring, ring.one))
    assert whole.units() == ring.units()
    assert unit_regular_witnesses(whole) is unit_regular_witnesses(ring)
    assert unit_regular_witnesses(whole) == scan_witness_units(whole)


@pytest.mark.parametrize("n, overrides, carrier, units", [
    # 5 + 0 = 3: the corner at e = 1 (f = 0) reads 5's inverse off the
    # ambient unit 5 + f = 3 and finds none, so it has R's carrier but
    # only the unit 1
    (6, {"override_add": {(5, 0): 3}}, (0, 1, 2, 3, 4, 5), [1]),
    # 1*2 = 0: the corner at e = 1 has R's units 1 and 3, but (1*2)*1 = 0,
    # so its carrier misses 2
    (4, {"override_mul": {(1, 2): 0}}, (0, 1, 3), [1, 3]),
], ids=["other-units", "other-carrier"])
def test_corner_at_one_unlike_its_ring_runs_its_own_search(n, overrides, carrier, units):
    broken = TableRing.from_ring(ZmodRing(n), **overrides)
    whole = corner_ring(broken, as_idempotent(broken, 1))
    assert whole.elements() == carrier and list(whole.units()) == units
    assert (carrier, units) != (tuple(broken.elements()), list(broken.units()))
    found = unit_regular_witnesses(whole)
    assert found == scan_witness_units(whole)
    assert found != unit_regular_witnesses(broken)


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
