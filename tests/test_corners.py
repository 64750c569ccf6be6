"""Idempotents, corner carriers, Peirce splits, and the product embedding.

Expected carriers and idempotent sets below were worked out by hand from the
defining equations (x^2 = x, exe sweeps) and are frozen as literals; the
matrix and triangular codes come from the codecs pinned in test_rings.
"""

import pytest

from ringlab import (
    CURATED_FAMILY,
    CornerRing,
    Idempotent,
    TableRing,
    ZmodRing,
    as_idempotent,
    build_ring,
    check_ring_axioms,
    classify_payload,
    complement,
    corner_product_embedding,
    corner_ring,
    idempotents,
    peirce_decompose,
    verify_payload,
)
from ringlab.rings import FiniteRing


# idempotent enumeration ----------------------------------------------------

IDEMPOTENT_SETS = {
    "Z4": {0, 1},
    "Z6": {0, 1, 3, 4},
    "Z8": {0, 1},
    "Z12": {0, 1, 4, 9},
    # solutions of X^2 = X over 2x2 matrices mod 2, coded 8a+4b+2c+d
    "M2(Z2)": {0, 1, 3, 5, 8, 9, 10, 12},
    # [[a,b],[0,d]] with a,d in {0,1} and b(a+d) = b, coded 4a+2b+d
    "T2(Z2)": {0, 1, 3, 4, 5, 6},
}


@pytest.mark.parametrize("spec", sorted(IDEMPOTENT_SETS))
def test_idempotent_sets_frozen(rings, spec):
    ring = rings(spec)
    found = {idem.e for idem in idempotents(ring)}
    assert found == IDEMPOTENT_SETS[spec]


def test_idempotents_sorted_and_cached(rings):
    ring = rings("Z12")
    idems = idempotents(ring)
    assert [i.e for i in idems] == sorted(i.e for i in idems)
    assert idempotents(ring) is idems


def test_idempotent_sweep_fills_the_tables_first():
    ring = build_ring("M2(Z4)")
    assert ring._mul_table is None
    idems = idempotents(ring)
    assert ring._mul_table is not None
    # the untabled products are the oracle of the tabled sweep
    assert [i.e for i in idems] == [e for e in ring.elements() if ring._raw_mul(e, e) == e]
    assert all(i.f == ring._raw_add(ring.one, ring._raw_neg(i.e)) for i in idems)


def test_idempotent_complements(rings):
    ring = rings("Z6")
    idem = as_idempotent(ring, 3)
    assert idem.f == 4
    assert complement(ring, idem) == Idempotent(4, 3)
    for idem in idempotents(ring):
        assert ring.add(idem.e, idem.f) == ring.one
        assert ring.mul(idem.e, idem.f) == ring.zero


@pytest.mark.parametrize("spec", CURATED_FAMILY + ("broken Z6",))
def test_each_corner_holds_its_complement_corner(rings, spec):
    if spec == "broken Z6":
        ring = TableRing.from_ring(ZmodRing(6), override_mul={(0, 1): 5, (5, 0): 5})
    else:
        ring = rings(spec)
    for idem in idempotents(ring):
        held = corner_ring(ring, idem).complement_corner()
        assert held is corner_ring(ring, complement(ring, idem))
        assert held.idem == as_idempotent(ring, idem.f)
        assert corner_ring(ring, idem).complement_corner() is held


def test_as_idempotent_rejects_non_idempotent(rings):
    with pytest.raises(ValueError):
        as_idempotent(rings("Z6"), 2)
    with pytest.raises(ValueError):
        as_idempotent(rings("Z6"), 17)


def test_corner_ring_rejects_forged_idempotents(rings):
    ring = rings("Z6")
    with pytest.raises(ValueError):
        corner_ring(ring, Idempotent(3, 0))  # complement lies
    with pytest.raises(ValueError):
        corner_ring(ring, Idempotent(2, 5))  # not idempotent at all


# corner carriers ------------------------------------------------------------

CORNER_CARRIERS = {
    ("Z6", 3): {0, 3},
    ("Z6", 4): {0, 2, 4},
    ("Z12", 4): {0, 4, 8},
    ("Z12", 9): {0, 3, 6, 9},
    ("M2(Z2)", 8): {0, 8},      # e11 M e11 = Z2 e11
    ("T2(Z2)", 4): {0, 4},
    ("T2(Z2)", 1): {0, 1},
}


@pytest.mark.parametrize("spec,e", sorted(CORNER_CARRIERS))
def test_corner_carriers_frozen(rings, spec, e):
    ring = rings(spec)
    corner = corner_ring(ring, as_idempotent(ring, e))
    assert set(corner.elements()) == CORNER_CARRIERS[(spec, e)]
    assert corner.size == len(CORNER_CARRIERS[(spec, e)])


def test_corner_structure(rings):
    ring = rings("Z6")
    corner = corner_ring(ring, as_idempotent(ring, 4))
    assert corner.one == 4
    assert corner.zero == 0
    assert corner.contains(2) and not corner.contains(3)
    assert corner.ambient is ring
    assert corner.spec_string == "Z6[e=4]"
    # arithmetic is the ambient arithmetic on ambient codes
    assert corner.mul(2, 2) == ring.mul(2, 2) == 4
    assert corner.add(2, 4) == 0
    assert isinstance(corner, CornerRing)


def test_corner_units_frozen(rings):
    ring = rings("Z6")
    corner = corner_ring(ring, as_idempotent(ring, 4))
    assert corner.units() == {2: 2, 4: 4}


@pytest.mark.parametrize("spec", CURATED_FAMILY)
def test_corner_inverse_fast_path_agrees_with_scan(rings, spec):
    # every ambient code, so codes outside the carrier are covered too
    ring = rings(spec)
    for idem in idempotents(ring):
        corner = corner_ring(ring, idem)
        for x in ring.elements():
            assert corner.inverse_of(x) == corner._scan_inverse(x), (spec, idem, x)


def test_corner_inverse_outside_carrier_keeps_scan_answer(rings):
    # 1 = e + f is outside eRe, yet e inverts it on both sides there
    ring = rings("Z6")
    corner = corner_ring(ring, as_idempotent(ring, 3))
    assert not corner.contains(1)
    assert corner.inverse_of(1) == corner._scan_inverse(1) == 3


@pytest.mark.parametrize("spec", ["Z4", "Z6", "M2(Z2)", "M2(Z4)"])
def test_corners_never_fill_tables(monkeypatch, spec):
    # a corner's ops are the ambient ring's: it has no row builders, and a
    # fill of its own would reach FiniteRing._neg_row
    fill = FiniteRing._fill_tables

    def guarded(ring):
        assert not isinstance(ring, CornerRing), ring
        fill(ring)

    monkeypatch.setattr(FiniteRing, "_fill_tables", guarded)
    ring = build_ring(spec)
    for idem in idempotents(ring):
        corner = corner_ring(ring, idem)
        corner.tabulate()
        assert (corner._add_table, corner._mul_table, corner._neg_table) == (None, None, None)
        assert classify_payload(corner)[1]
        assert verify_payload(corner, axiom_cap=64)[1]
        assert corner._mul_table is None


# corner carriers against a plain scan ------------------------------------


def scan_carrier(ring, e):
    mul = ring.mul
    return sorted({mul(mul(e, x), e) for x in ring.elements()})


def assert_corners_of_corners_match_scan(ring, idems):
    for idem in idems:
        corner = corner_ring(ring, idem)
        assert list(corner.elements()) == scan_carrier(ring, idem.e)
        for sub in idempotents(corner):
            assert list(corner_ring(corner, sub).elements()) == scan_carrier(corner, sub.e)


@pytest.mark.parametrize("spec", CURATED_FAMILY)
def test_corner_carriers_match_scan(spec):
    # idempotents() fills the ring's table, so a corner of the ring reads
    # the whole of row e, and a corner of a proper corner reads row e at
    # the proper corner's codes only
    ring = build_ring(spec)
    idems = idempotents(ring)
    assert ring._kernel_table() is not None
    for idem in idems:
        assert sorted(ring.corner_carrier(idem.e)) == scan_carrier(ring, idem.e)
    assert_corners_of_corners_match_scan(ring, idems)


@pytest.mark.parametrize("spec", ["M2(Z2)", "T2(Z3)", "M2(Z3)", "M2(Z2)xZ2"])
def test_untabled_corner_carriers_match_scan(spec):
    # a fresh ring has no table until a sweep: the kernel calls mul once per
    # x for y = e*x, then once per distinct y for y*e, in that order of
    # factors, which the non-commutative rings here tell apart
    idems = idempotents(build_ring(spec))
    ring = build_ring(spec)
    mul, calls = ring.mul, []
    ring.mul = lambda a, b: calls.append((a, b)) or mul(a, b)
    for idem in idems:
        calls.clear()
        carrier = ring.corner_carrier(idem.e)
        row = {mul(idem.e, x) for x in ring.elements()}
        assert len(calls) == ring.size + len(row)
        assert ring._kernel_table() is None
        assert sorted(carrier) == scan_carrier(ring, idem.e)


def test_untabled_corner_carriers_match_scan_on_z1025():
    # above the table threshold, and the corners of its corners of 25 and
    # 41 elements, whose own corners call mul too
    ring = ZmodRing(1025)
    assert_corners_of_corners_match_scan(ring, [as_idempotent(ring, e) for e in (451, 575)])
    assert ring._kernel_table() is None
    assert [corner_ring(ring, as_idempotent(ring, e)).size for e in (451, 575)] == [25, 41]


def test_corner_of_a_corner_reads_row_e_at_its_own_codes():
    # 0*1 = 5 and 5*0 = 5 break the ring laws outside C = 4*Z6*4 = {0, 2, 4}:
    # (0*x)*0 over all of Z6 reaches 5 at x = 1, over C it is 0 alone, so
    # the corner of C at 0 must not read the whole of row 0
    broken = TableRing.from_ring(ZmodRing(6), override_mul={(0, 1): 5, (5, 0): 5})
    corner = corner_ring(broken, as_idempotent(broken, 4))
    assert corner.elements() == (0, 2, 4)
    zero = corner_ring(corner, as_idempotent(corner, 0))
    assert list(zero.elements()) == scan_carrier(corner, 0) == [0]
    assert sorted(broken.corner_carrier(0)) == scan_carrier(broken, 0) == [0, 5]


def test_corner_is_cached(rings):
    ring = rings("Z6")
    idem = as_idempotent(ring, 3)
    assert corner_ring(ring, idem) is corner_ring(ring, idem)


def test_full_and_zero_corners(rings):
    ring = rings("Z6")
    whole = corner_ring(ring, as_idempotent(ring, 1))
    assert set(whole.elements()) == set(ring.elements())
    assert whole.one == ring.one
    trivial = corner_ring(ring, as_idempotent(ring, 0))
    assert set(trivial.elements()) == {0}
    assert trivial.one == 0  # the zero ring convention


@pytest.mark.parametrize("spec", ["Z6", "Z12", "T2(Z2)", "M2(Z2)"])
def test_every_corner_satisfies_ring_axioms(rings, spec):
    ring = rings(spec)
    for idem in idempotents(ring):
        report = check_ring_axioms(corner_ring(ring, idem))
        assert report.ok, (spec, idem.e, report.to_dict())


def test_corner_closed_under_arithmetic(rings):
    ring = rings("M2(Z2)")
    corner = corner_ring(ring, as_idempotent(ring, 8))
    for x in corner.elements():
        assert corner.contains(corner.neg(x))
        for y in corner.elements():
            assert corner.contains(corner.add(x, y))
            assert corner.contains(corner.mul(x, y))
            # e really is a two-sided identity on the carrier
        assert corner.mul(corner.one, x) == x == corner.mul(x, corner.one)


# Peirce decomposition --------------------------------------------------------


@pytest.mark.parametrize("spec,e", [("Z12", 4), ("M2(Z2)", 8), ("T2(Z2)", 4)])
def test_peirce_parts_live_in_their_slots(rings, spec, e):
    ring = rings(spec)
    idem = as_idempotent(ring, e)
    ee = corner_ring(ring, idem)
    ff = corner_ring(ring, complement(ring, idem))
    for x in ring.elements():
        parts = peirce_decompose(ring, idem, x)
        assert ee.contains(parts.ee)
        assert ff.contains(parts.ff)
        # the sandwich identities pin each part to its slot
        assert ring.mul3(idem.e, parts.ef, idem.f) == parts.ef
        assert ring.mul3(idem.f, parts.fe, idem.e) == parts.fe
        total = ring.add(ring.add(parts.ee, parts.ef),
                         ring.add(parts.fe, parts.ff))
        assert total == x


def test_peirce_redecomposition_is_idempotent(rings):
    ring = rings("M2(Z2)")
    idem = as_idempotent(ring, 8)
    for x in ring.elements():
        parts = peirce_decompose(ring, idem, x)
        again = peirce_decompose(ring, idem, parts.ef)
        assert (again.ee, again.ef, again.fe, again.ff) == (0, parts.ef, 0, 0)
        again = peirce_decompose(ring, idem, parts.ee)
        assert (again.ee, again.ef, again.fe, again.ff) == (parts.ee, 0, 0, 0)


def test_peirce_frozen_example(rings):
    # [[1,1],[1,0]] = code 14 against e11: parts e11, e12, e21, 0
    ring = rings("M2(Z2)")
    parts = peirce_decompose(ring, as_idempotent(ring, 8), 14)
    assert (parts.ee, parts.ef, parts.fe, parts.ff) == (8, 4, 2, 0)


def test_peirce_of_central_idempotent_has_no_cross_terms(rings):
    ring = rings("Z12")
    idem = as_idempotent(ring, 4)
    for x in ring.elements():
        parts = peirce_decompose(ring, idem, x)
        assert parts.ef == 0 and parts.fe == 0


def test_peirce_decompose_raises_when_the_parts_do_not_sum_back():
    # 0*3 = 1, so the parts (3*0)*3 and (4*0)*3 of 0 are 1 each: they sum to 2
    ring = TableRing.from_ring(build_ring("Z6"), override_mul={(0, 3): 1})
    with pytest.raises(AssertionError, match="do not sum back"):
        peirce_decompose(ring, as_idempotent(ring, 3), 0)


# the product embedding -------------------------------------------------------


def test_embedding_z6_splits_completely(rings):
    ring = rings("Z6")
    report = corner_product_embedding(ring, as_idempotent(ring, 3))
    assert report.ok
    assert len(report.pairs) == 6
    images = {img for _, _, img in report.pairs}
    assert images == set(range(6))  # 2 x 3 elements cover all of Z6
    d = report.to_dict()
    assert d["ok"] and d["pair_count"] == 6


def test_embedding_proper_corner_of_matrix_ring(rings):
    ring = rings("M2(Z2)")
    report = corner_product_embedding(ring, as_idempotent(ring, 8))
    assert report.ok
    assert len(report.pairs) == 4
    assert len({img for _, _, img in report.pairs}) == 4


@pytest.mark.parametrize("spec", ["Z6", "Z12", "T2(Z2)", "M2(Z2)", "Z2xZ4"])
def test_embedding_holds_for_every_idempotent(rings, spec):
    # ef = fe = 0 kills the cross terms, so this can never fail; the sweep
    # is here to catch arithmetic regressions, not to explore
    ring = rings(spec)
    for idem in idempotents(ring):
        report = corner_product_embedding(ring, idem)
        assert report.ok, (spec, idem.e, report.to_dict())


EMBEDDING_LAWS = ("injective", "additive", "multiplicative", "maps_identity_pair_to_one",
                  "image_closed")


@pytest.mark.parametrize("e, overrides, failed", [
    (3, {"override_mul": {(0, 0): 1}}, {"multiplicative"}),
    (3, {"override_mul": {(0, 3): 1}}, {"injective", "multiplicative", "image_closed"}),
    (3, {"override_add": {(0, 1): 0}}, {"additive"}),
    (4, {"override_add": {(1, 2): 0}}, {"maps_identity_pair_to_one"}),
])
def test_embedding_reports_each_broken_law(e, overrides, failed):
    # one broken entry of Z6's tables per case
    ring = TableRing.from_ring(build_ring("Z6"), **overrides)
    report = corner_product_embedding(ring, as_idempotent(ring, e)).to_dict()
    assert {law for law in EMBEDDING_LAWS if not report[law]} == failed
    assert report["ok"] is False


def test_embedding_image_is_whole_ring_exactly_for_central_idempotents(rings):
    ring = rings("Z12")
    for idem in idempotents(ring):
        report = corner_product_embedding(ring, idem)
        # in a commutative ring every idempotent is central: eRe x fRf = R
        assert len({img for _, _, img in report.pairs}) == ring.size
