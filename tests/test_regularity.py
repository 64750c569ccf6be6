"""Regularity searches against hand-computed sets and finite-ring collapses.

The frozen sets were derived on paper: in Z/n the regular elements are those
whose square divides them times a unit, checked directly; in T2(Z2) the
strictly upper matrix e12 kills itself against the triangular shape, so it
cannot be regular. Everything else is property sweeps.
"""

import pytest

import ringlab.regularity as regularity_mod
from ringlab import (
    CURATED_FAMILY,
    RegularityKind,
    TableRing,
    ZmodRing,
    build_ring,
    classify,
    corner_ring,
    idempotents,
    is_unit_regular_ring,
    one_sided_unit_regular_witness,
    regular_set,
    regular_witness,
    unit_regular_set,
    unit_regular_witness,
    zero_divisor_status,
)
from ringlab.regularity import one_sided_partner

UR_SETS = {
    "Z4": (0, 1, 3),
    "Z6": (0, 1, 2, 3, 4, 5),
    "Z8": (0, 1, 3, 5, 7),
    "Z12": (0, 1, 3, 4, 5, 7, 8, 9, 11),
    "T2(Z2)": (0, 1, 3, 4, 5, 6, 7),  # everything but e12 (code 2)
}


@pytest.mark.parametrize("spec", sorted(UR_SETS))
def test_unit_regular_sets_frozen(rings, spec):
    assert unit_regular_set(rings(spec)) == UR_SETS[spec]


@pytest.mark.parametrize("spec", sorted(UR_SETS))
def test_regular_equals_unit_regular_on_these_carriers(rings, spec):
    # finite rings: regular implies unit regular, so the sets coincide
    assert regular_set(rings(spec)) == unit_regular_set(rings(spec))


def test_unit_regular_rings(rings):
    assert is_unit_regular_ring(rings("Z6"))
    assert is_unit_regular_ring(rings("M2(Z2)"))
    assert is_unit_regular_ring(rings("M2(Z3)"))
    assert not is_unit_regular_ring(rings("Z4"))
    assert not is_unit_regular_ring(rings("T2(Z2)"))


def test_witnesses_actually_witness(rings):
    for spec in ("Z8", "T2(Z2)", "M2(Z2)"):
        ring = rings(spec)
        for a in ring.elements():
            t = regular_witness(ring, a)
            if t is not None:
                assert ring.mul3(a, t, a) == a
            pair = unit_regular_witness(ring, a)
            if pair is not None:
                u, u_inv = pair
                assert ring.mul3(a, u, a) == a
                assert ring.mul(u, u_inv) == ring.one
                assert ring.mul(u_inv, u) == ring.one
                assert t is not None  # unit regular is regular


def test_first_witness_is_deterministic(rings):
    ring = rings("Z4")
    assert unit_regular_witness(ring, 3) == (3, 3)  # u=1 fails: 3*1*3 = 1
    assert regular_witness(ring, 3) == 3
    assert unit_regular_witness(ring, 2) is None
    assert regular_witness(ring, 2) is None
    assert unit_regular_witness(rings("Z6"), 4) == (1, 1)


def test_e12_is_not_regular_in_triangular_ring(rings):
    ring = rings("T2(Z2)")
    code = ring.encode(((0, 1), (0, 0)))
    assert code == 2
    assert regular_witness(ring, code) is None
    assert classify(ring, code).kind is RegularityKind.NOT_REGULAR


def test_classify_strongest_kind(rings):
    ring = rings("Z6")
    w = classify(ring, 4)
    assert w.kind is RegularityKind.UNIT_REGULAR
    assert (w.t, w.u, w.u_partner) == (1, 1, 1)
    w = classify(rings("Z4"), 2)
    assert w.kind is RegularityKind.NOT_REGULAR
    assert w.t is None and w.u is None and w.u_partner is None


def test_classify_never_runs_the_one_sided_search(monkeypatch):
    def fail(*args):
        raise AssertionError("one-sided search reached from classify")

    monkeypatch.setattr(regularity_mod, "one_sided_unit_regular_witness", fail)
    ring = build_ring("T2(Z2)")  # fresh, so nothing is memoised yet
    kinds = [classify(ring, a).kind for a in ring.elements()]
    assert kinds.count(RegularityKind.NOT_REGULAR) == 1


def test_one_sided_collapses_to_two_sided_on_finite_carriers(rings):
    for spec in ("Z8", "T2(Z2)", "M2(Z2)"):
        ring = rings(spec)
        two_sided = set(unit_regular_set(ring))
        for a in ring.elements():
            right = one_sided_unit_regular_witness(ring, a, "right")
            left = one_sided_unit_regular_witness(ring, a, "left")
            assert (right is not None) == (a in two_sided)
            assert (left is not None) == (a in two_sided)
            if right is not None:
                u, v = right
                assert ring.mul3(a, u, a) == a
                assert ring.mul(u, v) == ring.one
            if left is not None:
                u, v = left
                assert ring.mul3(a, u, a) == a
                assert ring.mul(v, u) == ring.one


@pytest.mark.parametrize("spec", CURATED_FAMILY + ("M2(Z4)", "T2(Z8)"))
def test_regular_collapses_to_unit_regular_on_rings_and_corners(rings, spec):
    # classify skips the bare search; the full scan must agree with it
    ring = rings(spec)
    for carrier in (ring, *(corner_ring(ring, idem) for idem in idempotents(ring))):
        unit_regular = set(unit_regular_set(carrier))
        for a in carrier.elements():
            if a not in unit_regular:
                assert regular_witness(carrier, a) is None


def test_one_sided_partner_follows_its_side():
    # 3*1 = 1 is injected: 3 has the right inverses 1 and 3, the left one 3
    ring = TableRing.from_ring(ZmodRing(4), override_mul={(3, 1): 1})
    assert one_sided_partner(ring, 3, "right") == 1
    assert one_sided_partner(ring, 3, "left") == 3
    # 2*3 = 3 as well, so 3 is the first middle term of a = 2: 2*3*2 = 3*2 = 2
    ring = TableRing.from_ring(ZmodRing(4), override_mul={(3, 1): 1, (2, 3): 3})
    assert one_sided_unit_regular_witness(ring, 2, "right") == (3, 1)
    assert one_sided_unit_regular_witness(ring, 2, "left") == (3, 3)


@pytest.mark.parametrize("spec", ["T2(Z8)", "M2(Z2)"])
def test_one_sided_partner_matches_a_plain_scan(rings, spec):
    ring = rings(spec)
    one, mul = ring.one, ring.mul
    for u in ring.elements():
        right = next((v for v in ring.elements() if mul(u, v) == one), None)
        left = next((v for v in ring.elements() if mul(v, u) == one), None)
        assert one_sided_partner(ring, u, "right") == right
        assert one_sided_partner(ring, u, "left") == left


def test_one_sided_rejects_bad_side(rings):
    with pytest.raises(ValueError):
        one_sided_unit_regular_witness(rings("Z4"), 1, "up")


def test_units_are_unit_regular_and_unit_regular_is_regular(rings):
    for spec in ("Z12", "T2(Z3)", "M2(Z2)", "Z2xZ4"):
        ring = rings(spec)
        ur = set(unit_regular_set(ring))
        assert set(ring.units()) <= ur <= set(regular_set(ring))
        for idem_candidate in ring.elements():
            if ring.mul(idem_candidate, idem_candidate) == idem_candidate:
                assert idem_candidate in ur  # e = e*1*e


def test_zero_divisor_status_frozen(rings):
    z6 = rings("Z6")
    assert zero_divisor_status(z6, 2) == zero_divisor_status(z6, 2)
    assert zero_divisor_status(z6, 2).left and zero_divisor_status(z6, 2).right
    assert zero_divisor_status(z6, 5).clear
    assert not zero_divisor_status(z6, 0).clear
    t2 = rings("T2(Z2)")
    status = zero_divisor_status(t2, 2)  # e12 squares to zero
    assert status.left and status.right and not status.clear


def test_zero_divisor_free_means_unit_on_finite_carriers(rings):
    # pigeonhole: injective left multiplication forces surjectivity
    for spec in ("Z12", "T2(Z2)", "M2(Z2)"):
        ring = rings(spec)
        units = set(ring.units())
        for b in ring.elements():
            status = zero_divisor_status(ring, b)
            assert status.clear == (b in units)
            assert status.left == status.right  # both collapse together


def test_zero_ring_conventions(rings):
    ring = rings("Z1")
    assert unit_regular_set(ring) == (0,)
    assert is_unit_regular_ring(ring)
    assert zero_divisor_status(ring, 0).clear  # no nonzero victim exists


def test_sets_are_cached(rings):
    ring = rings("Z8")
    assert unit_regular_set(ring) is unit_regular_set(ring)
    assert regular_set(ring) is regular_set(ring)


def test_range_checks(rings):
    with pytest.raises(ValueError):
        regular_witness(rings("Z4"), 4)
    with pytest.raises(ValueError):
        unit_regular_witness(rings("Z4"), -1)
    with pytest.raises(ValueError):
        zero_divisor_status(rings("Z4"), 99)
