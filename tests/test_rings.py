import random

import pytest

from ringlab import (
    DEFAULT_SIZE_CAP,
    MatrixRing,
    ProductRing,
    SizeCapError,
    TableRing,
    TriangularRing,
    ZmodRing,
    check_ring_axioms,
)
from ringlab.report import CURATED_FAMILY

# Rings small enough for the cubic axiom loops; every member of the curated
# family qualifies.
AXIOM_FAMILY = CURATED_FAMILY + ("Z1", "Z2xZ3")


# construction and frozen unit oracles ---------------------------------------


def test_zmod_rejects_nonpositive_modulus():
    with pytest.raises(ValueError):
        ZmodRing(0)
    with pytest.raises(ValueError):
        ZmodRing(-3)


def test_matrix_and_triangular_reject_dimension_zero(rings):
    with pytest.raises(ValueError):
        MatrixRing(0, rings("Z2"))
    with pytest.raises(ValueError):
        TriangularRing(0, rings("Z2"))


def test_zero_ring_conventions():
    z1 = ZmodRing(1)
    assert z1.size == 1
    assert z1.one == z1.zero == 0
    # 0 = 1 makes the sole element a unit, its own inverse.
    assert z1.units() == {0: 0}
    assert z1.mul(0, 0) == 0 and z1.add(0, 0) == 0


def test_z4_units_frozen(rings):
    assert rings("Z4").units() == {1: 1, 3: 3}


def test_m2z2_size_and_unit_count_frozen(rings):
    m = rings("M2(Z2)")
    assert m.size == 16
    assert len(m.units()) == 6
    assert m.one == m.encode(((1, 0), (0, 1)))


def test_t2z2_units_are_unit_diagonal_matrices_frozen(rings):
    t = rings("T2(Z2)")
    assert t.size == 8
    expected = {t.encode(((1, b), (0, 1))) for b in (0, 1)}
    assert set(t.units()) == expected


def test_product_units_are_pairs_of_units(rings):
    r = rings("Z2xZ4")
    z2, z4 = r.r1, r.r2
    expected = {r.encode((u1, u2))
                for u1 in z2.units() for u2 in z4.units()}
    assert set(r.units()) == expected


def test_z2xz3_unit_count_matches_z6(rings):
    assert len(rings("Z2xZ3").units()) == len(rings("Z6").units()) == 2


# codecs ----------------------------------------------------------------------


@pytest.mark.parametrize("spec", AXIOM_FAMILY)
def test_codes_round_trip(rings, spec):
    ring = rings(spec)
    for code in ring.elements():
        assert ring.encode(ring.decode(code)) == code


def test_matrix_codec_is_row_major_big_endian(rings):
    m = rings("M2(Z2)")
    assert m.encode(((1, 0), (0, 0))) == 8
    assert m.encode(((0, 0), (0, 1))) == 1
    assert m.decode(14) == ((1, 1), (1, 0))


def test_product_codec_packs_left_factor_high(rings):
    r = rings("Z2xZ4")
    assert r.encode((1, 3)) == 1 * 4 + 3
    assert r.decode(5) == (1, 1)


def test_triangular_codec_rejects_below_diagonal(rings):
    t = rings("T2(Z2)")
    with pytest.raises(ValueError):
        t.encode(((0, 0), (1, 0)))


# The slot codec's flat-digit arithmetic against plain nested-tuple matrix
# arithmetic written here, reaching the ring only through decode/encode and
# the base ring's own operations. Summing l over all of range(k) is right for
# triangular matrices too: every product outside i <= l <= j is zero.


def _oracle_add(ring, a, b):
    base = ring.base
    return ring.encode(tuple(tuple(base.add(x, y) for x, y in zip(r1, r2))
                             for r1, r2 in zip(ring.decode(a), ring.decode(b))))


def _oracle_neg(ring, a):
    return ring.encode(tuple(tuple(ring.base.neg(x) for x in row)
                             for row in ring.decode(a)))


def _oracle_mul(ring, a, b):
    base, k = ring.base, ring.k
    ra, rb = ring.decode(a), ring.decode(b)
    rows = []
    for i in range(k):
        row = []
        for j in range(k):
            acc = base.zero
            for l in range(k):
                acc = base.add(acc, base.mul(ra[i][l], rb[l][j]))
            row.append(acc)
        rows.append(tuple(row))
    return ring.encode(tuple(rows))


def _check_against_oracle(ring, pairs):
    for a, b in pairs:
        assert ring._raw_add(a, b) == _oracle_add(ring, a, b), (a, b)
        assert ring._raw_mul(a, b) == _oracle_mul(ring, a, b), (a, b)
    for a in ring.elements():
        assert ring._raw_neg(a) == _oracle_neg(ring, a), a
        assert ring.encode(ring.decode(a)) == a


@pytest.mark.parametrize("spec", ["M2(Z2)", "T2(Z3)"])
def test_slot_codec_matches_oracle_on_every_pair(rings, spec):
    ring = rings(spec)
    n = ring.size
    _check_against_oracle(ring, [(a, b) for a in range(n) for b in range(n)])
    # tabled carriers: the tables must be the raw operations
    assert ring._mul_table is not None
    for a in range(n):
        assert ring._neg_table[a] == ring._raw_neg(a)
        for b in range(n):
            assert ring._add_table[a][b] == ring._raw_add(a, b)
            assert ring._mul_table[a][b] == ring._raw_mul(a, b)


@pytest.mark.parametrize("spec", ["M2(T2(Z2))", "T2(M2(Z2))"])
def test_slot_codec_matches_oracle_over_noncommutative_base(rings, spec):
    # 4096 elements, so every element meets a seeded partner on each side
    # rather than every other element
    ring = rings(spec)
    assert not ring.base.is_commutative
    rng = random.Random(spec)
    pairs = []
    for a in ring.elements():
        b = rng.randrange(ring.size)
        pairs += [(a, b), (b, a)]
    _check_against_oracle(ring, pairs)


@pytest.mark.parametrize("spec", ["M2(Z4)", "M3(Z2)", "T3(Z2)"])
def test_slot_codec_matches_oracle_on_seeded_pairs(rings, spec):
    ring = rings(spec)
    rng = random.Random(spec)
    _check_against_oracle(ring, [(rng.randrange(ring.size), rng.randrange(ring.size))
                                 for _ in range(2000)])


# arithmetic and unit fast paths ----------------------------------------------


@pytest.mark.parametrize("spec", AXIOM_FAMILY)
def test_ring_axioms_hold(rings, spec):
    report = check_ring_axioms(rings(spec))
    assert report.ok, [c.name for c in report.checks if not c.ok]


@pytest.mark.parametrize("spec", AXIOM_FAMILY)
def test_inverse_fast_paths_agree_with_scan(rings, spec):
    ring = rings(spec)
    for x in ring.elements():
        assert ring.inverse_of(x) == ring._scan_inverse(x)


def test_untabled_carrier_matches_tabled_snapshot(rings):
    big = rings("M2(Z4)")  # 256 elements, beyond the table threshold
    assert big._mul_table is None
    snap = TableRing.from_ring(big)
    probes = list(range(0, 256, 23)) + [255]
    for a in probes:
        for b in probes:
            assert big.add(a, b) == snap.add(a, b)
            assert big.mul(a, b) == snap.mul(a, b)
        assert big.neg(a) == snap.neg(a)


def test_matrix_inverse_over_noncommutative_base_falls_back_to_scan(rings):
    inner = rings("T2(Z2)")
    assert not inner.is_commutative
    m = MatrixRing(1, inner)
    for x in m.elements():
        assert m.inverse_of(x) == m._scan_inverse(x)


@pytest.mark.parametrize("spec", AXIOM_FAMILY)
def test_unit_table_is_a_group(rings, spec):
    ring = rings(spec)
    units = ring.units()
    assert ring.one in units
    for u, u_inv in units.items():
        assert ring.mul(u, u_inv) == ring.one
        assert ring.mul(u_inv, u) == ring.one
        assert units[u_inv] == u
        for w in units:
            assert ring.mul(u, w) in units


def test_units_cached_and_ascending(rings):
    ring = rings("Z12")
    table = ring.units()
    assert table is ring.units()
    assert list(table) == sorted(table)


# caps -------------------------------------------------------------------------


def test_size_cap_rejects_oversized_carriers(rings):
    with pytest.raises(SizeCapError) as info:
        ZmodRing(DEFAULT_SIZE_CAP + 1)
    assert info.value.cardinality == DEFAULT_SIZE_CAP + 1
    assert info.value.cap == DEFAULT_SIZE_CAP
    with pytest.raises(SizeCapError):
        MatrixRing(3, rings("Z9"))


def test_explicit_cap_overrides_default():
    with pytest.raises(SizeCapError):
        ZmodRing(11, size_cap=10)
    assert ZmodRing(10, size_cap=10).size == 10


def test_axiom_cap_separate_from_size_cap(rings):
    big = rings("M2(Z4)")  # fits the size cap easily, still refusable for axioms
    with pytest.raises(SizeCapError):
        check_ring_axioms(big, cap=200)
    with pytest.raises(SizeCapError):
        check_ring_axioms(rings("Z12"), cap=11)
    assert check_ring_axioms(rings("Z12"), cap=12).ok


# fault injection ---------------------------------------------------------------


def test_table_ring_snapshot_is_faithful(rings):
    z4 = rings("Z4")
    snap = TableRing.from_ring(z4)
    assert check_ring_axioms(snap).ok
    assert snap.units() == z4.units()


def test_corrupted_multiplication_is_caught_with_counterexample(rings):
    broken = TableRing.from_ring(rings("Z4"), override_mul={(3, 3): 0})
    report = check_ring_axioms(broken)
    assert not report.ok
    failed = {c.name: c for c in report.checks if not c.ok}
    assert "left_distributive" in failed or "right_distributive" in failed
    for check in failed.values():
        assert check.counterexample is not None
        assert all(0 <= v < broken.size for v in check.counterexample)


def test_corrupted_addition_is_caught(rings):
    broken = TableRing.from_ring(rings("Z4"), override_add={(1, 2): 1})
    report = check_ring_axioms(broken)
    assert not report.ok


def test_table_ring_validates_shape_and_range():
    with pytest.raises(ValueError):
        TableRing([[0, 1], [1, 0]], [[0, 0], [0]], one=1)
    with pytest.raises(ValueError):
        TableRing([[0, 1], [1, 9]], [[0, 0], [0, 1]], one=1)


# element checks -----------------------------------------------------------------


def test_check_element_rejects_foreign_codes(rings):
    ring = rings("Z6")
    with pytest.raises(ValueError):
        ring.check_element(6)
    with pytest.raises(ValueError):
        ring.check_element(-1)
    assert ring.check_element(5) == 5


def test_element_repr_shows_structure(rings):
    assert rings("M2(Z2)").element_repr(9) == "[[1,0],[0,1]]"
    assert rings("Z2xZ4").element_repr(5) == "(1,1)"
    assert rings("Z6").element_repr(4) == "4"
