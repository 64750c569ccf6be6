import math
import random
import time
from itertools import permutations, product

import pytest

import ringlab.rings as rings_module
from ringlab import (
    DEFAULT_SIZE_CAP,
    MatrixRing,
    ProductRing,
    SizeCapError,
    TableRing,
    TriangularRing,
    ZmodRing,
    build_ring,
    check_ring_axioms,
    classify,
    classify_payload,
    corner_ring,
    idempotents,
    witness_payload,
)
from ringlab.report import CURATED_FAMILY
from ringlab.rings import FiniteRing, _additive_generators, _gather, _row_int, _row_proofs

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
    ring._fill_tables()
    for a in range(n):
        assert ring._neg_table[a] == ring._raw_neg(a)
        for b in range(n):
            assert ring._add_table[a][b] == ring._raw_add(a, b)
            assert ring._mul_table[a][b] == ring._raw_mul(a, b)


def _noncommuting_pair(ring):
    """The first pair (a, b) with ab != ba, by a plain scan, or None."""
    elems = list(ring.elements())
    return next(((a, b) for a in elems for b in elems
                 if ring.mul(a, b) != ring.mul(b, a)), None)


@pytest.mark.parametrize("spec", ["M2(T2(Z2))", "T2(M2(Z2))"])
def test_slot_codec_matches_oracle_over_noncommutative_base(rings, spec):
    # 4096 elements, so every element meets a seeded partner on each side
    # rather than every other element
    ring = rings(spec)
    assert _noncommuting_pair(ring.base) is not None
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
    big = rings("M2(Z6)")  # 1296 elements, beyond the table threshold
    big.add(0, 0)
    assert big._mul_table is None
    snap = build_ring("M2(Z6)")
    snap._fill_tables()  # the structural build, past the threshold
    probes = list(range(0, 1296, 97)) + [1295]
    for a in probes:
        for b in probes:
            assert big.add(a, b) == snap.add(a, b)
            assert big.mul(a, b) == snap.mul(a, b)
        assert big.neg(a) == snap.neg(a)


def test_m1_over_noncommutative_base_inverts_through_its_base(rings):
    inner = rings("T2(Z2)")
    assert _noncommuting_pair(inner) is not None
    m = MatrixRing(1, inner)
    for x in m.elements():
        assert m.inverse_of(x) == m._scan_inverse(x)


def _inverse_mismatches(spec):
    """Codes where inverse_of on a fresh, untabled ring differs from the
    two-sided scan on a second, tabled instance."""
    fresh, oracle = build_ring(spec), build_ring(spec)
    oracle.tabulate()
    mismatches = [x for x in fresh.elements()
                  if fresh.inverse_of(x) != oracle._scan_inverse(x)]
    assert fresh._mul_table is None
    return mismatches


# Square rings outside AXIOM_FAMILY whose inverses take the power walk:
# larger bases, a noncommutative base, k = 1 over one, and the zero ring.
POWER_WALK_CARRIERS = ("M3(Z2)", "T2(Z8)", "T2(T2(Z2))", "M1(T2(Z2))", "T3(Z1)", "M5(Z1)")


@pytest.mark.parametrize("spec", POWER_WALK_CARRIERS)
def test_square_ring_inverse_agrees_with_scan(spec):
    assert _inverse_mismatches(spec) == []


def test_inverse_agreement_catches_a_walk_one_power_late(monkeypatch):
    def one_power_late(self, x):
        # the walk of _SquareRing.inverse_of, answering x^m = 1 for x^(m-1)
        mul, one = self.mul, self.one
        seen, power = {one}, x
        while power not in seen:
            seen.add(power)
            power = mul(power, x)
        return power if power == one else None

    monkeypatch.setattr(rings_module._SquareRing, "inverse_of", one_power_late)
    ring = build_ring("T2(Z8)")
    assert set(_inverse_mismatches("T2(Z8)")) == set(ring.units()) - {ring.one}


@pytest.mark.parametrize("cls", [MatrixRing, TriangularRing])
def test_dimension_one_inverse_is_the_base_gcd_inverse(monkeypatch, cls):
    p = 1009
    ring = cls(1, ZmodRing(p))

    def no_walk(a, b):
        raise AssertionError("k = 1 walked the powers")

    monkeypatch.setattr(ring, "mul", no_walk)
    for x in range(p):
        assert ring.inverse_of(x) == (pow(x, -1, p) if math.gcd(x, p) == 1 else None)


@pytest.mark.parametrize("spec, rows", [
    ("M2(Z31)", ((0, 1), (7, 1))),    # a unit of order 960
    ("T2(Z101)", ((2, 1), (0, 2))),   # a unit of order 10,100
])
def test_long_power_walk_inverts_in_bounded_time(spec, rows):
    ring = build_ring(spec)
    u = ring.encode(rows)
    start = time.perf_counter()
    v = ring.inverse_of(u)
    elapsed = time.perf_counter() - start
    assert v is not None and ring.mul(u, v) == ring.one == ring.mul(v, u)
    assert elapsed < 1.0


def test_m2_inverse_exists_exactly_when_the_determinant_is_a_unit():
    p = 31
    ring = build_ring("M2(Z31)")
    rng = random.Random(20261019)
    for i in range(200):
        if i % 2:
            a, b, c, d = (rng.randrange(p) for _ in range(4))
        else:  # second row a multiple of the first: singular by construction
            a, b, s = rng.randrange(p), rng.randrange(p), rng.randrange(p)
            c, d = s * a % p, s * b % p
        x = ring.encode(((a, b), (c, d)))
        assert (ring.inverse_of(x) is None) == ((a * d - b * c) % p == 0), (a, b, c, d)


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


# Cayley tables ------------------------------------------------------------------
#
# The structural builds against FiniteRing's pairwise build through _raw_*,
# entry by entry, on carriers up to the threshold: the family, list, 'B' and
# 'H' rows, noncommutative and nested bases, the 1024-element edge, and
# bases whose tables break the ring laws, where any reasoning from those
# laws would go wrong.

TABLED = CURATED_FAMILY + ("M2(Z4)", "M3(Z2)", "T3(Z2)", "T2(Z8)", "M2(Z2xZ2)",
                           "T2(T2(Z2))", "Z2xT2(T2(Z2))", "T1(M2(Z2))", "M1(Z200)",
                           "M1(Z300)")


def _assert_tables_match_pairwise_build(ring):
    assert ring.size <= rings_module._TABLE_THRESHOLD
    ring._fill_tables()
    assert list(ring._neg_table) == FiniteRing._neg_row(ring)
    for table, rows in ((ring._add_table, FiniteRing._add_rows(ring)),
                        (ring._mul_table, FiniteRing._mul_rows(ring))):
        assert len(table) == ring.size
        for a, row in enumerate(rows):
            assert list(table[a]) == row, (ring.spec_string, a)


@pytest.mark.parametrize("spec", TABLED)
def test_tables_match_pairwise_build(spec):
    _assert_tables_match_pairwise_build(build_ring(spec))


def test_largest_square_add_table_matches_raw_add():
    # 1024 elements in 'H' rows, paired from two five-slot halves; the mul
    # table's pairwise build would take too long here
    ring = build_ring("T4(Z2)")
    ring._fill_tables()
    raw_add, codes = ring._raw_add, range(ring.size)
    for a in codes:
        assert list(ring._add_table[a]) == [raw_add(a, b) for b in codes], a


@pytest.mark.parametrize("size", [200, 300], ids=["B", "H"])
def test_gather_matches_a_plain_row(size):
    # bytes.translate over a byte index, widened to 'H' fields above 256
    # elements
    rnd = random.Random(size)
    values = [rnd.randrange(256) for _ in range(27)]
    index = bytes(rnd.randrange(len(values)) for _ in range(size))
    assert _gather(values, index, size) == _row_int([values[i] for i in index], size)


@pytest.mark.parametrize("spec", ["T3(Z3)", "T2(Z10)", "M2(Z5)"])
def test_widest_byte_gathers_match_raw_ops(spec):
    # 'H' rows gathered from 27-, 100- and 25-code slot patterns; the full
    # pairwise build would take too long, so 64 seeded rows of each table
    ring = build_ring(spec)
    ring._fill_tables()
    codes = range(ring.size)
    assert ring._mul_table[0].typecode == "H"
    assert list(ring._neg_table) == [ring._raw_neg(a) for a in codes]
    for a in random.Random(spec).sample(codes, 64):
        assert list(ring._add_table[a]) == [ring._raw_add(a, b) for b in codes], a
        assert list(ring._mul_table[a]) == [ring._raw_mul(a, b) for b in codes], a


@pytest.mark.parametrize("spec", TABLED + ("Z1", "M2(Z1)", "T3(Z1)xZ2"))
def test_element_reprs_match_element_repr(spec):
    ring = build_ring(spec)
    assert ring.element_reprs() == tuple(map(ring.element_repr, ring.elements()))
    assert ring.element_reprs() is ring.element_reprs()


def test_element_reprs_of_a_corner_match_element_repr(rings):
    ring = rings("M2(Z2)")
    corner = corner_ring(ring, idempotents(ring)[1])
    assert corner.element_reprs() == tuple(map(corner.element_repr, corner.elements()))


def test_element_reprs_oracle_catches_two_swapped_slots():
    ring = build_ring("M2(Z3)")
    template = ring._repr_template()
    swapped = [template % (t[1], t[0], *t[2:])
               for t in product(ring.base.element_reprs(), repeat=len(ring._slots))]
    assert swapped != list(map(ring.element_repr, ring.elements()))


def _classify_records(ring):
    """classify_payload's element records, from classify and element_repr."""
    return [{"code": a, "repr": ring.element_repr(a), "kind": w.kind.value,
             "t": w.t, "u": w.u, "u_inv": w.u_partner}
            for a in ring.elements() for w in (classify(ring, a),)]


# every TABLED ring within the listing cap of 512 elements
@pytest.mark.parametrize("spec", [s for s in TABLED if s != "Z2xT2(T2(Z2))"])
def test_classify_records_match_classify_and_element_repr(spec):
    ring = build_ring(spec)
    assert ring.size <= 512
    assert classify_payload(ring)[0]["elements"] == _classify_records(build_ring(spec))


def _law_breaking_z4():
    z4 = ZmodRing(4)
    return (TableRing.from_ring(z4, override_mul={(3, 3): 0, (1, 2): 3}, label="mulZ4"),
            TableRing.from_ring(z4, override_add={(1, 2): 1}, label="addZ4"))


@pytest.mark.parametrize("build", [
    lambda r: MatrixRing(2, r), lambda r: TriangularRing(2, r), lambda r: MatrixRing(1, r),
    lambda r: ProductRing(r, r), lambda r: ProductRing(TriangularRing(2, r), ZmodRing(3)),
], ids=["M2", "T2", "M1", "RxR", "T2xZ3"])
def test_tables_match_pairwise_build_over_law_breaking_bases(build):
    for base in _law_breaking_z4():
        assert not check_ring_axioms(base).ok
        _assert_tables_match_pairwise_build(build(base))


def test_tables_are_compact_rows():
    for spec, row in (("Z2", list), ("M2(Z2)xZ2xZ4", list), ("M2(Z4)", "B"),
                      ("T2(Z2)xZ4xZ4xZ4", "H"), ("Z2xT2(T2(Z2))", "H")):
        ring = build_ring(spec)
        ring._fill_tables()
        for table in (ring._add_table, ring._mul_table, [ring._neg_table]):
            if row is list:
                assert {type(r) for r in table} == {list}
            else:
                assert {r.typecode for r in table} == {row}


def _untabled(ring):
    return (ring._add_table, ring._mul_table, ring._neg_table) == (None, None, None)


@pytest.mark.parametrize("op", ["add", "neg", "mul"])
def test_no_count_of_ops_fills_the_tables_and_units_does(op):
    # every pair once, a whole table's worth of ops, yet the tables fill
    # only when a sweep begins
    ring = build_ring("M2(Z4)")
    call, raw = getattr(ring, op), getattr(ring, "_raw_" + op)
    arity = 1 if op == "neg" else 2
    for a, b in product(ring.elements(), repeat=2):
        assert call(*(a, b)[:arity]) == raw(*(a, b)[:arity])
    assert _untabled(ring)
    ring.units()
    assert not any(t is None for t in (ring._add_table, ring._mul_table, ring._neg_table))
    assert call(*(3, 5)[:arity]) == raw(*(3, 5)[:arity])


def test_residue_rings_fill_by_the_rule_of_every_dense_carrier():
    # no count of ops fills; a sweep fills within _TABLE_THRESHOLD, whatever
    # the size against _LIST_ROWS, and nothing fills above it
    for n in (128, 129, 1000):
        ring = build_ring(f"Z{n}")
        for a, b in product(ring.elements(), repeat=2):
            assert ring.mul(a, b) == a * b % n
        assert _untabled(ring), n
        ring.units()
        assert not any(t is None for t in (ring._add_table, ring._mul_table, ring._neg_table)), n
    ring = build_ring("Z1025")
    assert ring.size > rings_module._TABLE_THRESHOLD
    ring.units()
    assert _untabled(ring)


def test_axiom_check_on_a_residue_ring_fills_the_tables_units_fills():
    swept, checked = ZmodRing(1000), ZmodRing(1000)
    swept.units()
    assert check_ring_axioms(checked, cap=1000).ok
    for by_units, by_axioms in zip(swept._tables(), checked._tables()):
        assert by_units == by_axioms
        assert {type(r) for r in by_units} == {type(r) for r in by_axioms}


@pytest.mark.parametrize("spec", ["M2(T2(Z2))", "T2(T2(Z2))"])
def test_small_bases_are_tabled_when_the_matrix_ring_is_built(spec):
    ring = build_ring(spec)
    assert ring.base.size == 8 and not _untabled(ring.base)
    assert _untabled(ring)


def test_a_sweep_on_a_large_product_tables_its_factors_only():
    ring = build_ring("M2(Z4)xZ5")
    big, small = ring.r1, ring.r2
    assert ring.size == 1280 > rings_module._TABLE_THRESHOLD
    assert _untabled(big) and not _untabled(small)  # 256 and 5 elements
    ring.units()
    assert _untabled(ring) and not _untabled(big)


def test_products_need_dense_factors():
    z4 = build_ring("Z4")
    corner = corner_ring(z4, idempotents(z4)[0])
    with pytest.raises(ValueError, match="dense"):
        ProductRing(corner, z4)


@pytest.mark.parametrize("n", [1, 2, 7, 128, 129, 256, 257, 1000])
def test_residue_mul_rows_match_the_pairwise_build(n):
    # strided slices of one array of residues, in 'B' rows up to 256
    # elements and 'H' rows above
    ring = ZmodRing(n)
    assert [list(row) for row in ring._mul_rows()] == list(FiniteRing._mul_rows(ring))


def test_short_request_fills_nothing_and_a_sweep_fills():
    # corner witness at e = 1: about 2n ops, against whole-table fills of
    # 1.4 ms (M2(Z4)) to 110 ms (M1(Z1000)) on Python 3.11, x86_64
    for spec in ("Z1000", "M1(Z1000)", "T2(T2(Z2))xZ2", "Z2xT2(T2(Z2))", "M2(Z4)",
                 "T2(Z8)", "M2(Z5)"):
        ring = build_ring(spec)
        payload, ok = witness_payload(ring, ring.one, ring.one, 0, ring.one)
        assert ok and payload["witness"]["ok"]
        assert _untabled(ring), spec
        if isinstance(ring, ProductRing):  # nor does its 512-element factor
            factor = max(ring.r1, ring.r2, key=lambda r: r.size)
            assert factor.size == 512 and _untabled(factor), spec
    ring = build_ring("M2(Z4)")
    classify_payload(ring)
    assert ring._mul_table is not None


@pytest.mark.parametrize("bad", ["e", "a", "b", "u", "v"])
def test_witness_refused_for_a_bad_code_fills_nothing(bad):
    ring = build_ring("M2(Z4)")
    codes = dict(e=ring.one, a=ring.one, b=0, u=ring.one, v=ring.one)
    codes[bad] = ring.size
    with pytest.raises(ValueError, match="not an element code"):
        witness_payload(ring, **codes)
    assert _untabled(ring)


def test_carrier_above_threshold_stays_untabled(rings):
    ring = rings("M2(Z6)")
    assert ring.size == 1296 > rings_module._TABLE_THRESHOLD
    assert ring.mul(ring.one, 5) == 5 and ring.add(0, 7) == 7 and ring.neg(0) == 0
    for a in range(0, ring.size, 7):
        for b in range(0, ring.size, 101):
            ring.mul(a, b)
    assert _untabled(ring)


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


def test_axiom_report_is_memoised_and_a_snapshot_override_still_fails(monkeypatch):
    ring = build_ring("Z4")
    report = check_ring_axioms(ring)
    proofs = 0

    def counted(*args):
        nonlocal proofs
        proofs += 1
        return _row_proofs(*args)

    monkeypatch.setattr(rings_module, "_row_proofs", counted)
    assert check_ring_axioms(ring) is report and proofs == 0
    broken = TableRing.from_ring(ring, override_mul={(3, 3): 0})
    failed = [c for c in check_ring_axioms(broken).checks if not c.ok]
    assert proofs == 1 and failed and all(c.counterexample for c in failed)
    with pytest.raises(SizeCapError):
        check_ring_axioms(ring, cap=3)


def test_corrupted_addition_is_caught(rings):
    broken = TableRing.from_ring(rings("Z4"), override_add={(1, 2): 1})
    report = check_ring_axioms(broken)
    assert not report.ok


def test_law_breaking_carrier_sweeps_only_the_laws_without_a_proof():
    # M2(mulZ4) breaks both distributive laws, so they and mul_associative,
    # whose proof rests on them, are swept and stop at their first
    # counterexamples; + associativity keeps its proof, so the check stays
    # far below one full cubic sweep of n^3 adds
    ring = MatrixRing(2, _law_breaking_z4()[0])
    n, add, adds = ring.size, ring.add, 0

    def counted_add(a, b):
        nonlocal adds
        adds += 1
        return add(a, b)

    ring.add = counted_add
    report = check_ring_axioms(ring)
    assert n == 256 and adds < n ** 3
    assert {c.name: c.counterexample for c in report.checks if not c.ok} == {
        "mul_associative": (1, 2, 2), "mul_identity": (2,),
        "left_distributive": (1, 1, 1), "right_distributive": (1, 1, 2)}


# The axiom check against every law written as a plain loop over the whole
# carrier, so the generator reductions and the exact sweeps it falls back to
# must both reproduce the first counterexample in lexicographic code order.


def _oracle_report(ring):
    elems = list(ring.elements())
    add, mul, neg = ring.add, ring.mul, ring.neg
    zero, one = ring.zero, ring.one

    def first(fails, arity):
        # product() walks the tuples in lexicographic order
        return next((t for t in product(elems, repeat=arity) if fails(*t)), None)

    found = [
        ("add_associative", first(
            lambda a, b, c: add(add(a, b), c) != add(a, add(b, c)), 3)),
        ("add_commutative", first(lambda a, b: add(a, b) != add(b, a), 2)),
        ("add_identity", first(lambda a: add(zero, a) != a or add(a, zero) != a, 1)),
        ("add_inverse", first(lambda a: add(a, neg(a)) != zero, 1)),
        ("mul_associative", first(
            lambda a, b, c: mul(mul(a, b), c) != mul(a, mul(b, c)), 3)),
        ("mul_identity", first(lambda a: mul(one, a) != a or mul(a, one) != a, 1)),
        ("left_distributive", first(
            lambda a, b, c: mul(a, add(b, c)) != add(mul(a, b), mul(a, c)), 3)),
        ("right_distributive", first(
            lambda a, b, c: mul(add(a, b), c) != add(mul(a, c), mul(b, c)), 3)),
    ]
    return {
        "ring": ring.spec_string,
        "ok": all(cx is None for _, cx in found),
        "checks": [{"name": name, "ok": cx is None,
                    "counterexample": list(cx) if cx else None}
                   for name, cx in found],
    }


@pytest.mark.parametrize("spec", AXIOM_FAMILY)
def test_axiom_check_matches_oracle_on_family(rings, spec):
    ring = rings(spec)
    assert check_ring_axioms(ring).to_dict() == _oracle_report(ring)


@pytest.mark.parametrize("spec", ["Z6", "Z12", "T2(Z2)", "M2(Z2)"])
def test_axiom_check_matches_oracle_on_every_corner(rings, spec):
    ring = rings(spec)
    for idem in idempotents(ring):
        corner = corner_ring(ring, idem)
        assert check_ring_axioms(corner).to_dict() == _oracle_report(corner), idem


# The proofs as per-op loops, each entry through add and mul: the row
# proofs must return the same bool on lawful and law-breaking carriers.


def _oracle_light_test(ring, elems, gens):
    add = ring.add
    for g in gens:
        gy = [add(g, y) for y in elems]
        for x in elems:
            xg = add(x, g)
            if [add(xg, y) for y in elems] != [add(x, s) for s in gy]:
                return False
    return True


def _oracle_add_commutative(ring, elems, gens):
    return all(ring.add(a, b) == ring.add(b, a) for a in elems for b in elems)


def _oracle_left_distributive(ring, elems, gens):
    add, mul = ring.add, ring.mul
    b_plus_c = {c: [add(b, c) for b in elems] for c in gens}
    for a in elems:
        ab = [mul(a, b) for b in elems]
        row = dict(zip(elems, ab))
        for c in gens:
            ac = row[c]
            if [row.get(s) for s in b_plus_c[c]] != [add(x, ac) for x in ab]:
                return False
    return True


def _oracle_right_distributive(ring, elems, gens):
    add, mul = ring.add, ring.mul
    a_plus_b = {a: [add(a, b) for b in elems] for a in gens}
    for c in elems:
        bc = [mul(b, c) for b in elems]
        col = dict(zip(elems, bc))
        for a in gens:
            ac = col[a]
            if [col.get(s) for s in a_plus_b[a]] != [add(ac, x) for x in bc]:
                return False
    return True


def _oracle_mul_associative(ring, elems, gens):
    mul = ring.mul
    return all(mul(mul(a, b), c) == mul(a, mul(b, c))
               for a in gens for b in gens for c in gens)


_ORACLE_PROOFS = {
    "add_associative": _oracle_light_test,
    "add_commutative": _oracle_add_commutative,
    "left_distributive": _oracle_left_distributive,
    "right_distributive": _oracle_right_distributive,
    "mul_associative": _oracle_mul_associative,
}


def _assert_row_proofs_match_oracles(ring):
    elems = list(ring.elements())
    proofs = _row_proofs(ring, elems)
    assert set(proofs) == set(_ORACLE_PROOFS)
    gens = _additive_generators(ring)
    verdicts = {name: proof() for name, proof in proofs.items()}
    assert verdicts == {name: oracle(ring, elems, gens)
                        for name, oracle in _ORACLE_PROOFS.items()}, ring.spec_string
    return verdicts


@pytest.mark.parametrize("spec", AXIOM_FAMILY)
def test_row_proofs_match_oracles_on_family(rings, spec):
    assert all(_assert_row_proofs_match_oracles(rings(spec)).values())


@pytest.mark.parametrize("spec", ["Z6", "Z12", "T2(Z2)", "M2(Z2)"])
def test_row_proofs_match_oracles_on_every_corner(rings, spec):
    ring = rings(spec)
    for idem in idempotents(ring):
        assert all(_assert_row_proofs_match_oracles(corner_ring(ring, idem)).values())


@pytest.mark.parametrize("build", [
    lambda: MatrixRing(2, _law_breaking_z4()[0]),
    lambda: MatrixRing(2, _law_breaking_z4()[1]),
    lambda: TriangularRing(2, ZmodRing(8)),  # 512 elements: tuple rows
    lambda: ProductRing(ZmodRing(2), MatrixRing(2, _law_breaking_z4()[0])),
], ids=["M2(mulZ4)", "M2(addZ4)", "T2(Z8)", "Z2xM2(mulZ4)"])
def test_row_proofs_match_oracles_past_the_family(build):
    ring = build()
    verdicts = _assert_row_proofs_match_oracles(ring)
    assert all(verdicts.values()) == (ring.spec_string == "T2(Z8)")


class _Descending(TableRing):
    """A TableRing that lists its codes in descending order: not dense, so
    its row proofs compute each row through add and mul, on positions that
    differ from the codes."""

    def elements(self):
        return list(range(self.size - 1, -1, -1))


def _s3_projection(side):
    # + is the symmetric group S3, so it is associative but not commutative;
    # ab = b is left distributive, a(b+c) = b+c = ab+ac, but not right, and
    # ab = a the other way round
    perms = list(permutations(range(3)))  # the identity first, as code 0
    add = [[perms.index(tuple(p[i] for i in q)) for q in perms] for p in perms]
    mul = [list(range(6))] * 6 if side == "left" else [[a] * 6 for a in range(6)]
    return TableRing(add, mul, one=0, label=f"S3{side}")


@pytest.mark.parametrize("build", [
    lambda: _s3_projection("left"), lambda: _s3_projection("right"),
    lambda: build_ring("Z6"), lambda: build_ring("T2(Z2)"), lambda: build_ring("M2(Z2)"),
    lambda: MatrixRing(2, _law_breaking_z4()[0]), lambda: MatrixRing(2, _law_breaking_z4()[1]),
], ids=["S3left", "S3right", "Z6", "T2(Z2)", "M2(Z2)", "M2(mulZ4)", "M2(addZ4)"])
def test_row_proofs_match_oracles_on_computed_rows(build):
    ring = build()
    _assert_row_proofs_match_oracles(ring)
    # the generators follow the listing, so the verdicts may differ here
    verdicts = _assert_row_proofs_match_oracles(_Descending.from_ring(ring))
    if ring.spec_string.startswith("S3"):
        left = ring.spec_string == "S3left"
        assert verdicts == {"add_associative": True, "add_commutative": False,
                            "left_distributive": left, "right_distributive": not left,
                            "mul_associative": True}


def test_sums_leaving_a_corner_fail_the_row_proofs():
    # corners of a carrier that breaks the laws need not be closed under +:
    # a row that leaves the carrier fails its proof, and the sweeps still
    # report what the plain loops find
    ring = TriangularRing(2, _law_breaking_z4()[0])
    left = 0
    for idem in idempotents(ring):
        corner = corner_ring(ring, idem)
        try:
            _row_proofs(corner, list(corner.elements()))["add_associative"]()
        except KeyError:
            left += 1
        assert check_ring_axioms(corner).to_dict() == _oracle_report(corner), idem
    assert left > 0


def test_row_proofs_make_fewer_ops_than_entries():
    # the proofs compare rows of the filled tables; only the generators,
    # the linear sweeps and the scalar check on G^3 call add and mul
    ring = build_ring("M2(Z4)")
    n, add, mul, calls = ring.size, ring.add, ring.mul, 0

    def counted(op):
        def call(a, b):
            nonlocal calls
            calls += 1
            return op(a, b)
        return call

    ring.add, ring.mul = counted(add), counted(mul)
    assert check_ring_axioms(ring).ok
    assert 0 < calls < n * n


def _corruptions(ring):
    """Every TableRing with one add or mul entry changed to a wrong value."""
    n = ring.size
    built = refused = 0
    for table in ("add", "mul"):
        op = ring.add if table == "add" else ring.mul
        for a in range(n):
            for b in range(n):
                for v in range(n):
                    if v == op(a, b):
                        continue
                    try:
                        broken = TableRing.from_ring(ring, **{f"override_{table}": {(a, b): v}})
                    except ValueError as err:  # an add row left without a zero
                        assert "no additive inverse" in str(err)
                        refused += 1
                        continue
                    built += 1
                    yield (table, a, b, v), broken
    assert built + refused == 2 * n * n * (n - 1)


@pytest.mark.parametrize("spec", ["Z4", "T2(Z2)"])
def test_axiom_check_matches_oracle_on_every_single_entry_corruption(rings, spec):
    ring = rings(spec)
    gens = set(_additive_generators(ring))
    # some corrupted cells have neither argument among the generators
    assert any(a not in gens and b not in gens for a in ring.elements() for b in ring.elements())
    failed = 0
    for cell, broken in _corruptions(ring):
        report = check_ring_axioms(broken).to_dict()
        assert report == _oracle_report(broken), cell
        failed += not report["ok"]
    assert failed > 0


@pytest.mark.parametrize("spec", AXIOM_FAMILY)
def test_additive_generators_reach_the_carrier(rings, spec):
    ring = rings(spec)
    gens = _additive_generators(ring)
    assert list(gens) == sorted(gens)
    assert len(gens) <= 1 + math.log2(ring.size)
    reached = set(gens)
    frontier = list(gens)
    while frontier:
        y = frontier.pop()
        for g in gens:
            z = ring.add(y, g)
            if z not in reached:
                reached.add(z)
                frontier.append(z)
    assert reached == set(ring.elements())


def test_table_ring_validates_shape_and_range():
    with pytest.raises(ValueError):
        TableRing([[0, 1], [1, 0]], [[0, 0], [0]], one=1)
    with pytest.raises(ValueError):
        TableRing([[0, 1], [1, 9]], [[0, 0], [0, 1]], one=1)
    for one in (5, -1):  # an identity outside the carrier
        with pytest.raises(ValueError, match="out of range"):
            TableRing([[0, 1], [1, 0]], [[0, 0], [0, 1]], one=one)


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
