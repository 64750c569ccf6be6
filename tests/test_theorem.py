"""The corner unit-regularity conditions, witness recovery, and the scaffold.

Frozen values in here were computed by hand before the engine existed: the
Z/6 corner at e = 3 splits as {0,3} x {0,2,4}, the recovered middle term for
a = 3, b = 4, u = 1 is u' = 3(1-4)3 = 3, and so on. The engine has to
reproduce them, never the other way around.
"""

import json
import sys

import pytest

import ringlab.corners as corners_mod
import ringlab.theorem as theorem_mod
from ringlab import (
    CURATED_FAMILY,
    BandOperator,
    BandRing,
    CHAIN_IMPLICATIONS,
    CONDITION_LABELS,
    CornerWitness,
    EQUIVALENCE_LABELS,
    Idempotent,
    InconsistencyError,
    CornerRing,
    MatrixRing,
    PreconditionError,
    as_idempotent,
    build_m2_scaffold,
    build_ring,
    classify_payload,
    TableRing,
    ZmodRing,
    check_condition,
    check_ring_axioms,
    complement,
    corner_ring,
    corner_verdicts,
    extract_corner_witness,
    extract_one_sided_corner_witness,
    idempotents,
    implication_violations,
    peirce_decompose,
    theorem_verdict,
    unit_regular_set,
    verify_payload,
    verify_ur_inheritance,
    zero_divisor_status,
)
from oracles import corner_rows_by_sets, verify_equivalences

# the identities a recovery replays, in the order it replays them
REPLAY_ORDER = (
    "a=aua", "b=bub", "bua=0", "aub=0", "be=0",
    "((1-bu)f)b=0", "(1-bu)f=0", "e(1-ub)=1-ub",
    "u'=eu'e", "v'=ev'e", "au'a=a", "u'v'=e", "v'u'=e",
)
ALL_CHECK_NAMES = set(REPLAY_ORDER)


# label structure -------------------------------------------------------------


def test_label_structure():
    assert CONDITION_LABELS == ("1", "2", "3", "3'", "4", "4'", "5")
    assert EQUIVALENCE_LABELS == ("1", "2", "3", "3'", "4", "5")
    assert "4'" not in EQUIVALENCE_LABELS  # recorded, never asserted equivalent
    assert CHAIN_IMPLICATIONS == (
        ("4", "3"), ("3", "2"), ("2", "3'"), ("3'", "5"), ("1", "4'"))


def test_unknown_label_rejected(rings):
    ring = rings("Z6")
    with pytest.raises(ValueError):
        check_condition(ring, as_idempotent(ring, 3), 3, "6")


# condition evaluation, frozen examples ---------------------------------------


def test_conditions_all_hold_for_unit_regular_corner_element(rings):
    ring = rings("Z6")
    idem = as_idempotent(ring, 3)
    expected = {
        "1": (True, {"u": 3, "u_inv": 3}),
        "2": (True, {"sum": 1, "u": 1, "u_inv": 1}),
        "3": (True, {"checked": 2}),
        "3'": (True, {"b": 2, "u": 5, "u_inv": 5}),
        "4": (True, {"checked": 3}),
        "4'": (True, {"b": 0, "u": 1, "u_inv": 1}),
        "5": (True, {"b": 2, "u": 5, "u_inv": 5}),
    }
    for label, want in expected.items():
        assert check_condition(ring, idem, 3, label) == want, label


def test_conditions_all_fail_for_non_regular_element(rings):
    ring = rings("Z4")
    idem = as_idempotent(ring, 1)  # corner is the whole ring, fRf = {0}
    expected = {
        "1": (False, None),
        "2": (False, None),
        "3": (False, {"failing_b": 0}),
        "3'": (False, None),
        "4": (False, {"failing_b": 0}),
        "4'": (False, None),
        "5": (False, None),
    }
    for label, want in expected.items():
        assert check_condition(ring, idem, 2, label) == want, label


def test_check_condition_requires_corner_membership(rings):
    ring = rings("Z6")
    with pytest.raises(PreconditionError) as exc:
        check_condition(ring, as_idempotent(ring, 3), 2, "1")
    assert exc.value.reason == "a_not_in_corner"


def test_condition5_candidates_are_exactly_the_corner_units(rings):
    # zero-divisor-free in a finite corner pins down its unit group
    for spec, e in (("Z6", 3), ("M2(Z2)", 8), ("Z12", 4)):
        ring = rings(spec)
        idem = as_idempotent(ring, e)
        ff = corner_ring(ring, complement(ring, idem))
        clear = {b for b in ff.elements() if zero_divisor_status(ff, b).clear}
        assert clear == set(ff.units()), (spec, e)


# verdicts and sweeps ----------------------------------------------------------


def test_zero_ring_witness_is_the_unit_zero():
    # in Z1 the only unit, and every witness, is code 0, the one falsy code:
    # a reader that tests a witness for truth instead of None drops it
    ring = ZmodRing(1)
    payload, ok = classify_payload(ring)
    assert ok
    assert payload["units"] == [[0, 0]]
    assert payload["elements"] == [{"code": 0, "repr": "0", "kind": "unit_regular",
                                    "t": 0, "u": 0, "u_inv": 0}]
    (idem,) = idempotents(ring)
    assert (idem.e, idem.f) == (0, 0)
    report = theorem_verdict(ring, idem, 0)
    assert report.consistent and all(report.conditions.values())
    witness = {"u": 0, "u_inv": 0}
    assert report.witnesses == {
        "1": witness, "2": {"sum": 0, **witness}, "3": {"checked": 1},
        "3'": {"b": 0, **witness}, "4": {"checked": 1}, "4'": {"b": 0, **witness},
        "5": {"b": 0, **witness}}
    assert verify_ur_inheritance(ring).corners[0].constructive_ok is True


def test_verdict_shape_and_consistency(rings):
    ring = rings("Z6")
    report = theorem_verdict(ring, as_idempotent(ring, 3), 3)
    assert report.consistent
    assert set(report.conditions) == set(CONDITION_LABELS)
    assert implication_violations(report) == []
    d = report.to_dict()
    assert d["ring"] == "Z6" and d["e"] == 3 and d["f"] == 4 and d["a"] == 3
    assert d["implication_violations"] == []
    json.dumps(d)  # reportable as-is


@pytest.mark.parametrize("spec", ["Z4", "Z6", "Z8", "Z12", "T2(Z2)", "M2(Z2)"])
def test_equivalence_sweep_is_clean(rings, spec):
    ring = rings(spec)
    for idem in idempotents(ring):
        reports = verify_equivalences(ring, idem)
        assert len(reports) == corner_ring(ring, idem).size
        for report in reports:
            assert report.consistent
            assert not implication_violations(report)


def test_mixed_verdicts_inside_one_corner(rings):
    # Z/12 at e = 9: the corner {0,3,6,9} is Z/4 in disguise; 6 fails
    ring = rings("Z12")
    idem = as_idempotent(ring, 9)
    verdicts = {r.a: r.conditions["1"] for r in verify_equivalences(ring, idem)}
    assert verdicts == {0: True, 3: True, 6: False, 9: True}


def test_unit_regular_sums_stay_unit_regular(rings):
    # one direction behind the universal conditions: corner pieces add up
    from ringlab import unit_regular_witness
    for spec, e in (("Z12", 4), ("M2(Z2)", 8)):
        ring = rings(spec)
        idem = as_idempotent(ring, e)
        ee = corner_ring(ring, idem)
        ff = corner_ring(ring, complement(ring, idem))
        for a in unit_regular_set(ee):
            for b in unit_regular_set(ff):
                assert unit_regular_witness(ring, ring.add(a, b)) is not None


@pytest.mark.parametrize("spec", ["Z12", "T2(Z3)", "M2(Z2)xZ2"])
def test_conditions_do_not_depend_on_the_order_they_are_asked_in(spec):
    # one shared context per idempotent, whose list of non zero divisors
    # grows as far as the sweeps read: asking the elements in reverse, label
    # by label, must give what the forward sweep gives on a fresh ring
    forward = build_ring(spec)
    expected = {(idem.e, report.a): (report.conditions, report.witnesses)
                for idem in idempotents(forward)
                for report in verify_equivalences(forward, idem)}
    backward = build_ring(spec)
    for idem in reversed(idempotents(backward)):
        for label in reversed(CONDITION_LABELS):
            for a in reversed(list(corner_ring(backward, idem).elements())):
                conditions, witnesses = expected[idem.e, a]
                assert check_condition(backward, idem, a, label) == (
                    conditions[label], witnesses[label]), (idem.e, a, label)


def test_condition_5_scans_the_non_zero_divisors_of_fRf_lazily():
    # at e = 0 the corner fRf is all of M2(Z3). Condition 5 on a = 0 stops at
    # the first non zero divisor b, code 12, so the scan tests codes 0 to 12
    # once each; the inheritance replay adds b = f = 28. A scan of every
    # element would test all 81, and a rescan would test none again.
    ring = build_ring("M2(Z3)")
    assert verify_payload(ring)[1]
    idem = as_idempotent(ring, 0)
    ee = corner_ring(ring, idem)
    ff = ee.complement_corner()
    tested = ff._memo["zero_divisor_status"]
    assert ff.size == 81 and sorted(tested) == [*range(13), 28]
    for a in ee.elements():
        assert theorem_verdict(ring, idem, a).witnesses["5"]["b"] == 12
    assert sorted(tested) == [*range(13), 28]


def test_forged_complement_is_refused_after_the_corner_was_swept(rings):
    ring = rings("Z6")
    idem = as_idempotent(ring, 3)
    assert check_condition(ring, idem, 3, "5")[0]
    with pytest.raises(ValueError, match="complement"):
        check_condition(ring, Idempotent(e=3, f=1), 3, "5")


# Idempotent(3, 0) is forged on Z6: 1 - 3 = 4, not 0. The other arguments
# are valid codes, so only the pair is at fault.
FORGED_PAIR_CALLS = {
    "CornerRing": CornerRing,
    "corner_ring": corner_ring,
    "complement": complement,
    "peirce_decompose": lambda ring, idem: peirce_decompose(ring, idem, 1),
    "extract_corner_witness":
        lambda ring, idem: extract_corner_witness(ring, idem, 3, 0, 1),
    "extract_one_sided_corner_witness":
        lambda ring, idem: extract_one_sided_corner_witness(ring, idem, 3, 0, 1, "right"),
}


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("entry", list(FORGED_PAIR_CALLS))
def test_forged_pair_is_refused_by_every_entry_point(entry, warm):
    ring = build_ring("Z6")
    true_corner = corner_ring(ring, as_idempotent(ring, 3)) if warm else None
    with pytest.raises(ValueError) as refused:
        FORGED_PAIR_CALLS[entry](ring, Idempotent(e=3, f=0))
    # the pair check's own error, before any hypothesis is looked at
    assert type(refused.value) is ValueError
    assert str(refused.value) == "complement does not match 1 - e"
    if warm:
        assert corner_ring(ring, as_idempotent(ring, 3)) is true_corner


@pytest.mark.parametrize("spec", ["T2(Z5)", "T2(Z4)xZ2"])
def test_a_pair_is_checked_once_per_ring_and_e(monkeypatch, spec):
    real = corners_mod.as_idempotent
    calls = []

    def counted(ring, e):
        calls.append(e)
        return real(ring, e)

    # every module that imported the name, so no call goes uncounted
    for mod in [m for name, m in list(sys.modules.items())
                if name.partition(".")[0] == "ringlab"]:
        if getattr(mod, "as_idempotent", None) is real:
            monkeypatch.setattr(mod, "as_idempotent", counted)
    ring = build_ring(spec)
    assert verify_payload(ring)[1]
    idems = idempotents(ring)
    # one check per corner built; the fRf that eRe holds is the corner of
    # another idempotent, built and checked once
    assert sorted(calls) == sorted(idem.e for idem in idems)
    before = len(calls)
    idem = next(i for i in idems if i.e not in (ring.zero, ring.one))
    for _ in range(100):
        assert extract_corner_witness(ring, idem, idem.e, idem.f, ring.one, ring.one).ok
    assert len(calls) == before


@pytest.mark.parametrize("spec", ["Z12", "M2(Z2)", "T2(Z3)"])
def test_one_corner_and_one_sweep_build_per_idempotent(monkeypatch, spec):
    # one corner per idempotent, and one lazy scan of the non zero divisors
    # of condition 5 per corner fRf, built on fRf's own memo
    builds = {"corner": [], "scan": []}
    init, cached = CornerRing.__init__, CornerRing.cached

    def counted_init(self, ring, *args):
        init(self, ring, *args)
        builds["corner"].append((id(ring), self.idem.e))

    def counted_cached(self, key, compute):
        def scan():
            builds["scan"].append((id(self.ambient), self.idem.e))
            return compute()
        return cached(self, key, scan if key == "non_zero_divisors" else compute)

    monkeypatch.setattr(CornerRing, "__init__", counted_init)
    monkeypatch.setattr(CornerRing, "cached", counted_cached)
    ring = build_ring(spec)
    assert verify_payload(ring)[1]
    idems = idempotents(ring)
    for idem in idems:
        for a in corner_ring(ring, idem).elements():
            theorem_verdict(ring, idem, a)
            for label in CONDITION_LABELS:
                check_condition(ring, idem, a, label)
        assert corner_verdicts(ring, idem) is corner_verdicts(ring, idem)
        # a forged f meets the built corner and is refused, building nothing
        with pytest.raises(ValueError, match="complement does not match 1 - e"):
            check_condition(ring, Idempotent(e=idem.e, f=idem.e), idem.e, "1")
    expected = sorted((id(ring), idem.e) for idem in idems)
    assert sorted(builds["corner"]) == sorted(builds["scan"]) == expected
    assert not any("sweeps" in ee._memo for ee in ring._memo["corners"].values())
    # the corners are the one memo: keyed by code, nothing kept by pair
    assert not {"complement", "condition_sweeps"} & ring._memo.keys()
    assert sorted(ring._memo["corners"]) == [idem.e for idem in idems]
    assert all(type(e) is int for e in ring._memo["corners"])


# the corner sweep against its oracles -----------------------------------------


def _broken_z6():
    # breaks the ring laws, so the conditions part ways: 3 and 3' differ on
    # some element, as do 2 and "a is unit regular in R". On a lawful ring
    # each pair agrees, so only a table like this one tells them apart.
    return TableRing.from_ring(build_ring("Z6"), override_mul={(2, 5): 5},
                               label="brokenZ6")


@pytest.mark.parametrize("spec", CURATED_FAMILY + ("M2(Z4)", "T2(Z8)", "Z210", "brokenZ6"))
def test_corner_sweep_matches_check_condition(spec):
    # every row against the set-based sweep on a ring of its own, so no
    # memo is shared between the two
    build = _broken_z6 if spec == "brokenZ6" else lambda: build_ring(spec)
    ring, oracle = build(), build()
    for idem in idempotents(ring):
        rows = corner_verdicts(ring, idem)
        assert list(rows) == list(corner_ring(ring, idem).elements())
        assert rows == corner_rows_by_sets(oracle, idem), idem.e
        assert corner_verdicts(ring, idem) is rows  # memoised


@pytest.mark.parametrize("spec", CURATED_FAMILY + ("T2(Z4)xZ2", "brokenZ6"))
def test_every_reported_witness_replays_on_products_formed_here(spec):
    # each witness of theorem_verdict, checked with ring.mul and ring.add
    # alone, against units and candidate sets found by plain scans here
    ring = _broken_z6() if spec == "brokenZ6" else build_ring(spec)
    add, mul, zero, one = ring.add, ring.mul, ring.zero, ring.one
    elements = list(ring.elements())

    def sandwich(s, u):
        return mul(mul(s, u), s) == s

    def inverse_pair(u, v, identity):
        return mul(u, v) == identity and mul(v, u) == identity

    units = [v for v in elements if any(inverse_pair(v, w, one) for w in elements)]
    for idem in idempotents(ring):
        e, f = idem.e, idem.f
        ff = sorted({mul(mul(f, x), f) for x in elements})
        ff_units = [b for b in ff if any(inverse_pair(b, c, f) for c in ff)]
        ff_unit_regular = [b for b in ff if any(sandwich(b, v) for v in ff_units)]
        ff_clear = [b for b in ff if all(mul(b, c) != zero and mul(c, b) != zero
                                         for c in ff if c != zero)]
        candidates = {"3": ff_units, "3'": ff_units, "4": ff_unit_regular,
                      "4'": ff_unit_regular, "5": ff_clear}
        for a in corner_ring(ring, idem).elements():
            report = theorem_verdict(ring, idem, a)
            for label in CONDITION_LABELS:
                holds, w = report.conditions[label], report.witnesses[label]
                where = (idem.e, a, label)
                if label in ("3", "4"):
                    if holds:
                        assert w == {"checked": len(candidates[label])}, where
                    else:
                        b = w["failing_b"]
                        assert b in candidates[label], where
                        assert not any(sandwich(add(a, b), v) for v in units), where
                    continue
                if not holds:
                    assert w is None, where
                    continue
                u, u_inv = w["u"], w["u_inv"]
                if label == "1":
                    assert sandwich(a, u) and inverse_pair(u, u_inv, e), where
                    continue
                if label == "2":
                    s = w["sum"]
                    assert s == add(a, f), where
                else:
                    assert w["b"] in candidates[label], where
                    s = add(a, w["b"])
                assert sandwich(s, u) and inverse_pair(u, u_inv, one), where


def test_the_broken_table_parts_the_conditions_the_sweep_reads_as_sets():
    ring = _broken_z6()
    ur = set(unit_regular_set(ring))
    rows = [(a, dict(zip(CONDITION_LABELS, row)))
            for idem in idempotents(ring)
            for a, row in corner_verdicts(ring, idem).items()]
    assert any(row["3"] != row["3'"] for _, row in rows)
    assert any(row["2"] != (a in ur) for a, row in rows)


def test_conditions_1_and_4p_agree_on_every_finite_corner():
    # If (a + b)x(a + b) = a + b for some b of fRf, then a = e(a + b)x(a + b)e
    # = a(exe)a is regular in eRe, and a finite eRe has stable range 1, so a
    # is unit regular there: 1 = 4' on a finite ring. The rows are only
    # read; the sweep still computes 4' on its own.
    one, four_p = CONDITION_LABELS.index("1"), CONDITION_LABELS.index("4'")
    swept = 0
    for spec in CURATED_FAMILY + ("M2(Z4)", "T2(Z8)", "M3(Z2)", "T3(Z2)", "T2(T2(Z2))",
                                  "Z2xM2(Z2)", "Z210"):
        ring = build_ring(spec)
        for idem in idempotents(ring):
            rows = corner_verdicts(ring, idem)
            assert [a for a, row in rows.items() if row[one] != row[four_p]] == [], \
                (spec, idem.e)
            swept += len(rows)
    assert swept == 5250


def test_corner_sweeps_fill_the_residue_ring_and_never_a_corner():
    ring = build_ring("Z210")  # 16 idempotents; a corner's carrier is not dense
    for idem in idempotents(ring):
        corner_verdicts(ring, idem)
        corner = corner_ring(ring, idem)
        assert check_ring_axioms(corner).ok
        assert (corner._add_table, corner._mul_table, corner._neg_table) == (None, None, None)
    assert ring._mul_table is not None


def test_strict_check_of_the_sweep_raises_the_per_element_bundle():
    # the first row that fails gives the bundle verify_equivalences raises
    def bundle(check, *args):
        try:
            check(*args)
        except InconsistencyError as err:
            return err.bundle
        return None

    bundles = []
    for ring, oracle in ((_broken_z6(), _broken_z6()), (build_ring("Z6"), build_ring("Z6"))):
        for idem in idempotents(ring):
            swept = bundle(theorem_mod.require_consistent, ring, idem,
                           corner_verdicts(ring, idem))
            assert swept == bundle(verify_equivalences, oracle, idem), idem
            bundles.append(swept)
    assert any(bundles) and not all(bundles)


def test_strict_check_cross_checks_the_last_row_against_theorem_verdict():
    ring = build_ring("Z6")
    idem = as_idempotent(ring, 1)
    rows = dict(corner_verdicts(ring, idem))
    theorem_mod.require_consistent(ring, idem, rows)
    # a sound row that theorem_verdict does not give: a sweep fault
    last = max(rows)
    rows[last] = tuple(not holds for holds in rows[last])
    with pytest.raises(RuntimeError, match="theorem_verdict disagree"):
        theorem_mod.require_consistent(ring, idem, rows)


# rigged disagreement paths ----------------------------------------------------


def _rig(monkeypatch, flip_label, only_a):
    # flip one condition on one element in the engine's own decision, so
    # every reader of the search sees the flipped value
    real, i = theorem_mod._first_hits, CONDITION_LABELS.index(flip_label)

    def rigged(reads, a):
        hits = list(real(reads, a))
        if a == only_a:
            hits[i] = 0 if hits[i] is None else None  # any code is a hit
        return tuple(hits)

    monkeypatch.setattr(theorem_mod, "_first_hits", rigged)


def test_inconsistency_raises_with_bundle(monkeypatch, rings):
    ring = rings("Z6")
    idem = as_idempotent(ring, 3)
    _rig(monkeypatch, "5", only_a=3)
    with pytest.raises(InconsistencyError) as exc:
        verify_equivalences(ring, idem)
    bundle = exc.value.bundle
    assert bundle["ring"] == "Z6" and bundle["e"] == 3 and bundle["a"] == 3
    assert bundle["conditions"]["5"] != bundle["conditions"]["1"]
    assert "equivalence broken" in str(exc.value)


def test_non_strict_sweep_reports_instead_of_raising(monkeypatch, rings):
    ring = rings("Z6")
    idem = as_idempotent(ring, 3)
    _rig(monkeypatch, "5", only_a=3)
    reports = verify_equivalences(ring, idem, strict=False)
    assert [r.a for r in reports if not r.consistent] == [3]


def test_chain_violation_detected_even_when_equivalents_agree(monkeypatch, rings):
    # breaking only (4') leaves the equivalence block intact but trips (1)=>(4')
    ring = rings("Z6")
    idem = as_idempotent(ring, 3)
    _rig(monkeypatch, "4'", only_a=3)
    report = theorem_verdict(ring, idem, 3)
    assert report.consistent
    assert implication_violations(report) == [("1", "4'")]
    with pytest.raises(InconsistencyError):
        verify_equivalences(ring, idem)


# witness extraction ------------------------------------------------------------


def test_witness_recovery_frozen_z6(rings):
    ring = rings("Z6")
    w = extract_corner_witness(ring, as_idempotent(ring, 3), a=3, b=4, u=1)
    assert (w.u_prime, w.v_prime) == (3, 3)
    assert set(w.checks) == ALL_CHECK_NAMES
    # two-sided promises everything, in replay order
    assert w.guaranteed == tuple(w.checks) == REPLAY_ORDER
    assert w.ok and w.guaranteed_ok
    d = w.to_dict()
    assert d["ok"] and d["u_prime"] == 3
    json.dumps(d)


def test_witness_recovery_frozen_matrix_ring(rings):
    # e = e11, a = e11, b = e22 = f, u = identity: u' = e(1-b)e = e11
    ring = rings("M2(Z2)")
    w = extract_corner_witness(ring, as_idempotent(ring, 8), a=8, b=1, u=9)
    assert (w.u_prime, w.v_prime) == (8, 8)
    assert w.ok


def test_witness_recovery_relaxed_partner(rings):
    # v = 3 is not an inverse of u = 1, but (uv-1)e = e(vu-1) = 0 suffices
    ring = rings("Z6")
    w = extract_corner_witness(ring, as_idempotent(ring, 3), a=3, b=4, u=1, v=3)
    assert ring.mul(1, 3) != ring.one
    assert w.ok
    assert (w.u_prime, w.v_prime) == (3, 3)


def test_one_sided_recovery_guarantees(rings):
    ring = rings("Z6")
    idem = as_idempotent(ring, 3)
    right = extract_one_sided_corner_witness(ring, idem, a=3, b=4, u=1, side="right")
    left = extract_one_sided_corner_witness(ring, idem, a=3, b=4, u=1, side="left")
    assert set(right.guaranteed) == (ALL_CHECK_NAMES - {"e(1-ub)=1-ub", "v'u'=e"})
    assert set(left.guaranteed) == (ALL_CHECK_NAMES - {"(1-bu)f=0", "u'v'=e"})
    assert right.guaranteed_ok and left.guaranteed_ok
    # on a commutative carrier both sides in fact deliver everything
    assert right.ok and left.ok
    with pytest.raises(ValueError):
        extract_one_sided_corner_witness(ring, idem, a=3, b=4, u=1, side="up")


def test_guaranteed_ok_is_weaker_than_ok():
    w = CornerWitness(u_prime=0, v_prime=0,
                      checks={"x": True, "y": False}, guaranteed=("x",))
    assert w.guaranteed_ok and not w.ok


def test_full_corner_recovery_degenerates_gracefully(rings):
    # e = 1: b must be 0 and the recovered pair is just u and its inverse
    ring = rings("Z8")
    w = extract_corner_witness(ring, as_idempotent(ring, 1), a=3, b=0, u=3)
    assert w.ok
    assert w.u_prime == 3 and w.v_prime == 3


PRECONDITION_CASES = [
    # (spec, kwargs, reason)
    ("Z6", dict(e=3, a=2, b=4, u=1), "a_not_in_corner"),
    ("Z6", dict(e=3, a=3, b=3, u=1), "b_not_in_complement_corner"),
    ("Z6", dict(e=3, a=3, b=4, u=2), "middle_identity_fails"),
    ("Z12", dict(e=9, a=9, b=0, u=1), "b_left_zero_divisor"),
    ("Z6", dict(e=3, a=0, b=4, u=4), "u_not_invertible"),
    ("Z6", dict(e=3, a=3, b=4, u=1, v=2), "right_inverse_condition_fails"),
    ("T2(Z2)", dict(e=4, a=4, b=1, u=5, v=7), "left_inverse_condition_fails"),
]

# Two hypotheses fail at once: u = 9 is no unit of Z12, and b = 0 is a zero
# divisor of fRf on both sides. b's zero divisors are refused first, the
# left one before the right one.
BOTH_FAIL = ("Z12", dict(e=9, a=9, b=0, u=9), "b_left_zero_divisor")
PRECONDITION_CASES.append(BOTH_FAIL)


@pytest.mark.parametrize("spec,kwargs,reason", PRECONDITION_CASES,
                         ids=[c[2] if c is not BOTH_FAIL else "zero_divisor_before_non_unit"
                              for c in PRECONDITION_CASES])
def test_two_sided_precondition_failures(rings, spec, kwargs, reason):
    ring = rings(spec)
    kwargs = dict(kwargs)
    idem = as_idempotent(ring, kwargs.pop("e"))
    with pytest.raises(PreconditionError) as exc:
        extract_corner_witness(ring, idem, **kwargs)
    assert exc.value.reason == reason
    assert isinstance(exc.value, ValueError)


def test_code_outside_the_carrier_is_not_in_the_corner(rings):
    # membership is tested as eae = a, which must not index past the tables
    z6 = rings("Z6")
    for a in (6, -1):
        with pytest.raises(PreconditionError) as exc:
            extract_corner_witness(z6, as_idempotent(z6, 3), a=a, b=4, u=1)
        assert exc.value.reason == "a_not_in_corner"


@pytest.mark.parametrize("extract", [
    extract_corner_witness,
    lambda *args, **kw: extract_one_sided_corner_witness(*args, side="right", **kw),
])
def test_bad_codes_are_rejected_before_any_hypothesis(rings, extract):
    # a=1 is outside the corner at e=3, yet the bad code is what gets reported
    z6 = rings("Z6")
    idem = as_idempotent(z6, 3)
    for kwargs in (dict(u=99), dict(u=1, v=99)):
        with pytest.raises(ValueError) as exc:
            extract(z6, idem, a=1, b=4, **kwargs)
        assert not isinstance(exc.value, PreconditionError)


def test_one_sided_precondition_failures(rings):
    z12 = rings("Z12")
    with pytest.raises(PreconditionError) as exc:
        extract_one_sided_corner_witness(z12, as_idempotent(z12, 9),
                                         a=9, b=0, u=1, side="right")
    assert exc.value.reason == "b_right_zero_divisor"
    spec, kwargs, _ = BOTH_FAIL
    kwargs = dict(kwargs)
    ring = rings(spec)
    idem = as_idempotent(ring, kwargs.pop("e"))
    for side in ("right", "left"):
        with pytest.raises(PreconditionError) as exc:
            extract_one_sided_corner_witness(ring, idem, side=side, **kwargs)
        assert exc.value.reason == f"b_{side}_zero_divisor"
    z6 = rings("Z6")
    with pytest.raises(PreconditionError) as exc:
        extract_one_sided_corner_witness(z6, as_idempotent(z6, 3),
                                         a=0, b=4, u=4, side="right")
    assert exc.value.reason == "no_partner_on_side"


def test_one_sided_recovery_takes_the_partner_of_its_own_side(monkeypatch):
    # 3*1 = 1 is injected: 3 has the right inverses 1 and 3, the left one 3
    ring = TableRing.from_ring(build_ring("Z4"), override_mul={(3, 1): 1})
    idem = as_idempotent(ring, 1)
    replay, replayed = theorem_mod._replay_checks, []

    def spy(ring, idem, a, b, u, v):
        replayed.append(v)
        return replay(ring, idem, a, b, u, v)

    monkeypatch.setattr(theorem_mod, "_replay_checks", spy)
    # the middle identity 1*3*1 = 1 holds: 1*3 = 3, and 3*1 = 1 is injected
    for side in ("right", "left"):
        w = extract_one_sided_corner_witness(ring, idem, a=1, b=0, u=3, side=side)
        assert w.guaranteed_ok
    assert replayed == [1, 3]


def test_extraction_rejects_out_of_range_middle_term(rings):
    ring = rings("Z6")
    with pytest.raises(ValueError):
        extract_corner_witness(ring, as_idempotent(ring, 3), a=3, b=4, u=17)


def test_recovery_works_across_all_valid_inputs(rings):
    # every (e, a, b, u) that meets the hypotheses must reconstruct cleanly
    ring = rings("Z8")
    for idem in idempotents(ring):
        ee = corner_ring(ring, idem)
        ff = corner_ring(ring, complement(ring, idem))
        clear = [b for b in ff.elements() if zero_divisor_status(ff, b).clear]
        for a in ee.elements():
            for b in clear:
                x = ring.add(a, b)
                for u in ring.units():
                    if ring.mul3(x, u, x) != x:
                        continue
                    w = extract_corner_witness(ring, idem, a, b, u)
                    assert w.ok, (idem.e, a, b, u, w.checks)


# inheritance -------------------------------------------------------------------


def test_inheritance_on_unit_regular_rings(rings):
    for spec in ("Z6", "M2(Z2)"):
        report = verify_ur_inheritance(rings(spec))
        assert report.ambient_unit_regular
        assert report.ok
        for corner in report.corners:
            assert corner.inclusion_ok
            assert corner.corner_unit_regular
            assert corner.constructive_ok is True
        d = report.to_dict()
        assert d["ok"] and d["ring"] == spec
        json.dumps(d)


def test_inheritance_on_non_unit_regular_rings(rings):
    for spec in ("Z4", "T2(Z2)"):
        report = verify_ur_inheritance(rings(spec))
        assert not report.ambient_unit_regular
        assert report.ok  # inclusions still hold, constructive route untried
        for corner in report.corners:
            assert corner.inclusion_ok
            assert corner.constructive_ok is None


def test_inheritance_ok_rejects_broken_corners(rings):
    report = verify_ur_inheritance(rings("Z6"))
    report.corners[0].inclusion_ok = False
    assert not report.ok


# Fault injection: one broken entry of Z6's tables reaches each failure of
# the inheritance report.


def _z6_with(**overrides):
    return TableRing.from_ring(build_ring("Z6"), **overrides)


def test_inheritance_reports_a_corner_element_the_ambient_ring_lacks():
    report = verify_ur_inheritance(_z6_with(override_mul={(2, 5): 0}))
    assert [c.e for c in report.corners if not c.inclusion_ok] == [4]
    assert not report.ok and report.to_dict()["ok"] is False


@pytest.mark.parametrize("override_mul, e", [({(0, 2): 1}, 1), ({(2, 2): 0}, 4)])
def test_inheritance_reports_a_failed_constructive_recovery(override_mul, e):
    report = verify_ur_inheritance(_z6_with(override_mul=override_mul))
    assert report.ambient_unit_regular
    assert all(c.inclusion_ok for c in report.corners)
    assert [c.e for c in report.corners if c.constructive_ok is False] == [e]
    assert not report.ok


def test_inheritance_reports_a_corner_that_is_not_unit_regular():
    # the recovery still replays on every corner element; only the corner
    # sweep finds an element of 3R3 that is not unit regular there
    report = verify_ur_inheritance(_z6_with(override_add={(3, 4): 0}))
    assert report.ambient_unit_regular
    assert all(c.inclusion_ok and c.constructive_ok for c in report.corners)
    assert [c.e for c in report.corners if not c.corner_unit_regular] == [3]
    assert not report.ok


# the 2x2 scaffold ---------------------------------------------------------------


def test_scaffold_rejects_non_regular_seed(rings):
    with pytest.raises(ValueError):
        build_m2_scaffold(rings("Z4"), s=2, t=1)  # 2*1*2 = 0 != 2


def test_scaffold_refuses_codes_outside_a_finite_base():
    # a tabled base reads s and t as row indices: 9 is past the last row,
    # and -1 would index from the end
    z4 = ZmodRing(4)
    z4.tabulate()
    for s, t in ((9, 1), (1, 9), (-1, 3), (3, -1)):
        with pytest.raises(ValueError, match="not an element code"):
            build_m2_scaffold(z4, s, t)


def test_scaffold_finite_base_z4(rings):
    report = build_m2_scaffold(rings("Z4"), s=3, t=3)
    assert report.identities == {"sts=s": True, "aua=a": True,
                                 "uv=1": True, "vu=1": True}
    assert report.ambient_witnessed and report.decidable
    assert report.corner_unit_regular is True
    assert report.base_unit_regular is True
    assert report.corner_matches_base is True
    json.dumps(report.to_dict())


def test_scaffold_finite_base_z6(rings):
    report = build_m2_scaffold(rings("Z6"), s=2, t=2)
    assert report.ambient_witnessed
    # finite base: the corner can never split from the base
    assert report.corner_unit_regular and report.base_unit_regular
    assert report.corner_matches_base


def test_scaffold_infinite_base_stays_undecided():
    ring = BandRing()
    report = build_m2_scaffold(ring, BandOperator.right_shift(),
                               BandOperator.left_shift())
    assert report.ambient_witnessed
    assert not report.decidable
    assert report.corner_unit_regular is None
    assert report.base_unit_regular is None
    assert report.corner_matches_base is None
    d = report.to_dict()
    assert isinstance(d["s"], str)  # band operators serialize as text
    json.dumps(d)


@pytest.mark.parametrize("base", ["Z2", "Z3"])
def test_mat2_agrees_with_the_matrix_ring(rings, base):
    # MatrixRing(2, base) is the independent oracle: its slot codec and
    # products share no code with Mat2's tuples
    ring = rings(base)
    m2, mat = MatrixRing(2, ring), theorem_mod.Mat2(ring)
    tuples = {}
    for c in m2.elements():
        rows = m2.decode(c)
        assert m2.encode(rows) == c
        tuples[c] = mat.encode(rows)
        assert tuples[c] == tuple(x for row in rows for x in row)
    assert len(set(tuples.values())) == m2.size
    assert mat.one == tuples[m2.one] and mat.zero == tuples[m2.zero]
    for c in m2.elements():
        x = tuples[c]
        for d in m2.elements():
            y = tuples[d]
            assert mat.mul(x, y) == tuples[m2.mul(c, d)], (c, d)
            assert mat.add(x, y) == tuples[m2.add(c, d)], (c, d)
            assert mat.sub(x, y) == tuples[m2.sub(c, d)], (c, d)
    sample = list(m2.elements())[::7]
    for c in sample:
        for d in sample:
            for g in sample:
                assert mat.mul3(tuples[c], tuples[d], tuples[g]) == tuples[m2.mul3(c, d, g)]


def test_recovery_replays_on_2x2_matrices_over_the_band_ring():
    # R = M2(B) over the band ring B, e = diag(1,0), a = diag(s,0), b = 0 and
    # the scaffold's (u, v): condition 4' at b = 0. The nine identities that
    # the middle identity alone guarantees hold; the four that need b to be
    # a non zero divisor of fRf fail, and since s is not unit regular in B
    # no other witness exists for a in eRe
    band = BandRing()
    m2 = theorem_mod.Mat2(band)
    s, t = BandOperator.right_shift(), BandOperator.left_shift()
    zero, one = band.zero, band.one
    e = m2.encode(((one, zero), (zero, zero)))
    f = m2.encode(((zero, zero), (zero, one)))
    a = m2.encode(((s, zero), (zero, zero)))
    u = m2.encode(((t, one), (one, zero)))
    v = m2.encode(((zero, one), (one, t)))  # -t = t over GF(2)
    u_prime, v_prime, checks = theorem_mod._replay_checks(
        m2, Idempotent(e, f), a, m2.zero, u, v)
    assert set(checks) == ALL_CHECK_NAMES
    assert {k for k, ok in checks.items() if ok} == set(theorem_mod._PEIRCE_KEYS)
    assert {k for k, ok in checks.items() if not ok} == {
        "(1-bu)f=0", "e(1-ub)=1-ub", "u'v'=e", "v'u'=e"}
    # at b = 0, u' = eue = diag(t, 0) and v' = eve = 0
    assert u_prime == m2.encode(((t, zero), (zero, zero))) and v_prime == m2.zero
