"""Acceptance gate: one test per criterion, one printed verdict line each.

Runs everything at full scale with the stated budgets. The oracle scans in
criterion 6 use plain modular and matrix arithmetic written here, so they
cannot inherit a bug from the library under test.
"""

import json
import subprocess
import sys
import time

import pytest

from ringlab import (
    CHAIN_IMPLICATIONS,
    CURATED_FAMILY,
    DEFAULT_AXIOM_CAP,
    DEFAULT_SIZE_CAP,
    EQUIVALENCE_LABELS,
    BandOperator,
    build_m2_scaffold,
    build_ring,
    complement,
    corner_ring,
    extract_corner_witness,
    family_payload,
    idempotents,
    is_unit_regular_ring,
    regular_witness,
    run_shift_demo,
    truncation_dims,
    unit_regular_set,
    verify_ur_inheritance,
    zero_divisor_status,
)


@pytest.fixture(scope="module")
def family_sweep():
    start = time.perf_counter()
    payload, ok = family_payload(DEFAULT_SIZE_CAP, DEFAULT_AXIOM_CAP, build_ring)
    elapsed = time.perf_counter() - start
    return payload, ok, elapsed


def test_criterion_1_equivalence_sweep_on_curated_family(family_sweep):
    payload, ok, elapsed = family_sweep
    assert [entry["spec"] for entry in payload["family"]] == list(CURATED_FAMILY)
    mismatches = 0
    elements_checked = 0
    for entry in payload["family"]:
        assert entry["ok"], entry["spec"]
        for block in entry["detail"]["verdicts"]:
            for row in block["per_element"]:
                elements_checked += 1
                values = {row["conditions"][label] for label in EQUIVALENCE_LABELS}
                if len(values) != 1:
                    mismatches += 1
    assert ok and mismatches == 0
    assert elements_checked > 200  # the sweep genuinely covered the corners
    assert elapsed < 300.0
    print(f"ACCEPTANCE 1: PASS - {elements_checked} corner elements across "
          f"{len(payload['family'])} rings agree on (1),(2),(3),(3'),(4),(5); "
          f"{elapsed:.1f}s")


def test_criterion_2_chain_implications_zero_violations(family_sweep):
    payload, _, _ = family_sweep
    violations = 0
    for entry in payload["family"]:
        for block in entry["detail"]["verdicts"]:
            for row in block["per_element"]:
                conditions = row["conditions"]
                for p, q in CHAIN_IMPLICATIONS:
                    if conditions[p] and not conditions[q]:
                        violations += 1
    assert violations == 0
    print("ACCEPTANCE 2: PASS - chain implications "
          "(4)=>(3)=>(2)=>(3')=>(5) and (1)=>(4') hold with 0 violations")


def test_criterion_3_witness_extraction_all_valid_tuples(rings):
    total = 0
    for spec in ("Z6", "Z8", "T2(Z2)", "M2(Z2)"):
        ring = rings(spec)
        for idem in idempotents(ring):
            ee = corner_ring(ring, idem)
            ff = corner_ring(ring, complement(ring, idem))
            clear = [b for b in ff.elements()
                     if zero_divisor_status(ff, b).clear]
            for a in ee.elements():
                for b in clear:
                    x = ring.add(a, b)
                    for u, u_inv in ring.units().items():
                        if ring.mul3(x, u, x) != x:
                            continue
                        w = extract_corner_witness(ring, idem, a, b, u, u_inv)
                        assert w.ok, (spec, idem.e, a, b, u, w.checks)
                        total += 1
    assert total > 100
    print(f"ACCEPTANCE 3: PASS - {total} valid (e,a,b,u,u^-1) tuples all "
          f"recover u',v' with every identity holding")


def test_criterion_4_relaxed_partner_extraction(rings):
    total = 0
    beyond_invertible = 0
    for spec in ("Z6", "M2(Z2)"):
        ring = rings(spec)
        one = ring.one
        for idem in idempotents(ring):
            ee = corner_ring(ring, idem)
            ff = corner_ring(ring, complement(ring, idem))
            clear = [b for b in ff.elements()
                     if zero_divisor_status(ff, b).clear]
            for a in ee.elements():
                for b in clear:
                    x = ring.add(a, b)
                    for u in ring.elements():
                        if ring.mul3(x, u, x) != x:
                            continue
                        for v in ring.elements():
                            uv_defect = ring.mul(ring.sub(ring.mul(u, v), one),
                                                 idem.e)
                            vu_defect = ring.mul(idem.e,
                                                 ring.sub(ring.mul(v, u), one))
                            if uv_defect != ring.zero or vu_defect != ring.zero:
                                continue
                            w = extract_corner_witness(ring, idem, a, b, u, v)
                            assert w.ok, (spec, idem.e, a, b, u, v, w.checks)
                            total += 1
                            if ring.mul(u, v) != one or ring.mul(v, u) != one:
                                beyond_invertible += 1
    assert total > 100
    assert beyond_invertible > 0  # the relaxation is genuinely exercised
    print(f"ACCEPTANCE 4: PASS - {total} (u,v) pairs under the sandwich "
          f"conditions alone all extract; {beyond_invertible} were not "
          f"inverse pairs")


def test_criterion_5_corners_of_unit_regular_rings(rings):
    corners_checked = 0
    for spec in ("M2(Z2)", "M2(Z3)", "Z2xZ3"):
        ring = rings(spec)
        assert is_unit_regular_ring(ring), spec  # exhaustion over the carrier
        report = verify_ur_inheritance(ring)
        assert report.ambient_unit_regular and report.ok
        for corner in report.corners:
            assert corner.corner_unit_regular, (spec, corner.e)
            assert corner.constructive_ok is True, (spec, corner.e)
            corners_checked += 1
    assert corners_checked >= 20
    print(f"ACCEPTANCE 5: PASS - all {corners_checked} corners of the three "
          f"unit regular rings are unit regular via the constructive route")


def test_criterion_6_oracles_by_independent_scan(rings):
    # Z/4 with bare integers
    units4 = {u for u in range(4) if any(u * v % 4 == 1 for v in range(4))}
    ur4 = {a for a in range(4) if any(a * u * a % 4 == a for u in units4)}
    assert ur4 == {0, 1, 3}
    assert set(unit_regular_set(rings("Z4"))) == ur4

    # 2x2 matrices mod 2 as flat tuples, multiplied by hand
    def mmul(x, y):
        return ((x[0] * y[0] + x[1] * y[2]) % 2, (x[0] * y[1] + x[1] * y[3]) % 2,
                (x[2] * y[0] + x[3] * y[2]) % 2, (x[2] * y[1] + x[3] * y[3]) % 2)

    mats = [(a, b, c, d) for a in (0, 1) for b in (0, 1)
            for c in (0, 1) for d in (0, 1)]
    ident = (1, 0, 0, 1)
    units = [x for x in mats
             if any(mmul(x, y) == ident and mmul(y, x) == ident for y in mats)]
    idems = [x for x in mats if mmul(x, x) == x]
    assert len(units) == 6 and len(idems) == 8
    m2 = rings("M2(Z2)")
    assert len(m2.units()) == 6
    assert len(idempotents(m2)) == 8

    # upper triangular mod 2 as (a, b, d) triples: e12 has no middle term
    def tmul(x, y):
        return (x[0] * y[0] % 2, (x[0] * y[1] + x[1] * y[2]) % 2, x[2] * y[2] % 2)

    e12 = (0, 1, 0)
    tris = [(a, b, d) for a in (0, 1) for b in (0, 1) for d in (0, 1)]
    assert all(tmul(tmul(e12, t), e12) != e12 for t in tris)
    t2 = rings("T2(Z2)")
    assert regular_witness(t2, t2.encode(((0, 1), (0, 0)))) is None
    print("ACCEPTANCE 6: PASS - ur(Z4)={0,1,3}, |U(M2(Z2))|=6, 8 idempotents, "
          "e12 in T2(Z2) not regular, confirmed by scans independent of the "
          "library")


def test_criterion_7_shift_demo_fast_and_exact():
    start = time.perf_counter()
    s = BandOperator.right_shift()
    t = BandOperator.left_shift()
    one = BandOperator.identity()
    assert t * s == one and s * t != one  # exact normal-form equality
    demo = run_shift_demo(truncation=128)
    assert demo["ok"]
    assert demo["identities"]["aua=a"]
    assert demo["identities"]["uv=1"] and demo["identities"]["vu=1"]
    for n in (2, 8, 32, 128):
        assert truncation_dims(s, n) == (0, 1), n
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 7: PASS - shift identities exact, ker 0 / coker 1 at "
          f"N in {{2,8,32,128}}, {elapsed * 1000:.0f}ms")


def test_criterion_8_finite_scaffold_reports_no_separation(rings):
    report = build_m2_scaffold(rings("Z4"), s=3, t=3)
    assert report.identities == {"sts=s": True, "aua=a": True,
                                 "uv=1": True, "vu=1": True}
    assert report.ambient_witnessed and report.decidable
    assert report.corner_unit_regular is True  # finite base: never a counterexample
    assert report.base_unit_regular is True
    assert report.corner_matches_base is True
    print("ACCEPTANCE 8: PASS - Z4 scaffold (s=3, t=3) verifies aua=a, "
          "uv=vu=1, and a unit regular in the corner")


def test_criterion_9_family_json_byte_identical():
    def run():
        proc = subprocess.run(
            [sys.executable, "-m", "ringlab", "family", "--json"],
            capture_output=True, text=True, timeout=280)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        return json.dumps(doc["payload"], sort_keys=True).encode()

    first = run()
    second = run()
    assert first == second
    print(f"ACCEPTANCE 9: PASS - two family --json runs produced identical "
          f"{len(first)}-byte payloads")
