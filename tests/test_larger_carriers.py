"""Full proofs on carriers between 129 and 1024 elements.

Every carrier here is within the table threshold, so verify-theorem with
--axiom-cap 1024 checks the ring axioms and sweeps every corner in seconds.
The curated family stops at 81 elements and its payload must not change, so
the larger proofs are asked for with the flag, here rather than in family.
"""

import pytest

from ringlab import build_ring, classify_payload
from ringlab.cli import EXIT_PASS, run_command

LARGER = ("M2(Z4)", "T2(Z8)", "M2(Z3)xZ2", "M3(Z2)", "M2(Z5)")


@pytest.mark.parametrize("spec", LARGER)
def test_verify_theorem_with_axioms_on_larger_carriers(spec):
    code, doc = run_command(["verify-theorem", "--ring", spec, "--axiom-cap", "1024",
                             "--json"])
    assert code == EXIT_PASS and doc["status"] == "pass"
    payload = doc["payload"]
    assert 128 < payload["size"] <= 1024
    axioms = payload["axioms"]
    assert "skipped" not in axioms
    assert axioms["ok"] is True and len(axioms["checks"]) == 8
    ring = build_ring(spec)
    idems = [x for x in range(ring.size) if ring.mul(x, x) == x]
    assert payload["idempotents"] == idems
    assert [block["e"] for block in payload["verdicts"]] == idems
    for block in payload["verdicts"]:
        e = block["e"]
        corner = sorted({ring.mul(ring.mul(e, x), e) for x in range(ring.size)})
        assert block["all_consistent"] and block["corner_size"] == len(corner)
        assert [r["a"] for r in block["per_element"]] == corner
    assert len(payload["inheritance"]["corners"]) == len(idems)


def test_classify_matches_plain_scans_on_m2z3xz2():
    # the scans of tests/test_memo.py, through nothing but mul
    ring = build_ring("M2(Z3)xZ2")
    elems = list(range(ring.size))
    mul, one = ring.mul, ring.one
    units = {}
    for u in elems:
        for v in elems:
            if mul(u, v) == one and mul(v, u) == one:
                units[u] = v
                break
    payload, ok = classify_payload(ring)
    assert ok and payload["unit_count"] == len(units) == 48
    for entry in payload["elements"]:
        a = entry["code"]
        pair = next(((u, v) for u, v in units.items() if mul(mul(a, u), a) == a), None)
        t = next((t for t in elems if mul(mul(a, t), a) == a), None)
        if pair is not None:
            expected = ("unit_regular", pair[0], pair[0], pair[1])
        elif t is not None:
            expected = ("regular", t, None, None)
        else:
            expected = ("not_regular", None, None, None)
        assert (entry["kind"], entry["t"], entry["u"], entry["u_inv"]) == expected, a
    # matrices over a field, times a field: unit regular throughout
    assert payload["is_unit_regular_ring"] is True
