"""Report documents shared by the CLI and the test suite.

Every command produces one document: schema_version, command, argv, ring,
status, timing_ms and a command-specific payload. Payloads contain only
deterministic content; wall-clock timing lives outside them at the top
level, so byte comparison of payloads is the supported way to check that a
run reproduces. JSON output is always sorted and indented.
"""

from __future__ import annotations

import json
from typing import Optional

from .corners import as_idempotent, idempotents
from .regularity import classify, regular_set, unit_regular_set, RegularityKind
from .rings import DEFAULT_AXIOM_CAP, FiniteRing, check_ring_axioms
from .theorem import (
    CONDITION_LABELS,
    InconsistencyError,
    extract_corner_witness,
    PreconditionError,
    verify_equivalences,
    verify_ur_inheritance,
)
from .shift import run_shift_demo

SCHEMA_VERSION = 1

# Small rings worth sweeping by default: enough shapes to hit commutative
# and noncommutative carriers, nontrivial idempotents, products and corners
# of every implemented construction, while the whole sweep stays quick.
CURATED_FAMILY = (
    "Z4",
    "Z6",
    "Z8",
    "Z12",
    "Z2xZ4",
    "T2(Z2)",
    "T2(Z3)",
    "M2(Z2)",
    "M2(Z3)",
    "M2(Z2)xZ2",
)

# Full per-element listings are suppressed above this carrier size; counts
# and histograms stay.
_ELEMENT_LISTING_CAP = 512


def make_document(command: str, ring: Optional[str], status: str, payload: dict,
                  argv: list[str], timing_ms: float) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "argv": list(argv),
        "ring": ring,
        "status": status,
        "timing_ms": timing_ms,
        "payload": payload,
    }


def payload_bytes(doc: dict) -> bytes:
    """Canonical bytes of the deterministic part of a document."""
    return json.dumps(doc["payload"], sort_keys=True).encode("utf-8")


# payload builders ----------------------------------------------------------


def classify_payload(ring: FiniteRing) -> tuple[dict, bool]:
    kinds: dict[str, int] = {kind.value: 0 for kind in RegularityKind}
    elements = []
    for a in ring.elements():
        witness = classify(ring, a)
        kinds[witness.kind.value] += 1
        elements.append({
            "code": a,
            "repr": ring.element_repr(a),
            "kind": witness.kind.value,
            "t": witness.t,
            "u": witness.u,
            "u_inv": witness.u_partner,
        })
    listing = ring.size <= _ELEMENT_LISTING_CAP
    payload = {
        "ring": ring.spec_string,
        "size": ring.size,
        "units": [[u, u_inv] for u, u_inv in ring.unit_pairs()] if listing else None,
        "unit_count": len(ring.units()),
        "idempotents": [idem.e for idem in idempotents(ring)] if listing else None,
        "idempotent_count": len(idempotents(ring)),
        "unit_regular_set": list(unit_regular_set(ring)) if listing else None,
        "regular_set": list(regular_set(ring)) if listing else None,
        "unit_regular_count": kinds[RegularityKind.UNIT_REGULAR.value],
        "regular_count": ring.size - kinds[RegularityKind.NOT_REGULAR.value],
        "is_unit_regular_ring": kinds[RegularityKind.UNIT_REGULAR.value] == ring.size,
        "kinds": kinds,
        "elements": elements if listing else None,
    }
    return payload, True


def verify_payload(ring: FiniteRing, idempotent_code: Optional[int] = None,
                   axiom_cap: int = DEFAULT_AXIOM_CAP) -> tuple[dict, bool]:
    """Axioms first, then the full condition sweep per idempotent corner.

    A failed axiom aborts the theorem sweep: the conditions do not mean
    anything on a non-ring, so the payload carries the counterexample
    instead. An inconsistency between supposedly equivalent conditions also
    aborts, with the reproduction bundle in the payload.
    """
    payload: dict = {"ring": ring.spec_string, "size": ring.size}
    if ring.size <= axiom_cap:
        axioms = check_ring_axioms(ring, cap=axiom_cap)
        payload["axioms"] = axioms.to_dict()
        if not axioms.ok:
            payload["verdicts"] = None
            payload["inheritance"] = None
            payload["note"] = "axiom failure: theorem sweep skipped"
            return payload, False
    else:
        payload["axioms"] = {
            "ring": ring.spec_string, "ok": None, "checks": [],
            "skipped": f"carrier larger than axiom cap {axiom_cap}"}

    if idempotent_code is None:
        idems = idempotents(ring)
    else:
        idems = (as_idempotent(ring, idempotent_code),)
    payload["idempotents"] = [idem.e for idem in idems]

    blocks = []
    try:
        for idem in idems:
            # strict sweep: any disagreement raises, so each block is consistent
            reports = verify_equivalences(ring, idem)
            blocks.append({
                "e": idem.e,
                "f": idem.f,
                "corner_size": len(reports),
                "all_consistent": True,
                "per_element": [{"a": r.a, "conditions": dict(r.conditions)}
                                for r in reports],
            })
    except InconsistencyError as err:
        payload["verdicts"] = None
        payload["inconsistency"] = err.bundle
        payload["inheritance"] = None
        return payload, False

    payload["verdicts"] = blocks
    inheritance = verify_ur_inheritance(ring)
    payload["inheritance"] = inheritance.to_dict()
    return payload, inheritance.ok


def witness_payload(ring: FiniteRing, e: int, a: int, b: int, u: int,
                    v: Optional[int] = None) -> tuple[dict, bool]:
    idem = as_idempotent(ring, e)
    ring.check_element(a)
    ring.check_element(b)
    ring.check_element(u)
    if v is not None:
        ring.check_element(v)
    else:
        v = ring.inverse_of(u)
        if v is None:
            raise PreconditionError("u_not_invertible", f"u={u} is not a unit")
    witness = extract_corner_witness(ring, idem, a, b, u, v)
    payload = {
        "ring": ring.spec_string,
        "e": idem.e,
        "f": idem.f,
        "a": a,
        "b": b,
        "u": u,
        "v": v,
        "witness": witness.to_dict(),
    }
    return payload, witness.ok


def family_payload(size_cap: int, axiom_cap: int, builder) -> tuple[dict, bool]:
    """Verify every ring in the curated family; builder maps text to a ring."""
    entries = []
    all_ok = True
    for spec in CURATED_FAMILY:
        ring = builder(spec, size_cap)
        detail, ok = verify_payload(ring, axiom_cap=axiom_cap)
        all_ok = all_ok and ok
        entries.append({
            "spec": spec,
            "size": ring.size,
            "ok": ok,
            "idempotent_count": len(detail["idempotents"]),
            "unit_regular_ring": len(unit_regular_set(ring)) == ring.size,
            "detail": detail,
        })
    return {"family": entries, "all_ok": all_ok}, all_ok


def shift_payload(truncation: int) -> tuple[dict, bool]:
    demo = run_shift_demo(truncation)
    return demo, demo["ok"]


# human rendering -----------------------------------------------------------

_CONDITION_DISPLAY = {label: f"({label})" for label in CONDITION_LABELS}


def emit_report(doc: dict, fmt: str = "json") -> str:
    if fmt == "json":
        return json.dumps(doc, indent=2, sort_keys=True)
    if fmt != "human":
        raise ValueError(f"unknown report format {fmt!r}")
    lines = [
        f"command: {doc['command']}",
        f"ring: {doc['ring'] if doc['ring'] is not None else '-'}",
        f"status: {doc['status']}",
    ]
    payload = doc.get("payload") or {}
    renderer = _HUMAN_RENDERERS.get(doc["command"])
    if doc["status"] == "capped":
        lines.append(payload["message"])
    elif "error" in payload:
        lines.append(f"error: {payload['error']}")
        if payload.get("reason"):
            lines.append(f"reason: {payload['reason']}")
    elif renderer is not None:
        lines.extend(renderer(payload))
    return "\n".join(lines)


def _human_classify(payload: dict) -> list[str]:
    lines = [
        f"size: {payload['size']}  units: {payload['unit_count']}  "
        f"idempotents: {payload['idempotent_count']}",
        f"unit regular ring: {'yes' if payload['is_unit_regular_ring'] else 'no'}",
        "kinds:",
    ]
    for kind, count in payload["kinds"].items():
        lines.append(f"  {kind:>20}: {count}")
    if payload.get("elements"):
        lines.append("elements:")
        for entry in payload["elements"]:
            mid = "" if entry["t"] is None else f"  t={entry['t']}"
            lines.append(f"  {entry['code']:>4} {entry['repr']:<24} "
                         f"{entry['kind']}{mid}")
    return lines


def _human_verify(payload: dict) -> list[str]:
    lines = []
    axioms = payload.get("axioms") or {}
    if axioms.get("ok") is None:
        lines.append(f"axioms: skipped ({axioms.get('skipped', 'no reason')})")
    elif axioms["ok"]:
        lines.append(f"axioms: ok ({len(axioms['checks'])} checks)")
    else:
        bad = [c for c in axioms["checks"] if not c["ok"]]
        for c in bad:
            lines.append(f"axioms: FAIL {c['name']} at {tuple(c['counterexample'])}")
    if payload.get("inconsistency") is not None:
        bundle = payload["inconsistency"]
        lines.append(f"INCONSISTENT at e={bundle['e']} a={bundle['a']}: "
                     f"{bundle['conditions']}")
        return lines
    for block in payload.get("verdicts") or []:
        labels = " ".join(_CONDITION_DISPLAY[label] for label in CONDITION_LABELS)
        lines.append(
            f"e={block['e']} f={block['f']} corner size {block['corner_size']}: "
            f"{'agree' if block['all_consistent'] else 'DISAGREE'} over {labels}")
    inheritance = payload.get("inheritance")
    if inheritance is not None:
        flag = "ok" if inheritance["ok"] else "FAIL"
        lines.append(
            f"corner inheritance: {flag} "
            f"(ambient unit regular: {'yes' if inheritance['ambient_unit_regular'] else 'no'})")
    return lines


def _human_witness(payload: dict) -> list[str]:
    witness = payload["witness"]
    lines = [
        f"e={payload['e']} f={payload['f']} a={payload['a']} b={payload['b']} "
        f"u={payload['u']} v={payload['v']}",
        f"recovered u'={witness['u_prime']} v'={witness['v_prime']}",
    ]
    for name, ok in witness["checks"].items():
        tag = "ok" if ok else "FAIL"
        promised = " (promised)" if name in witness["guaranteed"] else ""
        lines.append(f"  {name:<14} {tag}{promised}")
    lines.append(f"witness ok: {'yes' if witness['ok'] else 'no'}")
    return lines


def _human_family(payload: dict) -> list[str]:
    lines = []
    for entry in payload["family"]:
        flag = "ok" if entry["ok"] else "FAIL"
        ur = "unit regular" if entry["unit_regular_ring"] else "not unit regular"
        lines.append(f"{entry['spec']:<12} size {entry['size']:>4}  "
                     f"idempotents {entry['idempotent_count']:>3}  {ur:<17} {flag}")
    lines.append(f"family: {'all ok' if payload['all_ok'] else 'FAILURES'}")
    return lines


def _human_shift(payload: dict) -> list[str]:
    lines = []
    for name, ok in payload["identities"].items():
        lines.append(f"  {name:<8} {'ok' if ok else 'FAIL'}")
    lines.append(f"corner form: {'ok' if payload['corner_form_ok'] else 'FAIL'}")
    lines.append(f"kernel dim: {payload['kernel_dim']}  "
                 f"cokernel dim: {payload['cokernel_dim']} "
                 f"(truncations up to {payload['truncation']})")
    lines.append(f"verdict: {'ok' if payload['ok'] else 'FAIL'}")
    lines.append(payload["note"])
    return lines


_HUMAN_RENDERERS = {
    "classify": _human_classify,
    "verify-theorem": _human_verify,
    "witness": _human_witness,
    "family": _human_family,
    "shift-demo": _human_shift,
}
