"""Report documents shared by the CLI and the test suite.

Every command produces one document: schema_version, command, argv, ring,
status, timing_ms and a command-specific payload. Payloads contain only
deterministic content; wall-clock timing lives outside them at the top
level, so byte comparison of payloads is the supported way to check that a
run reproduces.

JSON output is exactly json.dumps(doc, indent=2, sort_keys=True), the
writer's oracle in the tests. The stdlib writes any indented document with
its pure-Python encoder, so emit_report goes through _json_text instead: a
walk that writes the indentation as a %-template while the C encoder,
reached through the public JSONEncoder, encodes the document's keys and
scalars in one call.
"""

from __future__ import annotations

import functools
import json
from itertools import chain
from operator import itemgetter
from typing import Optional

from .corners import as_idempotent, idempotents
from .regularity import classify, unit_regular_set, RegularityKind
from .rings import DEFAULT_AXIOM_CAP, FiniteRing, check_ring_axioms
from .theorem import (
    CONDITION_LABELS,
    InconsistencyError,
    corner_verdicts,
    extract_corner_witness,
    require_consistent,
    resolve_partner,
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
        # classify's kinds: an element is regular when it is unit regular
        "regular_set": list(unit_regular_set(ring)) if listing else None,
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
            rows = corner_verdicts(ring, idem)
            # strict check: any disagreement raises, so each block is consistent
            require_consistent(ring, idem, rows)
            blocks.append({
                "e": idem.e,
                "f": idem.f,
                "corner_size": len(rows),
                "all_consistent": True,
                "per_element": [{"a": a, "conditions": dict(zip(CONDITION_LABELS, row))}
                                for a, row in rows.items()],
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
    # every code first, so a bad one is refused before any arithmetic
    for code in (e, a, b, u, v):
        if code is not None:
            ring.check_element(code)
    idem = as_idempotent(ring, e)
    if v is None:
        v = resolve_partner(ring, u, ("left", "right"))
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


# JSON rendering ------------------------------------------------------------

_SCALARS = frozenset((str, int, float, bool, type(None)))
_STR = frozenset((str,))
_DICT = frozenset((dict,))
_LISTS = frozenset((list, tuple))

# Scalars joined by raw newlines: with ensure_ascii no encoded scalar holds
# one, so splitting the text on "\n" gives back one token per scalar.
_LEAVES = json.JSONEncoder(check_circular=False, separators=("\n", ": "))
# The oracle the writer reproduces, and the writer of any node it does not know.
_STDLIB = json.JSONEncoder(indent=2, sort_keys=True)


def _json_text(node) -> str:
    """The text of json.dumps(node, indent=2, sort_keys=True).

    One walk of the tree writes the output as a %-template, with %s for
    each scalar and key, and gathers those scalars and keys in output
    order. One call of the C encoder encodes them all and one % fills the
    template, so Python writes only indentation and punctuation.
    """
    parts: list[str] = []
    leaves: list = []
    _walk(node, 0, parts, leaves)
    tokens = _LEAVES.encode(leaves)[1:-1].split("\n") if leaves else ()
    return "".join(parts) % tuple(tokens)


def _newline(depth: int) -> str:
    return "\n" + "  " * depth


def _walk(node, depth: int, parts: list, leaves: list) -> None:
    """Append node's template to parts and its scalars to leaves.

    A container of scalars is one template piece. A list of records of one
    shape is one piece built from one record template. Other dicts
    and lists recurse. Anything else (a non-str key, a type outside JSON's)
    is written by the stdlib encoder, so no shape can change the bytes.
    """
    kind = type(node)
    if kind in _SCALARS:
        parts.append("%s")
        leaves.append(node)
    elif kind is dict:
        if not node:
            parts.append("{}")
            return
        if set(map(type, node)) != _STR:
            parts.append(_stdlib_text(node, depth))
            return
        keys = sorted(node)
        values = list(map(node.__getitem__, keys))
        if set(map(type, values)) <= _SCALARS:
            parts.append(_container(depth, ["%s: %s"] * len(keys), "{}"))
            leaves.extend(chain.from_iterable(zip(keys, values)))
            return
        inner = _newline(depth + 1)
        lead = "{" + inner
        for key, value in zip(keys, values):
            leaves.append(key)
            if type(value) in _SCALARS:
                parts.append(lead + "%s: %s")
                leaves.append(value)
            else:
                parts.append(lead + "%s: ")
                _walk(value, depth + 1, parts, leaves)
            lead = "," + inner
        parts.append(_newline(depth) + "}")
    elif kind in _LISTS:
        if not node:
            parts.append("[]")
            return
        kinds = set(map(type, node))
        if kinds <= _SCALARS:
            parts.append(_container(depth, ["%s"] * len(node), "[]"))
            leaves.extend(node)
            return
        if _records(node, kinds, depth, parts, leaves):
            return
        inner = _newline(depth + 1)
        lead = "[" + inner
        for item in node:
            parts.append(lead)
            _walk(item, depth + 1, parts, leaves)
            lead = "," + inner
        parts.append(_newline(depth) + "]")
    else:
        parts.append(_stdlib_text(node, depth))


def _container(depth: int, items: list, brackets: str) -> str:
    """A non-empty list or dict at depth, one item text per line."""
    inner = _newline(depth + 1)
    return brackets[0] + inner + ("," + inner).join(items) + _newline(depth) + brackets[1]


def _stdlib_text(node, depth: int) -> str:
    # every raw newline in the output is structural (ensure_ascii)
    text = _STDLIB.encode(node).replace("\n", _newline(depth))
    return text.replace("%", "%%")


def _records(items, kinds: set, depth: int, parts: list, leaves: list) -> bool:
    """Write a list of records of one shape as one piece; False if it is not.

    A record is either a non-empty list of scalars, all of one length, or a
    dict with the first record's str keys, each holding a scalar or a dict
    of scalars with the first record's keys there.
    """
    if kinds <= _LISTS:
        widths = set(map(len, items))
        if len(widths) != 1 or 0 in widths:
            return False
        found = list(chain.from_iterable(items))
        record = _container(depth + 1, ["%s"] * widths.pop(), "[]")
    elif kinds == _DICT:
        shaped = _record_values(items)
        if shaped is None:
            return False
        found, shape = shaped
        record = _record_template(depth + 1, shape)
    else:
        return False
    if not set(map(type, found)) <= _SCALARS:
        return False
    parts.append(_container(depth, [record] * len(items), "[]"))
    leaves.extend(found)
    return True


def _record_values(items) -> Optional[tuple[list, tuple]]:
    """The values of dict records in output order and their shape, or None.

    The shape holds (key, None) for a scalar slot and (key, subkeys) for a
    slot holding a dict, keys and subkeys sorted. The values are gathered
    column by column, in C.
    """
    first = items[0]
    keys = first.keys()
    if (not first or set(map(type, first)) != _STR
            or not all(map(keys.__eq__, map(dict.keys, items)))):
        return None
    columns: list = []
    shape = []
    for key in sorted(first):
        column = list(map(itemgetter(key), items))
        value = first[key]
        if type(value) is not dict:
            shape.append((key, None))
            columns.append(column)
            continue
        subkeys = value.keys()
        if (set(map(type, column)) != _DICT or not set(map(type, value)) <= _STR
                or not all(map(subkeys.__eq__, map(dict.keys, column)))):
            return None
        shape.append((key, tuple(sorted(value))))
        columns.extend(map(itemgetter(name), column) for name in shape[-1][1])
    if not columns:
        return None
    return list(chain.from_iterable(zip(*columns))), tuple(shape)


@functools.lru_cache(maxsize=256)
def _record_template(depth: int, shape: tuple) -> str:
    """A dict record at depth of a shape _record_values returns: %s for each
    value, the keys written in with their % signs escaped."""
    keys = [key for key, _ in shape]
    subkeys = [name for _, sub in shape if sub for name in sub]
    names = [name.replace("%", "%%")
             for name in _LEAVES.encode(keys + subkeys)[1:-1].split("\n")]
    subnames = iter(names[len(keys):])
    parts = []
    for name, (_, sub) in zip(names, shape):
        if sub is None:
            parts.append(name + ": %s")
        elif not sub:
            parts.append(name + ": {}")
        else:
            parts.append(name + ": " + _container(
                depth + 1, [next(subnames) + ": %s" for _ in sub], "{}"))
    return _container(depth, parts, "{}")


# human rendering -----------------------------------------------------------

_CONDITION_DISPLAY = {label: f"({label})" for label in CONDITION_LABELS}


def emit_report(doc: dict, fmt: str = "json") -> str:
    if fmt == "json":
        return _json_text(doc)
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
