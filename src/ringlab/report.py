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
reached through the public JSONEncoder, encodes the document's scalar
values in one call. Keys are not among them: every report repeats the same
few dozen dict shapes, so a bounded table keeps each shape's keys, encoded
once by the same encoder, with its template, and no values.
"""

from __future__ import annotations

import json
from itertools import chain
from operator import add, itemgetter
from typing import Optional

from .corners import as_idempotent, idempotents
from .regularity import unit_regular_set, unit_regular_witness, RegularityKind
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


# payload builders ----------------------------------------------------------


def classify_payload(ring: FiniteRing) -> tuple[dict, bool]:
    """Counts of regularity.classify's kinds over the carrier and, up to
    _ELEMENT_LISTING_CAP elements, the listings; above it none is built.

    Each element's record reads its unit_regular_witness pair, as classify
    does, a memo hit once unit_regular_set has run: with a pair, a is unit
    regular with t = u; without one, it is not regular. Reprs come from
    element_reprs().
    """
    ur_set = unit_regular_set(ring)
    kinds: dict[str, int] = {kind.value: 0 for kind in RegularityKind}
    kinds[RegularityKind.UNIT_REGULAR.value] = len(ur_set)
    kinds[RegularityKind.NOT_REGULAR.value] = ring.size - len(ur_set)
    payload = {
        "ring": ring.spec_string,
        "size": ring.size,
        "unit_count": len(ring.units()),
        "idempotent_count": len(idempotents(ring)),
        # classify's kinds: an element is regular when it is unit regular
        "unit_regular_count": len(ur_set),
        "regular_count": len(ur_set),
        "is_unit_regular_ring": len(ur_set) == ring.size,
        "kinds": kinds,
        "units": None, "idempotents": None, "unit_regular_set": None,
        "regular_set": None, "elements": None,
    }
    if ring.size <= _ELEMENT_LISTING_CAP:
        ur, nr = RegularityKind.UNIT_REGULAR.value, RegularityKind.NOT_REGULAR.value
        payload.update(
            units=[[u, u_inv] for u, u_inv in ring.unit_pairs()],
            idempotents=[idem.e for idem in idempotents(ring)],
            unit_regular_set=list(ur_set),
            regular_set=list(ur_set),
            elements=[{"code": a, "repr": r, "kind": ur, "t": p[0], "u": p[0], "u_inv": p[1]}
                      if (p := unit_regular_witness(ring, a)) else
                      {"code": a, "repr": r, "kind": nr, "t": None, "u": None, "u_inv": None}
                      for a, r in zip(ring.elements(), ring.element_reprs())])
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
_SLOTS = _SCALARS | _DICT

# Scalars joined by raw newlines: with ensure_ascii no encoded scalar holds
# one, so splitting the text on "\n" gives back one token per scalar.
_LEAVES = json.JSONEncoder(check_circular=False, separators=("\n", ": "))
# The oracle the writer reproduces, and the writer of any node it does not know.
_STDLIB = json.JSONEncoder(indent=2, sort_keys=True)

# Dict shapes (see _walk) and scalar-list templates, by (depth, length);
# a benchmark pass makes a few dozen.
_SHAPES: dict = {}
_SHAPE_LIMIT = 1024


def _json_text(node) -> str:
    """The text of json.dumps(node, indent=2, sort_keys=True).

    One walk of the tree writes the output as a %-template, with %s for
    each scalar value, and gathers those values in output order. One call
    of the C encoder encodes them all and one % fills the template, so
    Python writes only indentation, punctuation and keys encoded earlier.
    """
    parts: list[str] = []
    leaves: list = []
    _walk(node, 0, parts, leaves)
    tokens = _LEAVES.encode(leaves)[1:-1].split("\n") if leaves else ()
    return "".join(parts) % tuple(tokens)


def _newline(depth: int) -> str:
    return "\n" + "  " * depth


def _walk(node, depth: int, parts: list, leaves: list) -> None:
    """Append node's template to parts and its scalar values to leaves.

    A dict is written from its shape in _SHAPES, keyed by depth and the
    dict's keys in insertion order (_dict_shape). The shape holds a getter
    of the values, the keys encoded once and the template for when every
    value is a scalar. Key sets repeat across reports, so encoding them
    once per shape leaves a dict one lookup, one getter call and one type
    check of its values, and only values reach the encoder. The table holds
    no values and at most _SHAPE_LIMIT entries; it is emptied when full.

    A container of scalars is one template piece, and so is a list of
    records of one shape. Other dicts and lists recurse. Anything else (a
    non-str key, a type outside JSON's) is written by the stdlib encoder,
    so no shape can change the bytes.
    """
    kind = type(node)
    if kind in _SCALARS:
        parts.append("%s")
        leaves.append(node)
    elif kind is dict:
        shape = _dict_shape(node, depth)
        if shape is None:
            parts.append(_stdlib_text(node, depth))
            return
        getter, heads, template = shape
        values = getter(node)
        # the shape says nothing of the values: any slot may hold a container
        if set(map(type, values)) <= _SCALARS:
            parts.append(template)
            leaves.extend(values)
            return
        for head, value in zip(heads, values):
            if type(value) in _SCALARS:
                parts.append(head + "%s")
                leaves.append(value)
            else:
                parts.append(head)
                _walk(value, depth + 1, parts, leaves)
        parts.append(_newline(depth) + "}")
    elif kind in _LISTS:
        kinds = set(map(type, node))
        if kinds <= _SCALARS:
            parts.append(_list_template(depth, len(node)))
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


def _dict_shape(node: dict, depth: int) -> Optional[tuple]:
    """The shape of dicts with node's keys at depth; None if a key is not a str.

    Values come in sorted-key order; an item's head is its line break,
    indent and key, %-escaped.
    """
    key = (depth, tuple(node))
    shape = _SHAPES.get(key)
    if shape is None and set(map(type, node)) <= _STR:
        keys = sorted(node)
        names = _LEAVES.encode(keys)[1:-1].replace("%", "%%").split("\n") if keys else []
        inner = _newline(depth + 1)
        heads = [("," if i else "{") + inner + name + ": " for i, name in enumerate(names)]
        getter = (itemgetter(*keys) if len(keys) > 1
                  else lambda one: tuple(map(one.__getitem__, keys)))
        shape = _remember(key, (getter, heads, _dict_text(heads, ["%s"] * len(keys), depth)))
    return shape


def _list_template(depth: int, length: int) -> str:
    template = _SHAPES.get((depth, length))
    if template is None:
        template = _remember((depth, length), _list_text(depth, ["%s"] * length))
    return template


def _remember(key: tuple, entry):
    if len(_SHAPES) >= _SHAPE_LIMIT:
        _SHAPES.clear()
    _SHAPES[key] = entry
    return entry


def _dict_text(heads: list, items: list, depth: int) -> str:
    """A dict at depth: each head followed by its item's text."""
    if not heads:
        return "{}"
    return "".join(map(add, heads, items)) + _newline(depth) + "}"


def _list_text(depth: int, items: list) -> str:
    """A list at depth, one item text per line."""
    if not items:
        return "[]"
    inner = _newline(depth + 1)
    return "[" + inner + ("," + inner).join(items) + _newline(depth) + "]"


def _stdlib_text(node, depth: int) -> str:
    # every raw newline in the output is structural (ensure_ascii)
    text = _STDLIB.encode(node).replace("\n", _newline(depth))
    return text.replace("%", "%%")


def _records(items, kinds: set, depth: int, parts: list, leaves: list) -> bool:
    """Write a list of records of one shape as one piece; False if it is not.

    A record is a list of scalars, all of one length, or a dict that
    _dict_records accepts.
    """
    if kinds <= _LISTS:
        widths = set(map(len, items))
        if len(widths) != 1:
            return False
        values = list(chain.from_iterable(items))
        if not set(map(type, values)) <= _SCALARS:
            return False
        record = _list_template(depth + 1, widths.pop())
    elif kinds == _DICT and (shaped := _dict_records(items, depth + 1)):
        record, columns = shaped
        values = chain.from_iterable(zip(*columns))
    else:
        return False
    parts.append(_list_text(depth, [record] * len(items)))
    leaves.extend(values)
    return True


def _dict_records(items, depth: int) -> Optional[tuple[str, list]]:
    """The template of dicts at depth as records, and their value columns.

    Each record has the first one's keys, and each slot holds scalars in
    every record, or dicts that are records themselves; None otherwise.
    The first record's shape gathers the columns, in C, once its own
    values show no slot that cannot be a record's.
    """
    first = items[0]
    shape = _dict_shape(first, depth)
    keys = first.keys()
    if (shape is None or not set(map(type, shape[0](first))) <= _SLOTS
            or not all(map(keys.__eq__, map(dict.keys, items)))):
        return None
    slots: list = []
    columns: list = []
    for column in zip(*map(shape[0], items)):
        kinds = set(map(type, column))
        if kinds <= _SCALARS:
            slots.append("%s")
            columns.append(column)
        elif kinds == _DICT and (shaped := _dict_records(column, depth + 1)):
            slots.append(shaped[0])
            columns.extend(shaped[1])
        else:
            return None
    return _dict_text(shape[1], slots, depth), columns


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
