"""JSON reports: the writer against its oracle, json.dumps(indent=2, sort_keys=True).

emit_report writes every scalar through the C encoder and only the
indentation in Python, so each test here compares bytes with the stdlib's
indented encoder: on seeded random documents, on hand-picked shapes that
the writer treats specially, and on the documents real requests produce.
"""

import enum
import json
import random
from collections import OrderedDict
from pathlib import Path

import pytest

import ringlab.cli as cli_mod
import ringlab.report as report_mod
from ringlab import TableRing, ZmodRing, emit_report
from ringlab.cli import EXIT_CAP, EXIT_FAIL, EXIT_PASS, run_command

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def oracle(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def assert_same_bytes(doc):
    assert emit_report(doc, "json") == oracle(doc)


# generated documents -------------------------------------------------------

# Text a %-template, a bracket count or a newline split could trip over.
TRICKY = ["", "%", "%s", "%%s", "%(a)s", "100%", "[", "]", "{", "}", "[]", "{}",
          '"', '\\"', "\\", "\\n", "\n", "a\nb", "\t", "\r", "\x00", ": ", ",\n  ",
          "é", "naïve %s", "\u2028", "\U0001f600", "timing_ms"]
NUMBERS = [0, 1, -1, 7, 2 ** 70, -(2 ** 64), 0.0, -0.0, 0.5, 1.5, 12.345, 1e300,
           1e-7, 3.0, float("nan"), float("inf"), float("-inf")]
SCALARS = [None, True, False] + NUMBERS + TRICKY


def scalar(rng):
    roll = rng.random()
    if roll < 0.2:
        return round(rng.uniform(0, 5000), 3)  # a timing_ms
    if roll < 0.3:
        return rng.randrange(-10 ** 6, 10 ** 6)
    return rng.choice(SCALARS)


def key(rng):
    return rng.choice(TRICKY + ["a", "b", "code", "e", "f", "ok", "3'", "4'", "1"])


def flat_dict(rng):
    return {key(rng): scalar(rng) for _ in range(rng.randrange(4))}


def flat_list(rng):
    values = [scalar(rng) for _ in range(rng.randrange(4))]
    return tuple(values) if rng.random() < 0.3 else values


def records(rng, depth):
    """A list of dicts of one shape, sometimes with one item off it."""
    slots = {}
    for _ in range(rng.randrange(1, 5)):
        slots[key(rng)] = rng.choice(("scalar", "scalar", "flat", "flat", "empty", "list"))

    def record():
        out = {}
        for name, kind in slots.items():
            if kind == "scalar":
                out[name] = scalar(rng)
            elif kind == "flat":
                out[name] = {sub: scalar(rng) for sub in ("1", "2", "%s", "3'")}
            elif kind == "empty":
                out[name] = {}
            else:
                out[name] = [scalar(rng), [scalar(rng)]]
        return out

    items = [record() for _ in range(rng.randrange(1, 6))]
    if rng.random() < 0.5:
        odd = rng.choice(items)
        name = rng.choice(list(odd))
        change = rng.randrange(5)
        if change == 0:
            del odd[name]
        elif change == 1:
            odd[name + "x"] = scalar(rng)
        elif change == 2:
            odd[name] = document(rng, depth + 1)
        elif change == 3:
            odd[name] = {"other": scalar(rng)}
        else:
            items[items.index(odd)] = [scalar(rng)]
    return items


def pairs(rng):
    width = rng.randrange(1, 4)
    rows = [[scalar(rng) for _ in range(width)] for _ in range(rng.randrange(1, 5))]
    if rng.random() < 0.3:
        rows[-1] = rows[-1] + [scalar(rng)]  # one row of another length
    return rows


def document(rng, depth=0):
    roll = rng.random()
    if depth >= 4 or roll < 0.2:
        return scalar(rng)
    if roll < 0.3:
        return flat_dict(rng)
    if roll < 0.4:
        return flat_list(rng)
    if roll < 0.55:
        return records(rng, depth)
    if roll < 0.6:
        return pairs(rng)
    if roll < 0.8:
        return {key(rng): document(rng, depth + 1) for _ in range(rng.randrange(5))}
    return [document(rng, depth + 1) for _ in range(rng.randrange(5))]


def test_generated_documents_match_the_oracle():
    rng = random.Random(20261018)
    for _ in range(1500):
        doc = document(rng)
        assert emit_report(doc, "json") == oracle(doc), doc


class Kind(enum.IntEnum):
    ONE = 1


HAND_PICKED = [
    {},
    [],
    "",
    None,
    1.5,
    {"a": {}, "b": [], "c": [{}], "d": [[]], "e": {"f": {"g": {}}}},
    [[], [[]], [{}, {}], {"": ""}],
    # records: one shape, then the same shape broken in a single item
    [{"a": 1, "conditions": {"1": True, "3'": False}}] * 3,
    [{"a": 1, "conditions": {"1": True}}, {"a": 2, "conditions": {"2": True}}],
    [{"a": 1, "b": 2}, {"a": 1, "b": 2, "c": 3}],
    [{"a": 1, "b": 2}, {"a": 1}],
    [{"a": 1, "b": {}}, {"a": 2, "b": {}}],
    [{"a": 1, "b": {}}, {"a": 2, "b": {"c": 1}}],
    [{"a": [1, 2], "b": 1}, {"a": [3], "b": 2}],
    [{"a": {"x": [1]}}, {"a": {"x": [2]}}],
    [{"a": 1}, {"a": {"b": 1}}],
    [{"a": {"b": 1}}, {"a": 1}],
    [{"a": 1}, [1]],
    [{"%": "%s", "%s": {"%%": "%(a)s"}}, {"%": "%", "%s": {"%%": "%%"}}],
    [[1, 2], [3, 4], (5, 6)],
    [[1, 2], [3]],
    [[1, [2]], [3, [4]]],
    [[], []],
    # scalars of every kind, bool and int side by side
    {"t": True, "one": 1, "f": False, "zero": 0, "none": None, "x": 0.1,
     "timing_ms": 12.3, "big": 2 ** 80, "nan": float("nan"), "inf": float("inf")},
    [True, 1, 1.0, False, 0, 0.0, None, "1", "true"],
    ("tuple", ("nested", ()), {"k": ()}),
    {"s": "\n\t\"\\%s[{é\U0001f600"},
    # non-str keys and types outside JSON's go to the stdlib encoder
    {1: "a", 2: "b"},
    {"outer": {1.5: [1], 2.5: {"x": None}}},
    {"keys": {True: 1}, "none": {None: 2}},
    [{"a": 1}, {3: 4}],
    {"enum": Kind.ONE, "in": [Kind.ONE, 2], "records": [{"a": Kind.ONE}, {"a": 2}]},
    {"ordered": OrderedDict([("b", 1), ("a", [1, 2])])},
]


@pytest.mark.parametrize("doc", HAND_PICKED, ids=range(len(HAND_PICKED)))
def test_hand_picked_documents_match_the_oracle(doc):
    assert_same_bytes(doc)


def test_unknown_subtree_goes_to_the_stdlib_encoder(monkeypatch):
    calls = []
    stdlib = report_mod._STDLIB

    class Spy:
        def encode(self, node):
            calls.append(node)
            return stdlib.encode(node)

    monkeypatch.setattr(report_mod, "_STDLIB", Spy())
    odd = {2: [1, {"%s": "%"}], 1: "%s"}
    doc = {"argv": ["x"], "payload": {"rows": [{"a": 1}, {"a": 2}], "odd": odd}}
    assert_same_bytes(doc)
    assert calls == [odd]  # that subtree alone, written at its depth
    calls.clear()
    assert_same_bytes({"a": 1, "payload": {"b": [1, 2]}})
    assert calls == []


@pytest.mark.parametrize("doc", [
    {"payload": {"rows": [{"a": object()}, {"a": 1}]}},
    {"payload": {"keys": {"a": 1, 3: 4}}},
], ids=["type", "mixed-keys"])
def test_unencodable_document_raises_like_the_oracle(doc):
    with pytest.raises(TypeError):
        oracle(doc)
    with pytest.raises(TypeError):
        emit_report(doc, "json")


# documents real requests produce ---------------------------------------------


def test_every_reference_request_emits_the_oracle_bytes():
    requests = json.loads(REFERENCE.read_text())["requests"]
    compared = 0
    for name, entry in requests.items():
        code, doc = run_command(list(entry["argv"]) + ["--json"])
        assert code == entry["exit"], name
        if doc is not None:
            assert emit_report(doc, "json") == oracle(doc), name
            compared += 1
    assert compared > 200


def _broken_z4(text, size_cap):
    return TableRing.from_ring(ZmodRing(4), override_mul={(3, 3): 0}, label="Z4")


@pytest.mark.parametrize("argv, code, status", [
    (["family"], EXIT_PASS, "pass"),
    (["verify-theorem", "--ring", "T2(Z3)"], EXIT_PASS, "pass"),
    (["verify-theorem", "--ring", "broken"], EXIT_FAIL, "fail"),
    (["classify", "--ring", "M40(M40(Z40))"], EXIT_CAP, "capped"),
    (["witness", "--ring", "Z6", "--e", "3", "--a", "3", "--b", "4", "--u", "3"],
     EXIT_FAIL, "fail"),
], ids=["family", "pass", "fail", "capped", "precondition"])
def test_each_exit_status_emits_the_oracle_bytes(monkeypatch, argv, code, status):
    if argv[-1] == "broken":  # a ring whose axiom check fails
        monkeypatch.setattr(cli_mod, "build_ring", _broken_z4)
    got_code, doc = run_command(argv + ["--json"])
    assert (got_code, doc["status"]) == (code, status)
    text = emit_report(doc, "json")
    assert text == oracle(doc)
    assert text.isascii()
