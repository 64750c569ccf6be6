"""ringlab's record classes against stdlib dataclass twins, and the import
that builds them.

The records are plain classes with __slots__ and a hand-written __init__.
Each is checked against a dataclasses.make_dataclass twin declared here, from
the fields, defaults and frozenness the records document: construction,
defaults, attribute values and repr for all of them; ==, hash and refused
assignment for the value types, which compare and hash by class and fields.
The report records share one to_dict, on _Record; what each writes is
checked against its twin's fields, plus the properties it derives and the
three keys a record writes its own way: CornerProductEmbedding's
pair_count, VerdictReport's implication_violations and M2ScaffoldReport's
text s and t over a base whose elements are not codes.
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

import ringlab
from ringlab.cli import resolve_ring
from ringlab.corners import (
    CornerProductEmbedding,
    Idempotent,
    PeirceParts,
    as_idempotent,
    corner_product_embedding,
)
from ringlab.regularity import RegularityKind, RegularityWitness, ZeroDivisorStatus
from ringlab.rings import AxiomCheck, AxiomReport, _Value, check_ring_axioms
from ringlab.shift import BandOperator, BandRing
from ringlab.specparse import MatrixSpec, ProductSpec, TriangularSpec, ZmodSpec, parse_ring_spec
from ringlab.theorem import (
    CONDITION_LABELS,
    CornerInheritance,
    CornerWitness,
    InheritanceReport,
    M2ScaffoldReport,
    VerdictReport,
    build_m2_scaffold,
    extract_corner_witness,
    implication_violations,
    theorem_verdict,
    verify_ur_inheritance,
)

_NO_DEFAULT = object()
Z2, Z3 = ZmodSpec(2), ZmodSpec(3)

# class, value type?, fields as (name, default), then two argument tuples
# that differ in at least one field
RECORDS = [
    (Idempotent, True, [("e", _NO_DEFAULT), ("f", _NO_DEFAULT)], (3, 1), (3, 2)),
    (PeirceParts, True, [(n, _NO_DEFAULT) for n in ("ee", "ef", "fe", "ff")],
     (1, 2, 3, 4), (1, 2, 3, 5)),
    (RegularityWitness, True,
     [("kind", _NO_DEFAULT), ("t", None), ("u", None), ("u_partner", None)],
     (RegularityKind.UNIT_REGULAR, 1, 2, 3), (RegularityKind.UNIT_REGULAR, 1, 2, None)),
    (ZeroDivisorStatus, True, [("left", _NO_DEFAULT), ("right", _NO_DEFAULT)],
     (True, False), (False, True)),
    (ZmodSpec, True, [("n", _NO_DEFAULT)], (4,), (5,)),
    (MatrixSpec, True, [("k", _NO_DEFAULT), ("inner", _NO_DEFAULT)], (2, Z2), (2, Z3)),
    (TriangularSpec, True, [("k", _NO_DEFAULT), ("inner", _NO_DEFAULT)], (2, Z2), (3, Z2)),
    (ProductSpec, True, [("left", _NO_DEFAULT), ("right", _NO_DEFAULT)], (Z2, Z3), (Z3, Z2)),
    (BandOperator, True, [("diagonals", ()), ("exceptions", ())],
     (((1, 0),), ()), ((), ((0, frozenset({0})),))),
    (AxiomCheck, False, [(n, _NO_DEFAULT) for n in ("name", "ok", "counterexample")],
     ("add_associative", True, None), ("add_inverse", False, (1,))),
    (AxiomReport, False, [(n, _NO_DEFAULT) for n in ("ring", "ok", "checks")],
     ("Z4", True, []), ("Z6", False, [])),
    (CornerProductEmbedding, False,
     [(n, _NO_DEFAULT) for n in ("ring", "e", "f", "pairs", "injective", "additive",
                                 "multiplicative", "maps_identity_pair_to_one",
                                 "image_closed")],
     ("Z6", 3, 4, [(0, 0, 0)], True, True, True, True, True),
     ("Z6", 4, 3, [], True, False, True, True, True)),
    (VerdictReport, False,
     [(n, _NO_DEFAULT) for n in ("ring", "e", "f", "a", "conditions", "witnesses")],
     ("Z6", 3, 4, 3, {"1": True}, {"1": None}),
     ("Z6", 3, 4, 0, {"1": False}, {})),
    (CornerWitness, False,
     [(n, _NO_DEFAULT) for n in ("u_prime", "v_prime", "checks", "guaranteed")],
     (1, 1, {"au'a=a": True}, ("au'a=a",)), (1, 2, {}, ())),
    (CornerInheritance, False,
     [(n, _NO_DEFAULT) for n in ("e", "f", "corner_size", "inclusion_ok",
                                 "corner_unit_regular", "constructive_ok")],
     (3, 4, 2, True, True, None), (3, 4, 2, True, True, True)),
    (InheritanceReport, False,
     [(n, _NO_DEFAULT) for n in ("ring", "ambient_unit_regular", "corners")],
     ("Z6", True, []), ("Z4", False, [])),
    (M2ScaffoldReport, False,
     [(n, _NO_DEFAULT) for n in ("base", "s", "t", "identities", "ambient_witnessed",
                                 "decidable", "corner_unit_regular", "base_unit_regular",
                                 "corner_matches_base", "note")],
     ("Z4", 2, 3, {"uv=1": True}, True, True, False, False, True, "finite base"),
     ("ring", 2, 3, {}, True, False, None, None, None, "not finite")),
]
IDS = [r[0].__name__ for r in RECORDS]


def twin(cls, value_type, fields):
    """The dataclass the record stands in for: value types were frozen."""
    spec = [(name, object) if default is _NO_DEFAULT else (name, object, default)
            for name, default in fields]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=value_type)


def attrs(obj, fields):
    return [getattr(obj, name) for name, _ in fields]


@pytest.mark.parametrize("cls, value_type, fields, a, b", RECORDS, ids=IDS)
def test_construction_matches_dataclass_twin(cls, value_type, fields, a, b):
    ref = twin(cls, value_type, fields)
    for args in (a, b):
        kwargs = dict(zip([name for name, _ in fields], args))
        assert attrs(cls(*args), fields) == attrs(ref(*args), fields) == list(args)
        assert attrs(cls(**kwargs), fields) == attrs(ref(**kwargs), fields)
        if cls is not BandOperator:  # which keeps its own band notation
            assert repr(cls(*args)) == repr(ref(*args))
    required = [args for (_, default), args in zip(fields, a) if default is _NO_DEFAULT]
    assert attrs(cls(*required), fields) == attrs(ref(*required), fields)
    with pytest.raises(TypeError):  # a required field left out, or one argument too many
        cls(*required[:-1]) if required else cls(*a, None)
    with pytest.raises(TypeError):
        cls(*a, unknown=1)


@pytest.mark.parametrize("cls, value_type, fields, a, b",
                         [r for r in RECORDS if r[1]], ids=[i for i, r in zip(IDS, RECORDS) if r[1]])
def test_value_types_compare_and_hash_as_frozen_dataclasses(cls, value_type, fields, a, b):
    ref = twin(cls, value_type, fields)
    for x, y in ((a, a), (a, b), (b, a)):
        assert (cls(*x) == cls(*y)) == (ref(*x) == ref(*y))
        assert (cls(*x) != cls(*y)) == (ref(*x) != ref(*y))
        # the same hash as the dataclass, so sets of records iterate as before
        assert hash(cls(*x)) == hash(ref(*x))
    assert cls(*a) == cls(*a) and cls(*a) != cls(*b)
    assert len({cls(*a), cls(*a), cls(*b)}) == 2
    record, frozen = cls(*a), ref(*a)
    for name, _ in fields:
        for target in (record, frozen):
            with pytest.raises(AttributeError):
                setattr(target, name, None)
            with pytest.raises(AttributeError):
                delattr(target, name)
    assert attrs(record, fields) == list(a)


@pytest.mark.parametrize("cls, value_type, fields, a, b",
                         [r for r in RECORDS if not r[1]],
                         ids=[i for i, r in zip(IDS, RECORDS) if not r[1]])
def test_report_records_stay_mutable(cls, value_type, fields, a, b):
    record, ref = cls(*a), twin(cls, value_type, fields)(*a)
    for (name, _), value in zip(fields, b):
        setattr(record, name, value)
        setattr(ref, name, value)
    assert attrs(record, fields) == attrs(ref, fields) == list(b)


def test_every_value_type_is_pinned_against_its_twin():
    # _Value derives == and hash for each subclass; one left out of RECORDS
    # would escape the dataclass-twin checks above
    found, stack = set(), [_Value]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub.__module__.split(".")[0] == "ringlab":
                found.add(sub)
            stack.append(sub)
    assert found == {r[0] for r in RECORDS if r[1]}


def test_value_types_of_one_shape_differ_by_class():
    # a tuple-based record would make these equal, and a T2 request would
    # get the cached M2 ring
    pairs = [(MatrixSpec(2, Z2), TriangularSpec(2, Z2)),
             (Idempotent(1, 0), ZeroDivisorStatus(1, 0)),
             (ProductSpec(Z2, Z3), MatrixSpec(Z2, Z3))]
    for x, y in pairs:
        assert x != y and y != x
        assert not (x == y or y == x)
        assert len({x: 0, y: 1}) == 2
    assert parse_ring_spec("M2(Z2)") != parse_ring_spec("T2(Z2)")
    m2, t2 = resolve_ring("M2(Z2)", 2 ** 20), resolve_ring("T2(Z2)", 2 ** 20)
    assert m2 is not t2
    assert (m2.size, t2.size) == (16, 8)


FIELDS = {r[0]: r[2] for r in RECORDS}
REPORTS = [r for r in RECORDS if not r[1]]

# the properties each report record writes after its fields
DERIVED = {CornerProductEmbedding: ("ok",), CornerWitness: ("ok", "guaranteed_ok"),
           InheritanceReport: ("ok",), VerdictReport: ("consistent",)}


def expected_dict(record):
    """What record.to_dict() must write, read from its dataclass twin."""
    cls = type(record)
    ref = twin(cls, False, FIELDS[cls])(*attrs(record, FIELDS[cls]))
    out = {}
    for field in dataclasses.fields(ref):
        value = getattr(ref, field.name)
        if isinstance(value, dict):
            value = dict(value)
        elif isinstance(value, (tuple, list)):
            value = [expected_dict(v) if type(v) in FIELDS else v for v in value]
        out[field.name] = value
    if cls is CornerProductEmbedding:
        out["pair_count"] = len(out.pop("pairs"))
    elif cls is VerdictReport:
        out["implication_violations"] = [list(p) for p in implication_violations(record)]
    elif cls is M2ScaffoldReport:
        for name in ("s", "t"):  # text for a base element that is not a code
            value = getattr(ref, name)
            out[name] = value if isinstance(value, int) else str(value)
    out.update((name, getattr(record, name)) for name in DERIVED.get(cls, ()))
    return out


def built_reports():
    """One report of each kind as the library builds it, nested records included."""
    z6 = resolve_ring("Z6", 2 ** 20)
    idem = as_idempotent(z6, 3)
    return [
        check_ring_axioms(z6),
        corner_product_embedding(z6, idem),
        theorem_verdict(z6, idem, 3),
        extract_corner_witness(z6, idem, a=3, b=4, u=1),
        verify_ur_inheritance(z6),
        build_m2_scaffold(resolve_ring("Z4", 2 ** 20), s=3, t=3),
        build_m2_scaffold(BandRing(), BandOperator.right_shift(), BandOperator.left_shift()),
    ]


# a VerdictReport lists its implication violations, which read all seven
# conditions; it is built in full below
WRITABLE = [r for r in REPORTS if r[0] is not VerdictReport]


@pytest.mark.parametrize("cls, value_type, fields, a, b", WRITABLE,
                         ids=[r[0].__name__ for r in WRITABLE])
def test_to_dict_writes_the_twin_fields_and_the_derived_keys(cls, value_type, fields, a, b):
    for args in (a, b):
        record = cls(*args)
        d = record.to_dict()
        assert d == expected_dict(record)
        for name, _ in fields:  # copies: writing to the dict leaves the record as it was
            if isinstance(d.get(name), (dict, list)):
                assert d[name] is not getattr(record, name)


def test_built_reports_write_the_twin_fields_and_the_derived_keys():
    reports = built_reports()
    nested = {AxiomCheck, CornerInheritance}
    assert {type(r) for r in reports} == {r[0] for r in REPORTS} - nested
    for record in reports:
        d = record.to_dict()
        assert d == expected_dict(record), type(record).__name__
        assert json.loads(json.dumps(d)) == d, type(record).__name__
    embedding, band_scaffold = reports[1].to_dict(), reports[-1].to_dict()
    assert "pairs" not in embedding and embedding["pair_count"] == 6
    assert isinstance(band_scaffold["s"], str) and isinstance(band_scaffold["t"], str)


def test_nested_records_are_written_by_their_own_to_dict():
    report = AxiomReport("Z6", False, [AxiomCheck("add_inverse", False, (1,)),
                                       AxiomCheck("add_associative", True, None)])
    assert report.to_dict() == {
        "ring": "Z6", "ok": False,
        "checks": [{"name": "add_inverse", "ok": False, "counterexample": [1]},
                   {"name": "add_associative", "ok": True, "counterexample": None}],
    }
    report = InheritanceReport("Z6", True, [CornerInheritance(3, 4, 2, True, False, True)])
    assert report.to_dict() == {
        "ring": "Z6", "ambient_unit_regular": True,
        "corners": [{"e": 3, "f": 4, "corner_size": 2, "inclusion_ok": True,
                     "corner_unit_regular": False, "constructive_ok": True}],
        "ok": False,
    }


def test_verdict_writes_its_implication_violations():
    conditions = dict.fromkeys(CONDITION_LABELS, True)
    conditions.update({"3": False, "5": False})  # 4 => 3 and 3' => 5 fail
    report = VerdictReport("Z6", 3, 4, 3, conditions, dict.fromkeys(CONDITION_LABELS))
    d = report.to_dict()
    assert d == expected_dict(report)
    assert d["conditions"] == conditions and d["conditions"] is not conditions
    assert d["implication_violations"] == [["4", "3"], ["3'", "5"]]


def test_verdict_consistency_is_read_off_its_conditions():
    conditions = dict.fromkeys(CONDITION_LABELS, True)
    conditions.update({"3": False, "5": False})
    report = VerdictReport("Z6", 3, 4, 3, conditions, dict.fromkeys(CONDITION_LABELS))
    assert report.consistent is False
    assert report.to_dict()["consistent"] is False
    # 4' is recorded but left out of the agreement
    report.conditions = {**dict.fromkeys(CONDITION_LABELS, True), "4'": False}
    assert report.consistent is True
    report.conditions = dict.fromkeys(CONDITION_LABELS, False)
    assert report.consistent is True


def test_import_loads_no_dataclasses_or_inspect():
    src = os.path.dirname(os.path.dirname(os.path.abspath(ringlab.__file__)))
    script = ("import sys\n"
              "start = set(sys.modules)\n"
              "import ringlab, ringlab.cli\n"
              "print(' '.join(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - start))))\n")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""
