"""ringlab's record classes against stdlib dataclass twins, and the import
that builds them.

The records are plain classes with __slots__ and a hand-written __init__.
Each is checked against a dataclasses.make_dataclass twin declared here, from
the fields, defaults and frozenness the records document: construction,
defaults, attribute values and repr for all of them; ==, hash and refused
assignment for the value types, which compare and hash by class and fields.
"""

import dataclasses
import os
import subprocess
import sys

import pytest

import ringlab
from ringlab.cli import resolve_ring
from ringlab.corners import CornerProductEmbedding, Idempotent, PeirceParts
from ringlab.regularity import RegularityKind, RegularityWitness, ZeroDivisorStatus
from ringlab.rings import AxiomCheck, AxiomReport
from ringlab.shift import BandOperator
from ringlab.specparse import MatrixSpec, ProductSpec, TriangularSpec, ZmodSpec, parse_ring_spec
from ringlab.theorem import (
    CornerInheritance,
    CornerWitness,
    InheritanceReport,
    M2ScaffoldReport,
    VerdictReport,
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
     [(n, _NO_DEFAULT) for n in ("ring", "e", "f", "a", "conditions", "witnesses")]
     + [("consistent", True)],
     ("Z6", 3, 4, 3, {"1": True}, {"1": None}, True),
     ("Z6", 3, 4, 0, {"1": False}, {}, False)),
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
