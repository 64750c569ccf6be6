"""Spans and counters around calls into ringlab's layers, from outside it.

install() swaps each traced function for a wrapper in every ringlab module
namespace that holds it, so calls made through `from .x import f` names are
caught too. Nothing in the package changes on disk, and restore() puts the
originals back.

A span is (name, start, end, parent span, request id, raised?). Spans are
kept in flat arrays while the run lasts and written out when it ends. A
layer is the module a span's name starts with; its self time is each
span's duration minus the part its child spans cover. Ring operations are
too many to span, so they are only counted, and only when asked: the
counters multiply the cost of a tabled op several times over, so a pass
that counts ops is not the pass whose times are reported. An op is raw when
it reaches a construction's `_raw_*` method, the documented per-construction
hook, and tabled otherwise; ops nested inside a raw op are part of it.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from array import array
from typing import Callable

LAYERS = ("specparse", "rings", "corners", "regularity", "theorem", "report",
          "cli", "shift")

_MODULES = ("ringlab", "ringlab.cli", "ringlab.corners", "ringlab.regularity",
            "ringlab.report", "ringlab.rings", "ringlab.shift",
            "ringlab.specparse", "ringlab.theorem")

# (module, function, span name); a name's first component is its layer.
_FUNCTIONS = (
    ("specparse", "parse_ring_spec", "specparse.parse_ring_spec"),
    ("specparse", "spec_cardinality", "specparse.spec_cardinality"),
    ("specparse", "build_ring", "specparse.build_ring"),
    ("rings", "check_ring_axioms", "rings.check_ring_axioms"),
    ("corners", "idempotents", "corners.idempotents"),
    ("corners", "corner_ring", "corners.corner_ring"),
    ("corners", "as_idempotent", "corners.as_idempotent"),
    ("corners", "complement", "corners.complement"),
    ("regularity", "unit_regular_witness", "regularity.unit_regular_witness"),
    ("regularity", "one_sided_unit_regular_witness", "regularity.one_sided"),
    ("regularity", "regular_witness", "regularity.regular_witness"),
    ("regularity", "zero_divisor_status", "regularity.zero_divisor_status"),
    ("regularity", "regular_set", "regularity.regular_set"),
    ("regularity", "unit_regular_set", "regularity.unit_regular_set"),
    ("regularity", "classify", "regularity.classify"),
    ("theorem", "theorem_verdict", "theorem.theorem_verdict"),
    ("theorem", "verify_ur_inheritance", "theorem.verify_ur_inheritance"),
    ("theorem", "extract_corner_witness", "theorem.extract_corner_witness"),
    ("theorem", "extract_one_sided_corner_witness",
     "theorem.extract_one_sided_corner_witness"),
    ("theorem", "build_m2_scaffold", "theorem.build_m2_scaffold"),
    ("report", "classify_payload", "report.classify_payload"),
    ("report", "verify_payload", "report.verify_payload"),
    ("report", "witness_payload", "report.witness_payload"),
    ("report", "family_payload", "report.family_payload"),
    ("report", "shift_payload", "report.shift_payload"),
    ("report", "make_document", "report.make_document"),
    ("report", "emit_report", "report.emit_report"),
    ("cli", "run_command", "cli.run_command"),
    ("shift", "run_shift_demo", "shift.run_shift_demo"),
    ("shift", "truncation_dims", "shift.truncation_dims"),
)

# Functions whose non-None results count as hits.
_HIT_COUNTED = ("regularity.unit_regular_witness", "regularity.one_sided")

_CONDITION_NAMES = {"1": "1", "2": "2", "3": "3", "3'": "3p", "4": "4",
                    "4'": "4p", "5": "5"}


class Tracer:
    """In-memory span store plus the op and hit counters of one run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.raised = array("b")
        self._stack = [-1]
        self.request_id = -1
        self.hits: dict[str, int] = {}
        # depth inside a raw op, raw evaluations, top-level ops, of them raw
        self.ops = [0, 0, 0, 0]
        self.band_ops = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.request.append(self.request_id)
        self.raised.append(0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int, raised: bool) -> None:
        self.end[idx] = time.perf_counter()
        if raised:
            self.raised[idx] = 1
        self._stack.pop()

    def call(self, nid: int, fn: Callable, args: tuple, kwargs: dict):
        idx = self.open(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.close(idx, True)
            raise
        self.close(idx, False)
        return result

    def span(self, name: str, fn: Callable) -> Callable:
        nid = self.name_id(name)
        count_hits = name in _HIT_COUNTED
        hits = self.hits

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(nid, fn, args, kwargs)
            if count_hits and result is not None:
                hits[name] = hits.get(name, 0) + 1
            return result

        return traced

    def write(self, path: str, header: dict) -> None:
        """Write the spans as gzipped tab-separated rows after a JSON header."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            fh.write("id\tname\tstart\tend\tparent\trequest\traised\n")
            names = self.names
            for i in range(len(self.name)):
                fh.write(f"{i}\t{names[self.name[i]]}\t{self.start[i]!r}\t"
                         f"{self.end[i]!r}\t{self.parent[i]}\t{self.request[i]}\t"
                         f"{self.raised[i]}\n")


def _check_condition_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    """One span name per condition label, so each condition gets its time."""
    ids = {label: tracer.name_id(f"theorem.check_condition.{short}")
           for label, short in _CONDITION_NAMES.items()}

    @functools.wraps(fn)
    def traced(ring, idem, a, label):
        return tracer.call(ids[label], fn, (ring, idem, a, label), {})

    return traced


def _op_wrapper(st: list, fn: Callable) -> Callable:
    def op(self, *args):
        if st[0]:
            return fn(self, *args)
        raw_before = st[1]
        result = fn(self, *args)
        st[2] += 1
        if st[1] != raw_before:
            st[3] += 1
        return result

    return op


def _raw_wrapper(st: list, fn: Callable) -> Callable:
    def raw(self, *args):
        if st[0]:
            return fn(self, *args)
        st[1] += 1
        st[0] = 1
        try:
            return fn(self, *args)
        finally:
            st[0] = 0

    return raw


def _band_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    def op(*args):
        tracer.band_ops += 1
        return fn(*args)

    return op


def install(tracer: Tracer, count_ops: bool = False) -> Callable[[], None]:
    """Wrap ringlab's layer entry points; returns the function that undoes it."""
    modules = [importlib.import_module(m) for m in _MODULES]
    undo: list[tuple[object, str, object]] = []

    def replace_everywhere(original, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def patch_class(cls, attr, wrapper) -> None:
        undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    by_name = {m.__name__: m for m in modules}
    for module, func, name in _FUNCTIONS:
        original = getattr(by_name[f"ringlab.{module}"], func)
        replace_everywhere(original, tracer.span(name, original))
    theorem = by_name["ringlab.theorem"]
    replace_everywhere(theorem.check_condition,
                       _check_condition_wrapper(tracer, theorem.check_condition))

    rings = by_name["ringlab.rings"]
    for cls in (rings.ZmodRing, rings.MatrixRing, rings.TriangularRing,
                rings.ProductRing):
        patch_class(cls, "__init__", tracer.span("rings.construct",
                                                 cls.__dict__["__init__"]))
        if count_ops:
            for attr in ("_raw_add", "_raw_neg", "_raw_mul"):
                patch_class(cls, attr, _raw_wrapper(tracer.ops, cls.__dict__[attr]))
    if count_ops:
        for attr in ("add", "neg", "mul"):
            patch_class(rings.FiniteRing, attr,
                        _op_wrapper(tracer.ops, rings.FiniteRing.__dict__[attr]))
    patch_class(rings.FiniteRing, "units",
                tracer.span("rings.units", rings.FiniteRing.__dict__["units"]))
    corner_cls = by_name["ringlab.corners"].CornerRing
    patch_class(corner_cls, "__init__",
                tracer.span("corners.CornerRing", corner_cls.__dict__["__init__"]))
    band = by_name["ringlab.shift"].BandOperator
    for attr in ("__add__", "__sub__", "__mul__", "__neg__"):
        patch_class(band, attr, _band_wrapper(tracer, band.__dict__[attr]))

    def restore() -> None:
        for target, attr, value in reversed(undo):
            setattr(target, attr, value)

    return restore


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass, derived from its spans."""
    n = len(tracer.name)
    names = tracer.names
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            child[p] += dur[i]
    incl: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_by_name: dict[str, float] = {}
    refusal_max = 0.0
    build_ring = tracer._ids.get("specparse.build_ring", -2)
    for i in range(n):
        nid = tracer.name[i]
        name = names[nid]
        calls[name] = calls.get(name, 0) + 1
        self_by_name[name] = self_by_name.get(name, 0.0) + dur[i] - child[i]
        p = tracer.parent[i]
        if p < 0 or tracer.name[p] != nid:
            incl[name] = incl.get(name, 0.0) + dur[i]
        if nid == build_ring and tracer.raised[i]:
            refusal_max = max(refusal_max, dur[i])

    def total(name: str) -> float:
        return incl.get(name, 0.0)

    def count(name: str) -> int:
        return calls.get(name, 0)

    def ratio(hits: int, attempts: int) -> float:
        return hits / attempts if attempts else 0.0

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, value in self_by_name.items():
        layer_self[name.split(".", 1)[0]] += value

    urw = "regularity.unit_regular_witness"
    extract = ("theorem.extract_corner_witness",
               "theorem.extract_one_sided_corner_witness")
    metrics = {
        "specparse.build_ring_s": total("specparse.build_ring"),
        "specparse.refusal_ms_max": refusal_max * 1000.0,
        "rings.construct_s": total("rings.construct"),
        "rings.axioms_s": total("rings.check_ring_axioms"),
        "rings.units_s": total("rings.units"),
        "corners.idempotents_s": total("corners.idempotents"),
        "corners.corner_ring_s": total("corners.corner_ring"),
        "corners.corner_ring_calls": count("corners.corner_ring"),
        "corners.corner_ring_builds": count("corners.CornerRing"),
        "regularity.unit_regular_witness_calls": count(urw),
        "regularity.unit_regular_witness_s": total(urw),
        "regularity.unit_regular_witness_hit_ratio": ratio(tracer.hits.get(urw, 0),
                                                           count(urw)),
        "regularity.regular_set_s": total("regularity.regular_set"),
        "regularity.unit_regular_set_s": total("regularity.unit_regular_set"),
        "regularity.one_sided_calls": count("regularity.one_sided"),
        "regularity.one_sided_hit_ratio": ratio(tracer.hits.get("regularity.one_sided", 0),
                                                count("regularity.one_sided")),
        "regularity.zero_divisor_status_calls": count("regularity.zero_divisor_status"),
        "regularity.zero_divisor_status_s": total("regularity.zero_divisor_status"),
        "theorem.verdicts": count("theorem.theorem_verdict"),
        "theorem.verdict_s": total("theorem.theorem_verdict"),
        "theorem.inheritance_s": total("theorem.verify_ur_inheritance"),
        "theorem.witness_extract_calls": sum(count(x) for x in extract),
        "theorem.witness_extract_s": sum(total(x) for x in extract),
        "report.payload_self_s": sum(v for k, v in self_by_name.items()
                                     if k.startswith("report.") and k.endswith("_payload")),
        "report.emit_s": total("report.emit_report"),
        "shift.run_s": total("shift.run_shift_demo"),
        "shift.truncation_dims_s": total("shift.truncation_dims"),
        "shift.scaffold_s": total("theorem.build_m2_scaffold"),
        "shift.band_ops": tracer.band_ops,
        "trace.spans": n,
    }
    for label in _CONDITION_NAMES.values():
        metrics[f"theorem.condition_s.{label}"] = total(f"theorem.check_condition.{label}")
    for layer, value in layer_self.items():
        metrics[f"{layer}.self_s"] = value
    return metrics


def op_counts(tracer: Tracer) -> dict[str, float]:
    """Top-level ring ops of a pass run with count_ops, tabled against raw."""
    _, raw, top, top_raw = tracer.ops
    tabled = top - top_raw
    return {"rings.ops_tabled": tabled, "rings.ops_raw": raw,
            "rings.ops_raw_share": raw / (raw + tabled) if raw + tabled else 0.0}
