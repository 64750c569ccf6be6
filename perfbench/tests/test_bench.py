"""The benchmark's own checks: judging, metric names, generation, tracing.

Run from the repository root with `python3 -m pytest perfbench/tests`.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import manifest, run, tracer, worker, workloads

ROOT = run.ROOT


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


@pytest.fixture(scope="module")
def defects():
    return {" ".join(d["argv"]): d for d in manifest.KNOWN_DEFECTS}


def _first(reference, category, exit_code):
    for key, entry in sorted(reference["requests"].items()):
        if entry["category"] == category and entry["exit"] == exit_code:
            return key, entry
    raise AssertionError(f"no {category} request with exit {exit_code}")


def test_matching_exit_and_hash_pass(reference, defects):
    key, entry = _first(reference, "witness-valid", 0)
    assert run.judge(key, 0, entry["sha256"], reference, defects) == "ok"


def test_wrong_hash_fails(reference, defects):
    key, _ = _first(reference, "witness-valid", 0)
    assert run.judge(key, 0, "0" * 64, reference, defects) == "failed"


def test_wrong_exit_code_fails(reference, defects):
    key, entry = _first(reference, "witness-precondition", 1)
    assert run.judge(key, 0, entry["sha256"], reference, defects) == "failed"
    key, _ = _first(reference, "oversized", 3)
    assert run.judge(key, 2, None, reference, defects) == "failed"


def test_escaping_exception_fails(reference, defects):
    key, _ = _first(reference, "classify", 0)
    assert run.judge(key, "RecursionError", None, reference, defects) == "failed"


def test_known_defects_accept_seed_outcome_or_contract_only(reference, defects):
    for key, defect in defects.items():
        contract = defect["contract_exit"]
        assert reference["requests"][key]["exit"] == contract
        assert run.judge(key, defect["seed_outcome"], None, reference, defects) == "known_defect"
        assert run.judge(key, contract, None, reference, defects) == "ok"
        assert run.judge(key, "KeyError", None, reference, defects) == "failed"


def test_worker_counts_escaping_exception(monkeypatch, reference, defects):
    import ringlab.cli

    def explode(argv):
        raise RuntimeError("boom")

    monkeypatch.setattr(ringlab.cli, "run_command", explode)
    key, entry = _first(reference, "classify", 0)
    out = worker.serve({"requests": [[key, entry["argv"] + ["--json"]]]})
    (result,) = out["results"]
    assert result[1] == "RuntimeError"
    counts = run.tally(out["results"], reference)
    assert counts["failed"] == 1 and counts["ok"] == 0


def test_generation_is_seeded_and_covered(reference):
    for name in workloads.WORKLOADS:
        a = workloads.pass_requests(name, 7, 0, reference)
        assert a == workloads.pass_requests(name, 7, 0, reference)
        assert all(key in reference["requests"] for key, _ in a)
    small = workloads.pass_requests("small-requests", 7, 0, reference)
    assert len(small) == sum(c for _, _, c in workloads.SMALL_SLOTS) + len(manifest.KNOWN_DEFECTS)
    assert small != workloads.pass_requests("small-requests", 8, 0, reference)
    keys = {key for key, _ in small}
    assert all(" ".join(d["argv"]) in keys for d in manifest.KNOWN_DEFECTS)


def test_respelling_parses_to_the_same_ring():
    import random

    from ringlab import parse_ring_spec

    rng = random.Random(0)
    for spec in ("T2(Z4)xZ2", "M2(Z2)xZ2", "Z12", "M3(Z5)xM3(Z5)", "Z2000000"):
        for _ in range(20):
            assert parse_ring_spec(workloads.respell(spec, rng)) == parse_ring_spec(spec)


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def test_end_to_end_names_are_declared():
    passes = [{"results": [["k", 0, None, 3, 0.5, 10], ["k", 2, None, 0, 0.1, 0]],
               "peak_rss_mb": 20.0}]
    metrics, _ = run.end_to_end(passes, [0.2, 0.3])
    assert set(metrics) == _declared("end_to_end")


def test_per_layer_names_are_declared(reference):
    requests = [[key, reference["requests"][key]["argv"] + ["--json"]]
                for key in ("classify --ring Z6", "verify-theorem --ring Z6 --idempotent 3",
                            "shift-demo --truncation 64")
                if key in reference["requests"]]
    key, entry = _first(reference, "witness-valid", 0)
    requests.append([key, entry["argv"] + ["--json"]])
    plain = worker.serve({"requests": requests})
    traced = worker.serve({"requests": requests, "trace": "spans",
                           "spans_path": os.devnull, "provenance": {}})
    counted = worker.serve({"requests": requests, "trace": "ops"})
    op_ns = {name: 1.0 for name in manifest.LAYER_MAP if "_ns." in name}
    metrics = run.per_layer(plain, traced, counted, op_ns)
    assert set(metrics) == _declared("per_layer")
    assert set(manifest.LAYER_MAP) == _declared("per_layer")
    assert metrics["theorem.verdicts"] > 0 and metrics["rings.ops_tabled"] > 0
    assert metrics["shift.band_ops"] > 0


def test_op_timings_cover_declared_names():
    metrics = worker.ops({"seed": 1})
    assert set(metrics) == {n for n in _declared("per_layer") if "_ns." in n}
    assert all(v > 0 for v in metrics.values())


def test_tracer_restores_originals():
    import ringlab.cli
    import ringlab.rings
    import ringlab.theorem

    before = (ringlab.cli.run_command, ringlab.theorem.unit_regular_witness,
              ringlab.rings.FiniteRing.__dict__["mul"])
    restore = tracer.install(tracer.Tracer(), count_ops=True)
    assert ringlab.cli.run_command is not before[0]
    restore()
    after = (ringlab.cli.run_command, ringlab.theorem.unit_regular_witness,
             ringlab.rings.FiniteRing.__dict__["mul"])
    assert after == before


def test_refuses_to_run_without_the_program():
    bare = os.path.join(run.OUT_DIR, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "raw-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
