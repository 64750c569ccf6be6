"""Command line contract: exit codes, report documents, caps, determinism.

Everything routes through run_command so the tests see both the code and the
document; one subprocess smoke test at the end proves the module entry point
and console wiring actually exist.
"""

import gc
import json
import random
import subprocess
import sys
import time
import weakref
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import ringlab.cli as cli_mod
import ringlab.theorem as theorem_mod
from ringlab import (
    CURATED_FAMILY,
    DEFAULT_SIZE_CAP,
    TableRing,
    ZmodRing,
    emit_report,
    payload_bytes,
)
from ringlab.cli import EXIT_CAP, EXIT_FAIL, EXIT_PASS, EXIT_USAGE, main, run_command

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


@pytest.fixture(scope="module")
def schema():
    text = (resources.files("ringlab") / "schemas" / "report-v1.json").read_text()
    return json.loads(text)


def run_ok(argv, schema):
    code, doc = run_command(argv)
    assert doc is not None
    jsonschema.validate(doc, schema)
    return code, doc


# happy paths ----------------------------------------------------------------


def test_classify(schema):
    code, doc = run_ok(["classify", "--ring", "Z6"], schema)
    assert code == EXIT_PASS and doc["status"] == "pass"
    assert doc["command"] == "classify" and doc["ring"] == "Z6"
    assert doc["argv"] == ["classify", "--ring", "Z6"]
    assert doc["payload"]["unit_regular_set"] == [0, 1, 2, 3, 4, 5]
    assert doc["payload"]["is_unit_regular_ring"] is True
    assert doc["timing_ms"] >= 0


def test_classify_reports_failures_as_data_not_exit_codes(schema):
    # a non-unit-regular ring is a finding, not a failed run
    code, doc = run_ok(["classify", "--ring", "Z4"], schema)
    assert code == EXIT_PASS
    assert doc["payload"]["is_unit_regular_ring"] is False
    assert doc["payload"]["unit_regular_set"] == [0, 1, 3]


def test_verify_theorem_all_idempotents(schema):
    code, doc = run_ok(["verify-theorem", "--ring", "Z6"], schema)
    assert code == EXIT_PASS and doc["status"] == "pass"
    payload = doc["payload"]
    assert payload["idempotents"] == [0, 1, 3, 4]
    assert payload["axioms"]["ok"] is True
    assert all(block["all_consistent"] for block in payload["verdicts"])
    assert payload["inheritance"]["ok"] is True


def test_verify_theorem_single_idempotent(schema):
    code, doc = run_ok(["verify-theorem", "--ring", "Z6", "--idempotent", "3"],
                       schema)
    assert code == EXIT_PASS
    assert doc["payload"]["idempotents"] == [3]
    assert len(doc["payload"]["verdicts"]) == 1


def test_witness_pass_and_fail(schema):
    code, doc = run_ok(
        ["witness", "--ring", "Z6", "--e", "3", "--a", "3", "--b", "4",
         "--u", "1"], schema)
    assert code == EXIT_PASS
    assert doc["payload"]["witness"]["u_prime"] == 3
    assert doc["payload"]["v"] == 1  # resolved inverse is echoed back

    code, doc = run_ok(
        ["witness", "--ring", "Z6", "--e", "3", "--a", "3", "--b", "2",
         "--u", "1"], schema)
    assert code == EXIT_FAIL and doc["status"] == "fail"
    assert doc["payload"]["reason"] == "middle_identity_fails"


def test_witness_bad_middle_code_is_a_usage_error():
    # out-of-range codes exit 2 whether or not gcd(u, 6) = 1
    base = ["witness", "--ring", "Z6", "--e", "3", "--a", "3", "--b", "4"]
    assert run_command(base + ["--u", "97"]) == (EXIT_USAGE, None)
    assert run_command(base + ["--u", "99"]) == (EXIT_USAGE, None)
    assert run_command(base + ["--u", "1", "--v", "99"]) == (EXIT_USAGE, None)


def test_witness_in_range_non_unit_still_fails_the_check(schema):
    code, doc = run_ok(["witness", "--ring", "Z6", "--e", "3", "--a", "3",
                        "--b", "4", "--u", "3"], schema)
    assert code == EXIT_FAIL
    assert doc["payload"]["reason"] == "u_not_invertible"


def test_shift_demo(schema):
    code, doc = run_ok(["shift-demo", "--truncation", "4"], schema)
    assert code == EXIT_PASS and doc["ring"] == "band"
    assert doc["payload"]["kernel_dim"] == 0
    assert doc["payload"]["cokernel_dim"] == 1


@pytest.fixture(scope="module")
def family_doc(schema):
    code, doc = run_command(["family", "--json"])
    assert code == EXIT_PASS
    jsonschema.validate(doc, schema)
    return doc


def test_family(family_doc):
    payload = family_doc["payload"]
    assert family_doc["ring"] is None
    assert [e["spec"] for e in payload["family"]] == [
        "Z4", "Z6", "Z8", "Z12", "Z2xZ4", "T2(Z2)", "T2(Z3)",
        "M2(Z2)", "M2(Z3)", "M2(Z2)xZ2"]
    assert payload["all_ok"]


def test_family_payload_is_deterministic(family_doc):
    code, again = run_command(["family", "--json"])
    assert code == EXIT_PASS
    assert payload_bytes(again) == payload_bytes(family_doc)


# failure and usage paths -------------------------------------------------------


def test_injected_axiom_failure_fails_verify(monkeypatch, schema):
    broken = TableRing.from_ring(ZmodRing(4), override_mul={(3, 3): 0},
                                 label="Z4")
    monkeypatch.setattr(cli_mod, "build_ring",
                        lambda text, size_cap: broken)
    code, doc = run_ok(["verify-theorem", "--ring", "Z4"], schema)
    assert code == EXIT_FAIL and doc["status"] == "fail"
    axioms = doc["payload"]["axioms"]
    assert axioms["ok"] is False
    failed = [c for c in axioms["checks"] if not c["ok"]]
    assert failed and all(c["counterexample"] for c in failed)
    assert doc["payload"]["verdicts"] is None  # sweep never ran


def test_injected_inconsistency_fails_verify(monkeypatch, schema):
    real = theorem_mod.check_condition

    def rigged(ring, idem, a, label):
        holds, witness = real(ring, idem, a, label)
        if label == "5" and a == 3:
            return (not holds, None)
        return holds, witness

    monkeypatch.setattr(theorem_mod, "check_condition", rigged)
    code, doc = run_ok(["verify-theorem", "--ring", "Z6"], schema)
    assert code == EXIT_FAIL
    bundle = doc["payload"]["inconsistency"]
    # the sweep runs idempotents in ascending order, so the full corner
    # at e = 1 is the first place the rigged element 3 shows up
    assert bundle["a"] == 3 and bundle["e"] == 1
    assert doc["payload"]["verdicts"] is None


def test_usage_errors():
    assert run_command([]) == (EXIT_USAGE, None)
    assert run_command(["no-such-command"]) == (EXIT_USAGE, None)
    assert run_command(["classify"]) == (EXIT_USAGE, None)  # --ring required
    assert run_command(["classify", "--ring", "Q5"]) == (EXIT_USAGE, None)
    assert run_command(["classify", "--ring", "Z0"]) == (EXIT_USAGE, None)
    assert run_command(["verify-theorem", "--ring", "Z6",
                        "--idempotent", "banana"]) == (EXIT_USAGE, None)
    # element exists but is not idempotent: still a bad request
    assert run_command(["verify-theorem", "--ring", "Z6",
                        "--idempotent", "2"]) == (EXIT_USAGE, None)
    assert run_command(["classify", "--ring", "Z6",
                        "--size-cap", "0"]) == (EXIT_USAGE, None)
    assert run_command(["shift-demo", "--truncation", "1"]) == (EXIT_USAGE, None)
    # out-of-range element codes are bad requests, not witness failures
    wit = ["witness", "--ring", "Z6", "--e", "3", "--b", "4", "--u", "1"]
    assert run_command(wit + ["--a", "-1"]) == (EXIT_USAGE, None)
    assert run_command(wit + ["--a", "17"]) == (EXIT_USAGE, None)


def test_one_parser_parses_each_argv_afresh():
    parser = cli_mod.build_parser()
    with_v = ["witness", "--ring", "Z6", "--e", "3", "--a", "3", "--b", "4",
              "--u", "1", "--v", "3"]
    without_v = with_v[:-2]
    first = parser.parse_args(without_v)
    assert first.v is None
    assert parser.parse_args(with_v).v == 3
    for argv in (["classify", "--ring", "Z4", "--json"],
                 ["verify-theorem", "--ring", "Z6", "--idempotent", "3"]):
        parser.parse_args(argv)
    with pytest.raises(SystemExit):
        parser.parse_args(["classify"])
    assert parser.parse_args(without_v) == first
    assert vars(parser.parse_args(["classify", "--ring", "Z4"])) == {
        "command": "classify", "json": False, "size_cap": None, "axiom_cap": None,
        "ring": "Z4"}


def test_run_command_reuses_one_parser(monkeypatch):
    built = []
    real = cli_mod.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli_mod, "_parser", None)
    monkeypatch.setattr(cli_mod, "build_parser", counting)
    for _ in range(3):
        assert run_command(["classify", "--ring", "Z4"])[0] == EXIT_PASS
    assert run_command(["classify"])[0] == EXIT_USAGE
    assert len(built) == 1


def test_help_is_not_an_error():
    assert run_command(["--help"]) == (EXIT_PASS, None)
    assert run_command(["classify", "--help"]) == (EXIT_PASS, None)


def test_size_cap_flag(schema):
    code, doc = run_ok(["classify", "--ring", "Z999999999"], schema)
    assert code == EXIT_CAP and doc["status"] == "capped"
    assert doc["payload"]["cardinality"] == 999999999
    code, doc = run_ok(["classify", "--ring", "Z40", "--size-cap", "10"], schema)
    assert code == EXIT_CAP
    assert doc["payload"]["cap"] == 10


def test_size_cap_env_and_flag_priority(monkeypatch, schema):
    monkeypatch.setenv("RINGLAB_SIZE_CAP", "10")
    code, doc = run_ok(["classify", "--ring", "Z12"], schema)
    assert code == EXIT_CAP and doc["payload"]["cap"] == 10
    # explicit flag beats the environment
    code, doc = run_ok(["classify", "--ring", "Z12", "--size-cap", "128"], schema)
    assert code == EXIT_PASS


# ring cache -------------------------------------------------------------------


def counting_builds(monkeypatch):
    """Patch cli.build_ring to count its calls; returns the list of specs built."""
    built = []
    real = cli_mod.build_ring

    def counting(node, size_cap):
        built.append(node)
        return real(node, size_cap)

    monkeypatch.setattr(cli_mod, "build_ring", counting)
    return built


def test_respelled_descriptions_share_one_ring(monkeypatch):
    built = counting_builds(monkeypatch)
    ring = cli_mod.resolve_ring("m2( z3)", DEFAULT_SIZE_CAP)
    assert cli_mod.resolve_ring("M2(Z3)", DEFAULT_SIZE_CAP) is ring
    assert cli_mod.resolve_ring(" ( M2 (Z3) ) ", DEFAULT_SIZE_CAP) is ring
    assert len(built) == 1
    # a different tree is a different ring, even where the carriers agree
    assert cli_mod.resolve_ring("Z2x(Z3xZ4)", DEFAULT_SIZE_CAP) is not \
        cli_mod.resolve_ring("Z2xZ3xZ4", DEFAULT_SIZE_CAP)


def test_every_command_resolves_rings_through_the_cache(monkeypatch):
    built = counting_builds(monkeypatch)
    assert run_command(["family"])[0] == EXIT_PASS
    assert len(built) == len(CURATED_FAMILY)
    assert run_command(["family"])[0] == EXIT_PASS
    assert run_command(["classify", "--ring", "m2(z2)"])[0] == EXIT_PASS
    assert run_command(["verify-theorem", "--ring", "Z6", "--idempotent", "3"])[0] == EXIT_PASS
    code, _ = run_command(["witness", "--ring", "Z6", "--e", "3", "--a", "3",
                           "--b", "4", "--u", "1"])
    assert code == EXIT_PASS
    assert len(built) == len(CURATED_FAMILY)


def test_cached_ring_is_refused_by_a_lower_size_cap_like_a_cold_one(schema):
    argv = ["classify", "--ring", "M2(Z3)", "--size-cap", "80"]
    cold = run_ok(argv, schema)
    assert cold[0] == EXIT_CAP
    assert run_command(["classify", "--ring", "M2(Z3)"])[0] == EXIT_PASS
    warm = run_ok(argv, schema)
    assert warm[0] == EXIT_CAP
    assert payload_bytes(warm[1]) == payload_bytes(cold[1])
    # product terms are checked before the lookup as well
    cli_mod.resolve_ring("M5(Z1)", DEFAULT_SIZE_CAP)
    code, doc = run_ok(["classify", "--ring", "M5(Z1)", "--size-cap", "100"], schema)
    assert code == EXIT_CAP and "product terms" in doc["payload"]["message"]


def test_least_recently_used_ring_is_evicted_and_freed():
    budget = cli_mod.RING_CACHE_BUDGET
    assert 1000 ** 2 + 1001 ** 2 <= budget < 1000 ** 2 + 1001 ** 2 + 400 ** 2
    first = cli_mod.resolve_ring("Z1000", DEFAULT_SIZE_CAP)
    second = weakref.ref(cli_mod.resolve_ring("Z1001", DEFAULT_SIZE_CAP))
    assert cli_mod.resolve_ring("Z1000", DEFAULT_SIZE_CAP) is first  # now the most recent
    third = cli_mod.resolve_ring("Z400", DEFAULT_SIZE_CAP)
    gc.collect()
    assert second() is None
    assert cli_mod.resolve_ring("Z1000", DEFAULT_SIZE_CAP) is first
    assert cli_mod.resolve_ring("Z400", DEFAULT_SIZE_CAP) is third


@pytest.mark.parametrize("spec", [
    "Z1449",  # 1449 ** 2 is over the budget
    "M41(Z1)",  # one element, but 41 ** 3 product terms of weight 32 each
])
def test_ring_over_the_budget_is_never_kept(spec):
    kept = cli_mod.resolve_ring("Z4", DEFAULT_SIZE_CAP)
    big = cli_mod.resolve_ring(spec, DEFAULT_SIZE_CAP)
    ref = weakref.ref(big)
    assert cli_mod.resolve_ring(spec, DEFAULT_SIZE_CAP) is not big
    del big
    gc.collect()
    assert ref() is None
    assert cli_mod.resolve_ring("Z4", DEFAULT_SIZE_CAP) is kept


def _scramble(node):
    """Overwrite every container reachable from node in place."""
    if isinstance(node, dict):
        for value in node.values():
            _scramble(value)
        for key in node:
            node[key] = "scrambled"
    elif isinstance(node, (list, tuple)):
        for value in node:
            _scramble(value)
        if isinstance(node, list):
            node[:] = ["scrambled"]


def _answer(argv):
    """Exit code and JSON bytes of a request, its timing zeroed; the
    document is scrambled afterwards, so no later answer may share it."""
    code, doc = run_command(argv)
    if doc is None:
        return code, None
    doc["timing_ms"] = 0
    text = emit_report(doc, "json")
    _scramble(doc)
    return code, text


def test_warm_rings_answer_every_reference_request_as_cold_ones():
    requests = sorted(json.loads(REFERENCE.read_text())["requests"].items())
    cold = {}
    for name, entry in requests:
        cli_mod.clear_ring_cache()
        cold[name] = _answer(list(entry["argv"]) + ["--json"])
        assert cold[name][0] == entry["exit"], name
    cli_mod.clear_ring_cache()
    for name, entry in requests:
        assert _answer(list(entry["argv"]) + ["--json"]) == cold[name], name
    random.Random(12).shuffle(requests)
    for name, entry in requests:
        assert _answer(list(entry["argv"]) + ["--json"]) == cold[name], name


def timed_run(argv):
    start = time.perf_counter()
    code, doc = run_command(argv)
    return code, doc, time.perf_counter() - start


@pytest.mark.parametrize("spec", [
    "(" * 1200 + "Z2" + ")" * 1200,
    "M1(" * 400 + "Z2" + ")" * 400,
    "x".join(["Z1"] * 1500),  # a left-deep product tree
])
def test_deep_description_is_a_usage_error_in_bounded_time(spec):
    code, doc, elapsed = timed_run(["classify", "--ring", spec])
    assert (code, doc) == (EXIT_USAGE, None)
    assert elapsed < 1.0


def test_overlong_number_is_a_description_error_in_bounded_time(capsys):
    start = time.perf_counter()
    assert main(["classify", "--ring", "Z" + "9" * 5000]) == EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad ring description" in captured.err and "at offset 1" in captured.err
    assert "set_int_max_str_digits" not in captured.err


@pytest.mark.parametrize("spec", ["M40(M40(Z40))", "M99(M99(Z99))"])
def test_astronomical_carrier_is_capped_in_bounded_time(capsys, schema, spec):
    code, doc, elapsed = timed_run(["classify", "--ring", spec])
    assert code == EXIT_CAP and elapsed < 1.0
    jsonschema.validate(doc, schema)
    assert doc["payload"]["cardinality"] is None
    assert "10^4000" in doc["payload"]["message"]
    assert main(["classify", "--ring", spec]) == EXIT_CAP
    out = capsys.readouterr().out
    assert "status: capped" in out and "None" not in out


@pytest.mark.parametrize("letter", ["M", "T"])
def test_huge_dimension_over_the_zero_ring_is_capped_in_bounded_time(schema, letter):
    # the carrier has one element, so only the product-term bound refuses it
    code, doc, elapsed = timed_run(["classify", "--ring", f"{letter}{'9' * 400}(Z1)"])
    assert code == EXIT_CAP and elapsed < 1.0
    jsonschema.validate(doc, schema)
    assert doc["payload"]["cardinality"] == 1
    assert "product terms" in doc["payload"]["message"]


def test_large_dimension_over_the_zero_ring_classifies_in_bounded_time():
    # a 9x9 determinant expansion would take 9! products per inverse
    code, doc, elapsed = timed_run(["classify", "--ring", "M9(Z1)"])
    assert code == EXIT_PASS and elapsed < 1.0
    assert doc["payload"]["unit_regular_set"] == [0]


def test_oversized_truncation_is_capped_in_bounded_time(capsys, schema):
    code, doc, elapsed = timed_run(["shift-demo", "--truncation", "100000000"])
    assert code == EXIT_CAP and elapsed < 1.0
    jsonschema.validate(doc, schema)
    assert doc["payload"]["cap"] == 4096
    assert "MAX_TRUNCATION 4096" in doc["payload"]["message"]
    assert main(["shift-demo", "--truncation", "4097"]) == EXIT_CAP
    assert "status: capped" in capsys.readouterr().out


def test_invalid_cap_env_is_a_usage_error(monkeypatch):
    monkeypatch.setenv("RINGLAB_SIZE_CAP", "banana")
    assert run_command(["classify", "--ring", "Z4"]) == (EXIT_USAGE, None)


def test_axiom_cap_env_skips_axiom_sweep(monkeypatch, schema):
    monkeypatch.setenv("RINGLAB_AXIOM_CAP", "5")
    code, doc = run_ok(["verify-theorem", "--ring", "Z6"], schema)
    assert code == EXIT_PASS  # conditions still verified
    assert doc["payload"]["axioms"]["ok"] is None
    assert "skipped" in doc["payload"]["axioms"]


# output formats -----------------------------------------------------------------


def test_json_output_parses_and_validates(capsys, schema):
    assert main(["classify", "--ring", "Z4", "--json"]) == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, schema)
    assert doc["ring"] == "Z4"


def test_human_output(capsys):
    assert main(["verify-theorem", "--ring", "Z6"]) == EXIT_PASS
    out = capsys.readouterr().out
    assert out.startswith("command: verify-theorem")
    assert "status: pass" in out
    assert "(3')" in out and "(4')" in out  # condition labels shown verbatim
    assert "corner inheritance: ok" in out


def test_human_output_witness_failure(capsys):
    code = main(["witness", "--ring", "Z6", "--e", "3", "--a", "3",
                 "--b", "2", "--u", "1"])
    assert code == EXIT_FAIL
    out = capsys.readouterr().out
    assert "error:" in out and "middle_identity_fails" in out


def test_human_output_capped(capsys):
    assert main(["classify", "--ring", "Z40", "--size-cap", "10"]) == EXIT_CAP
    out = capsys.readouterr().out
    assert "status: capped" in out
    assert "exceeds cap 10" in out


def test_usage_error_prints_to_stderr_only(capsys):
    assert main(["classify", "--ring", "Q5"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad ring description" in captured.err


def test_entry_raises_system_exit(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["ringlab", "classify", "--ring", "Z4"])
    from ringlab.cli import entry
    with pytest.raises(SystemExit) as exc:
        entry()
    assert exc.value.code == EXIT_PASS


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "ringlab", "classify", "--ring", "Z4", "--json"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_PASS, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["payload"]["unit_regular_set"] == [0, 1, 3]
