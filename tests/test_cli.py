"""Command line contract: exit codes, report documents, caps, determinism.

Everything routes through run_command so the tests see both the code and the
document; one subprocess smoke test at the end proves the module entry point
and console wiring actually exist.
"""

import contextlib
import gc
import hashlib
import io
import json
import os
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
import ringlab.report as report_mod
import ringlab.rings as rings_mod
import ringlab.theorem as theorem_mod
from ringlab import (
    CURATED_FAMILY,
    DEFAULT_SIZE_CAP,
    TableRing,
    ZmodRing,
    emit_report,
)
from ringlab.cli import EXIT_CAP, EXIT_FAIL, EXIT_PASS, EXIT_USAGE, main, run_command
from oracles import payload_bytes

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
    real = report_mod.corner_verdicts
    five = theorem_mod.CONDITION_LABELS.index("5")

    def rigged(ring, idem):
        # a copy: the real rows are memoised on the ring the CLI keeps
        rows = dict(real(ring, idem))
        if 3 in rows:
            row = rows[3]
            rows[3] = row[:five] + (not row[five],) + row[five + 1:]
        return rows

    monkeypatch.setattr(report_mod, "corner_verdicts", rigged)
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
    assert run_command(["classify", "--ring=Z4", "--json"])[0] == EXIT_PASS
    assert built == []
    assert run_command(["classify"])[0] == EXIT_USAGE
    assert len(built) == 1
    assert run_command(["classify", "--ring", "Z4", "--bogus"])[0] == EXIT_USAGE
    assert run_command(["classify", "--help"]) == (EXIT_PASS, None)
    assert len(built) == 1


def test_abbreviated_flags_are_usage_errors(capsys):
    argv = ["classify", "--ring", "Z2", "--js"]
    assert run_command(argv) == (EXIT_USAGE, None)
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --js" in captured.err
    assert run_command(["classify", "--ri", "Z2"]) == (EXIT_USAGE, None)


# the table-driven parser against argparse ---------------------------------------


def _pairs(argv):
    """The tokens after the command, as [flag, value] or [token] groups."""
    groups, i = [], 1
    while i < len(argv):
        if argv[i].startswith("--") and i + 1 < len(argv) \
                and not argv[i + 1].startswith("--"):
            groups.append(argv[i:i + 2])
            i += 2
        else:
            groups.append(argv[i:i + 1])
            i += 1
    return groups


def _joined(command, groups):
    return command + [token for group in groups for token in group]


# int() reads fullwidth and Arabic-Indic digits, padding and underscores;
# every option converter refuses them, as the ring grammar refuses its own
# non-ASCII digits
_NON_ASCII_DIGITS = [str.maketrans("0123456789", "".join(chr(zero + d) for d in range(10)))
                     for zero in (0xFF10, 0x0660)]  # fullwidth, Arabic-Indic


def _respelled(argv):
    """argv with each number respelled fullwidth, Arabic-Indic, padded or
    underscored, as `--flag value` and as `--flag=value`."""
    command, groups = argv[:1], _pairs(argv)
    out = []
    for i, group in enumerate(groups):
        if len(group) != 2 or not (group[1].isascii() and group[1].isdigit()):
            continue
        flag, value = group
        spellings = [value.translate(t) for t in _NON_ASCII_DIGITS]
        for spelling in spellings + [" " + value, "1_" + value]:
            for respelled in ([flag, spelling], [f"{flag}={spelling}"]):
                out.append(_joined(command, groups[:i] + [respelled] + groups[i + 1:]))
    return out


def _mutations(argv, rng):
    """Seeded respellings and malformed variants of one argv."""
    command, groups = argv[:1], _pairs(argv)
    pairs = [g for g in groups if len(g) == 2]
    out = []
    shuffled = list(groups)
    rng.shuffle(shuffled)
    out.append(_joined(command, shuffled) + ["--json"])
    out.append(_joined(command, [["=".join(g)] if len(g) == 2 and rng.random() < 0.7
                                 else g for g in groups]))
    if argv:
        drop = rng.randrange(len(argv))
        out.append(argv[:drop] + argv[drop + 1:])
        at = rng.randrange(len(argv) + 1)
        out.append(argv[:at] + ["-h"] + argv[at:])
        out.append(argv[:at] + [rng.choice(["--bogus", "--js", "--ri", "--", "-x"])]
                   + argv[at:])
        out.append(argv + [rng.choice(["--json=", "--json=1", "--json=--json"])])
    if pairs:
        flag, value = rng.choice(pairs)
        out.append(argv + [flag, value])
        out.append(argv + [f"{flag}={value}", "--json", "--json"])
        out.append(argv + [flag, ""])
        out.append(argv + [f"{flag}="])
        out.append(argv + [flag, rng.choice(["-1", "-" + value, "--json"])])
        out.append(argv + [f"{flag}=-{value}"])
        out.append(argv + [flag])
    return out + _respelled(argv)


@pytest.fixture(scope="module")
def parse_corpus():
    argvs = [list(e["argv"]) for e in json.loads(REFERENCE.read_text())["requests"].values()]
    rng = random.Random(2014)
    corpus = []
    for argv in argvs:
        corpus += [argv, argv + ["--json"]] + _mutations(argv, rng)
    return corpus


@pytest.fixture(scope="module")
def oracle_parser():
    return cli_mod.build_parser()


def _argparse_vars(parser, argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


def _parse_mismatches(parser, corpus):
    """Argvs where _parse answers and argparse disagrees with the answer."""
    mismatches = []
    for argv in corpus:
        fast = cli_mod._parse(argv)
        if fast is not None and vars(fast) != _argparse_vars(parser, argv):
            mismatches.append(argv)
    return mismatches


def _has_dash_value(argv):
    return any(token.startswith("-") and not token.startswith("--")
               or token.partition("=")[2].startswith("-") for token in argv[1:])


def test_parse_agrees_with_argparse_or_declines(parse_corpus, oracle_parser):
    assert len(parse_corpus) > 3000
    assert _parse_mismatches(oracle_parser, parse_corpus) == []


def test_respelled_numbers_are_refused_by_both_parsers(oracle_parser):
    argvs = [list(e["argv"]) for e in json.loads(REFERENCE.read_text())["requests"].values()]
    respelled = [mutated for argv in argvs for mutated in _respelled(argv)]
    assert len(respelled) > 8000
    for argv in respelled:
        assert cli_mod._parse(argv) is None, argv
        assert _argparse_vars(oracle_parser, argv) is None, argv


@pytest.mark.parametrize("argv, flag, value", [
    (["classify", "--ring", "Z6", "--size-cap", "\u0661\u0660"], "--size-cap", "\u0661\u0660"),
    (["classify", "--ring", "Z6", "--size-cap", "1_0"], "--size-cap", "1_0"),
    (["classify", "--ring", "Z6", "--size-cap=\uff11\uff10"], "--size-cap", "\uff11\uff10"),
    (["witness", "--ring", "Z6", "--e", "\uff13", "--a", "3", "--b", "4", "--u", "1"],
     "--e", "\uff13"),
    (["witness", "--ring", "Z6", "--e", " 3", "--a", "3", "--b", "4", "--u", "1"],
     "--e", " 3"),
    (["witness", "--ring", "Z6", "--e", "3", "--a", "-1", "--b", "4", "--u", "1"],
     "--a", "-1"),
    (["verify-theorem", "--ring", "Z6", "--idempotent", "\uff13"], "--idempotent", "\uff13"),
    (["verify-theorem", "--ring", "Z6", "--idempotent=banana"], "--idempotent", "banana"),
    (["shift-demo", "--truncation", "\uff18"], "--truncation", "\uff18"),
], ids=["arabic-indic-cap", "underscored-cap", "fullwidth-cap", "fullwidth-code",
        "padded-code", "negative-code", "fullwidth-idempotent", "word-idempotent",
        "fullwidth-truncation"])
def test_option_numbers_are_ascii_digits(capsys, argv, flag, value):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: invalid" in captured.err and repr(value) in captured.err


@pytest.mark.parametrize("raw", ["\uff11\uff10", " 4 ", "1_0"])
@pytest.mark.parametrize("name", ["RINGLAB_SIZE_CAP", "RINGLAB_AXIOM_CAP"])
def test_cap_variables_are_ascii_digits(monkeypatch, capsys, name, raw):
    monkeypatch.setenv(name, raw)
    assert main(["classify", "--ring", "Z4"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ringlab: {name} must be ASCII digits, got {raw!r}\n"


def test_idempotent_all_is_the_default():
    argv = ["verify-theorem", "--ring", "T2(Z2)", "--json"]
    payloads = set()
    for extra in ([], ["--idempotent", "all"], ["--idempotent=all"]):
        code, doc = run_command(argv + extra)
        assert code == EXIT_PASS and len(doc["payload"]["verdicts"]) > 1
        payloads.add(payload_bytes(doc))
    assert len(payloads) == 1


def test_parse_takes_every_accepted_reference_argv(oracle_parser):
    requests = json.loads(REFERENCE.read_text())["requests"].values()
    taken = 0
    for entry in requests:
        for argv in (list(entry["argv"]), list(entry["argv"]) + ["--json"]):
            if _has_dash_value(argv) or _argparse_vars(oracle_parser, argv) is None:
                continue
            assert cli_mod._parse(argv) is not None, argv
            taken += 1
    assert taken > 600


def test_parse_oracle_catches_an_int_option_left_a_string(
        monkeypatch, parse_corpus, oracle_parser):
    options = cli_mod.COMMANDS["witness"][1]
    monkeypatch.setitem(options, "--e", options["--e"]._replace(type=str))
    mismatches = _parse_mismatches(oracle_parser, parse_corpus)
    assert mismatches and {argv[0] for argv in mismatches} == {"witness"}


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


@pytest.mark.parametrize("argv, code, label", [
    (["classify", "--ring", "Z40", "--size-cap", "10"], EXIT_CAP, None),
    (["verify-theorem", "--ring", "Z40", "--size-cap", "10"], EXIT_CAP, None),
    (["witness", "--ring", "Z40", "--size-cap", "10", "--e", "0", "--a", "0",
      "--b", "0", "--u", "1"], EXIT_CAP, None),
    (["shift-demo", "--truncation", "4097"], EXIT_CAP, "band"),
    (["witness", "--ring", "Z12", "--e", "9", "--a", "9", "--b", "0", "--u", "9"],
     EXIT_FAIL, "Z12"),
], ids=["capped-classify", "capped-verify", "capped-witness", "capped-shift-demo",
        "witness-precondition"])
def test_document_ring_label(schema, argv, code, label):
    # the label is the ring's name once the ring is resolved, "band" for
    # the shift demo, and null where the ring was refused
    exit_code, doc = run_ok(argv, schema)
    assert exit_code == code and doc["ring"] == label


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


def test_non_ascii_digit_is_a_description_error(capsys):
    # "Z\u00b2" is Z followed by a superscript two, a digit to str.isdigit
    assert main(["classify", "--ring", "Z\u00b2"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("ringlab: bad ring description: non-ASCII digit "
                            "'\\xb2' at offset 1 (expected an ASCII digit)\n")


@pytest.mark.parametrize("spec, message", [
    # str.isspace would skip each of these, reading Z2, Z2xZ3 and Z2
    ("Z\u30002", "missing number at offset 1 (expected a digit)"),  # ideographic space
    ("Z2\x1cxZ3", "trailing input '\\x1cxZ3' at offset 2"),         # file separator
    ("Z\u00a02", "missing number at offset 1 (expected a digit)"),  # no-break space
], ids=["ideographic-space", "file-separator", "no-break-space"])
def test_non_ascii_whitespace_is_a_description_error(capsys, spec, message):
    assert main(["classify", "--ring", spec]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ringlab: bad ring description: {message}\n"


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


def test_dimension_whose_square_overflows_a_float_is_capped(schema):
    # k = 10^200, so the k*k slots of the size estimate leave float range
    code, doc, elapsed = timed_run(["classify", "--ring", f"M1{'0' * 200}(Z2)"])
    assert code == EXIT_CAP and elapsed < 1.0
    jsonschema.validate(doc, schema)
    assert doc["payload"]["cardinality"] is None
    assert "10^4000" in doc["payload"]["message"]


def test_large_dimension_over_the_zero_ring_classifies_in_bounded_time():
    # a single-element carrier: each inverse is one step of the power walk,
    # whatever the dimension
    code, doc, elapsed = timed_run(["classify", "--ring", "M9(Z1)"])
    assert code == EXIT_PASS and elapsed < 1.0
    assert doc["payload"]["unit_regular_set"] == [0]


def test_classify_above_the_table_threshold_keeps_its_payload():
    # M2(Z6), 1,296 elements, untabled: units() asks inverse_of for every
    # element. T2(T2(Z2)) (512) and T2(Z7) (343) fill their tables by byte
    # gathers, over a nested base and into 'H' rows. Each hash is of the
    # payload as the benchmark worker hashes it.
    for spec, expected in (
            ("M2(Z6)", "95a1fb98c76faa727125ac622d5d3dee789276de902b99ed8a14fac470c59ffa"),
            ("T2(T2(Z2))", "7838ff6f273f7aeba0ec4ce0dd044a05e3e12210e01b9a78c0ff51f0e8789637"),
            ("T2(Z7)", "09c73460d8653ddd9d2b7e2aa61607c326d54c93ff9ad387a9491af33f3cb1d9")):
        code, doc = run_command(["classify", "--ring", spec, "--json"])
        assert code == EXIT_PASS
        digest = hashlib.sha256(json.dumps(doc["payload"], sort_keys=True).encode("utf-8"))
        assert digest.hexdigest() == expected, spec


def test_verify_above_the_table_threshold_keeps_its_payload():
    # M2(Z6), 1,296 elements, untabled: every corner carrier comes from raw
    # muls, n for the products e*x and one per distinct e*x for y*e, and the
    # corner at e = 1 reads R's map of witness units
    code, doc = run_command(["verify-theorem", "--ring", "M2(Z6)", "--axiom-cap", "1",
                             "--json"])
    assert code == EXIT_PASS
    digest = hashlib.sha256(json.dumps(doc["payload"], sort_keys=True).encode("utf-8"))
    assert digest.hexdigest() == (
        "60ed2553eab32372dddb44a8a56157f4c3190e0956930635d992b6491b77f3a9")


@pytest.mark.parametrize("argv, expected", [
    (["classify", "--ring", "Z210"],
     "35e8f911cb6a291ac3cfdfe282c462710e892f61c4b7613076cd44a75409a1f8"),
    (["verify-theorem", "--ring", "Z210"],
     "2b32ce5d83bcd8b57eaf5526be58560c6ab9301d954470e14e47b6632072c4d2"),
    (["classify", "--ring", "Z1000"],
     "c1509826b313fa3a38670b82e794dd85d0119e705f6b4b924bb22851230a356f"),
    (["verify-theorem", "--ring", "Z1000", "--axiom-cap", "1"],
     "2e840a0b3dbb443379d2ada540956c0f99eeb9da838aea6accbbade8692fac54"),
    (["verify-theorem", "--ring", "Z500", "--axiom-cap", "1"],
     "a6bc5b69442a191764332d9f044f4c2f8bdfd93140780e4479e3b9bbc75c3fb1"),
], ids=["classify-Z210", "verify-Z210", "classify-Z1000", "verify-Z1000", "verify-Z500"])
def test_residue_rings_above_the_list_rows_keep_their_payloads(argv, expected):
    # residue rings of 129 to 1024 elements fill their tables, 'B' or 'H'
    # rows, before a sweep; no benchmark request sends one
    code, doc = run_command(argv + ["--json"])
    assert code == EXIT_PASS
    digest = hashlib.sha256(json.dumps(doc["payload"], sort_keys=True).encode("utf-8"))
    assert digest.hexdigest() == expected


def test_classify_above_the_listing_cap_builds_no_repr(monkeypatch):
    # 1,280 elements: counts only, so no record and no repr is built
    ring = cli_mod.build_ring("M2(Z4)xZ5", DEFAULT_SIZE_CAP)

    def refuse(*args):
        raise AssertionError("a listing above the cap was built")

    monkeypatch.setattr(ring, "element_repr", refuse)
    monkeypatch.setattr(ring, "element_reprs", refuse)
    monkeypatch.setattr(cli_mod, "build_ring", lambda text, size_cap: ring)
    code, doc = run_command(["classify", "--ring", "M2(Z4)xZ5", "--json"])
    assert code == EXIT_PASS and doc["payload"]["elements"] is None
    digest = hashlib.sha256(json.dumps(doc["payload"], sort_keys=True).encode("utf-8"))
    assert digest.hexdigest() == (
        "4da0082df3f4234701aa6443dfd96b72a5f7ab9f93131b2515d26eb268d5f35f")


def test_cached_ring_reuses_its_axiom_and_inheritance_reports(monkeypatch):
    argv = ["verify-theorem", "--ring", "T2(Z3)", "--json"]
    code, doc = run_command(argv)
    first = payload_bytes(doc)
    # each request gets its own dicts: editing one leaves the next intact
    doc["payload"]["axioms"]["checks"].clear()
    doc["payload"]["inheritance"]["corners"].clear()
    calls = []
    monkeypatch.setattr(rings_mod, "_row_proofs", lambda *args: calls.append("axioms"))
    monkeypatch.setattr(theorem_mod, "_inheritance_report",
                        lambda ring: calls.append("inheritance"))
    code, doc = run_command(argv)
    assert code == EXIT_PASS and calls == [] and payload_bytes(doc) == first


def test_bad_idempotent_code_is_refused_before_the_axiom_check(monkeypatch):
    # a fresh ring, so no axiom report is memoised on it: the refusal must
    # come before the whole-carrier axiom proof, about a second on T4(Z2)
    cli_mod.clear_ring_cache()
    calls = []
    monkeypatch.setattr(rings_mod, "_row_proofs", lambda *args: calls.append("axioms"))
    for code in ("1029", "2"):  # out of range; in range but not idempotent
        argv = ["verify-theorem", "--ring", "T4(Z2)", "--axiom-cap", "1024",
                "--idempotent", code]
        assert run_command(argv) == (EXIT_USAGE, None) and calls == [], code
    # in the library too: a law-breaking ring refuses a bad code with
    # ValueError, and a good one still gets the axiom-failure payload
    monkeypatch.undo()
    broken = TableRing.from_ring(ZmodRing(6), override_add={(1, 1): 3})
    with pytest.raises(ValueError, match="not idempotent"):
        report_mod.verify_payload(broken, 2)
    payload, ok = report_mod.verify_payload(broken, 3)
    assert not ok and payload["axioms"]["ok"] is False and payload["verdicts"] is None


def test_oversized_truncation_is_capped_in_bounded_time(capsys, schema):
    code, doc, elapsed = timed_run(["shift-demo", "--truncation", "100000000"])
    assert code == EXIT_CAP and elapsed < 1.0
    jsonschema.validate(doc, schema)
    assert doc["payload"]["cap"] == 4096
    assert "MAX_TRUNCATION 4096" in doc["payload"]["message"]
    assert main(["shift-demo", "--truncation", "4097"]) == EXIT_CAP
    assert "status: capped" in capsys.readouterr().out


def test_truncation_at_the_cap_runs_in_bounded_time(schema):
    code, doc, elapsed = timed_run(["shift-demo", "--truncation", "4096", "--json"])
    assert code == EXIT_PASS and elapsed < 2.0
    jsonschema.validate(doc, schema)
    payload = doc["payload"]
    assert payload["ok"] is True
    assert len(payload["truncations"]) == 4095
    assert all(row["kernel_dim"] == 0 and row["cokernel_dim"] == 1
               for row in payload["truncations"])


def test_invalid_cap_env_is_a_usage_error(monkeypatch):
    monkeypatch.setenv("RINGLAB_SIZE_CAP", "banana")
    assert run_command(["classify", "--ring", "Z4"]) == (EXIT_USAGE, None)


def test_axiom_cap_env_skips_axiom_sweep(monkeypatch, schema):
    monkeypatch.setenv("RINGLAB_AXIOM_CAP", "5")
    code, doc = run_ok(["verify-theorem", "--ring", "Z6"], schema)
    assert code == EXIT_PASS  # conditions still verified
    assert doc["payload"]["axioms"]["ok"] is None
    assert "skipped" in doc["payload"]["axioms"]


def test_capped_axioms_block_is_the_empty_report_and_its_reason():
    ring = cli_mod.resolve_ring("T2(Z2)", DEFAULT_SIZE_CAP)
    payload, ok = report_mod.verify_payload(ring, axiom_cap=1)
    assert ok
    assert payload["axioms"] == {"ring": "T2(Z2)", "ok": None, "checks": [],
                                 "skipped": "carrier larger than axiom cap 1"}


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


def _human_verify_failure(ring, **kwargs):
    payload, ok = report_mod.verify_payload(ring, **kwargs)
    assert not ok
    doc = {"command": "verify-theorem", "ring": ring.spec_string, "status": "fail",
           "payload": payload}
    return emit_report(doc, "human")


def test_human_output_failed_axioms():
    broken = TableRing.from_ring(ZmodRing(6), override_mul={(5, 5): 5})
    out = _human_verify_failure(broken)
    assert "axioms: FAIL mul_associative at (2, 5, 5)" in out
    assert "corner inheritance" not in out


def test_human_output_inconsistency_bundle():
    # with the axiom check skipped, the broken table reaches the sweep
    broken = TableRing.from_ring(ZmodRing(6), override_mul={(0, 3): 2})
    out = _human_verify_failure(broken, axiom_cap=1)
    assert "axioms: skipped (carrier larger than axiom cap 1)" in out
    assert "INCONSISTENT at e=3 a=2:" in out
    assert "corner inheritance" not in out


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


def test_closed_stdout_ends_quietly_with_the_contract_code():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ringlab", "classify", "--ring", "Z2", "--json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr and proc.stderr == ""
    assert proc.returncode == EXIT_PASS
