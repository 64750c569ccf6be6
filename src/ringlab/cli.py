"""Command line front end.

Exit codes: 0 every requested check passed, 1 a check failed (the report
says which), 2 the request itself was unusable, 3 the construction was
refused by the size cap. Reports go to stdout as human-readable text, or as
JSON with --json; usage errors go to stderr with no report document.

Caps resolve flag first, then environment, then default: --size-cap and
RINGLAB_SIZE_CAP bound carrier construction, --axiom-cap and
RINGLAB_AXIOM_CAP bound the ring-axiom check inside verify-theorem and
family.

run_command keeps the rings it builds for the life of the process, in a
least-recently-used cache keyed by the parsed description and bounded by
RING_CACHE_BUDGET table entries (resolve_ring). The caps are checked on
every request before the lookup. specparse.build_ring stays uncached and
returns a fresh ring.

Each command's options are declared once, in COMMANDS. build_parser turns
the table into an argparse parser, and _parse reads the same table to parse
a plain argv directly: the command first, then only exact flags as
`--flag value` or `--flag=value`, no value starting with "-", int options
through int(), every required flag present. That returns the Namespace
argparse would, for a tenth of its cost. Every other argv (help,
abbreviated or unknown flags, missing values, bad ints, negative numbers)
goes to one cached argparse parser, which stays the only source of help
text and usage errors. Flags are spelled in full: no parser accepts an
abbreviation, so "--json" in argv is exactly the JSON switch.

A reader that closes stdout early ends nothing badly: main stops writing
and returns the command's own exit code, with no traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections import OrderedDict
from typing import NamedTuple, Optional

from .report import (
    classify_payload,
    emit_report,
    family_payload,
    make_document,
    shift_payload,
    verify_payload,
    witness_payload,
)
from .rings import (
    DEFAULT_AXIOM_CAP,
    DEFAULT_SIZE_CAP,
    FiniteRing,
    SizeCapError,
)
from .specparse import (
    RingSpec,
    RingSpecError,
    _product_terms,
    build_ring,
    check_ring_spec,
)
from .theorem import PreconditionError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3

ENV_SIZE_CAP = "RINGLAB_SIZE_CAP"
ENV_AXIOM_CAP = "RINGLAB_AXIOM_CAP"


class _Option(NamedTuple):
    """One command option, as build_parser and _parse both read it."""

    flag: str
    dest: str
    type: type = str  # str or int takes a value; bool is a switch
    required: bool = False
    default: object = None
    metavar: Optional[str] = None
    help: Optional[str] = None


_COMMON = (
    _Option("--json", "json", bool, default=False,
            help="emit the report document as JSON"),
    _Option("--size-cap", "size_cap", int, metavar="N",
            help=f"carrier size limit (default {DEFAULT_SIZE_CAP}, "
                 f"env {ENV_SIZE_CAP})"),
    _Option("--axiom-cap", "axiom_cap", int, metavar="N",
            help=f"axiom sweep size limit (default {DEFAULT_AXIOM_CAP}, "
                 f"env {ENV_AXIOM_CAP})"),
)


def _options(*own: _Option) -> dict[str, _Option]:
    return {option.flag: option for option in _COMMON + own}


def _ring(help: Optional[str] = None) -> _Option:
    return _Option("--ring", "ring", required=True, metavar="SPEC", help=help)


def _code(flag: str, help: str) -> _Option:
    return _Option(flag, flag[2:], int, required=True, help=help)


# Every command with its help line and its options by flag, in help order.
COMMANDS: dict[str, tuple[str, dict[str, _Option]]] = {
    "classify": ("regularity kind of every element", _options(
        _ring("ring description, e.g. Z6, M2(Z2), T2(Z3)xZ2"))),
    "verify-theorem": ("check the corner unit-regularity conditions", _options(
        _ring(),
        _Option("--idempotent", "idempotent", default="all", metavar="all|CODE",
                help="sweep every idempotent or just the given code"))),
    "witness": ("recover a corner witness from ambient data", _options(
        _ring(),
        _code("--e", "idempotent code"),
        _code("--a", "corner element code"),
        _code("--b", "complement corner element code"),
        _code("--u", "middle term code"),
        _Option("--v", "v", int, help="partner for u (default: its inverse)"))),
    "shift-demo": ("the infinite-carrier separation of the corner conditions",
                   _options(_Option("--truncation", "truncation", int, default=8,
                                    metavar="N",
                                    help="largest truncation size for rank "
                                         "evidence"))),
    "family": ("verify the curated ring family end to end", _options()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringlab", allow_abbrev=False,
        description="exhaustive unit-regularity checks on finite rings and "
                    "their corner subrings")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, options) in COMMANDS.items():
        p = sub.add_parser(command, help=summary, allow_abbrev=False)
        for o in options.values():
            if o.type is bool:
                p.add_argument(o.flag, dest=o.dest, action="store_true",
                               help=o.help)
            else:
                p.add_argument(o.flag, dest=o.dest, type=o.type,
                               required=o.required, default=o.default,
                               metavar=o.metavar, help=o.help)
    return parser


def _parse(argv: list[str]) -> Optional[argparse.Namespace]:
    """The Namespace build_parser() would return for a plain argv, else None.

    Plain is a command, then exact flags as `--flag value` or
    `--flag=value`, no value starting with "-", every int value int()-able
    and every required flag present. Anything else (help, abbreviations,
    unknown or incomplete flags, negative numbers) is left to argparse.
    """
    entry = COMMANDS.get(argv[0]) if argv else None
    if entry is None:
        return None
    options = entry[1]
    values = {o.dest: o.default for o in options.values()}
    values["command"] = argv[0]
    i, n = 1, len(argv)
    while i < n:
        flag, eq, value = argv[i].partition("=")
        option = options.get(flag)
        if option is None:
            return None
        i += 1
        if option.type is bool:
            if eq:
                return None
            values[option.dest] = True
            continue
        if not eq:
            if i == n:
                return None
            value = argv[i]
            i += 1
        if value.startswith("-"):
            return None
        if option.type is int:
            try:
                value = int(value)
            except ValueError:
                return None
        values[option.dest] = value
    for o in options.values():
        if o.required and values[o.dest] is None:
            return None
    return argparse.Namespace(**values)


def _resolve_cap(flag_value: Optional[int], env_name: str, default: int) -> int:
    value = flag_value
    if value is None:
        raw = os.environ.get(env_name)
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"{env_name} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"cap must be positive, got {value}")
    return value


# Built on the first argv _parse declines and reused: parse_args keeps no
# state between calls, and building the parser costs ten times what parsing
# one argv does.
_parser: Optional[argparse.ArgumentParser] = None


# Rings built by earlier requests, least recently used first, keyed by the
# parsed description, so respellings share an entry. A ring's memo holds
# every sweep already run on it, and a repeated request reads it. The budget
# is in table entries, 2 * 1024**2: the add and mul tables of a carrier of
# 1024 elements, the largest that fills its tables today.
# A ring weighs size**2, plus _TERM_WEIGHT per product term its matrix
# constructors list (a tuple of two ints, about the bytes of 32 two-byte
# entries), so matrices over the zero ring, of one element each, are weighed
# too. A ring over the budget alone is never kept.
RING_CACHE_BUDGET = 2 * 1024 ** 2
_TERM_WEIGHT = 32
_rings: "OrderedDict[RingSpec, tuple[FiniteRing, int]]" = OrderedDict()
_rings_weight = 0


def resolve_ring(text: str, size_cap: int) -> FiniteRing:
    """The ring of a description: cached, or built with build_ring and kept.

    The description is parsed and checked against size_cap before the
    lookup, so a cached ring is refused exactly as a cold one would be.
    """
    global _rings_weight
    node = check_ring_spec(text, size_cap)
    entry = _rings.pop(node, None)
    if entry is not None:
        _rings[node] = entry  # most recently used last
        return entry[0]
    ring = build_ring(node, size_cap)
    weight = ring.size ** 2 + _TERM_WEIGHT * _product_terms(node)
    if weight <= RING_CACHE_BUDGET:
        _rings[node] = (ring, weight)
        _rings_weight += weight
        while _rings_weight > RING_CACHE_BUDGET:
            _rings_weight -= _rings.popitem(last=False)[1][1]
    return ring


def clear_ring_cache() -> None:
    """Drop every cached ring; the next request of each builds afresh."""
    global _rings_weight
    _rings.clear()
    _rings_weight = 0


def run_command(argv: list[str]) -> tuple[int, Optional[dict]]:
    global _parser
    args = _parse(argv)
    if args is None:
        if _parser is None:
            _parser = build_parser()
        try:
            args = _parser.parse_args(argv)
        except SystemExit as exc:
            return (EXIT_PASS if exc.code == 0 else EXIT_USAGE), None

    command = args.command
    ring_label: Optional[str] = None
    start = time.perf_counter()

    def finish(status: str, payload: dict) -> dict:
        timing_ms = round((time.perf_counter() - start) * 1000, 3)
        return make_document(command, ring_label, status, payload,
                             list(argv), timing_ms)

    try:
        size_cap = _resolve_cap(args.size_cap, ENV_SIZE_CAP, DEFAULT_SIZE_CAP)
        axiom_cap = _resolve_cap(args.axiom_cap, ENV_AXIOM_CAP, DEFAULT_AXIOM_CAP)
        if command == "classify":
            ring = resolve_ring(args.ring, size_cap)
            ring_label = ring.spec_string
            payload, ok = classify_payload(ring)
        elif command == "verify-theorem":
            ring = resolve_ring(args.ring, size_cap)
            ring_label = ring.spec_string
            if args.idempotent == "all":
                idem_code = None
            else:
                try:
                    idem_code = int(args.idempotent)
                except ValueError:
                    raise ValueError(
                        f"--idempotent takes 'all' or an element code, "
                        f"got {args.idempotent!r}") from None
            payload, ok = verify_payload(ring, idem_code, axiom_cap=axiom_cap)
        elif command == "witness":
            ring = resolve_ring(args.ring, size_cap)
            ring_label = ring.spec_string
            payload, ok = witness_payload(ring, args.e, args.a, args.b,
                                          args.u, args.v)
        elif command == "shift-demo":
            ring_label = "band"
            payload, ok = shift_payload(args.truncation)
        else:
            payload, ok = family_payload(size_cap, axiom_cap, resolve_ring)
    except SizeCapError as err:
        doc = finish("capped", {"cardinality": err.cardinality, "cap": err.cap,
                                "message": str(err)})
        return EXIT_CAP, doc
    except RingSpecError as err:
        print(f"ringlab: bad ring description: {err}", file=sys.stderr)
        return EXIT_USAGE, None
    except PreconditionError as err:
        doc = finish("fail", {"error": str(err), "reason": err.reason})
        return EXIT_FAIL, doc
    except ValueError as err:
        print(f"ringlab: {err}", file=sys.stderr)
        return EXIT_USAGE, None

    doc = finish("pass" if ok else "fail", payload)
    return (EXIT_PASS if ok else EXIT_FAIL), doc


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    code, doc = run_command(argv)
    if doc is not None:
        fmt = "json" if "--json" in argv else "human"
        try:
            print(emit_report(doc, fmt), flush=True)
        except BrokenPipeError:
            # the reader left; the interpreter's last flush goes nowhere
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    return code


def entry() -> None:
    raise SystemExit(main())
