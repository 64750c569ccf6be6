"""Command line front end.

Exit codes: 0 every requested check passed, 1 a check failed (the report
says which), 2 the request itself was unusable, 3 the construction was
refused by the size cap. Reports go to stdout as human-readable text, or as
JSON with --json; usage errors go to stderr with no report document.

Caps resolve flag first, then environment, then default: --size-cap and
RINGLAB_SIZE_CAP bound carrier construction, --axiom-cap and
RINGLAB_AXIOM_CAP bound the ring-axiom check inside verify-theorem and
family.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Optional

from .report import (
    classify_payload,
    emit_report,
    family_payload,
    make_document,
    shift_payload,
    verify_payload,
    witness_payload,
)
from .rings import DEFAULT_AXIOM_CAP, DEFAULT_SIZE_CAP, SizeCapError
from .specparse import RingSpecError, build_ring
from .theorem import PreconditionError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3

ENV_SIZE_CAP = "RINGLAB_SIZE_CAP"
ENV_AXIOM_CAP = "RINGLAB_AXIOM_CAP"


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit the report document as JSON")
    common.add_argument("--size-cap", type=int, default=None, metavar="N",
                        help=f"carrier size limit (default {DEFAULT_SIZE_CAP}, "
                             f"env {ENV_SIZE_CAP})")
    common.add_argument("--axiom-cap", type=int, default=None, metavar="N",
                        help=f"axiom sweep size limit (default {DEFAULT_AXIOM_CAP}, "
                             f"env {ENV_AXIOM_CAP})")

    parser = argparse.ArgumentParser(
        prog="ringlab",
        description="exhaustive unit-regularity checks on finite rings and "
                    "their corner subrings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common],
                       help="regularity kind of every element")
    p.add_argument("--ring", required=True, metavar="SPEC",
                   help="ring description, e.g. Z6, M2(Z2), T2(Z3)xZ2")

    p = sub.add_parser("verify-theorem", parents=[common],
                       help="check the corner unit-regularity conditions")
    p.add_argument("--ring", required=True, metavar="SPEC")
    p.add_argument("--idempotent", default="all", metavar="all|CODE",
                   help="sweep every idempotent or just the given code")

    p = sub.add_parser("witness", parents=[common],
                       help="recover a corner witness from ambient data")
    p.add_argument("--ring", required=True, metavar="SPEC")
    p.add_argument("--e", required=True, type=int, help="idempotent code")
    p.add_argument("--a", required=True, type=int, help="corner element code")
    p.add_argument("--b", required=True, type=int,
                   help="complement corner element code")
    p.add_argument("--u", required=True, type=int, help="middle term code")
    p.add_argument("--v", type=int, default=None,
                   help="partner for u (default: its inverse)")

    p = sub.add_parser("shift-demo", parents=[common],
                       help="the infinite-carrier separation of the corner "
                            "conditions")
    p.add_argument("--truncation", type=int, default=8, metavar="N",
                   help="largest truncation size for rank evidence")

    sub.add_parser("family", parents=[common],
                   help="verify the curated ring family end to end")
    return parser


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


# Built on the first request and reused: parse_args keeps no state between
# calls, and building the parser costs ten times what parsing one argv does.
_parser: Optional[argparse.ArgumentParser] = None


def run_command(argv: list[str]) -> tuple[int, Optional[dict]]:
    global _parser
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
            ring = build_ring(args.ring, size_cap=size_cap)
            ring_label = ring.spec_string
            payload, ok = classify_payload(ring)
        elif command == "verify-theorem":
            ring = build_ring(args.ring, size_cap=size_cap)
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
            ring = build_ring(args.ring, size_cap=size_cap)
            ring_label = ring.spec_string
            payload, ok = witness_payload(ring, args.e, args.a, args.b,
                                          args.u, args.v)
        elif command == "shift-demo":
            ring_label = "band"
            payload, ok = shift_payload(args.truncation)
        else:
            payload, ok = family_payload(size_cap, axiom_cap, build_ring)
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
        print(emit_report(doc, fmt))
    return code


def entry() -> None:
    raise SystemExit(main())
