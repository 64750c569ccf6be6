"""Oracles of the suite: functions the tests call and no request runs.

verify_equivalences decides every condition for every element of a corner
through the per-element engine, the oracle of corner_verdicts and
require_consistent. payload_bytes gives the canonical bytes of a
document's payload, for comparing the payloads of two runs. zmod_census
gives the counts of a product of residue rings from the moduli alone.
"""

import json

from ringlab import (
    FiniteRing,
    Idempotent,
    InconsistencyError,
    VerdictReport,
    corner_ring,
    theorem_verdict,
)
from ringlab.theorem import _sound

def verify_equivalences(ring: FiniteRing, idem: Idempotent,
                        strict: bool = True) -> list[VerdictReport]:
    """Evaluate every condition for every element of the corner at e.

    With strict=True the first element whose equivalent conditions disagree,
    or whose one-way implications fail, aborts the sweep with the full
    reproduction bundle attached to the exception.
    """
    ee = corner_ring(ring, idem)
    reports = []
    for a in ee.elements():
        report = theorem_verdict(ring, idem, a)
        if strict and not _sound(report.conditions):
            raise InconsistencyError(report.to_dict())
        reports.append(report)
    return reports


def payload_bytes(doc: dict) -> bytes:
    """Canonical bytes of the deterministic part of a document."""
    return json.dumps(doc["payload"], sort_keys=True).encode("utf-8")


def zmod_census(moduli: tuple[int, ...]) -> tuple[int, int, int]:
    """(units, idempotents, unit-regular elements) of Z_n1 x ... x Z_nk.

    Closed forms, with no ring arithmetic: Z_n splits by CRT into the local
    rings Z_{p^a}, and each count multiplies over a product. Z_{p^a} has
    p^a - p^(a-1) units and the idempotents 0 and 1, and its regular
    elements, all unit regular, are its units and 0.
    """
    units = idempotents = unit_regular = 1
    for n in moduli:
        p = 2
        while n > 1:
            if p * p > n:
                p = n
            if n % p == 0:
                q = 1
                while n % p == 0:
                    n, q = n // p, q * p
                phi = q - q // p
                units, idempotents, unit_regular = (
                    units * phi, idempotents * 2, unit_regular * (phi + 1))
            p += 1
    return units, idempotents, unit_regular
