"""Oracles of the suite: functions the tests call and no request runs.

verify_equivalences decides every condition for every element of a corner
through the per-element engine, the oracle of corner_verdicts and
require_consistent. payload_bytes gives the canonical bytes of a
document's payload, for comparing the payloads of two runs.
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
