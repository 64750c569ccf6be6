"""Oracles of the suite: functions the tests call and no request runs.

verify_equivalences decides every condition for every element of a corner
through the per-element API, theorem_verdict, and raises the bundle of the
first unsound element, as require_consistent does for rows.
corner_rows_by_sets decides the rows of corner_verdicts without the
engine's first-hit search: from the unit-regular elements of R and of eRe
read as sets, with every sum a + b over fRf's candidates formed. It was the
library's own sweep before the search replaced it. payload_bytes gives the
canonical bytes of a document's payload, for comparing the payloads of two
runs. zmod_census gives the counts of a product of residue rings from the
moduli alone.
"""

import json

from ringlab import (
    FiniteRing,
    Idempotent,
    InconsistencyError,
    VerdictReport,
    corner_ring,
    theorem_verdict,
    unit_regular_set,
    zero_divisor_status,
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


def corner_rows_by_sets(ring: FiniteRing, idem: Idempotent) -> dict[int, tuple[bool, ...]]:
    """The rows of corner_verdicts, a -> seven values in CONDITION_LABELS
    order, from set algebra: 1 asks whether a is among the unit-regular
    elements of eRe, 2 whether a + f is among those of R. 3 and 4 ask
    whether R's set holds every sum a + b over the units and the
    unit-regular elements of fRf, 3' and 4' whether it holds one, and 5
    whether it holds a + b for some non zero divisor b of fRf."""
    ee = corner_ring(ring, idem)
    ur = frozenset(unit_regular_set(ring))
    corner_ur = frozenset(unit_regular_set(ee))
    ff, f, add = ee.complement_corner(), ee.idem.f, ring.add
    units, unit_regular = ff.units(), unit_regular_set(ff)
    non_zero_divisors = [b for b in ff.elements() if zero_divisor_status(ff, b).clear]
    rows = {}
    for a in ee.elements():
        by_units = [add(a, b) for b in units]
        by_unit_regular = [add(a, b) for b in unit_regular]
        rows[a] = (
            a in corner_ur,
            add(a, f) in ur,
            ur.issuperset(by_units),
            not ur.isdisjoint(by_units),
            ur.issuperset(by_unit_regular),
            not ur.isdisjoint(by_unit_regular),
            any(add(a, b) in ur for b in non_zero_divisors),
        )
    return rows


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
