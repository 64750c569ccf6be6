"""Corner unit-regularity conditions, their equivalence, and witness recovery.

Fix an idempotent e with complement f = 1 - e and take a in the corner eRe.
The engine evaluates seven conditions on a by exhaustive search:

  1   a is unit regular in eRe
  2   a + f is unit regular in R
  3   a + b is unit regular in R for every unit b of fRf
  3'  a + b is unit regular in R for some unit b of fRf
  4   a + b is unit regular in R for every unit regular b of fRf
  4'  a + b is unit regular in R for some unit regular b of fRf
  5   a + b is unit regular in R for some b in fRf that is neither a left
      nor a right zero divisor of fRf

Conditions 1 through 5 except 4' are expected to agree on every input; 4' is
strictly weaker (it follows from 1 by taking b = 0) and is evaluated and
recorded but never folded into the consistency verdict. The weaker one-way
facts, such as condition 4 forcing condition 3, are kept as an explicit
implication chain. Every condition reads the same per-ring memo of witness
searches, so a broken search would break them alike; tests/test_memo.py
catches that by comparing the memo with plain scans on the curated family.

Witness recovery goes the other way: from a unit-regularity equation for
a + b in R it rebuilds a corner witness u' = e(u - u*b*u)e, v' = e*v*e and
replays every identity of the derivation on the actual carrier, tagging the
subset that the hypotheses in force actually guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .corners import Idempotent, as_idempotent, complement, corner_ring, idempotents
from .regularity import (
    unit_regular_witness,
    unit_regular_set,
    is_unit_regular_ring,
    zero_divisor_status,
)
from .rings import FiniteRing, MatrixRing, DEFAULT_SIZE_CAP

CONDITION_LABELS = ("1", "2", "3", "3'", "4", "4'", "5")

# The labels that must agree pairwise; 4' is deliberately absent.
EQUIVALENCE_LABELS = ("1", "2", "3", "3'", "4", "5")

# One-way consequences that hold even before equivalence is established:
# 4 covers 3 because units of a corner are unit regular in it, 3 forces 2
# because f is a unit of fRf, an inhabited universal gives the existential,
# a unit of fRf is a two-sided non zero divisor of fRf, and 1 gives 4' by
# taking b = 0.
CHAIN_IMPLICATIONS = (
    ("4", "3"),
    ("3", "2"),
    ("2", "3'"),
    ("3'", "5"),
    ("1", "4'"),
)


class PreconditionError(ValueError):
    """A hypothesis of the statement under test fails for the given input."""

    def __init__(self, reason: str, message: str) -> None:
        super().__init__(message)
        self.reason = reason


class InconsistencyError(Exception):
    """Conditions that must agree did not; carries a reproduction bundle."""

    def __init__(self, bundle: dict) -> None:
        super().__init__(
            f"equivalence broken on {bundle.get('ring')} at e={bundle.get('e')}, "
            f"a={bundle.get('a')}: {bundle.get('conditions')}")
        self.bundle = bundle


# Conditions 3 through 5 sweep a + b over one subset of fRf, every or some:
# label -> (candidate b in ascending code order, universal?). The candidates
# are computed at call time through the module names, and those of 5 stay a
# generator, so each zero-divisor test runs only until a witness is found.
_SWEEPS = {
    "3": (lambda ff: ff.units(), True),
    "3'": (lambda ff: ff.units(), False),
    "4": (lambda ff: unit_regular_set(ff), True),
    "4'": (lambda ff: unit_regular_set(ff), False),
    "5": (lambda ff: (b for b in ff.elements() if zero_divisor_status(ff, b).clear),
          False),
}


def check_condition(ring: FiniteRing, idem: Idempotent, a: int,
                    label: str) -> tuple[bool, Optional[dict]]:
    """Evaluate one condition for a in eRe; returns (holds, witness).

    For a true existential the witness holds the chosen b and the middle
    unit; for a false universal it holds the first failing b. A true
    universal reports how many b were swept, a false existential reports
    nothing.
    """
    ee = corner_ring(ring, idem)
    ff = corner_ring(ring, complement(ring, idem))
    if not ee.contains(a):
        raise PreconditionError(
            "a_not_in_corner",
            f"{ring.element_repr(a)} is not in the corner at e={idem.e}")

    if label == "1":
        pair = unit_regular_witness(ee, a)
        return (pair is not None,
                {"u": pair[0], "u_inv": pair[1]} if pair else None)

    if label == "2":
        s = ring.add(a, idem.f)
        pair = unit_regular_witness(ring, s)
        return (pair is not None,
                {"sum": s, "u": pair[0], "u_inv": pair[1]} if pair else None)

    if label not in _SWEEPS:
        raise ValueError(f"unknown condition label {label!r}")
    candidates, universal = _SWEEPS[label]
    checked = 0
    for b in candidates(ff):
        pair = unit_regular_witness(ring, ring.add(a, b))
        if universal and pair is None:
            return (False, {"failing_b": b})
        if not universal and pair is not None:
            return (True, {"b": b, "u": pair[0], "u_inv": pair[1]})
        checked += 1
    return (True, {"checked": checked}) if universal else (False, None)


@dataclass
class VerdictReport:
    """All condition values for one corner element, plus agreement status."""

    ring: str
    e: int
    f: int
    a: int
    conditions: dict[str, bool]
    witnesses: dict[str, Optional[dict]] = field(repr=False)
    consistent: bool = True

    def to_dict(self) -> dict:
        return {
            "ring": self.ring,
            "e": self.e,
            "f": self.f,
            "a": self.a,
            "conditions": dict(self.conditions),
            "witnesses": dict(self.witnesses),
            "consistent": self.consistent,
            "implication_violations": [list(p) for p in implication_violations(self)],
        }


def theorem_verdict(ring: FiniteRing, idem: Idempotent, a: int) -> VerdictReport:
    conditions: dict[str, bool] = {}
    witnesses: dict[str, Optional[dict]] = {}
    for label in CONDITION_LABELS:
        holds, witness = check_condition(ring, idem, a, label)
        conditions[label] = holds
        witnesses[label] = witness
    agreed = {conditions[label] for label in EQUIVALENCE_LABELS}
    return VerdictReport(
        ring=ring.spec_string, e=idem.e, f=idem.f, a=a,
        conditions=conditions, witnesses=witnesses,
        consistent=len(agreed) == 1)


def implication_violations(report: VerdictReport) -> list[tuple[str, str]]:
    return [(p, q) for p, q in CHAIN_IMPLICATIONS
            if report.conditions[p] and not report.conditions[q]]


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
        if strict and (not report.consistent or implication_violations(report)):
            raise InconsistencyError(report.to_dict())
        reports.append(report)
    return reports


_WITNESS_CHECK_KEYS = (
    "a=aua", "b=bub", "bua=0", "aub=0", "be=0",
    "((1-bu)f)b=0", "(1-bu)f=0", "e(1-ub)=1-ub",
    "u'=eu'e", "v'=ev'e", "au'a=a", "u'v'=e", "v'u'=e",
)

# Identities that hold whenever the middle identity (a+b)u(a+b) = a+b does,
# independent of any invertibility or zero-divisor hypothesis on b and u.
_PEIRCE_KEYS = (
    "a=aua", "b=bub", "bua=0", "aub=0", "be=0",
    "((1-bu)f)b=0", "u'=eu'e", "v'=ev'e", "au'a=a",
)

_RIGHT_KEYS = _PEIRCE_KEYS + ("(1-bu)f=0", "u'v'=e")
_LEFT_KEYS = _PEIRCE_KEYS + ("e(1-ub)=1-ub", "v'u'=e")


@dataclass
class CornerWitness:
    """Recovered corner witness with every derivation identity replayed.

    checks records each identity as evaluated on the carrier; guaranteed
    names the subset the hypotheses in force promise. ok asks for all of
    them, guaranteed_ok only for the promised ones, so a one-sided recovery
    can be honest about what it did not establish.
    """

    u_prime: int
    v_prime: int
    checks: dict[str, bool]
    guaranteed: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    @property
    def guaranteed_ok(self) -> bool:
        return all(self.checks[k] for k in self.guaranteed)

    def to_dict(self) -> dict:
        return {
            "u_prime": self.u_prime,
            "v_prime": self.v_prime,
            "checks": dict(self.checks),
            "guaranteed": list(self.guaranteed),
            "ok": self.ok,
            "guaranteed_ok": self.guaranteed_ok,
        }


def _witness_inputs(ring: FiniteRing, idem: Idempotent, a: int, b: int, u: int,
                    v: Optional[int]):
    # codes first: a bad code is unusable input before any hypothesis fails
    ring.check_element(u)
    if v is not None:
        ring.check_element(v)
    ee = corner_ring(ring, idem)
    ff = corner_ring(ring, complement(ring, idem))
    if not ee.contains(a):
        raise PreconditionError(
            "a_not_in_corner",
            f"{ring.element_repr(a)} is not in the corner at e={idem.e}")
    if not ff.contains(b):
        raise PreconditionError(
            "b_not_in_complement_corner",
            f"{ring.element_repr(b)} is not in the corner at f={idem.f}")
    x = ring.add(a, b)
    if ring.mul3(x, u, x) != x:
        raise PreconditionError(
            "middle_identity_fails",
            f"(a+b)u(a+b) != a+b for a={a}, b={b}, u={u}")
    return ff, x


def _replay_checks(ring: FiniteRing, idem: Idempotent, a: int, b: int,
                   u: int, v: int) -> tuple[int, int, dict[str, bool]]:
    e, f = idem.e, idem.f
    one, zero = ring.one, ring.zero
    ubu = ring.mul3(u, b, u)
    u_prime = ring.mul3(e, ring.sub(u, ubu), e)
    v_prime = ring.mul3(e, v, e)
    one_minus_bu = ring.sub(one, ring.mul(b, u))
    one_minus_ub = ring.sub(one, ring.mul(u, b))
    t_bu_f = ring.mul(one_minus_bu, f)
    checks = {
        "a=aua": ring.mul3(a, u, a) == a,
        "b=bub": ring.mul3(b, u, b) == b,
        "bua=0": ring.mul3(b, u, a) == zero,
        "aub=0": ring.mul3(a, u, b) == zero,
        "be=0": ring.mul(b, e) == zero,
        "((1-bu)f)b=0": ring.mul(t_bu_f, b) == zero,
        "(1-bu)f=0": t_bu_f == zero,
        "e(1-ub)=1-ub": ring.mul(e, one_minus_ub) == one_minus_ub,
        "u'=eu'e": ring.mul3(e, u_prime, e) == u_prime,
        "v'=ev'e": ring.mul3(e, v_prime, e) == v_prime,
        "au'a=a": ring.mul3(a, u_prime, a) == a,
        "u'v'=e": ring.mul(u_prime, v_prime) == e,
        "v'u'=e": ring.mul(v_prime, u_prime) == e,
    }
    return u_prime, v_prime, checks


def extract_corner_witness(ring: FiniteRing, idem: Idempotent, a: int, b: int,
                           u: int, v: Optional[int] = None) -> CornerWitness:
    """Rebuild a unit-regularity witness for a inside eRe from one for a+b.

    Hypotheses enforced: a in eRe, b in fRf neither left nor right zero
    divisor there, and (a+b)u(a+b) = a+b. When v is omitted u must be a
    two-sided unit of R; when v is passed explicitly only the sandwich
    conditions (uv-1)e = 0 and e(vu-1) = 0 are required of the pair, which
    is all the reconstruction consumes.
    """
    ff, _ = _witness_inputs(ring, idem, a, b, u, v)
    status = zero_divisor_status(ff, b)
    if status.left:
        raise PreconditionError(
            "b_left_zero_divisor",
            f"b={b} is a left zero divisor of the corner at f={idem.f}")
    if status.right:
        raise PreconditionError(
            "b_right_zero_divisor",
            f"b={b} is a right zero divisor of the corner at f={idem.f}")
    if v is None:
        v = ring.inverse_of(u)
        if v is None:
            raise PreconditionError("u_not_invertible", f"u={u} is not a unit")
    else:
        e = idem.e
        uv_defect = ring.mul(ring.sub(ring.mul(u, v), ring.one), e)
        vu_defect = ring.mul(e, ring.sub(ring.mul(v, u), ring.one))
        if uv_defect != ring.zero:
            raise PreconditionError(
                "right_inverse_condition_fails", f"(uv-1)e != 0 for u={u}, v={v}")
        if vu_defect != ring.zero:
            raise PreconditionError(
                "left_inverse_condition_fails", f"e(vu-1) != 0 for u={u}, v={v}")
    u_prime, v_prime, checks = _replay_checks(ring, idem, a, b, u, v)
    return CornerWitness(u_prime=u_prime, v_prime=v_prime, checks=checks,
                         guaranteed=_WITNESS_CHECK_KEYS)


def extract_one_sided_corner_witness(ring: FiniteRing, idem: Idempotent,
                                     a: int, b: int, u: int, side: str,
                                     v: Optional[int] = None) -> CornerWitness:
    """One-sided variant of the reconstruction.

    side "right" assumes u has a right inverse and b is not a right zero
    divisor of fRf; it promises au'a = a and u'v' = e. side "left" is the
    mirror image. The unpromised identities are still evaluated so callers
    can see when they happen to hold anyway.
    """
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    ff, _ = _witness_inputs(ring, idem, a, b, u, v)
    status = zero_divisor_status(ff, b)
    if side == "right" and status.right:
        raise PreconditionError(
            "b_right_zero_divisor",
            f"b={b} is a right zero divisor of the corner at f={idem.f}")
    if side == "left" and status.left:
        raise PreconditionError(
            "b_left_zero_divisor",
            f"b={b} is a left zero divisor of the corner at f={idem.f}")
    if v is None:
        one = ring.one
        for cand in ring.elements():
            prod = ring.mul(u, cand) if side == "right" else ring.mul(cand, u)
            if prod == one:
                v = cand
                break
        if v is None:
            raise PreconditionError(
                "no_partner_on_side", f"u={u} has no {side} inverse")
    else:
        e = idem.e
        if side == "right":
            defect = ring.mul(ring.sub(ring.mul(u, v), ring.one), e)
            if defect != ring.zero:
                raise PreconditionError(
                    "right_inverse_condition_fails", f"(uv-1)e != 0 for u={u}, v={v}")
        else:
            defect = ring.mul(e, ring.sub(ring.mul(v, u), ring.one))
            if defect != ring.zero:
                raise PreconditionError(
                    "left_inverse_condition_fails", f"e(vu-1) != 0 for u={u}, v={v}")
    u_prime, v_prime, checks = _replay_checks(ring, idem, a, b, u, v)
    guaranteed = _RIGHT_KEYS if side == "right" else _LEFT_KEYS
    return CornerWitness(u_prime=u_prime, v_prime=v_prime, checks=checks,
                         guaranteed=guaranteed)


@dataclass
class CornerInheritance:
    """Per-idempotent summary of how unit regularity passes to the corner."""

    e: int
    f: int
    corner_size: int
    inclusion_ok: bool
    corner_unit_regular: bool
    constructive_ok: Optional[bool]

    def to_dict(self) -> dict:
        return {
            "e": self.e,
            "f": self.f,
            "corner_size": self.corner_size,
            "inclusion_ok": self.inclusion_ok,
            "corner_unit_regular": self.corner_unit_regular,
            "constructive_ok": self.constructive_ok,
        }


@dataclass
class InheritanceReport:
    """Corner-by-corner unit-regularity inheritance for one ring.

    inclusion_ok per corner states that every element unit regular in eRe is
    unit regular in the ambient ring, which holds with no hypothesis on the
    ring. When the ambient ring is unit regular, constructive_ok replays the
    recovery with b = f on every corner element, so the corollary that
    corners of unit regular rings stay unit regular is witnessed rather than
    inferred; otherwise it is None.
    """

    ring: str
    ambient_unit_regular: bool
    corners: list[CornerInheritance]

    @property
    def ok(self) -> bool:
        for c in self.corners:
            if not c.inclusion_ok:
                return False
            if c.constructive_ok is False:
                return False
            if self.ambient_unit_regular and not c.corner_unit_regular:
                return False
        return True

    def to_dict(self) -> dict:
        return {
            "ring": self.ring,
            "ambient_unit_regular": self.ambient_unit_regular,
            "corners": [c.to_dict() for c in self.corners],
            "ok": self.ok,
        }


def verify_ur_inheritance(ring: FiniteRing) -> InheritanceReport:
    ambient_ur = is_unit_regular_ring(ring)
    ambient_set = set(unit_regular_set(ring))
    corners = []
    for idem in idempotents(ring):
        ee = corner_ring(ring, idem)
        corner_set = unit_regular_set(ee)
        inclusion_ok = all(x in ambient_set for x in corner_set)
        corner_ur = len(corner_set) == ee.size
        constructive: Optional[bool] = None
        if ambient_ur:
            constructive = True
            for a in ee.elements():
                pair = unit_regular_witness(ring, ring.add(a, idem.f))
                if pair is None:
                    constructive = False
                    break
                witness = extract_corner_witness(ring, idem, a, idem.f,
                                                 pair[0], pair[1])
                if not witness.ok:
                    constructive = False
                    break
        corners.append(CornerInheritance(
            e=idem.e, f=idem.f, corner_size=ee.size,
            inclusion_ok=inclusion_ok, corner_unit_regular=corner_ur,
            constructive_ok=constructive))
    return InheritanceReport(ring=ring.spec_string,
                             ambient_unit_regular=ambient_ur, corners=corners)


def _mat2_mul(base, x, y):
    add, mul = base.add, base.mul
    return (
        add(mul(x[0], y[0]), mul(x[1], y[2])),
        add(mul(x[0], y[1]), mul(x[1], y[3])),
        add(mul(x[2], y[0]), mul(x[3], y[2])),
        add(mul(x[2], y[1]), mul(x[3], y[3])),
    )


@dataclass
class M2ScaffoldReport:
    """The 2x2 construction that puts a regular base element into a corner.

    From s with s*t*s = s it forms a = [[s,0],[0,0]], u = [[t,1],[1,0]] and
    v = [[0,1],[1,-t]] over the base; then u*v = v*u = 1 and a*u*a = a hold
    identically, so a is unit regular in the matrix ring no matter what s
    was. Whether a is unit regular in the corner e11*M*e11, equivalently
    whether s is unit regular in the base, is a separate question: decidable
    here only for finite bases, and the split between the two answers is the
    whole reason the corner conditions need the complement summand.
    """

    base: str
    s: int
    t: int
    identities: dict[str, bool]
    ambient_witnessed: bool
    decidable: bool
    corner_unit_regular: Optional[bool]
    base_unit_regular: Optional[bool]
    corner_matches_base: Optional[bool]
    note: str

    def to_dict(self) -> dict:
        return {
            "base": self.base,
            "s": self.s if isinstance(self.s, int) else str(self.s),
            "t": self.t if isinstance(self.t, int) else str(self.t),
            "identities": dict(self.identities),
            "ambient_witnessed": self.ambient_witnessed,
            "decidable": self.decidable,
            "corner_unit_regular": self.corner_unit_regular,
            "base_unit_regular": self.base_unit_regular,
            "corner_matches_base": self.corner_matches_base,
            "note": self.note,
        }


def build_m2_scaffold(base, s, t, size_cap: int = DEFAULT_SIZE_CAP) -> M2ScaffoldReport:
    """Run the 2x2 scaffold over any ring exposing zero/one, add/mul/neg.

    Raises ValueError unless s*t*s = s, which is the scaffold's only input
    hypothesis. For a finite base the corner question is settled by search
    inside an actual 2x2 matrix ring and cross-checked against the base.
    """
    zero, one = base.zero, base.one
    if base.mul(base.mul(s, t), s) != s:
        raise ValueError("scaffold needs s*t*s = s in the base ring")
    a = (s, zero, zero, zero)
    u = (t, one, one, zero)
    v = (zero, one, one, base.neg(t))
    ident = (one, zero, zero, one)
    aua = _mat2_mul(base, _mat2_mul(base, a, u), a)
    identities = {
        "sts=s": True,
        "aua=a": aua == a,
        "uv=1": _mat2_mul(base, u, v) == ident,
        "vu=1": _mat2_mul(base, v, u) == ident,
    }
    ambient_witnessed = all(identities.values())

    if isinstance(base, FiniteRing):
        m2 = MatrixRing(2, base, size_cap=size_cap)
        e_code = m2.encode(((one, zero), (zero, zero)))
        a_code = m2.encode(((s, zero), (zero, zero)))
        idem = as_idempotent(m2, e_code)
        corner = corner_ring(m2, idem)
        corner_ur = unit_regular_witness(corner, a_code) is not None
        base_ur = unit_regular_witness(base, s) is not None
        return M2ScaffoldReport(
            base=base.spec_string, s=s, t=t, identities=identities,
            ambient_witnessed=ambient_witnessed, decidable=True,
            corner_unit_regular=corner_ur, base_unit_regular=base_ur,
            corner_matches_base=corner_ur == base_ur,
            note="finite base: corner status decided by exhaustive search")
    return M2ScaffoldReport(
        base=getattr(base, "spec_string", "ring"), s=s, t=t,
        identities=identities, ambient_witnessed=ambient_witnessed,
        decidable=False, corner_unit_regular=None, base_unit_regular=None,
        corner_matches_base=None,
        note="base is not a finite carrier; corner status is out of reach "
             "of exhaustive search here")
