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

Conditions 1 through 5 except 4' are expected to agree on every input. 4'
follows from 1 by taking b = 0, and on a finite ring the converse holds
too: if a + b is unit regular in R for some b of fRf, then a is regular in
eRe, and a finite eRe has stable range 1. 4' can be strictly weaker only
over an infinite carrier, such as the band ring of the shift demo, so it is
evaluated and recorded but never folded into the consistency verdict. The
weaker one-way facts, such as condition 4 forcing condition 3, are kept as
an explicit implication chain. Every condition reads the same per-ring
memo of witness searches, so a broken search would break them alike;
tests/test_memo.py catches that by comparing the memo with plain scans on
the curated family. What the conditions at one idempotent share, the
corner fRf that eRe holds and the candidates b of each sweep, is built once
per ring and idempotent (_Sweeps) and kept, with the rows of
corner_verdicts, on the memo of the corner eRe: the one memo of an
idempotent, whose constructor checked its pair (e, f) once.

The engine comes in two forms that give the same values. verify-theorem and
family read corner_verdicts, which decides all seven conditions for every a
of a corner at once from the unit-regular elements of R and of eRe read as
sets, forms each sum a + b once with add, and keeps the rows on eRe;
require_consistent is its strict check, and decides one element per
corner again through theorem_verdict. theorem_verdict and check_condition
are the per-element API: they also return a witness for each condition,
read each sum's witness unit off R's map of unit-regular witnesses
(regularity.unit_regular_witnesses, one pass over R, built with the
_Sweeps) and its inverse off R's units(), and are the tests' oracle of the
sweep.

Witness recovery goes the other way: from a unit-regularity equation for
a + b in R it rebuilds a corner witness u' = e(u - u*b*u)e, v' = e*v*e and
replays every identity of the derivation on the actual carrier, tagging the
subset that the hypotheses in force actually guarantee. The two-sided
recovery and its one-sided variant are one path, _extract, told which sides
of u's inverse are in force: each hypothesis is checked once, in one order,
and a failed one raises PreconditionError naming it. It reads fRf off the
memoised corner eRe, so a pair is checked once per ring and e, not once
per recovery. A partner v that the caller leaves out comes from
resolve_partner: the ring's inverse_of for both sides, else the first
one-sided inverse of a scan of every element (regularity.one_sided_partner,
which the one-sided search runs too).
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Optional

from .corners import CornerRing, Idempotent, as_idempotent, corner_ring, idempotents
from .regularity import (
    one_sided_partner,
    unit_regular_witness,
    unit_regular_witnesses,
    unit_regular_set,
    is_unit_regular_ring,
    zero_divisor_status,
)
from .rings import FiniteRing, MatrixRing, DEFAULT_SIZE_CAP, _Record

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


class _Sweeps:
    """What the conditions read at one idempotent e: the corner eRe, the
    corner fRf that eRe holds, the map of unit-regular witnesses of R and
    R's units, which give each witness's inverse, and the candidates b of
    the sweeps of conditions 3 through 5: the units of fRf for 3 and 3', its
    unit-regular elements for 4 and 4', and its non zero divisors for 5.
    Built once per ring and idempotent, on the memo of the corner ee
    (_sweeps)."""

    def __init__(self, ring: FiniteRing, ee: CornerRing) -> None:
        self.ee, self.idem = ee, ee.idem
        ff = ee.complement_corner()
        self.witnesses = unit_regular_witnesses(ring)
        self.inverse = ring.units()
        units = tuple(ff.units())
        unit_regular = unit_regular_set(ff)
        self._fixed = {"3": units, "3'": units, "4": unit_regular, "4'": unit_regular}
        self._clear: list[int] = []
        self._unread = (b for b in ff.elements() if zero_divisor_status(ff, b).clear)

    def candidates(self, label: str) -> Iterable[int]:
        return self._non_zero_divisors() if label == "5" else self._fixed[label]

    def _non_zero_divisors(self) -> Iterator[int]:
        clear = self._clear
        yield from clear
        # a for loop, not yield from: closing a sweep that stopped early
        # must leave _unread open for the next one
        for b in self._unread:
            clear.append(b)
            yield b


# Conditions 3 through 5 sweep a + b over the candidates b that _Sweeps
# holds for the label, in ascending code order; the value says whether every
# b must work (universal) or some b (existential). The non zero divisors of
# 5 come from a list grown only as far as a sweep has read, so each
# zero-divisor test runs once, and only until a witness is found.
_SWEEPS = {"3": True, "3'": False, "4": True, "4'": False, "5": False}


def _sweeps(ring: FiniteRing, idem: Idempotent) -> _Sweeps:
    """The _Sweeps of idem, kept on the memo of its corner eRe, whose
    constructor refuses a pair whose f is not 1 - e."""
    ee = corner_ring(ring, idem)
    return ee.cached("sweeps", lambda: _Sweeps(ring, ee))


def check_condition(ring: FiniteRing, idem: Idempotent, a: int,
                    label: str) -> tuple[bool, Optional[dict]]:
    """Evaluate one condition for a in eRe; returns (holds, witness).

    For a true existential the witness holds the chosen b and the middle
    unit; for a false universal it holds the first failing b. A true
    universal reports how many b were swept, a false existential reports
    nothing.
    """
    sweeps = _sweeps(ring, idem)
    if not sweeps.ee.contains(a):
        raise PreconditionError(
            "a_not_in_corner",
            f"{ring.element_repr(a)} is not in the corner at e={idem.e}")

    if label == "1":
        pair = unit_regular_witness(sweeps.ee, a)
        return (pair is not None,
                {"u": pair[0], "u_inv": pair[1]} if pair else None)

    found, inverse = sweeps.witnesses, sweeps.inverse
    if label == "2":
        s = ring.add(a, idem.f)
        u = found[s]
        return (u is not None,
                None if u is None else {"sum": s, "u": u, "u_inv": inverse[u]})

    if label not in _SWEEPS:
        raise ValueError(f"unknown condition label {label!r}")
    universal, add = _SWEEPS[label], ring.add
    checked = 0
    for b in sweeps.candidates(label):
        u = found[add(a, b)]
        if universal and u is None:
            return (False, {"failing_b": b})
        if not universal and u is not None:
            return (True, {"b": b, "u": u, "u_inv": inverse[u]})
        checked += 1
    return (True, {"checked": checked}) if universal else (False, None)


def corner_verdicts(ring: FiniteRing,
                    idem: Idempotent) -> dict[int, tuple[bool, ...]]:
    """Every condition on every a of eRe: a -> the seven values in
    CONDITION_LABELS order, a ascending; built once per ring and idempotent
    and kept on the memo of the corner eRe, so treat the dict as read-only.

    Row a holds check_condition(ring, idem, a, label)[0] for each label,
    with the searches read as sets: 1 asks whether a is among the
    unit-regular elements of eRe, 2 whether a + f is among those of R. 3
    and 4 ask whether R's set holds every sum a + b over their candidates
    b, each formed once per a by add; 3' and 4' ask whether it holds
    one. 5 scans the non zero divisors of fRf lazily, as check_condition
    does, up to the first b with a + b in R's set.
    """
    sweeps = _sweeps(ring, idem)
    return sweeps.ee.cached("verdicts", lambda: _corner_rows(ring, sweeps))


def _corner_rows(ring: FiniteRing, sweeps: _Sweeps) -> dict[int, tuple[bool, ...]]:
    ur = frozenset(unit_regular_set(ring))
    corner_ur = frozenset(unit_regular_set(sweeps.ee))
    f, add = sweeps.idem.f, ring.add
    units, unit_regular = sweeps.candidates("3"), sweeps.candidates("4")
    rows = {}
    for a in sweeps.ee.elements():
        by_units = [add(a, b) for b in units]
        by_unit_regular = [add(a, b) for b in unit_regular]
        rows[a] = (
            a in corner_ur,
            add(a, f) in ur,
            ur.issuperset(by_units),
            not ur.isdisjoint(by_units),
            ur.issuperset(by_unit_regular),
            not ur.isdisjoint(by_unit_regular),
            any(add(a, b) in ur for b in sweeps.candidates("5")),
        )
    return rows


class VerdictReport(_Record):
    """All condition values for one corner element, plus agreement status."""

    __slots__ = ("ring", "e", "f", "a", "conditions", "witnesses", "consistent")

    def __init__(self, ring: str, e: int, f: int, a: int, conditions: dict[str, bool],
                 witnesses: dict[str, Optional[dict]], consistent: bool = True) -> None:
        self.ring = ring
        self.e = e
        self.f = f
        self.a = a
        self.conditions = conditions
        self.witnesses = witnesses
        self.consistent = consistent

    def to_dict(self) -> dict:
        violations = [list(p) for p in implication_violations(self)]
        return {**super().to_dict(), "implication_violations": violations}


def theorem_verdict(ring: FiniteRing, idem: Idempotent, a: int) -> VerdictReport:
    conditions: dict[str, bool] = {}
    witnesses: dict[str, Optional[dict]] = {}
    for label in CONDITION_LABELS:
        holds, witness = check_condition(ring, idem, a, label)
        conditions[label] = holds
        witnesses[label] = witness
    return _verdict(ring, idem, a, conditions, witnesses)


def _verdict(ring: FiniteRing, idem: Idempotent, a: int, conditions: dict[str, bool],
             witnesses: dict[str, Optional[dict]]) -> VerdictReport:
    agreed = {conditions[label] for label in EQUIVALENCE_LABELS}
    return VerdictReport(
        ring=ring.spec_string, e=idem.e, f=idem.f, a=a,
        conditions=conditions, witnesses=witnesses,
        consistent=len(agreed) == 1)


def implication_violations(report: VerdictReport) -> list[tuple[str, str]]:
    return _violations(report.conditions)


def _violations(conditions: dict[str, bool]) -> list[tuple[str, str]]:
    return [(p, q) for p, q in CHAIN_IMPLICATIONS if conditions[p] and not conditions[q]]


def _sound(conditions: dict[str, bool]) -> bool:
    """The strict check: the equivalent conditions agree, no implication fails."""
    return (len({conditions[label] for label in EQUIVALENCE_LABELS}) == 1
            and not _violations(conditions))


# Every row of seven values that passes the strict check.
_SOUND_ROWS = frozenset(
    row for row in product((False, True), repeat=len(CONDITION_LABELS))
    if _sound(dict(zip(CONDITION_LABELS, row))))


def require_consistent(ring: FiniteRing, idem: Idempotent,
                       rows: dict[int, tuple[bool, ...]]) -> None:
    """The strict check on rows of corner_verdicts, and a cross-check of
    the sweep against the per-element engine.

    The first row whose equivalent conditions disagree, or whose one-way
    implications fail, raises InconsistencyError with the bundle of that
    element: the row's conditions, and check_condition's witnesses. Then
    theorem_verdict decides the corner's last element again; a row that
    differs from it is a fault of the sweep, not of the theorem, and raises
    RuntimeError.
    """
    bad = next(((a, row) for a, row in rows.items() if row not in _SOUND_ROWS), None)
    if bad is not None:
        a, row = bad
        witnesses = {label: check_condition(ring, idem, a, label)[1]
                     for label in CONDITION_LABELS}
        conditions = dict(zip(CONDITION_LABELS, row))
        raise InconsistencyError(_verdict(ring, idem, a, conditions, witnesses).to_dict())
    a = next(reversed(rows))
    decided = theorem_verdict(ring, idem, a).conditions
    if rows[a] != tuple(decided[label] for label in CONDITION_LABELS):
        raise RuntimeError(f"corner sweep and theorem_verdict disagree on "
                           f"{ring.spec_string} at e={idem.e}, a={a}: "
                           f"{rows[a]} against {decided}")


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

# What a recovery promises, by the sides of u's inverse in force.
_GUARANTEED = {("left", "right"): _WITNESS_CHECK_KEYS,
               ("right",): _RIGHT_KEYS, ("left",): _LEFT_KEYS}


class CornerWitness(_Record):
    """Recovered corner witness with every derivation identity replayed.

    checks records each identity as evaluated on the carrier; guaranteed
    names the subset the hypotheses in force promise. ok asks for all of
    them, guaranteed_ok only for the promised ones, so a one-sided recovery
    can be honest about what it did not establish.
    """

    __slots__ = ("u_prime", "v_prime", "checks", "guaranteed")
    _derived = ("ok", "guaranteed_ok")

    def __init__(self, u_prime: int, v_prime: int, checks: dict[str, bool],
                 guaranteed: tuple[str, ...]) -> None:
        self.u_prime = u_prime
        self.v_prime = v_prime
        self.checks = checks
        self.guaranteed = guaranteed

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    @property
    def guaranteed_ok(self) -> bool:
        return all(self.checks[k] for k in self.guaranteed)


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


def resolve_partner(ring: FiniteRing, u: int, sides: tuple[str, ...]) -> int:
    """u's inverse on the sides in force: the two-sided inverse for
    ("left", "right"), else the first one-sided partner in code order."""
    if len(sides) == 2:
        v = ring.inverse_of(u)
        if v is None:
            raise PreconditionError("u_not_invertible", f"u={u} is not a unit")
        return v
    v = one_sided_partner(ring, u, sides[0])
    if v is None:
        raise PreconditionError("no_partner_on_side", f"u={u} has no {sides[0]} inverse")
    return v


def _extract(ring: FiniteRing, idem: Idempotent, a: int, b: int, u: int,
             v: Optional[int], sides: tuple[str, ...]) -> CornerWitness:
    """The recovery with u's inverse in force on sides: ("left", "right") or
    one side. The checks run in one order: the codes of u and v, a in eRe,
    b in fRf, the middle identity, b's zero divisors on each side (left
    first), and then u's partner when v is None, or else the sandwich
    condition of each side (right first)."""
    # codes first: a bad code is unusable input before any hypothesis fails
    ring.check_element(u)
    if v is not None:
        ring.check_element(v)
    # a is in eRe exactly when eae = a; fRf itself is needed for b's zero divisors
    e, f = idem.e, idem.f
    ff = corner_ring(ring, idem).complement_corner()
    if not ring.contains(a) or ring.mul3(e, a, e) != a:
        raise PreconditionError(
            "a_not_in_corner", f"{ring.element_repr(a)} is not in the corner at e={e}")
    if not ff.contains(b):
        raise PreconditionError(
            "b_not_in_complement_corner",
            f"{ring.element_repr(b)} is not in the corner at f={f}")
    x = ring.add(a, b)
    if ring.mul3(x, u, x) != x:
        raise PreconditionError(
            "middle_identity_fails", f"(a+b)u(a+b) != a+b for a={a}, b={b}, u={u}")
    status = zero_divisor_status(ff, b)
    for side in sides:
        if getattr(status, side):
            raise PreconditionError(
                f"b_{side}_zero_divisor",
                f"b={b} is a {side} zero divisor of the corner at f={f}")
    if v is None:
        v = resolve_partner(ring, u, sides)
    else:
        for side in reversed(sides):
            if side == "right":
                defect, name = ring.mul(ring.sub(ring.mul(u, v), ring.one), e), "(uv-1)e"
            else:
                defect, name = ring.mul(e, ring.sub(ring.mul(v, u), ring.one)), "e(vu-1)"
            if defect != ring.zero:
                raise PreconditionError(
                    f"{side}_inverse_condition_fails", f"{name} != 0 for u={u}, v={v}")
    u_prime, v_prime, checks = _replay_checks(ring, idem, a, b, u, v)
    return CornerWitness(u_prime=u_prime, v_prime=v_prime, checks=checks,
                         guaranteed=_GUARANTEED[sides])


def extract_corner_witness(ring: FiniteRing, idem: Idempotent, a: int, b: int,
                           u: int, v: Optional[int] = None) -> CornerWitness:
    """Rebuild a unit-regularity witness for a inside eRe from one for a+b.

    Hypotheses enforced: a in eRe, b in fRf neither left nor right zero
    divisor there, and (a+b)u(a+b) = a+b. When v is omitted u must be a
    two-sided unit of R; when v is passed explicitly only the sandwich
    conditions (uv-1)e = 0 and e(vu-1) = 0 are required of the pair, which
    is all the reconstruction consumes.
    """
    return _extract(ring, idem, a, b, u, v, ("left", "right"))


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
    return _extract(ring, idem, a, b, u, v, (side,))


class CornerInheritance(_Record):
    """Per-idempotent summary of how unit regularity passes to the corner."""

    __slots__ = ("e", "f", "corner_size", "inclusion_ok", "corner_unit_regular",
                 "constructive_ok")

    def __init__(self, e: int, f: int, corner_size: int, inclusion_ok: bool,
                 corner_unit_regular: bool, constructive_ok: Optional[bool]) -> None:
        self.e = e
        self.f = f
        self.corner_size = corner_size
        self.inclusion_ok = inclusion_ok
        self.corner_unit_regular = corner_unit_regular
        self.constructive_ok = constructive_ok


class InheritanceReport(_Record):
    """Corner-by-corner unit-regularity inheritance for one ring.

    inclusion_ok per corner states that every element unit regular in eRe is
    unit regular in the ambient ring, which holds with no hypothesis on the
    ring. When the ambient ring is unit regular, constructive_ok replays the
    recovery with b = f on every corner element, so the corollary that
    corners of unit regular rings stay unit regular is witnessed rather than
    inferred; otherwise it is None.
    """

    __slots__ = ("ring", "ambient_unit_regular", "corners")
    _derived = ("ok",)

    def __init__(self, ring: str, ambient_unit_regular: bool,
                 corners: list[CornerInheritance]) -> None:
        self.ring = ring
        self.ambient_unit_regular = ambient_unit_regular
        self.corners = corners

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


def verify_ur_inheritance(ring: FiniteRing) -> InheritanceReport:
    """The inheritance report of every corner of ring, memoised on it."""
    return ring.cached("inheritance", lambda: _inheritance_report(ring))


def _inheritance_report(ring: FiniteRing) -> InheritanceReport:
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
            # every a + f has a witness: R is unit regular
            found, inverse, f = unit_regular_witnesses(ring), ring.units(), idem.f
            constructive = all(
                extract_corner_witness(ring, idem, a, f, u := found[ring.add(a, f)],
                                       inverse[u]).ok
                for a in ee.elements())
        corners.append(CornerInheritance(
            e=idem.e, f=idem.f, corner_size=ee.size,
            inclusion_ok=inclusion_ok, corner_unit_regular=corner_ur,
            constructive_ok=constructive))
    return InheritanceReport(ring=ring.spec_string,
                             ambient_unit_regular=ambient_ur, corners=corners)


class Mat2:
    """2x2 matrices over any base with zero, one, add, mul and neg, as
    row-major 4-tuples of base elements.

    encode, one, zero, add, sub, mul and mul3 read as they do on
    MatrixRing(2, base), so the scaffold runs on either, and the recovery
    replay (_replay_checks) runs on 2x2 matrices over an infinite base such
    as the shift demo's band ring, where no finite search reaches.
    """

    def __init__(self, base) -> None:
        self.base, zero, one = base, base.zero, base.one
        self.zero, self.one = (zero, zero, zero, zero), (one, zero, zero, one)

    def encode(self, rows) -> tuple:
        return (*rows[0], *rows[1])

    def add(self, x: tuple, y: tuple) -> tuple:
        return tuple(map(self.base.add, x, y))

    def sub(self, x: tuple, y: tuple) -> tuple:
        return self.add(x, tuple(map(self.base.neg, y)))

    def mul(self, x: tuple, y: tuple) -> tuple:
        add, mul = self.base.add, self.base.mul
        return (add(mul(x[0], y[0]), mul(x[1], y[2])), add(mul(x[0], y[1]), mul(x[1], y[3])),
                add(mul(x[2], y[0]), mul(x[3], y[2])), add(mul(x[2], y[1]), mul(x[3], y[3])))

    def mul3(self, x: tuple, y: tuple, z: tuple) -> tuple:
        return self.mul(self.mul(x, y), z)


class M2ScaffoldReport(_Record):
    """The 2x2 construction that puts a regular base element into a corner.

    From s with s*t*s = s it forms a = [[s,0],[0,0]], u = [[t,1],[1,0]] and
    v = [[0,1],[1,-t]] over the base; then u*v = v*u = 1 and a*u*a = a hold
    identically, so a is unit regular in the matrix ring no matter what s
    was. Whether a is unit regular in the corner e11*M*e11, equivalently
    whether s is unit regular in the base, is a separate question: decidable
    here only for finite bases, and the split between the two answers is the
    whole reason the corner conditions need the complement summand.
    """

    __slots__ = ("base", "s", "t", "identities", "ambient_witnessed", "decidable",
                 "corner_unit_regular", "base_unit_regular", "corner_matches_base", "note")

    def __init__(self, base: str, s: int, t: int, identities: dict[str, bool],
                 ambient_witnessed: bool, decidable: bool,
                 corner_unit_regular: Optional[bool], base_unit_regular: Optional[bool],
                 corner_matches_base: Optional[bool], note: str) -> None:
        self.base = base
        self.s = s
        self.t = t
        self.identities = identities
        self.ambient_witnessed = ambient_witnessed
        self.decidable = decidable
        self.corner_unit_regular = corner_unit_regular
        self.base_unit_regular = base_unit_regular
        self.corner_matches_base = corner_matches_base
        self.note = note

    def to_dict(self) -> dict:
        s, t = (x if isinstance(x, int) else str(x) for x in (self.s, self.t))
        return {**super().to_dict(), "s": s, "t": t}


def build_m2_scaffold(base, s, t, size_cap: int = DEFAULT_SIZE_CAP) -> M2ScaffoldReport:
    """Run the 2x2 scaffold over any ring exposing zero/one, add/mul/neg.

    Raises ValueError unless s*t*s = s, which is the scaffold's only input
    hypothesis, or when s or t is not an element code of a finite base. The
    matrices live in MatrixRing(2, base) for a finite base and in Mat2(base)
    otherwise, and the identities are read off that ring. For a finite base
    the corner question is then settled by search inside it and
    cross-checked against the base.
    """
    finite = isinstance(base, FiniteRing)
    if finite:
        base.check_element(s)
        base.check_element(t)
    if base.mul(base.mul(s, t), s) != s:
        raise ValueError("scaffold needs s*t*s = s in the base ring")
    m2 = MatrixRing(2, base, size_cap=size_cap) if finite else Mat2(base)
    zero, one = base.zero, base.one
    a = m2.encode(((s, zero), (zero, zero)))
    u = m2.encode(((t, one), (one, zero)))
    v = m2.encode(((zero, one), (one, base.neg(t))))
    identities = {
        "sts=s": True,
        "aua=a": m2.mul3(a, u, a) == a,
        "uv=1": m2.mul(u, v) == m2.one,
        "vu=1": m2.mul(v, u) == m2.one,
    }
    corner_ur = base_ur = None
    if finite:
        idem = as_idempotent(m2, m2.encode(((one, zero), (zero, zero))))
        corner_ur = unit_regular_witness(corner_ring(m2, idem), a) is not None
        base_ur = unit_regular_witness(base, s) is not None
    return M2ScaffoldReport(
        base=getattr(base, "spec_string", "ring"), s=s, t=t, identities=identities,
        ambient_witnessed=all(identities.values()), decidable=finite,
        corner_unit_regular=corner_ur, base_unit_regular=base_ur,
        corner_matches_base=corner_ur == base_ur if finite else None,
        note="finite base: corner status decided by exhaustive search" if finite
        else "base is not a finite carrier; corner status is out of reach "
             "of exhaustive search here")
