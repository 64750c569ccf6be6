"""Regularity classification on finite carriers by exhaustive search.

An element a is regular when a = a*t*a for some t, and unit regular when some
such middle term is a unit. Each search runs once per element and ring: its
result is memoised on the ring instance, and the sets are read off the
per-element results. The unit-regular search runs for the whole carrier in
one pass (unit_regular_witnesses), one call of the ring's middle_terms
kernel over its units, and keeps each element's first unit middle term in
ascending code order, or None; unit_regular_witness and unit_regular_set
read that map, and the unit's inverse is read from units(). The other
searches run per element, each one call of a product kernel of the ring
(find_sandwich and its kin). Every kernel stops at the first hit in
ascending code order; how it reads products is the ring's business.

The one-sided variants ask for a middle term with a one-sided inverse. On a
finite carrier they coincide with the two-sided notion: if uv = 1 then
x -> vx is injective, hence onto, so vw = 1 for some w, and u = u(vw) =
(uv)w = w. The search is kept only so the tests can observe that collapse;
classify does not run it.

Bare regularity collapses the same way: on a finite ring a regular element
is unit regular (see classify), so classify never runs regular_witness.
That search and regular_set, which runs it, stay public: they are exact on
any table, and the tests run them as the oracle of the claim.
"""

from __future__ import annotations

import enum
from typing import Optional

from .rings import FiniteRing, _Value, _set


class RegularityKind(enum.Enum):
    NOT_REGULAR = "not_regular"
    REGULAR = "regular"
    RIGHT_UNIT_REGULAR = "right_unit_regular"
    LEFT_UNIT_REGULAR = "left_unit_regular"
    UNIT_REGULAR = "unit_regular"


class RegularityWitness(_Value):
    """Classification of one element with the middle term that proves it.

    t is a regularity middle term (a = a*t*a) when one exists. For the unit
    kinds u is a middle term that is a unit (or one-sided unit) and u_partner
    is its (one-sided) inverse.
    """

    __slots__ = ("kind", "t", "u", "u_partner")

    def __init__(self, kind: RegularityKind, t: Optional[int] = None,
                 u: Optional[int] = None, u_partner: Optional[int] = None) -> None:
        _set(self, "kind", kind)
        _set(self, "t", t)
        _set(self, "u", u)
        _set(self, "u_partner", u_partner)


class ZeroDivisorStatus(_Value):
    """Whether b kills some nonzero element on the left or on the right."""

    __slots__ = ("left", "right")

    def __init__(self, left: bool, right: bool) -> None:
        _set(self, "left", left)
        _set(self, "right", right)

    @property
    def clear(self) -> bool:
        return not self.left and not self.right


def regular_witness(ring: FiniteRing, a: int) -> Optional[int]:
    """First t with a = a*t*a in ascending code order, or None; memoised."""
    ring.check_element(a)
    found = ring.cached("regular_witness", dict)
    if a not in found:
        found[a] = ring.find_sandwich(a, ring.elements(), a, a)
    return found[a]


def unit_regular_witness(ring: FiniteRing, a: int) -> Optional[tuple[int, int]]:
    """First unit middle term (u, u_inverse) with a = a*u*a, or None.

    A lookup in unit_regular_witnesses, so the first call on a ring runs the
    search for every element of it, on an untabled carrier too; u's inverse
    comes from units().
    """
    ring.check_element(a)
    u = unit_regular_witnesses(ring)[a]
    return None if u is None else (u, ring.units()[u])


def unit_regular_witnesses(ring: FiniteRing) -> dict[int, Optional[int]]:
    """Every element a mapped to its first unit u, in ascending code order,
    with a = a*u*a, or None: the ring's middle_terms over its units(),
    memoised, or the ambient ring's map for a corner with its carrier and
    units (at e = 1), which middle_terms would rebuild from the same rows or
    mul. units() runs first, so a carrier that fills its tables has filled
    them before the kernel looks for rows. Treat the dict as read-only."""
    whole = getattr(ring, "ambient", None)
    return ring.cached("unit_regular_witness", lambda: unit_regular_witnesses(whole)
                       if whole and ring.size == whole.size
                       and ring.units().keys() == whole.units().keys()
                       else ring.middle_terms(ring.units()))


def one_sided_unit_regular_witness(ring: FiniteRing, a: int,
                                   side: str) -> Optional[tuple[int, int]]:
    """First middle term with an inverse on the given side.

    side "right" asks for u with a = a*u*a and u*v = 1 for some v; side
    "left" asks for v*u = 1. The search runs over all elements, not just the
    cached two-sided units, so it cannot silently inherit the pigeonhole
    collapse it is meant to witness.
    """
    ring.check_element(a)
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    for u in ring.elements():
        if ring.mul3(a, u, a) == a:
            v = one_sided_partner(ring, u, side)
            if v is not None:
                return (u, v)
    return None


def one_sided_partner(ring: FiniteRing, u: int, side: str) -> Optional[int]:
    """First v in ascending code order with u*v = 1 (side "right") or
    v*u = 1 (side "left"), or None; a scan of every element."""
    if side == "right":
        return ring.find_left(u, ring.elements(), ring.one)
    return ring.find_right(ring.elements(), u, ring.one)


def zero_divisor_status(ring: FiniteRing, b: int) -> ZeroDivisorStatus:
    """Left: b*c = 0 for some nonzero c. Right: c*b = 0 for some nonzero c.

    Memoised per element on the ring.
    """
    ring.check_element(b)
    found = ring.cached("zero_divisor_status", dict)
    if b not in found:
        # the zero element is code 0, the one falsy code
        left = ring.find_left(b, filter(None, ring.elements()), 0) is not None
        right = ring.find_right(filter(None, ring.elements()), b, 0) is not None
        found[b] = ZeroDivisorStatus(left=left, right=right)
    return found[b]


def regular_set(ring: FiniteRing) -> tuple[int, ...]:
    """Regular elements, ascending; a unit-regular element needs no second search.

    On a ring this is unit_regular_set (see classify). The bare search still
    runs for every other element, so the set stays exact on a table that
    breaks the ring laws, where that collapse need not hold.
    """
    return ring.cached("regular_set", lambda: tuple(
        a for a in ring.elements()
        if unit_regular_witness(ring, a) is not None
        or regular_witness(ring, a) is not None))


def unit_regular_set(ring: FiniteRing) -> tuple[int, ...]:
    """Unit-regular elements, ascending: the keys of unit_regular_witnesses
    with a witness."""
    return ring.cached("unit_regular_set", lambda: tuple(
        a for a, u in unit_regular_witnesses(ring).items() if u is not None))


def is_unit_regular_ring(ring: FiniteRing) -> bool:
    return len(unit_regular_set(ring)) == ring.size


def classify(ring: FiniteRing, a: int) -> RegularityWitness:
    """Strongest regularity kind of a, with witnesses.

    Only the two-sided unit-regular search runs; when it fails, a is not
    regular. That rests on the ring laws, as the one-sided collapse does: a
    finite ring is semilocal, so it has stable range 1 (Bass 1964), and an
    element a = axa of such a ring is unit regular (Ehrlich 1968). The
    one-sided kinds are never returned: a one-sided unit of a finite ring is
    two-sided (see the module docstring). Tests keep both claims checked by
    running regular_witness and the one-sided search as oracles.
    """
    pair = unit_regular_witness(ring, a)
    if pair is None:
        return RegularityWitness(RegularityKind.NOT_REGULAR)
    u, u_inv = pair
    return RegularityWitness(RegularityKind.UNIT_REGULAR, t=u, u=u, u_partner=u_inv)
