"""Idempotents, corner subrings, and the two-sided Peirce split.

For an idempotent e with complement f = 1 - e, the corner eRe is itself a
ring with identity e, carried here on the ambient codes so corner elements
can be mixed freely into ambient arithmetic. Every x in R splits uniquely as
exe + exf + fxe + fxf, and the diagonal corners embed as a direct product
inside R exactly when the off-diagonal parts of their sums vanish, which the
embedding report checks exhaustively.

A pair whose f is not 1 - e is refused in one place, the CornerRing
constructor, so a pair is checked once per ring and e, when its corner is
built. corner_ring keeps each corner on the ring by its code e, as the one
memo of its idempotent, and builds a new one, so checking again, when
handed an f other than the built corner's. The other functions here that
take an Idempotent reach the check through corner_ring. Each corner eRe
builds its complement corner fRf once and holds it, and complement returns
that corner's pair.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .rings import FiniteRing, _Record, _Value, _set


class Idempotent(_Value):
    """An idempotent e together with its complement f = 1 - e."""

    __slots__ = ("e", "f")

    def __init__(self, e: int, f: int) -> None:
        _set(self, "e", e)
        _set(self, "f", f)


def as_idempotent(ring: FiniteRing, e: int) -> Idempotent:
    ring.check_element(e)
    if ring.mul(e, e) != e:
        raise ValueError(f"{ring.element_repr(e)} is not idempotent in {ring.spec_string}")
    return Idempotent(e=e, f=ring.sub(ring.one, e))


def complement(ring: FiniteRing, idem: Idempotent) -> Idempotent:
    """The pair (f, 1 - f) for a checked pair idem = (e, f): Idempotent(f, e)
    on a lawful ring. It is the pair of the corner fRf that eRe holds."""
    return corner_ring(ring, idem).complement_corner().idem


def idempotents(ring: FiniteRing) -> tuple[Idempotent, ...]:
    """All idempotents of the ring in ascending code order, memoised.

    The sweep tabulates the ring first: it and the corner sweeps that
    follow read the tables.
    """
    def sweep() -> tuple[Idempotent, ...]:
        ring.tabulate()
        one, mul, sub = ring.one, ring.mul, ring.sub
        return tuple(Idempotent(e, sub(one, e))
                     for e in ring.elements() if mul(e, e) == e)

    return ring.cached("idempotents", sweep)


class CornerRing(FiniteRing):
    """The corner eRe as a ring with identity e, on ambient codes.

    The carrier is the sorted image of x -> exe, the ambient ring's
    corner_carrier, which always contains the ambient zero. Arithmetic
    delegates to the ambient ring, so corner codes are ambient codes and no
    re-encoding is ever needed, and the kernels read the ambient ring's mul
    table. A corner holds no tables of its own and never fills any, as its
    carrier is not dense: its ops are the ambient ring's. The constructor
    refuses a pair whose f is not 1 - e before it reads the carrier.
    """

    def __init__(self, ambient: FiniteRing, idem: Idempotent) -> None:
        if as_idempotent(ambient, idem.e) != idem:
            raise ValueError("complement does not match 1 - e")
        carrier = ambient.corner_carrier(idem.e)
        self.ambient = ambient
        self.idem = idem
        self._carrier = tuple(sorted(carrier))
        self._carrier_set = frozenset(carrier)
        super().__init__(size=len(carrier), one=idem.e)

    def elements(self) -> Sequence[int]:
        return self._carrier

    def contains(self, x: int) -> bool:
        return x in self._carrier_set

    def add(self, a: int, b: int) -> int:
        return self.ambient.add(a, b)

    def neg(self, a: int) -> int:
        return self.ambient.neg(a)

    def mul(self, a: int, b: int) -> int:
        return self.ambient.mul(a, b)

    def _kernel_table(self) -> Optional[list]:
        return self.ambient._kernel_table()

    def inverse_of(self, x: int) -> Optional[int]:
        """Inverse of x in eRe, read off the ambient unit x + f.

        If xy = yx = e in eRe then (x+f)(y+f) = (y+f)(x+f) = 1, as xf = fx = 0.
        If w(x+f) = (x+f)w = 1 then e(x+f) = x = (x+f)e gives xwe = e = ewx,
        so y = ewe has xy = yx = e. Codes outside the carrier get the scan.
        """
        if not self.contains(x):
            return self._scan_inverse(x)
        ambient, e = self.ambient, self.idem.e
        w = ambient.units().get(ambient.add(x, self.idem.f))
        return None if w is None else ambient.mul3(e, w, e)

    def complement_corner(self) -> CornerRing:
        """The corner fRf at the pair (f, 1 - f), built once and held; its
        constructor checks that pair as it checks every other."""
        ring, f = self.ambient, self.idem.f
        return self.cached("ff", lambda: corner_ring(ring, Idempotent(f, ring.sub(ring.one, f))))

    def element_repr(self, x: int) -> str:
        return self.ambient.element_repr(x)

    @property
    def spec_string(self) -> str:
        return f"{self.ambient.spec_string}[e={self.idem.e}]"


def corner_ring(ring: FiniteRing, idem: Idempotent) -> CornerRing:
    """Corner eRe of a checked pair (e, f), memoised on the ring by the code e.

    The corner is the one memo of its idempotent: what is derived from e,
    such as the rows of the condition sweep, lives on the corner's own memo.
    The corner is built, and its pair so checked, on a miss and when the f
    handed in differs from the built corner's, so a forged f is refused on a
    warm memo too.
    """
    corners = ring.cached("corners", dict)
    ee = corners.get(idem.e)
    if ee is None or ee.idem.f != idem.f:
        ee = corners[idem.e] = CornerRing(ring, idem)
    return ee


class PeirceParts(_Value):
    """The four components exe, exf, fxe, fxf of one element."""

    __slots__ = ("ee", "ef", "fe", "ff")

    def __init__(self, ee: int, ef: int, fe: int, ff: int) -> None:
        _set(self, "ee", ee)
        _set(self, "ef", ef)
        _set(self, "fe", fe)
        _set(self, "ff", ff)


def peirce_decompose(ring: FiniteRing, idem: Idempotent, x: int) -> PeirceParts:
    ring.check_element(x)
    corner_ring(ring, idem)  # refuses a forged pair
    e, f = idem.e, idem.f
    parts = PeirceParts(
        ee=ring.mul3(e, x, e),
        ef=ring.mul3(e, x, f),
        fe=ring.mul3(f, x, e),
        ff=ring.mul3(f, x, f),
    )
    total = ring.add(ring.add(parts.ee, parts.ef), ring.add(parts.fe, parts.ff))
    if total != x:
        raise AssertionError(
            f"peirce parts of {ring.element_repr(x)} do not sum back in {ring.spec_string}")
    return parts


class CornerProductEmbedding(_Record):
    """Exhaustive check that (x, y) -> x + y embeds eRe x fRf into R."""

    __slots__ = ("ring", "e", "f", "pairs", "injective", "additive", "multiplicative",
                 "maps_identity_pair_to_one", "image_closed")
    _derived = ("ok",)

    def __init__(self, ring: str, e: int, f: int, pairs: list[tuple[int, int, int]],
                 injective: bool, additive: bool, multiplicative: bool,
                 maps_identity_pair_to_one: bool, image_closed: bool) -> None:
        self.ring = ring
        self.e = e
        self.f = f
        self.pairs = pairs
        self.injective = injective
        self.additive = additive
        self.multiplicative = multiplicative
        self.maps_identity_pair_to_one = maps_identity_pair_to_one
        self.image_closed = image_closed

    @property
    def ok(self) -> bool:
        return (self.injective and self.additive and self.multiplicative
                and self.maps_identity_pair_to_one and self.image_closed)

    def to_dict(self) -> dict:
        out = super().to_dict()
        out["pair_count"] = len(out.pop("pairs"))
        return out


def corner_product_embedding(ring: FiniteRing, idem: Idempotent) -> CornerProductEmbedding:
    """Check x + y against componentwise arithmetic over all corner pairs.

    Multiplicativity holds because the cross terms xy', x'y with x in eRe and
    y in fRf vanish: ef = fe = 0 kills them. The sweep verifies that on the
    nose instead of trusting the algebra.
    """
    ee = corner_ring(ring, idem)
    ff = ee.complement_corner()
    pairs = [(x, y, ring.add(x, y)) for x in ee.elements() for y in ff.elements()]
    images = [img for _, _, img in pairs]
    image_set = set(images)
    injective = len(image_set) == len(images)

    additive = True
    multiplicative = True
    closed = True
    for x1, y1, img1 in pairs:
        for x2, y2, img2 in pairs:
            total = ring.add(img1, img2)
            prod = ring.mul(img1, img2)
            if total != ring.add(ring.add(x1, x2), ring.add(y1, y2)):
                additive = False
            if prod != ring.add(ring.mul(x1, x2), ring.mul(y1, y2)):
                multiplicative = False
            if total not in image_set or prod not in image_set:
                closed = False

    maps_identity = ring.add(ee.one, ff.one) == ring.one
    return CornerProductEmbedding(
        ring=ring.spec_string, e=idem.e, f=idem.f, pairs=pairs,
        injective=injective, additive=additive, multiplicative=multiplicative,
        maps_identity_pair_to_one=maps_identity, image_closed=closed)
