"""Column-finite operators on a countable GF(2) vector space, in normal form.

The carrier is the endomorphism ring of V = span(e_0, e_1, ...) over GF(2),
restricted to operators that are a finite sum of shifted diagonals away from
finitely many exceptional columns. That fragment is closed under addition
and composition, contains the one-sided shifts, and admits a computable
normal form, so operator equality is decidable even though the ring is
infinite. This is exactly what the corner machinery needs from an infinite
example: the right shift s and left shift t satisfy t*s = 1 and s*t != 1,
which no finite carrier can.

Normal form: each diagonal (offset d, start m) contributes the target i+d to
every column i >= m, targets below zero silently dropped; exceptions
override whole columns. Canonicalization picks, for each eventual offset,
the least start consistent with the actual columns, then records the
leftover columns as exceptions, so equal maps compare equal as values.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from .rings import SizeCapError, _Value, _set
from .theorem import Mat2, build_m2_scaffold

# Largest truncation run_shift_demo accepts. The rank evidence is one
# incremental GF(2) elimination, linear in the truncation, so the cap
# bounds the document: about 356 KB of JSON at 4096.
MAX_TRUNCATION = 4096


class BandOperator(_Value):
    """Operator in normal form; build through from_parts or the factories.

    Direct construction bypasses canonicalization and is reserved for code
    in this module that already holds a normal form; equality is structural
    on the parts and means equality of maps only for normal forms.
    """

    __slots__ = ("diagonals", "exceptions")

    def __init__(self, diagonals: tuple[tuple[int, int], ...] = (),
                 exceptions: tuple[tuple[int, frozenset[int]], ...] = ()) -> None:
        _set(self, "diagonals", diagonals)
        _set(self, "exceptions", exceptions)

    @classmethod
    def from_parts(cls,
                   diagonals: Iterable[tuple[int, int]] = (),
                   exceptions: Iterable[tuple[int, Iterable[int]]] | Mapping[int, Iterable[int]] = (),
                   ) -> "BandOperator":
        diags = []
        seen_offsets = set()
        for d, m in diagonals:
            d, m = int(d), int(m)
            if m < 0:
                raise ValueError(f"diagonal start must be >= 0, got {m}")
            if d in seen_offsets:
                raise ValueError(f"duplicate diagonal offset {d}")
            seen_offsets.add(d)
            diags.append((d, m))
        if isinstance(exceptions, Mapping):
            exceptions = exceptions.items()
        excs = []
        seen_idx = set()
        for i, targets in exceptions:
            i = int(i)
            if i < 0:
                raise ValueError(f"exception column must be >= 0, got {i}")
            if i in seen_idx:
                raise ValueError(f"duplicate exception column {i}")
            seen_idx.add(i)
            tset = frozenset(int(t) for t in targets)
            if any(t < 0 for t in tset):
                raise ValueError(f"exception targets must be >= 0 in column {i}")
            excs.append((i, tset))
        raw = cls(diagonals=tuple(sorted(diags)), exceptions=tuple(sorted(excs)))
        return _canonical(raw.offsets, raw.stable_bound, raw.column)

    @classmethod
    def zero(cls) -> "BandOperator":
        return cls()

    @classmethod
    def identity(cls) -> "BandOperator":
        return cls(diagonals=((0, 0),))

    @classmethod
    def right_shift(cls) -> "BandOperator":
        return cls(diagonals=((1, 0),))

    @classmethod
    def left_shift(cls) -> "BandOperator":
        # Column 0 needs no exception: the would-be target -1 drops out.
        return cls(diagonals=((-1, 0),))

    @classmethod
    def projection(cls, i: int) -> "BandOperator":
        if i < 0:
            raise ValueError(f"projection index must be >= 0, got {i}")
        return cls(exceptions=((i, frozenset((i,))),))

    @property
    def offsets(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.diagonals)

    @property
    def stable_bound(self) -> int:
        """Index from which every column is the pure all-diagonals pattern
        with no dropped targets. Any bound at least this large is equally
        valid; canonicalization does not depend on the slack."""
        bound = 0
        for d, m in self.diagonals:
            bound = max(bound, m, -d)
        for i, _ in self.exceptions:
            bound = max(bound, i + 1)
        return bound

    def column(self, i: int) -> frozenset[int]:
        """Indices hit by e_i, exceptions taking the whole column."""
        if i < 0:
            raise ValueError(f"column index must be >= 0, got {i}")
        for j, targets in self.exceptions:
            if j == i:
                return targets
        return frozenset(i + d for d, m in self.diagonals if i >= m and i + d >= 0)

    @property
    def is_zero(self) -> bool:
        return not self.diagonals and not self.exceptions

    def __add__(self, other: "BandOperator") -> "BandOperator":
        if not isinstance(other, BandOperator):
            return NotImplemented
        # operands are normal forms, so a sum with zero is the other operand
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        offsets = tuple(set(self.offsets) ^ set(other.offsets))
        bound = max(self.stable_bound, other.stable_bound)
        return _canonical(offsets, bound,
                          lambda i: self.column(i) ^ other.column(i))

    def __neg__(self) -> "BandOperator":
        return self

    def __sub__(self, other: "BandOperator") -> "BandOperator":
        return self.__add__(other)

    def __mul__(self, other: "BandOperator") -> "BandOperator":
        """Ring product; self is applied after other."""
        if not isinstance(other, BandOperator):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return BandOperator()
        xs, ys = self.offsets, other.offsets
        # an offset hit by an even number of diagonal pairs cancels over GF(2)
        offsets: set[int] = set()
        for dx in xs:
            for dy in ys:
                offsets ^= {dx + dy}
        dy_min = min(ys, default=0)
        bound = max(other.stable_bound, self.stable_bound - dy_min, 0)

        def col(i: int) -> frozenset[int]:
            acc: frozenset[int] = frozenset()
            for j in other.column(i):
                acc ^= self.column(j)
            return acc

        return _canonical(offsets, bound, col)

    def __repr__(self) -> str:
        diag = ",".join(f"{d}@{m}" for d, m in self.diagonals) or "-"
        exc = ",".join(f"{i}:{sorted(t)}" for i, t in self.exceptions) or "-"
        return f"<band diag {diag} exc {exc}>"


def _canonical(offsets: Iterable[int], bound: int,
               col: Callable[[int], frozenset[int]]) -> BandOperator:
    """Normal form of the map given by col, eventually-diagonal with the
    given offsets from the given bound on. For each offset the start is the
    least index from which the diagonal never contradicts a column; columns
    below the bound that still differ from the diagonal prediction become
    exceptions."""
    diags = []
    for d in sorted(set(offsets)):
        m = 0
        for i in range(bound - 1, -1, -1):
            if i + d >= 0 and i + d not in col(i):
                m = i + 1
                break
        diags.append((d, m))
    diag_tuple = tuple(diags)
    excs = []
    for i in range(bound):
        pred = frozenset(i + d for d, m in diag_tuple if i >= m and i + d >= 0)
        actual = col(i)
        if actual != pred:
            excs.append((i, actual))
    return BandOperator(diagonals=diag_tuple, exceptions=tuple(excs))


def truncation_series(op: BandOperator, n: int) -> list[tuple[int, int]]:
    """Kernel and cokernel dimensions of the restriction to span(e_0..e_k),
    for k = 0..n, from one GF(2) elimination: column k does not depend on
    the truncation, so truncation k is truncation k-1 plus one column.

    Column k is read from the normal form straight into an int bitmask: the
    exception's targets if column k has one, else bit k + d for each
    diagonal (d, m) with k >= m and k + d >= 0. Its highest target is the
    mask's bit_length less one. The codomain is padded to cover every hit
    target and at least the domain, so an injective-but-not-surjective
    operator shows up as kernel 0 and cokernel > 0 at every truncation size.
    Finite snapshots are evidence about the infinite operator, not a proof;
    the demo says so in its note.
    """
    if n < 0:
        raise ValueError(f"truncation size must be >= 0, got {n}")
    exceptions = {i: sum(1 << j for j in targets) for i, targets in op.exceptions}
    diagonals = op.diagonals
    # pivots by bit_length, so each has its own leading bit; codomain is the
    # padded codomain's dimension so far
    pivots: dict[int, int] = {}
    codomain = 0
    series = []
    for k in range(n + 1):
        cur = exceptions.get(k)
        if cur is None:
            cur = 0
            for d, m in diagonals:
                if k >= m and k + d >= 0:
                    cur |= 1 << (k + d)
        top = cur.bit_length()
        if top > codomain:
            codomain = top
        if k >= codomain:
            codomain = k + 1
        while top in pivots:
            cur ^= pivots[top]
            top = cur.bit_length()
        if top:
            pivots[top] = cur
        rank = len(pivots)
        series.append((k + 1 - rank, codomain - rank))
    return series


def truncation_dims(op: BandOperator, n: int) -> tuple[int, int]:
    """Kernel and cokernel dimensions at span(e_0..e_n): truncation_series(op, n)[n]."""
    return truncation_series(op, n)[n]


class BandRing:
    """Ring-protocol adapter so band operators drop into the 2x2 scaffold."""

    zero = BandOperator.zero()
    one = BandOperator.identity()
    spec_string = "band"

    def add(self, x: BandOperator, y: BandOperator) -> BandOperator:
        return x + y

    def mul(self, x: BandOperator, y: BandOperator) -> BandOperator:
        return x * y

    def neg(self, x: BandOperator) -> BandOperator:
        return x


def run_shift_demo(truncation: int = 8) -> dict:
    """Exercise the one place the corner story genuinely needs infinity.

    Over the band ring the right shift s is regular (s*t*s = s via the left
    shift t) but has a one-sided inverse only: t*s = 1 while s*t = 1 - p0.
    The 2x2 scaffold therefore makes a = [[s,0],[0,0]] unit regular in the
    matrix ring even though s itself is not unit regular, as an endomorphism
    is unit regular exactly when its kernel and cokernel are isomorphic; for
    s the truncated ranks pin those at 0 and 1. On a finite carrier this
    separation is impossible, which is why it lives here and not in the
    exhaustive sweeps. A truncation above MAX_TRUNCATION raises
    SizeCapError before any work.
    """
    if truncation < 2:
        raise ValueError(f"truncation must be >= 2, got {truncation}")
    if truncation > MAX_TRUNCATION:
        raise SizeCapError(truncation, MAX_TRUNCATION,
                           f"truncation {truncation} exceeds MAX_TRUNCATION {MAX_TRUNCATION}")
    ring = BandRing()
    s = BandOperator.right_shift()
    t = BandOperator.left_shift()
    one = ring.one
    p0 = BandOperator.projection(0)
    identities = {
        "ts=1": t * s == one,
        "st!=1": s * t != one,
        "st=1-p0": s * t == one - p0,
        "sts=s": s * t * s == s,
    }
    scaffold = build_m2_scaffold(ring, s, t)
    identities.update({
        "aua=a": scaffold.identities["aua=a"],
        "uv=1": scaffold.identities["uv=1"],
        "vu=1": scaffold.identities["vu=1"],
    })
    m2, zero = Mat2(ring), ring.zero
    e = m2.encode(((one, zero), (zero, zero)))
    a = m2.encode(((s, zero), (zero, zero)))
    corner_form_ok = m2.mul3(e, a, e) == a

    series = truncation_series(s, truncation)[2:]
    truncations = [{"n": n, "kernel_dim": ker, "cokernel_dim": coker}
                   for n, (ker, coker) in enumerate(series, start=2)]
    kernel_dims = {ker for ker, _ in series}
    cokernel_dims = {coker for _, coker in series}
    stable = len(kernel_dims) == 1 and len(cokernel_dims) == 1
    kernel_dim = kernel_dims.pop() if stable else None
    cokernel_dim = cokernel_dims.pop() if stable else None

    ok = (all(identities.values()) and corner_form_ok
          and scaffold.ambient_witnessed
          and stable and kernel_dim == 0 and cokernel_dim == 1)
    return {
        "truncation": truncation,
        "identities": identities,
        "corner_form_ok": corner_form_ok,
        "scaffold": scaffold.to_dict(),
        "truncations": truncations,
        "kernel_dim": kernel_dim,
        "cokernel_dim": cokernel_dim,
        "ok": ok,
        "note": ("kernel 0 against cokernel 1 certifies, via the classical "
                 "kernel-cokernel criterion taken as given here, that the "
                 "right shift is not unit regular; the truncated ranks are "
                 "finite evidence for those dimensions, not a proof"),
    }
