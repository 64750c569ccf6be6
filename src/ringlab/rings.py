"""Finite rings with identity on integer element codes.

Carriers built here are dense: codes run 0..size-1 and code 0 is always the
zero element. Constructions compose freely: integers mod n, full and
upper-triangular matrix rings over any base, direct products, and raw Cayley
tables. Small carriers precompute their tables once; larger ones evaluate
structurally per call. Arithmetic is fixed at construction; derived sweeps
(units, idempotents, corners, regularity witnesses) are memoised lazily on
the instance and freed with it. Every derived sweep is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Any, Callable, Iterable, Optional

DEFAULT_SIZE_CAP = 2 ** 20
DEFAULT_AXIOM_CAP = 2 ** 8

# Cardinalities below 10 ** EXACT_CARDINALITY_DIGITS are reported exactly;
# larger carriers are refused whatever the cap, with cardinality None.
EXACT_CARDINALITY_DIGITS = 4000

# Cayley tables are built eagerly up to this carrier size; the quadratic
# build cost must stay negligible next to the sweeps the tables accelerate.
_TABLE_THRESHOLD = 128


class SizeCapError(Exception):
    """A construction or sweep would exceed the configured enumeration cap.

    The message names the bound; by default it is the carrier size.
    """

    def __init__(self, cardinality: Optional[int], cap: int,
                 message: Optional[str] = None) -> None:
        size = f"above 10^{EXACT_CARDINALITY_DIGITS}" if cardinality is None else cardinality
        super().__init__(message or f"carrier of size {size} exceeds cap {cap}")
        self.cardinality = cardinality
        self.cap = cap


def require_cap(cardinality: int, cap: int) -> None:
    if cardinality > cap:
        raise SizeCapError(cardinality, cap)


class FiniteRing:
    """Common interface for every ring carrier in this package.

    Subclasses supply _raw_add/_raw_neg/_raw_mul on codes; add/neg/mul route
    through precomputed tables when available. The generic unit search is a
    two-sided linear scan in ascending code order; structured subclasses
    override inverse_of with construction-aware fast paths that must agree
    with the scan.

    Derived sweeps live in one per-instance memo, filled through cached(),
    so they are freed with the ring.
    """

    def __init__(self, size: int, one: int, commutative: bool) -> None:
        self.size = size
        self.zero = 0
        self.one = one
        self.is_commutative = commutative
        self._add_table: Optional[list[list[int]]] = None
        self._mul_table: Optional[list[list[int]]] = None
        self._neg_table: Optional[list[int]] = None
        self._memo: dict = {}

    def cached(self, key, compute: Callable[[], Any]) -> Any:
        """Value of a derived sweep, computed by compute() on first use.

        Per-element results live in a dict stored under one key, e.g.
        cached("unit_regular_witness", dict). Callers racing on a key may
        each compute it; sweeps are deterministic, so they store equal values.
        """
        memo = self._memo
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    # carrier ---------------------------------------------------------------

    def elements(self) -> Iterable[int]:
        return range(self.size)

    def contains(self, x: int) -> bool:
        return isinstance(x, int) and 0 <= x < self.size

    def check_element(self, x: int) -> int:
        if not self.contains(x):
            raise ValueError(f"{x!r} is not an element code of {self.spec_string}")
        return x

    # arithmetic ------------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        t = self._add_table
        return t[a][b] if t is not None else self._raw_add(a, b)

    def neg(self, a: int) -> int:
        t = self._neg_table
        return t[a] if t is not None else self._raw_neg(a)

    def mul(self, a: int, b: int) -> int:
        t = self._mul_table
        return t[a][b] if t is not None else self._raw_mul(a, b)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul3(self, a: int, b: int, c: int) -> int:
        return self.mul(self.mul(a, b), c)

    def _raw_add(self, a: int, b: int) -> int:
        raise NotImplementedError

    def _raw_neg(self, a: int) -> int:
        raise NotImplementedError

    def _raw_mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def _init_tables(self) -> None:
        if self.size > _TABLE_THRESHOLD:
            return
        n = self.size
        self._add_table = [[self._raw_add(a, b) for b in range(n)] for a in range(n)]
        self._mul_table = [[self._raw_mul(a, b) for b in range(n)] for a in range(n)]
        self._neg_table = [self._raw_neg(a) for a in range(n)]

    # units -------------------------------------------------------------------

    def inverse_of(self, x: int) -> Optional[int]:
        """Two-sided inverse of x, or None when x is not a unit."""
        return self._scan_inverse(x)

    def _scan_inverse(self, x: int) -> Optional[int]:
        one = self.one
        for v in self.elements():
            if self.mul(x, v) == one and self.mul(v, x) == one:
                return v
        return None

    def is_unit(self, x: int) -> bool:
        return self.inverse_of(x) is not None

    def units(self) -> dict[int, int]:
        """Every unit mapped to its inverse, ascending code order, cached.

        The mapping is closed under swapping: if u maps to v then v maps to u.
        Treat the returned dict as read-only.
        """
        def sweep() -> dict[int, int]:
            table: dict[int, int] = {}
            for x in self.elements():
                v = self.inverse_of(x)
                if v is not None:
                    table[x] = v
            return table

        return self.cached("units", sweep)

    def unit_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(self.units().items())

    # codecs and display ------------------------------------------------------

    def decode(self, code: int):
        """Structural form of a code; the base carrier is structureless."""
        return code

    def encode(self, value) -> int:
        return value

    def element_repr(self, x: int) -> str:
        return str(x)

    @property
    def spec_string(self) -> str:
        return f"ring{self.size}"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.spec_string}, {self.size} elements>"


class ZmodRing(FiniteRing):
    """Integers modulo n; codes are the residues 0..n-1."""

    def __init__(self, n: int, size_cap: int = DEFAULT_SIZE_CAP) -> None:
        if n < 1:
            raise ValueError(f"modulus must be >= 1, got {n}")
        require_cap(n, size_cap)
        self.n = n
        super().__init__(size=n, one=1 % n, commutative=True)
        self._init_tables()

    def _raw_add(self, a: int, b: int) -> int:
        return (a + b) % self.n

    def _raw_neg(self, a: int) -> int:
        return (-a) % self.n

    def _raw_mul(self, a: int, b: int) -> int:
        return (a * b) % self.n

    def inverse_of(self, x: int) -> Optional[int]:
        if math.gcd(x, self.n) != 1:
            return None
        return pow(x, -1, self.n)

    @property
    def spec_string(self) -> str:
        return f"Z{self.n}"


def _perm_parity(perm: tuple[int, ...]) -> int:
    inversions = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inversions += 1
    return inversions & 1


def _det(base: FiniteRing, rows) -> int:
    """Determinant over a commutative base via the permutation expansion."""
    k = len(rows)
    total = base.zero
    for perm in permutations(range(k)):
        prod = base.one
        for i in range(k):
            prod = base.mul(prod, rows[i][perm[i]])
        if _perm_parity(perm):
            prod = base.neg(prod)
        total = base.add(total, prod)
    return total


class _SquareRing(FiniteRing):
    """k-by-k matrices over a base ring whose entries live in fixed slots.

    The slot codec: a subclass picks its slots, the (i, j) positions an
    entry may occupy (every position for the full ring, i <= j for the
    triangular one); every other entry is the base zero. A code is
    mixed-radix over the slots in row-major order, first slot most
    significant, each digit a base code. Arithmetic runs on the flat list of
    slot digits: entry (i, j) of a product sums a[i][l]*b[l][j] over the l
    for which (i, l) and (l, j) are both slots, listed once per ring in
    ascending l. decode/encode convert to and from nested row tuples.
    """

    def __init__(self, k: int, base: FiniteRing, slots: tuple[tuple[int, int], ...],
                 size_cap: int) -> None:
        if k < 1:
            raise ValueError(f"matrix dimension must be >= 1, got {k}")
        cardinality = base.size ** len(slots)
        require_cap(cardinality, size_cap)
        self.k = k
        self.base = base
        self._slots = slots
        index = {slot: p for p, slot in enumerate(slots)}
        self._off_slots = tuple((i, j) for i in range(k) for j in range(k)
                                if (i, j) not in index)
        self._mul_terms = tuple(
            tuple((index[i, l], index[l, j]) for l in range(k)
                  if (i, l) in index and (l, j) in index)
            for i, j in slots)
        one = self._pack(base.one if i == j else base.zero for i, j in slots)
        commutative = base.is_commutative if k == 1 else cardinality == 1
        super().__init__(size=cardinality, one=one, commutative=commutative)
        self._init_tables()

    def _digits(self, code: int) -> list[int]:
        B = self.base.size
        digits = [0] * len(self._slots)
        for p in range(len(digits) - 1, -1, -1):
            code, digits[p] = divmod(code, B)
        return digits

    def _pack(self, digits) -> int:
        B = self.base.size
        code = 0
        for d in digits:
            code = code * B + d
        return code

    def decode(self, code: int):
        k = self.k
        rows = [[self.base.zero] * k for _ in range(k)]
        for (i, j), v in zip(self._slots, self._digits(code)):
            rows[i][j] = v
        return tuple(tuple(row) for row in rows)

    def encode(self, rows) -> int:
        if any(rows[i][j] != self.base.zero for i, j in self._off_slots):
            raise ValueError("entries below the diagonal must be zero")
        return self._pack(rows[i][j] for i, j in self._slots)

    def _raw_add(self, a: int, b: int) -> int:
        add = self.base.add
        return self._pack([add(x, y) for x, y in zip(self._digits(a), self._digits(b))])

    def _raw_neg(self, a: int) -> int:
        neg = self.base.neg
        return self._pack([neg(x) for x in self._digits(a)])

    def _raw_mul(self, a: int, b: int) -> int:
        da, db = self._digits(a), self._digits(b)
        add, mul, zero = self.base.add, self.base.mul, self.base.zero
        out = []
        for terms in self._mul_terms:
            acc = zero
            for p, q in terms:
                acc = add(acc, mul(da[p], db[q]))
            out.append(acc)
        return self._pack(out)

    def element_repr(self, x: int) -> str:
        entry = self.base.element_repr
        return "[" + ",".join(
            "[" + ",".join(map(entry, row)) + "]" for row in self.decode(x)) + "]"


class MatrixRing(_SquareRing):
    """Full k-by-k matrix ring over a base ring; every entry is a slot.

    Inversion uses the determinant/adjugate fast path only when the
    construction tree proves the base commutative; otherwise it falls back
    to the generic two-sided scan. A zero-ring carrier, the only one whose
    dimension the carrier cap leaves unbounded, takes the scan too: one
    probe instead of a k!-term permutation expansion.
    """

    def __init__(self, k: int, base: FiniteRing, size_cap: int = DEFAULT_SIZE_CAP) -> None:
        super().__init__(k, base, tuple((i, j) for i in range(k) for j in range(k)),
                         size_cap)

    # The benchmark tracer (perfbench/tracer.py) wraps these through each
    # class's own __dict__, so both subclasses bind them.
    _raw_add = _SquareRing._raw_add
    _raw_neg = _SquareRing._raw_neg
    _raw_mul = _SquareRing._raw_mul

    def inverse_of(self, x: int) -> Optional[int]:
        base = self.base
        if not base.is_commutative or self.size == 1:
            return self._scan_inverse(x)
        rows = self.decode(x)
        det_inv = base.inverse_of(_det(base, rows))
        if det_inv is None:
            return None
        return self.encode([[base.mul(det_inv, entry) for entry in row]
                            for row in self._adjugate(rows)])

    def _adjugate(self, rows):
        k = self.k
        base = self.base
        if k == 1:
            return ((base.one,),)
        out = []
        for i in range(k):
            row = []
            for j in range(k):
                minor = tuple(tuple(rows[r][c] for c in range(k) if c != i)
                              for r in range(k) if r != j)
                cof = _det(base, minor)
                if (i + j) % 2:
                    cof = base.neg(cof)
                row.append(cof)
            out.append(tuple(row))
        return tuple(out)

    @property
    def spec_string(self) -> str:
        return f"M{self.k}({self.base.spec_string})"


class TriangularRing(_SquareRing):
    """Upper-triangular k-by-k matrices over a base ring.

    Only the k(k+1)/2 on-or-above-diagonal slots are stored. An element is a
    unit exactly when every diagonal entry is a unit of the base; the
    inverse is then found by back-substitution, which stays valid over a
    noncommutative base.
    """

    def __init__(self, k: int, base: FiniteRing, size_cap: int = DEFAULT_SIZE_CAP) -> None:
        super().__init__(k, base, tuple((i, j) for i in range(k) for j in range(i, k)),
                         size_cap)

    _raw_add = _SquareRing._raw_add
    _raw_neg = _SquareRing._raw_neg
    _raw_mul = _SquareRing._raw_mul

    def inverse_of(self, x: int) -> Optional[int]:
        base, k = self.base, self.k
        rows = self.decode(x)
        diag_inv = []
        for i in range(k):
            d = base.inverse_of(rows[i][i])
            if d is None:
                return None
            diag_inv.append(d)
        inv = [[base.zero] * k for _ in range(k)]
        for j in range(k):
            inv[j][j] = diag_inv[j]
            for i in range(j - 1, -1, -1):
                acc = base.zero
                for l in range(i + 1, j + 1):
                    acc = base.add(acc, base.mul(rows[i][l], inv[l][j]))
                inv[i][j] = base.mul(diag_inv[i], base.neg(acc))
        return self.encode(inv)

    @property
    def spec_string(self) -> str:
        return f"T{self.k}({self.base.spec_string})"


class ProductRing(FiniteRing):
    """Direct product of two rings with componentwise arithmetic.

    Codes pack the two component positions as pos1 * |r2| + pos2; for dense
    factors this is exactly code1 * |r2| + code2.
    """

    def __init__(self, r1: FiniteRing, r2: FiniteRing, size_cap: int = DEFAULT_SIZE_CAP) -> None:
        cardinality = r1.size * r2.size
        require_cap(cardinality, size_cap)
        self.r1 = r1
        self.r2 = r2
        self._elems1 = list(r1.elements())
        self._elems2 = list(r2.elements())
        self._pos1 = {c: i for i, c in enumerate(self._elems1)}
        self._pos2 = {c: i for i, c in enumerate(self._elems2)}
        one = self.encode((r1.one, r2.one))
        super().__init__(size=cardinality, one=one,
                         commutative=r1.is_commutative and r2.is_commutative)
        self._init_tables()

    def decode(self, code: int):
        q, r = divmod(code, len(self._elems2))
        return (self._elems1[q], self._elems2[r])

    def encode(self, pair) -> int:
        c1, c2 = pair
        return self._pos1[c1] * len(self._elems2) + self._pos2[c2]

    def _raw_add(self, a: int, b: int) -> int:
        a1, a2 = self.decode(a)
        b1, b2 = self.decode(b)
        return self.encode((self.r1.add(a1, b1), self.r2.add(a2, b2)))

    def _raw_neg(self, a: int) -> int:
        a1, a2 = self.decode(a)
        return self.encode((self.r1.neg(a1), self.r2.neg(a2)))

    def _raw_mul(self, a: int, b: int) -> int:
        a1, a2 = self.decode(a)
        b1, b2 = self.decode(b)
        return self.encode((self.r1.mul(a1, b1), self.r2.mul(a2, b2)))

    def inverse_of(self, x: int) -> Optional[int]:
        x1, x2 = self.decode(x)
        v1 = self.r1.inverse_of(x1)
        if v1 is None:
            return None
        v2 = self.r2.inverse_of(x2)
        if v2 is None:
            return None
        return self.encode((v1, v2))

    def element_repr(self, x: int) -> str:
        x1, x2 = self.decode(x)
        return f"({self.r1.element_repr(x1)},{self.r2.element_repr(x2)})"

    @property
    def spec_string(self) -> str:
        left = self.r1.spec_string
        right = self.r2.spec_string
        if isinstance(self.r2, ProductRing):
            right = f"({right})"
        return f"{left}x{right}"


class TableRing(FiniteRing):
    """Ring given by explicit addition and multiplication tables.

    No structural fast paths; meant for fixtures and fault injection. The
    tables are copied and fixed at construction time.
    """

    def __init__(self, add_table, mul_table, one: int, commutative: bool = False,
                 label: Optional[str] = None) -> None:
        n = len(add_table)
        for name, tab in (("add", add_table), ("mul", mul_table)):
            if len(tab) != n or any(len(row) != n for row in tab):
                raise ValueError(f"{name} table must be {n}x{n}")
            for row in tab:
                for v in row:
                    if not 0 <= v < n:
                        raise ValueError(f"{name} table entry {v} out of range")
        add = [list(row) for row in add_table]
        mul = [list(row) for row in mul_table]
        neg = []
        for a in range(n):
            try:
                neg.append(add[a].index(0))
            except ValueError:
                raise ValueError(f"element {a} has no additive inverse") from None
        self._label = label or f"table{n}"
        super().__init__(size=n, one=one, commutative=commutative)
        self._add_table = add
        self._mul_table = mul
        self._neg_table = neg

    @classmethod
    def from_ring(cls, ring: FiniteRing, override_mul=None, override_add=None,
                  label: Optional[str] = None) -> "TableRing":
        """Snapshot a dense ring's tables, optionally overriding entries.

        Overrides deliberately break the ring laws, which is the whole point:
        they make the axiom checker's failure paths reachable from tests.
        """
        n = ring.size
        if list(ring.elements()) != list(range(n)):
            raise ValueError("from_ring requires a dense carrier")
        add = [[ring.add(a, b) for b in range(n)] for a in range(n)]
        mul = [[ring.mul(a, b) for b in range(n)] for a in range(n)]
        for (a, b), v in (override_mul or {}).items():
            mul[a][b] = v
        for (a, b), v in (override_add or {}).items():
            add[a][b] = v
        return cls(add, mul, ring.one, commutative=False,
                   label=label or f"table({ring.spec_string})")

    @property
    def spec_string(self) -> str:
        return self._label


@dataclass
class AxiomCheck:
    name: str
    ok: bool
    counterexample: Optional[tuple[int, ...]]


@dataclass
class AxiomReport:
    ring: str
    ok: bool
    checks: list[AxiomCheck]

    def to_dict(self) -> dict:
        return {
            "ring": self.ring,
            "ok": self.ok,
            "checks": [
                {"name": c.name, "ok": c.ok,
                 "counterexample": list(c.counterexample) if c.counterexample else None}
                for c in self.checks
            ],
        }


_AXIOM_NAMES = ("add_associative", "add_commutative", "add_identity", "add_inverse",
                "mul_associative", "mul_identity", "left_distributive", "right_distributive")
_CUBIC_AXIOMS = ("add_associative", "mul_associative", "left_distributive",
                 "right_distributive")


def check_ring_axioms(ring: FiniteRing, cap: int = DEFAULT_AXIOM_CAP) -> AxiomReport:
    """Verify the ring axioms on the whole carrier.

    The identity, inverse and commutativity laws are swept directly. The
    four three-variable laws are checked in O(n^2 g) on the additive
    generating set G of _additive_generators, every element of which is a
    left-nested sum of generators, in an order where each reduction's
    premise is already proven:

    - + associative, by Light's test: (x+g)+y = x+(g+y) for all x, y and g
      in G. The s with (x+s)+y = x+(s+y) for all x, y are closed under +:
      (x+(s+t))+y = ((x+s)+t)+y = (x+s)+(t+y) = x+(s+(t+y)) = x+((s+t)+y).
    - a(b+c) = ab+ac for all a, b and c in G, and (a+b)c = ac+bc for all b,
      c and a in G. Given + associative, the c (resp. a) satisfying the law
      are closed under +: a(b+(c+d)) = a((b+c)+d) = (ab+ac)+ad = ab+a(c+d),
      and symmetrically on the right.
    - (ab)c = a(bc) on G^3. Given both distributive laws, both sides are
      additive in each argument, so the law spreads from G to R one
      argument at a time.

    If any of those checks fails, the cubic sweeps run instead, so each
    failed axiom is still reported with the first counterexample in
    lexicographic code order. The cap bounds the carrier separately from
    the general enumeration cap.
    """
    require_cap(ring.size, cap)
    elems = list(ring.elements())
    found = _sweep_below_cubic(ring, elems)
    if _cubic_laws_hold(ring, elems):
        found.update(dict.fromkeys(_CUBIC_AXIOMS))
    else:
        found.update(_sweep_cubic(ring, elems))
    checks = [AxiomCheck(name, found[name] is None, found[name]) for name in _AXIOM_NAMES]
    return AxiomReport(ring.spec_string, all(c.ok for c in checks), checks)


def _additive_generators(ring: FiniteRing) -> tuple[int, ...]:
    """Greedy additive generating set, in ascending code order.

    An element joins when the carrier elements reached so far, closed under
    y -> y + g for every generator g, do not contain it. Every element is
    then a left-nested sum of generators; over an additive group each new
    generator at least doubles the reached subgroup, so there are at most
    1 + log2(n) of them, counting zero.
    """
    add, contains = ring.add, ring.contains
    gens: list[int] = []
    reached: set[int] = set()
    for x in ring.elements():
        if x in reached:
            continue
        gens.append(x)
        reached.add(x)
        stack = list(reached)
        while stack:
            y = stack.pop()
            for g in gens:
                z = add(y, g)
                if z not in reached and contains(z):
                    reached.add(z)
                    stack.append(z)
    return tuple(gens)


def _cubic_laws_hold(ring: FiniteRing, elems: list[int]) -> bool:
    """The O(n^2 g) checks of check_ring_axioms; True proves all four laws.

    False only sends the caller to the exact sweeps, so a sum that leaves
    the carrier may fail a check without harm.
    """
    add, mul = ring.add, ring.mul
    gens = _additive_generators(ring)
    for g in gens:
        gy = [add(g, y) for y in elems]
        for x in elems:
            xg = add(x, g)
            if [add(xg, y) for y in elems] != [add(x, s) for s in gy]:
                return False
    b_plus_c = {c: [add(b, c) for b in elems] for c in gens}
    for a in elems:
        ab = [mul(a, b) for b in elems]
        row = dict(zip(elems, ab))
        for c in gens:
            ac = row[c]
            if [row.get(s) for s in b_plus_c[c]] != [add(x, ac) for x in ab]:
                return False
    a_plus_b = {a: [add(a, b) for b in elems] for a in gens}
    for c in elems:
        bc = [mul(b, c) for b in elems]
        col = dict(zip(elems, bc))
        for a in gens:
            ac = col[a]
            if [col.get(s) for s in a_plus_b[a]] != [add(ac, x) for x in bc]:
                return False
    return all(mul(mul(a, b), c) == mul(a, mul(b, c))
               for a in gens for b in gens for c in gens)


def _sweep_below_cubic(ring: FiniteRing, elems: list[int]) -> dict:
    """First counterexample, or None, of each law in at most two variables."""
    add, mul, neg = ring.add, ring.mul, ring.neg
    zero, one = ring.zero, ring.one
    found: dict = {}

    cx = None
    for a in elems:
        for b in elems:
            if add(a, b) != add(b, a):
                cx = (a, b)
                break
        if cx:
            break
    found["add_commutative"] = cx

    cx = None
    for a in elems:
        if add(zero, a) != a or add(a, zero) != a:
            cx = (a,)
            break
    found["add_identity"] = cx

    cx = None
    for a in elems:
        if add(a, neg(a)) != zero:
            cx = (a,)
            break
    found["add_inverse"] = cx

    cx = None
    for a in elems:
        if mul(one, a) != a or mul(a, one) != a:
            cx = (a,)
            break
    found["mul_identity"] = cx
    return found


def _sweep_cubic(ring: FiniteRing, elems: list[int]) -> dict:
    """First counterexample in lexicographic code order, or None, of each
    three-variable law, by exhaustive cubic loops."""
    add, mul = ring.add, ring.mul
    found: dict = {}

    cx = None
    for a in elems:
        for b in elems:
            ab = add(a, b)
            for c in elems:
                if add(ab, c) != add(a, add(b, c)):
                    cx = (a, b, c)
                    break
            if cx:
                break
        if cx:
            break
    found["add_associative"] = cx

    cx = None
    for a in elems:
        for b in elems:
            ab = mul(a, b)
            for c in elems:
                if mul(ab, c) != mul(a, mul(b, c)):
                    cx = (a, b, c)
                    break
            if cx:
                break
        if cx:
            break
    found["mul_associative"] = cx

    cx = None
    for a in elems:
        for b in elems:
            for c in elems:
                if mul(a, add(b, c)) != add(mul(a, b), mul(a, c)):
                    cx = (a, b, c)
                    break
            if cx:
                break
        if cx:
            break
    found["left_distributive"] = cx

    cx = None
    for a in elems:
        for b in elems:
            ab = add(a, b)
            for c in elems:
                if mul(ab, c) != add(mul(a, c), mul(b, c)):
                    cx = (a, b, c)
                    break
            if cx:
                break
        if cx:
            break
    found["right_distributive"] = cx
    return found
