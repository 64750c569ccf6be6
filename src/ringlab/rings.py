"""Finite rings with identity on integer element codes.

Carriers built here are dense: codes run 0..size-1 and code 0 is always the
zero element. Constructions compose freely: integers mod n, full and
upper-triangular matrix rings over any base, direct products, and raw Cayley
tables. A carrier of at most _TABLE_THRESHOLD elements fills its Cayley
tables when a sweep over it begins (FiniteRing.tabulate), and a part of at
most _LIST_ROWS elements when the ring built on it is; the tables are built
structurally from the tables of the parts, a whole row at a time, and stored
as compact array rows above _LIST_ROWS elements. A square ring's mul rows
sum slot rows that _gather takes from byte strings with bytes.translate.
Any other op evaluates structurally per call. element_reprs() lists every
element's repr once per ring, from the listings of the parts.
Arithmetic is fixed at construction; derived sweeps (units,
idempotents, corners, regularity witnesses, axiom reports) are memoised lazily on
the instance and freed with it. Every derived sweep is deterministic. The
exhaustive searches read products through the kernels of FiniteRing, which
index the rows of a filled mul table and call mul otherwise; units() asks
each element's inverse_of, tabled or not.
"""

from __future__ import annotations

import math
import sys
from array import array
from functools import partial
from itertools import product, repeat
from operator import attrgetter, eq, itemgetter
from typing import Any, Callable, Collection, Iterable, Optional, Sequence

DEFAULT_SIZE_CAP = 2 ** 20
DEFAULT_AXIOM_CAP = 2 ** 8

# Cardinalities below 10 ** EXACT_CARDINALITY_DIGITS, and below the
# interpreter's int-to-string digit limit, are reported exactly; larger
# carriers are refused whatever the cap, with cardinality None.
EXACT_CARDINALITY_DIGITS = 4000

# Carriers up to this size fill their Cayley tables before a sweep over them
# (FiniteRing.tabulate). Rows are array('B') up to 256 elements
# and array('H') above, so one table takes at most 1024 * 1024 * 2 bytes =
# 2 MiB; a ring holds an add and a mul table.
_TABLE_THRESHOLD = 1024

# Rows of carriers up to this size stay lists, which Python indexes faster
# than arrays; such a table takes at most 128 * 128 * 8 bytes = 128 KiB.
# A part this small is tabled when a matrix ring or a product is built on it.
_LIST_ROWS = 128


class SizeCapError(Exception):
    """A construction or sweep would exceed the configured enumeration cap.

    The message names the bound; by default it is the carrier size.
    """

    def __init__(self, cardinality: Optional[int], cap: int,
                 message: Optional[str] = None) -> None:
        super().__init__(message or f"carrier of size {cardinality} exceeds cap {cap}")
        self.cardinality = cardinality
        self.cap = cap


def require_cap(cardinality: int, cap: int) -> None:
    if cardinality > cap:
        raise SizeCapError(cardinality, cap)


# ringlab's records are plain classes with __slots__ and a hand-written
# __init__; none is generated at import, since a shared constructor costs
# each record a microsecond more. repr and to_dict read the fields from
# __slots__, and to_dict then writes the properties a record names in
# _derived. A value type (a _Value) compares and hashes by class and
# fields, read from __slots__ by _Value.__init_subclass__, and sets its
# slots through _set, since it refuses assignment.

_set = object.__setattr__


class _Record:
    __slots__ = ()
    _derived: tuple[str, ...] = ()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def to_dict(self) -> dict:
        """The fields in __slots__ order, then the _derived properties.

        A dict field is written as a shallow copy, a tuple or list as a list,
        and a list of records as a list of their to_dict; anything else as it
        is. Types match exactly, which is faster than isinstance.
        """
        out = {}
        for name in self.__slots__:
            value = getattr(self, name)
            kind = type(value)
            if kind is dict:
                value = value.copy()
            elif kind is list or kind is tuple:
                value = ([v.to_dict() for v in value] if value and isinstance(value[0], _Record)
                         else list(value))
            out[name] = value
        for name in self._derived:
            out[name] = getattr(self, name)
        return out


class _Value(_Record):
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # Equal only within the class, so MatrixSpec(2, Z2) is not
        # TriangularSpec(2, Z2); the hash is the field tuple's. One field is
        # read without building a tuple, on the commonest compare, ZmodSpec's.
        get = attrgetter(*cls.__slots__)
        key = get if len(cls.__slots__) > 1 else lambda x: (get(x),)
        cls.__eq__ = lambda self, other: other.__class__ is cls and get(self) == get(other)
        cls.__hash__ = lambda self: hash(key(self))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _row_code(size: int) -> str:
    """array typecode that holds every code of a carrier of this size."""
    return "B" if size <= 256 else "H"


# Structural table builds hold a row as one int, int.from_bytes of the row
# array's bytes in the machine's order, so each code sits in its own
# fixed-width field. Adding two such ints adds the rows entry by entry, in
# one big-integer addition, as long as every entry of the sum stays a code
# of the carrier: no carry crosses a field.


def _row_int(codes: Iterable[int], size: int) -> int:
    return int.from_bytes(array(_row_code(size), codes).tobytes(), sys.byteorder)


def _summed_rows(parts: list[list[int]], size: int) -> Iterable[bytes]:
    """Rows of a table with row a = parts[0][a_0] + ... + parts[-1][a_last].

    The a_g are the mixed-radix digits of a, first most significant, with
    len(parts[g]) as the radix of a_g. Each row comes as the bytes of its
    array, which array() reads back as the row.
    """
    nbytes = size * array(_row_code(size)).itemsize
    return (sum(ints).to_bytes(nbytes, sys.byteorder) for ints in product(*parts))


def _gather(values: Sequence[int], index: bytes, size: int) -> int:
    """The row int of values[i] for each i of index, as _row_int makes it.

    Every position and value fits a byte, so the gather runs in C by
    bytes.translate; above 256 elements one strided slice widens the result
    to 'H' fields, each byte landing in its field's low byte.
    """
    row = index.translate(bytes(values).ljust(256, b"\0"))
    if size > 256:
        wide = bytearray(2 * size)
        wide[sys.byteorder == "big"::2] = row
        row = wide
    return int.from_bytes(row, sys.byteorder)


def _pair_rows(rows1: Sequence[Sequence[int]],
               rows2: Sequence[Sequence[int]]) -> Iterable[bytes]:
    """Rows of a table on pairs of positions, as _summed_rows gives them.

    With n1 and n2 the lengths of the factor rows, position (b1, b2) is
    b1 * n2 + b2, and entry (b1, b2) of row (a1, a2) is rows1[a1][b1] * n2
    + rows2[a2][b2].
    """
    n1, n2 = len(rows1[0]), len(rows2[0])
    n = n1 * n2
    code = _row_code(n)

    def high(row: Sequence[int]) -> int:
        # row[b1] * n2 at every (b1, b2): one strided copy per b2
        scaled = array(code, [h * n2 for h in row])
        spread = array(code, [0]) * n
        for b2 in range(n2):
            spread[b2::n2] = scaled
        return _row_int(spread, n)

    lows = [_row_int(array(code, row) * n1, n) for row in rows2]
    return _summed_rows([list(map(high, rows1)), lows], n)


class FiniteRing:
    """Common interface for every ring carrier in this package.

    Subclasses supply _raw_add/_raw_neg/_raw_mul on codes; add/neg/mul read
    the Cayley tables once they are filled and call _raw_* until then. The
    tables fill all at once from _add_rows/_mul_rows/_neg_row, when a sweep
    of O(n**2) ops or more is about to read them: units(), idempotents()
    and the axiom check call tabulate() first. A request about a few
    elements, such as a witness, fills nothing. The pairwise default of the
    row builders, through _raw_*, is the oracle that the structural
    overrides must equal entry by entry.

    Units: every carrier asks inverse_of per element, whether its tables
    are filled or not. The generic one is a two-sided scan through mul,
    the first v in ascending order with xv = vx = 1. Each construction
    overrides it once (gcd for residues, the walk of powers for square
    rings, componentwise for products, the ambient ring for corners), and
    each must agree with the scan. The same inverse_of serves single
    inverses, such as a witness request's.

    The exhaustive searches read products through the kernels, one per
    product shape: find_left, find_right and find_sandwich return the first
    candidate, in the order given, whose product is a target, corner_carrier
    collects the distinct (e*x)*e, and middle_terms runs the search
    a = (a*x)*a for every element at once. Each reads the rows of the mul
    table that _kernel_table() names when one is filled (a corner reads its
    ambient ring's) and calls the bound mul otherwise. Which tables exist,
    and how their rows are laid out, is known only to this module.

    Derived sweeps live in one per-instance memo, filled through cached(),
    so they are freed with the ring.
    """

    def __init__(self, size: int, one: int) -> None:
        self.size = size
        self.zero = 0
        self.one = one
        self._add_table: Optional[list] = None
        self._mul_table: Optional[list] = None
        self._neg_table: Optional[Sequence[int]] = None
        self._memo: dict = {}

    def cached(self, key, compute: Callable[[], Any]) -> Any:
        """Value of a derived sweep, computed by compute() on first use.

        Per-element results live in a dict stored under one key, e.g.
        cached("zero_divisor_status", dict). Callers racing on a key may
        each compute it; sweeps are deterministic, so they store equal values.
        """
        memo = self._memo
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    # carrier ---------------------------------------------------------------

    def elements(self) -> Sequence[int]:
        """The carrier in ascending code order."""
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
        if t is not None:
            return t[a][b]
        return self._raw_add(a, b)

    def neg(self, a: int) -> int:
        t = self._neg_table
        if t is not None:
            return t[a]
        return self._raw_neg(a)

    def mul(self, a: int, b: int) -> int:
        t = self._mul_table
        if t is not None:
            return t[a][b]
        return self._raw_mul(a, b)

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

    def tabulate(self) -> None:
        """Fill the tables now, ahead of a sweep over the carrier.

        Only a dense carrier (codes 0..size-1) of at most _TABLE_THRESHOLD
        elements fills; a corner's carrier is not dense, so it never does.
        """
        if isinstance(self.elements(), range) and self.size <= _TABLE_THRESHOLD:
            self._tables()

    def _tables(self) -> tuple[list, list, Sequence[int]]:
        """The add, mul and neg tables, filled now if they are not yet,
        whatever the size: a composite's fill reads its parts' tables."""
        if self._mul_table is None:
            self._fill_tables()
        return self._add_table, self._mul_table, self._neg_table

    def _fill_tables(self) -> None:
        """Fill all three tables now."""
        row = list if self.size <= _LIST_ROWS else partial(array, _row_code(self.size))
        self._neg_table = row(self._neg_row())
        self._mul_table = list(map(row, self._mul_rows()))
        self._add_table = list(map(row, self._add_rows()))

    def _add_rows(self) -> Iterable:
        """Rows of the add table in code order, each a sequence of codes or
        the bytes of the row's array, one byte per code up to 256 elements.
        This default goes pair by pair through _raw_add."""
        n = self.size
        return ([self._raw_add(a, b) for b in range(n)] for a in range(n))

    def _mul_rows(self) -> Iterable:
        n = self.size
        return ([self._raw_mul(a, b) for b in range(n)] for a in range(n))

    def _neg_row(self) -> Iterable:
        return [self._raw_neg(a) for a in range(self.size)]

    # kernels -----------------------------------------------------------------

    def _kernel_table(self) -> Optional[list]:
        """The mul table the kernels read, or None to go through mul."""
        return self._mul_table

    def corner_carrier(self, e: int) -> set[int]:
        """The distinct (e*x)*e over the elements x: y*e per distinct y = e*x,
        from row e of a table (all of it on a full carrier) or from mul."""
        t, xs, mul = self._kernel_table(), self.elements(), self.mul
        if t is None:
            return {mul(y, e) for y in {mul(e, x) for x in xs}}
        row = t[e]
        return {t[y][e] for y in (set(row) if len(xs) == len(row) else {row[x] for x in xs})}

    def find_left(self, a: int, xs: Iterable[int], target: int) -> Optional[int]:
        """The first x of xs with a*x == target, or None."""
        t = self._kernel_table()
        if t is None:
            mul = self.mul
            return next((x for x in xs if mul(a, x) == target), None)
        row = t[a]
        return next((x for x in xs if row[x] == target), None)

    def find_right(self, xs: Iterable[int], b: int, target: int) -> Optional[int]:
        """The first x of xs with x*b == target, or None."""
        t = self._kernel_table()
        if t is None:
            mul = self.mul
            return next((x for x in xs if mul(x, b) == target), None)
        return next((x for x in xs if t[x][b] == target), None)

    def find_sandwich(self, a: int, xs: Iterable[int], b: int, target: int) -> Optional[int]:
        """The first x of xs with (a*x)*b == target, or None."""
        t = self._kernel_table()
        if t is None:
            mul = self.mul
            return next((x for x in xs if mul(mul(a, x), b) == target), None)
        row = t[a]
        return next((x for x in xs if t[row[x]][b] == target), None)

    def middle_terms(self, xs: Collection[int]) -> dict[int, Optional[int]]:
        """Every element a mapped to find_sandwich(a, xs, a, a): the first x
        of xs with (a*x)*a == a, or None. With a mul table to read, each a
        takes its row once and walks xs in one loop; otherwise each a is one
        find_sandwich."""
        t = self._kernel_table()
        if t is None:
            find = self.find_sandwich
            return {a: find(a, xs, a, a) for a in self.elements()}
        found: dict[int, Optional[int]] = {}
        for a in self.elements():
            row = t[a]
            for x in xs:
                if t[row[x]][a] == a:
                    found[a] = x
                    break
            else:
                found[a] = None
        return found

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

    def units(self) -> dict[int, int]:
        """Every unit mapped to its inverse, ascending code order, cached.

        The mapping is closed under swapping: if u maps to v then v maps to u.
        Treat the returned dict as read-only.
        """
        def sweep() -> dict[int, int]:
            self.tabulate()
            return {x: v for x in self.elements() if (v := self.inverse_of(x)) is not None}

        return self.cached("units", sweep)

    # codecs and display ------------------------------------------------------

    def decode(self, code: int):
        """Structural form of a code; the base carrier is structureless."""
        return code

    def encode(self, value) -> int:
        return value

    def element_repr(self, x: int) -> str:
        return str(x)

    def element_reprs(self) -> Sequence[str]:
        """element_repr of every element, in elements() order, cached."""
        return self.cached("element_reprs", self._element_reprs)

    def _element_reprs(self) -> Sequence[str]:
        return tuple(map(self.element_repr, self.elements()))

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
        super().__init__(size=n, one=1 % n)

    def _add_rows(self) -> Iterable[array]:
        n = self.n
        codes = array(_row_code(n), range(n)) * 2
        return (codes[a:a + n] for a in range(n))  # a + b rotates 0..n-1

    def _mul_rows(self) -> Iterable[array]:
        n = self.n
        zeros = array(_row_code(n), (0,)) * n
        # row a holds a * b % n = residues[a * b] for b in 0..n-1: a slice
        # with stride a, copied in C
        residues = array(_row_code(n), range(n)) * n
        return (residues[0:a * n:a] if a else zeros for a in range(n))

    def _neg_row(self) -> list[int]:
        n = self.n
        return [-a % n for a in range(n)]

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
        if not isinstance(base.elements(), range):
            raise ValueError("the base of a matrix ring must be a dense carrier")
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
        super().__init__(size=cardinality, one=one)
        if base.size <= _LIST_ROWS:
            base.tabulate()

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

    def inverse_of(self, x: int) -> Optional[int]:
        """x^(m-1) for the least m >= 1 with x^m = 1, or None.

        The powers of x in a finite ring repeat, and they are distinct until
        the first repeat. x is a unit exactly when that repeat is one, and
        the power before it is x's inverse on both sides; so the walk takes
        at most size products, over any base. M1(B) and T1(B) are B code for
        code, so they ask the base.
        """
        if self.k == 1:
            return self.base.inverse_of(x)
        mul, one = self.mul, self.one
        seen = {one}
        prev, power = one, x
        while power not in seen:
            seen.add(power)
            prev, power = power, mul(power, x)
        return prev if power == one else None

    # Cayley tables from the base operations. Every entry is the value the
    # _raw_* method computes, from the same base operations in the same
    # order; no entry is derived from others through a ring law.

    def _slot_rows(self, runs, entries: Callable[[tuple], bytes]) -> Iterable[bytes]:
        """Rows of a table computed slot by slot, as _summed_rows gives them.

        Slot p of entry (a, b) is entries(xs)[ys], with xs the digits of a at
        positions ps and ys the digits of b at positions qs, |ps| = |qs|,
        packed into one index, first digit most significant. runs splits the
        slots of a into runs of consecutive slots, each given as its length
        w and the (p, ps, qs) of the slots it determines, ps counted within
        the run. For each run and each of its B**w digit patterns, one int
        row holds that run's share of every entry; a table row adds one
        share per run.

        A slot row is gathered, by _gather, from the B**|qs| entries(xs),
        computed once per xs, through the column of every b's digits at qs
        packed into one index. That column is bytes, summed from the byte
        columns of single digits as ints with no carry: a carrier within
        the table threshold has B**|qs| of at most 100, so every index fits
        a byte. The gathered row holds unweighted base codes; times the
        slot's weight, its entries stay codes of the carrier, so no carry
        crosses a field.
        """
        B, n, m = self.base.size, self.size, len(self._slots)
        # digit p of every code b, as bytes; then b's digits at qs packed, per qs
        digits = [b"".join(bytes((d,)) * B ** (m - 1 - p) for d in range(B)) * B ** p
                  for p in range(m)]
        columns: dict[tuple[int, ...], bytes] = {}
        values: dict[tuple[int, ...], bytes] = {}  # xs -> entries
        slot_rows: dict[tuple[int, tuple[int, ...]], int] = {}  # (p, xs) -> int row

        def column(qs: tuple[int, ...]) -> bytes:
            w = len(qs)
            assert B ** w <= 256, "a packed index must fit its byte"
            return sum(int.from_bytes(digits[q], "big") * B ** (w - 1 - i)
                       for i, q in enumerate(qs)).to_bytes(n, "big")

        parts = []
        for width, slots in runs:
            shares = []
            for x in product(range(B), repeat=width):
                share = 0
                for p, ps, qs in slots:
                    xs = tuple(x[l] for l in ps)
                    if (p, xs) not in slot_rows:
                        if qs not in columns:
                            columns[qs] = column(qs)
                        if xs not in values:
                            values[xs] = entries(xs)
                        slot_rows[p, xs] = _gather(values[xs], columns[qs], n) * B ** (m - 1 - p)
                    share += slot_rows[p, xs]
                shares.append(share)
            parts.append(shares)
        return _summed_rows(parts, n)

    def _slot_power(self, rows: Sequence[Sequence[int]]) -> Iterable:
        """The table on all m slots whose part on each slot is rows, a table
        of the base or a list of one base row: the pair table of its first
        m // 2 slots and the rest, each built the same way. The additive
        group is the base's to the power m, in the same mixed-radix order,
        so this pairs add tables, and neg rows as one-row tables."""
        powers = {1: rows}

        def power(m: int) -> Sequence:
            if m not in powers:
                code = _row_code(len(rows[0]) ** m)
                powers[m] = [array(code, row) for row in
                             _pair_rows(power(m // 2), power(m - m // 2))]
            return powers[m]

        m = len(self._slots)
        return rows if m == 1 else _pair_rows(power(m // 2), power(m - m // 2))

    def _add_rows(self) -> Iterable:
        return self._slot_power(self.base._tables()[0])

    def _neg_row(self) -> Sequence[int]:
        return next(iter(self._slot_power([self.base._tables()[2]])))

    def _mul_rows(self) -> Iterable[bytes]:
        """Rows of the mul table, one run per matrix row.

        The row-i slots of a*b depend only on the row-i slots of a, so each
        run is one matrix row, and its shares are the row-vector products
        r*b for every row r of base digits.

        The dot products of one xs with every ys fold the terms left to
        right as _raw_mul does, from 0 + x0*y0, one term per step: each
        value so far v extends to add[v][mul[x][y]] for every digit y, the
        base's mul row of x gathered through its add row of v by
        bytes.translate. For k >= 2 a carrier within the table threshold
        has a base of at most 10 elements (T2(Z10) has 1000), so base codes
        fit a byte.
        """
        add_rows, mul_rows, _ = self.base._tables()
        if self.k == 1:  # entry (a, b) is the base's 0 + ab: its + row of 0 after mul row a
            pack, compose = _row_ops(self.size)
            zero_row = pack(add_rows[0])
            return (compose(zero_row, pack(row)) for row in mul_rows)
        adds = [bytes(row).ljust(256, b"\0") for row in add_rows]
        muls = [bytes(row) for row in mul_rows]
        start = bytes((self.base.zero,))

        def dots(xs: tuple[int, ...]) -> bytes:
            acc = start
            for x in xs:
                acc = b"".join(map(muls[x].translate, map(adds.__getitem__, acc)))
            return acc

        runs = []
        for i in range(self.k):
            run = [p for p, (row, _) in enumerate(self._slots) if row == i]
            runs.append((len(run), [(p, tuple(l - run[0] for l, _ in self._mul_terms[p]),
                                      tuple(q for _, q in self._mul_terms[p]))
                                     for p in run]))
        return self._slot_rows(runs, dots)

    def element_repr(self, x: int) -> str:
        entry = self.base.element_repr
        return "[" + ",".join(
            "[" + ",".join(map(entry, row)) + "]" for row in self.decode(x)) + "]"

    def _repr_template(self) -> str:
        """element_repr as a %-template with one %s per slot, in slot order."""
        zero = self.base.element_repr(self.base.zero).replace("%", "%%")
        slots = set(self._slots)
        return "[" + ",".join("[" + ",".join("%s" if (i, j) in slots else zero
                                             for j in range(self.k)) + "]"
                              for i in range(self.k)) + "]"

    def _element_reprs(self) -> Sequence[str]:
        # codes are mixed-radix over the slots, first slot most significant:
        # the order of product
        return tuple(map(self._repr_template().__mod__,
                         product(self.base.element_reprs(), repeat=len(self._slots))))


class MatrixRing(_SquareRing):
    """Full k-by-k matrix ring over a base ring; every entry is a slot."""

    def __init__(self, k: int, base: FiniteRing, size_cap: int = DEFAULT_SIZE_CAP) -> None:
        super().__init__(k, base, tuple((i, j) for i in range(k) for j in range(k)),
                         size_cap)

    # The benchmark tracer (perfbench/tracer.py) wraps these through each
    # class's own __dict__, so both subclasses bind them.
    _raw_add = _SquareRing._raw_add
    _raw_neg = _SquareRing._raw_neg
    _raw_mul = _SquareRing._raw_mul

    @property
    def spec_string(self) -> str:
        return f"M{self.k}({self.base.spec_string})"


class TriangularRing(_SquareRing):
    """Upper-triangular k-by-k matrices over a base ring; only the k(k+1)/2
    on-or-above-diagonal slots are stored."""

    def __init__(self, k: int, base: FiniteRing, size_cap: int = DEFAULT_SIZE_CAP) -> None:
        super().__init__(k, base, tuple((i, j) for i in range(k) for j in range(i, k)),
                         size_cap)

    _raw_add = _SquareRing._raw_add
    _raw_neg = _SquareRing._raw_neg
    _raw_mul = _SquareRing._raw_mul

    @property
    def spec_string(self) -> str:
        return f"T{self.k}({self.base.spec_string})"


class ProductRing(FiniteRing):
    """Direct product of two dense rings with componentwise arithmetic.

    The code of (c1, c2) is c1 * |r2| + c2. Each factor of at most
    _LIST_ROWS elements is tabled when the product is built, and every
    factor before a sweep over the product; the product's tables pair the
    rows of the factors'.
    """

    def __init__(self, r1: FiniteRing, r2: FiniteRing, size_cap: int = DEFAULT_SIZE_CAP) -> None:
        if not (isinstance(r1.elements(), range) and isinstance(r2.elements(), range)):
            raise ValueError("the factors of a product must be dense carriers")
        cardinality = r1.size * r2.size
        require_cap(cardinality, size_cap)
        self.r1 = r1
        self.r2 = r2
        super().__init__(size=cardinality, one=self.encode((r1.one, r2.one)))
        for factor in (r1, r2):
            if factor.size <= _LIST_ROWS:
                factor.tabulate()

    def tabulate(self) -> None:
        self.r1.tabulate()
        self.r2.tabulate()
        super().tabulate()

    def decode(self, code: int):
        return divmod(code, self.r2.size)

    def encode(self, pair) -> int:
        c1, c2 = pair
        return c1 * self.r2.size + c2

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

    def _add_rows(self) -> Iterable[bytes]:
        return _pair_rows(self.r1._tables()[0], self.r2._tables()[0])

    def _mul_rows(self) -> Iterable[bytes]:
        return _pair_rows(self.r1._tables()[1], self.r2._tables()[1])

    def _neg_row(self) -> bytes:
        return next(_pair_rows([self.r1._tables()[2]], [self.r2._tables()[2]]))

    def inverse_of(self, x: int) -> Optional[int]:
        x1, x2 = self.decode(x)
        if (v1 := self.r1.inverse_of(x1)) is None or (v2 := self.r2.inverse_of(x2)) is None:
            return None
        return self.encode((v1, v2))

    def element_repr(self, x: int) -> str:
        x1, x2 = self.decode(x)
        return f"({self.r1.element_repr(x1)},{self.r2.element_repr(x2)})"

    def _element_reprs(self) -> Sequence[str]:
        return tuple(map("(%s,%s)".__mod__,
                         product(self.r1.element_reprs(), self.r2.element_reprs())))

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

    def __init__(self, add_table, mul_table, one: int,
                 label: Optional[str] = None) -> None:
        n = len(add_table)
        for name, tab in (("add", add_table), ("mul", mul_table)):
            if len(tab) != n or any(len(row) != n for row in tab):
                raise ValueError(f"{name} table must be {n}x{n}")
            for row in tab:
                for v in row:
                    if not 0 <= v < n:
                        raise ValueError(f"{name} table entry {v} out of range")
        if not 0 <= one < n:
            raise ValueError(f"identity {one} out of range")
        add = [list(row) for row in add_table]
        mul = [list(row) for row in mul_table]
        neg = []
        for a in range(n):
            try:
                neg.append(add[a].index(0))
            except ValueError:
                raise ValueError(f"element {a} has no additive inverse") from None
        self._label = label or f"table{n}"
        super().__init__(size=n, one=one)
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
        return cls(add, mul, ring.one, label=label or f"table({ring.spec_string})")

    @property
    def spec_string(self) -> str:
        return self._label


class AxiomCheck(_Record):
    __slots__ = ("name", "ok", "counterexample")

    def __init__(self, name: str, ok: bool,
                 counterexample: Optional[tuple[int, ...]]) -> None:
        self.name = name
        self.ok = ok
        self.counterexample = counterexample


class AxiomReport(_Record):
    __slots__ = ("ring", "ok", "checks")

    def __init__(self, ring: str, ok: bool, checks: list[AxiomCheck]) -> None:
        self.ring = ring
        self.ok = ok
        self.checks = checks


_AXIOM_NAMES = ("add_associative", "add_commutative", "add_identity", "add_inverse",
                "mul_associative", "mul_identity", "left_distributive", "right_distributive")


def check_ring_axioms(ring: FiniteRing, cap: int = DEFAULT_AXIOM_CAP) -> AxiomReport:
    """Verify the ring axioms on the whole carrier.

    Each law is a row of one table: its name, its arity, its failure
    predicate, and the laws its proof in _row_proofs rests on, if it has
    one. Write A_x and M_x for row x of the + and the * table, A^x and M^x
    for their columns, and f.h for "apply h, then f". With G the additive
    generating set of _additive_generators, every element of which is a
    left-nested sum of generators, the proofs are four identities of rows,
    each compared a whole row at a time, and one scalar check:

    - + associative, by Light's test: A_(x+g) = A_x.A_g for every x and g in
      G. The s with (x+s)+y = x+(s+y) for all x, y are closed under +:
      (x+(s+t))+y = ((x+s)+t)+y = (x+s)+(t+y) = x+(s+(t+y)) = x+((s+t)+y).
    - + commutative: A_x = A^x for every x, the table is its transpose.
    - a(b+c) = ab+ac: M_a.A^c = A^(ac).M_a for every a and c in G; (a+b)c =
      ac+bc: M^c.A_a = A_(ac).M^c for every c and a in G. Given +
      associative, the c (resp. a) satisfying the law are closed under +:
      a(b+(c+d)) = a((b+c)+d) = (ab+ac)+ad = ab+a(c+d), and symmetrically.
    - (ab)c = a(bc) on G^3, a scalar check. Given both distributive laws,
      both sides are additive in each argument, so the law spreads from G
      to R one argument at a time.

    The rows run so that each law's premises come first. A law is proven
    when its premises are proven and its proof passes; otherwise it is swept
    over every tuple in lexicographic code order, which reports the first
    counterexample or, finding none, proves the law. So only a law that
    fails, or whose proof rests on one that fails, costs a sweep of n^arity
    tuples. The cap bounds the carrier separately from the general
    enumeration cap, and is checked before the report, memoised on the
    ring, is read.
    """
    require_cap(ring.size, cap)
    return ring.cached("axioms", lambda: _axiom_report(ring))


def _axiom_report(ring: FiniteRing) -> AxiomReport:
    add, mul, neg, zero, one = ring.add, ring.mul, ring.neg, ring.zero, ring.one
    laws = (  # name, arity, fails, premises of the proof
        ("add_associative", 3, lambda a, b, c: add(add(a, b), c) != add(a, add(b, c)), ()),
        ("add_commutative", 2, lambda a, b: add(a, b) != add(b, a), ()),
        ("add_identity", 1, lambda a: add(zero, a) != a or add(a, zero) != a, ()),
        ("add_inverse", 1, lambda a: add(a, neg(a)) != zero, ()),
        ("mul_identity", 1, lambda a: mul(one, a) != a or mul(a, one) != a, ()),
        ("left_distributive", 3, lambda a, b, c: mul(a, add(b, c)) != add(mul(a, b), mul(a, c)),
         ("add_associative",)),
        ("right_distributive", 3, lambda a, b, c: mul(add(a, b), c) != add(mul(a, c), mul(b, c)),
         ("add_associative",)),
        ("mul_associative", 3, lambda a, b, c: mul(mul(a, b), c) != mul(a, mul(b, c)),
         ("left_distributive", "right_distributive")),
    )
    elems = list(ring.elements())
    proofs = _row_proofs(ring, elems)
    found: dict[str, Optional[tuple[int, ...]]] = {}
    for name, arity, fails, premises in laws:
        try:
            proven = (name in proofs and all(found[p] is None for p in premises)
                      and proofs[name]())
        except KeyError:  # a sum or product left the carrier
            proven = False
        found[name] = None if proven else next(
            (t for t in product(elems, repeat=arity) if fails(*t)), None)
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


# Rows of a carrier of n elements hold positions in its element list: bytes
# up to 256 elements, tuples above.


def _row_ops(n: int) -> tuple[Callable, Callable]:
    """pack, which makes a row from its entries, and compose(outer, inner),
    the row of "apply inner, then outer" made in C: entry i is outer[inner[i]]."""
    if n <= 256:
        return bytes, lambda outer, inner: inner.translate(outer.ljust(256, b"\0"))

    def compose(outer: tuple, inner: Iterable[int]) -> tuple:
        return itemgetter(*inner)(outer)
    return partial(compose, tuple(range(n))), compose


def _cayley_rows(ring: FiniteRing, elems: list[int]) -> list[Callable[[int], Any]]:
    """Getters of A_x, A^x, M_x and M^x by the position x in elems.

    A carrier whose tables are filled, by tabulate() now or earlier, reads
    them. Any other carrier computes each row through add and mul when
    asked, holding none; a sum or product that leaves the carrier raises
    KeyError.
    """
    n, pack = len(elems), _row_ops(len(elems))[0]
    getters = []
    ring.tabulate()
    if ring._mul_table is not None:
        for rows in (list(map(pack, t)) for t in ring._tables()[:2]):
            getters += (rows.__getitem__, list(map(pack, zip(*rows))).__getitem__)
        return getters
    index = dict(zip(elems, range(n))).__getitem__
    for op in (ring.add, ring.mul):
        getters += (lambda x, op=op: pack(map(index, map(op, repeat(elems[x], n), elems))),
                    lambda x, op=op: pack(map(index, map(op, elems, repeat(elems[x], n)))))
    return getters


def _row_proofs(ring: FiniteRing, elems: list[int]) -> dict[str, Callable[[], bool]]:
    """The proofs of check_ring_axioms, by law name. Each may raise
    KeyError when a sum or product leaves the carrier; like False, that
    only sends the law to its sweep."""
    A, AT, M, MT = _cayley_rows(ring, elems)
    compose, xs, mul = _row_ops(len(elems))[1], range(len(elems)), ring.mul
    gens = _additive_generators(ring)
    gs = [elems.index(g) for g in gens]

    def holds(rows: Callable, lines: Callable, side: Callable) -> bool:
        # compose(R, L) == side(R, R[g]) for every R = rows(x) and L = lines(g)
        at_gens = [(lines(g), g) for g in gs]
        return all(compose(R, L) == side(R, R[g]) for R in map(rows, xs) for L, g in at_gens)

    return {
        "add_associative": lambda: holds(A, A, lambda Ax, s: A(s)),
        "add_commutative": lambda: all(map(eq, map(A, xs), map(AT, xs))),
        "left_distributive": lambda: holds(M, AT, lambda Ma, s: compose(AT(s), Ma)),
        "right_distributive": lambda: holds(MT, A, lambda Mc, s: compose(A(s), Mc)),
        "mul_associative": lambda: all(mul(mul(a, b), c) == mul(a, mul(b, c))
                                       for a in gens for b in gens for c in gens),
    }
