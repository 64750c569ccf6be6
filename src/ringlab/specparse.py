"""Parser for the textual ring descriptions used across the CLI and tests.

Grammar, case insensitive, ignoring ASCII whitespace (space, tab, LF, CR, FF, VT):

    spec := term ("x" term)*
    term := "Z" nat | "M" nat "(" spec ")" | "T" nat "(" spec ")" | "(" spec ")"

Z names the integers mod n, M and T the full and upper-triangular square
matrix rings over the bracketed description, and x the direct product,
associating to the left. Cardinality is computed on the tree before any
carrier is allocated, so a description that blows past the size cap is
rejected without building anything. A description may nest at most
MAX_SPEC_DEPTH brackets, and its tree may be at most MAX_SPEC_DEPTH levels
high, so every recursion over a parsed tree stays shallow. A number is
written in ASCII digits 0-9, at most max_number_digits() of them.
"""

from __future__ import annotations

import math
import sys
from typing import Optional, Union

from .rings import (
    DEFAULT_SIZE_CAP,
    EXACT_CARDINALITY_DIGITS,
    FiniteRing,
    MatrixRing,
    ProductRing,
    SizeCapError,
    TriangularRing,
    ZmodRing,
    _Value,
    _set,
    require_cap,
)

MAX_SPEC_DEPTH = 100

# A number in a description may have at most this many digits, the limit of
# Python's default int-from-string conversion; a longer one is unusable. An
# interpreter run with a lower limit (PYTHONINTMAXSTRDIGITS, -X
# int_max_str_digits, sys.set_int_max_str_digits) lowers the bound to it.
MAX_NUMBER_DIGITS = 4300


def max_number_digits() -> int:
    """The digit bound in force: MAX_NUMBER_DIGITS or the interpreter's lower limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    return min(limit, MAX_NUMBER_DIGITS) if limit else MAX_NUMBER_DIGITS


class RingSpecError(ValueError):
    """Syntax or range error in a ring description, with the offset."""

    def __init__(self, message: str, offset: int,
                 expected: Optional[str] = None) -> None:
        detail = f"{message} at offset {offset}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)
        self.offset = offset
        self.expected = expected


# Spec nodes key the ring cache, so each compares equal only within its own
# class: MatrixSpec(2, Z2) and TriangularSpec(2, Z2) are different rings.
class ZmodSpec(_Value):
    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        _set(self, "n", n)


class MatrixSpec(_Value):
    __slots__ = ("k", "inner")

    def __init__(self, k: int, inner: "RingSpec") -> None:
        _set(self, "k", k)
        _set(self, "inner", inner)


class TriangularSpec(_Value):
    # MatrixSpec's shape, but not its subclass: isinstance tells them apart
    __slots__ = ("k", "inner")
    __init__ = MatrixSpec.__init__


class ProductSpec(_Value):
    __slots__ = ("left", "right")

    def __init__(self, left: "RingSpec", right: "RingSpec") -> None:
        _set(self, "left", left)
        _set(self, "right", right)


RingSpec = Union[ZmodSpec, MatrixSpec, TriangularSpec, ProductSpec]


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t\n\r\f\v":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    # parse_spec and parse_term return (node, tree height); depth counts
    # the brackets open around the current position.

    def parse_spec(self, depth: int) -> tuple[RingSpec, int]:
        self.check_depth(depth)
        node, height = self.parse_term(depth)
        while self.peek().lower() == "x":
            self.pos += 1
            right, right_height = self.parse_term(depth)
            node, height = ProductSpec(left=node, right=right), max(height, right_height) + 1
            self.check_depth(height)
        return node, height

    def check_depth(self, depth: int) -> None:
        if depth > MAX_SPEC_DEPTH:
            raise RingSpecError(f"description nested deeper than {MAX_SPEC_DEPTH} levels",
                                self.pos)

    def parse_term(self, depth: int) -> tuple[RingSpec, int]:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            node, height = self.parse_spec(depth + 1)
            if self.peek() != ")":
                raise RingSpecError("unclosed group", self.pos, expected="')'")
            self.pos += 1
            return node, height
        kind = ch.lower()
        if kind == "z":
            self.pos += 1
            return ZmodSpec(n=self.parse_nat()), 1
        if kind in ("m", "t"):
            self.pos += 1
            k = self.parse_nat()
            if self.peek() != "(":
                raise RingSpecError("matrix constructor needs a base ring",
                                    self.pos, expected="'('")
            self.pos += 1
            inner, height = self.parse_spec(depth + 1)
            if self.peek() != ")":
                raise RingSpecError("unclosed constructor", self.pos, expected="')'")
            self.pos += 1
            self.check_depth(height + 1)
            node = MatrixSpec(k, inner) if kind == "m" else TriangularSpec(k, inner)
            return node, height + 1
        raise RingSpecError(f"unexpected {ch!r}" if ch else "unexpected end of input",
                            self.pos, expected="'Z', 'M', 'T' or '('")

    def parse_nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        digits = self.text[start:self.pos]
        # str.isdigit also holds for superscripts and other scripts' digits,
        # some of which int() reads: refuse the first at its own offset
        if not digits.isascii():
            at = next(i for i, c in enumerate(digits) if not c.isascii())
            raise RingSpecError(f"non-ASCII digit {digits[at]!a}", start + at,
                                expected="an ASCII digit")
        if self.pos == start:
            raise RingSpecError("missing number", start, expected="a digit")
        bound = max_number_digits()
        if self.pos - start > bound:
            raise RingSpecError(f"number longer than {bound} digits", start)
        value = int(digits)
        if value == 0:
            raise RingSpecError("size parameter must be positive", start)
        return value


def parse_ring_spec(text: str) -> RingSpec:
    parser = _Parser(text)
    node, _ = parser.parse_spec(0)
    parser.skip_ws()
    if parser.pos != len(text):
        raise RingSpecError(f"trailing input {text[parser.pos:]!r}", parser.pos)
    return node


def spec_to_text(node: RingSpec) -> str:
    """Canonical text for a tree; parses back to an equal tree."""
    if isinstance(node, ZmodSpec):
        return f"Z{node.n}"
    if isinstance(node, MatrixSpec):
        return f"M{node.k}({spec_to_text(node.inner)})"
    if isinstance(node, TriangularSpec):
        return f"T{node.k}({spec_to_text(node.inner)})"
    if isinstance(node, ProductSpec):
        right = spec_to_text(node.right)
        if isinstance(node.right, ProductSpec):
            right = f"({right})"
        return f"{spec_to_text(node.left)}x{right}"
    raise TypeError(f"not a ring spec node: {node!r}")


def spec_cardinality(node: RingSpec) -> int:
    if isinstance(node, ZmodSpec):
        return node.n
    if isinstance(node, MatrixSpec):
        return spec_cardinality(node.inner) ** (node.k * node.k)
    if isinstance(node, TriangularSpec):
        return spec_cardinality(node.inner) ** (node.k * (node.k + 1) // 2)
    if isinstance(node, ProductSpec):
        return spec_cardinality(node.left) * spec_cardinality(node.right)
    raise TypeError(f"not a ring spec node: {node!r}")


def _log10_cardinality(node: RingSpec) -> float:
    """log10 of spec_cardinality, in floats, so it is cheap at any size."""
    if isinstance(node, ZmodSpec):
        return math.log10(node.n)
    if isinstance(node, ProductSpec):
        return _log10_cardinality(node.left) + _log10_cardinality(node.right)
    if isinstance(node, MatrixSpec):
        slots = node.k * node.k
    elif isinstance(node, TriangularSpec):
        slots = node.k * (node.k + 1) // 2
    else:
        raise TypeError(f"not a ring spec node: {node!r}")
    inner = _log10_cardinality(node.inner)
    if inner == 0.0:  # matrices over the zero ring form the zero ring
        return 0.0
    try:
        return inner * slots
    except OverflowError:  # slots beyond float range while inner >= log10(2)
        return math.inf


def check_ring_spec(spec_or_text: Union[RingSpec, str],
                    size_cap: int = DEFAULT_SIZE_CAP) -> RingSpec:
    """Parse if needed and check the size cap on the tree; returns the tree.

    A carrier of 10 ** EXACT_CARDINALITY_DIGITS elements or more is refused
    from the float estimate alone, with cardinality None: its exact size
    would cost more to compute and print than the refusal is worth. A tree
    whose matrix constructors would list more product terms than the cap is
    refused as well. Nothing is built.
    """
    node = (parse_ring_spec(spec_or_text)
            if isinstance(spec_or_text, str) else spec_or_text)
    if _log10_cardinality(node) >= EXACT_CARDINALITY_DIGITS:
        raise SizeCapError(None, size_cap)
    cardinality = spec_cardinality(node)
    require_cap(cardinality, size_cap)
    if _product_terms(node) > size_cap:
        raise SizeCapError(cardinality, size_cap,
                           "matrix dimensions need more product terms (k^3 for Mk, "
                           f"k(k+1)(k+2)/6 for Tk) than cap {size_cap}")
    return node


def build_ring(spec_or_text: Union[RingSpec, str],
               size_cap: int = DEFAULT_SIZE_CAP) -> FiniteRing:
    """A fresh ring for a description, refused as check_ring_spec refuses."""
    return _build(check_ring_spec(spec_or_text, size_cap), size_cap)


def _product_terms(node: RingSpec) -> int:
    """Product terms the matrix constructors of the tree list, summed.

    A k-by-k ring lists k^3 of them (M) or k(k+1)(k+2)/6 (T). Over a base of
    two or more elements its carrier, at least 2^(k(k+1)/2), is larger
    still, so in practice the bound bites on matrices over the zero ring,
    whose carrier has one element for every k.
    """
    if isinstance(node, ZmodSpec):
        return 0
    if isinstance(node, ProductSpec):
        return _product_terms(node.left) + _product_terms(node.right)
    k = node.k
    own = k ** 3 if isinstance(node, MatrixSpec) else k * (k + 1) * (k + 2) // 6
    return own + _product_terms(node.inner)


def _build(node: RingSpec, size_cap: int) -> FiniteRing:
    if isinstance(node, ZmodSpec):
        return ZmodRing(node.n, size_cap=size_cap)
    if isinstance(node, MatrixSpec):
        return MatrixRing(node.k, _build(node.inner, size_cap), size_cap=size_cap)
    if isinstance(node, TriangularSpec):
        return TriangularRing(node.k, _build(node.inner, size_cap), size_cap=size_cap)
    if isinstance(node, ProductSpec):
        return ProductRing(_build(node.left, size_cap),
                           _build(node.right, size_cap), size_cap=size_cap)
    raise TypeError(f"not a ring spec node: {node!r}")
