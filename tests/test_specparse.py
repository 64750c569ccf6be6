"""Ring description grammar: parses, cardinalities, errors, and round trips."""

import random
import sys

import pytest

from ringlab import (
    MatrixRing,
    MatrixSpec,
    ProductRing,
    ProductSpec,
    RingSpecError,
    SizeCapError,
    TriangularRing,
    TriangularSpec,
    ZmodRing,
    ZmodSpec,
    build_ring,
    parse_ring_spec,
    spec_cardinality,
    spec_to_text,
)
from ringlab.specparse import MAX_NUMBER_DIGITS, MAX_SPEC_DEPTH, max_number_digits


def test_frozen_parses():
    assert parse_ring_spec("Z6") == ZmodSpec(6)
    assert parse_ring_spec("M2(Z2)") == MatrixSpec(2, ZmodSpec(2))
    assert parse_ring_spec("t3(z2)") == TriangularSpec(3, ZmodSpec(2))
    assert parse_ring_spec(" z2 X z4 ") == ProductSpec(ZmodSpec(2), ZmodSpec(4))
    assert parse_ring_spec("\tM2(\nZ2\r)\fx\vZ3 ") == ProductSpec(
        MatrixSpec(2, ZmodSpec(2)), ZmodSpec(3))
    assert parse_ring_spec("M2(T2(Z2)xZ3)") == MatrixSpec(
        2, ProductSpec(TriangularSpec(2, ZmodSpec(2)), ZmodSpec(3)))
    assert parse_ring_spec("(Z5)") == ZmodSpec(5)


def test_product_associates_left():
    assert parse_ring_spec("Z2xZ3xZ5") == ProductSpec(
        ProductSpec(ZmodSpec(2), ZmodSpec(3)), ZmodSpec(5))
    assert parse_ring_spec("Z2x(Z3xZ5)") == ProductSpec(
        ZmodSpec(2), ProductSpec(ZmodSpec(3), ZmodSpec(5)))


def test_frozen_cardinalities():
    cases = {
        "Z1": 1,
        "Z6": 6,
        "M2(Z2)": 16,
        "M2(Z4)": 256,   # 4 entries, 4 values each
        "M3(Z2)": 512,
        "T2(Z3)": 27,
        "T3(Z2)": 64,
        "M2(Z2)xZ2": 32,
        "M2(Z3)": 81,
    }
    for text, size in cases.items():
        assert spec_cardinality(parse_ring_spec(text)) == size, text


BAD_INPUTS = [
    ("", 0, "'Z', 'M', 'T' or '('"),
    ("Z", 1, "a digit"),
    ("Z0", 1, None),
    ("M2", 2, "'('"),
    ("M0(Z2)", 1, None),
    ("M2(Z2", 5, "')'"),
    ("(Z2", 3, "')'"),
    ("Z2)", 2, None),
    ("Q8", 0, "'Z', 'M', 'T' or '('"),
    ("Z2 x", 4, "'Z', 'M', 'T' or '('"),
    ("Z2x xZ3", 4, None),  # offset of the offending char, after the space
    # str.isdigit holds for each of these, and int() reads the second and
    # third as 3 and 12
    ("Z\u00b2", 1, "an ASCII digit"),        # superscript two
    ("Z\u0663", 1, "an ASCII digit"),        # Arabic-Indic three
    ("Z\uff11\uff12", 1, "an ASCII digit"),  # fullwidth one two
    ("Z1\uff12", 2, "an ASCII digit"),
    # str.isspace holds for each of these too, but only ASCII whitespace
    # is skipped: a Unicode space or a separator control is refused where
    # it stands
    ("Z\u30002", 1, "a digit"),   # ideographic space
    ("Z\u00a02", 1, "a digit"),   # no-break space
    ("Z2\x1cxZ3", 2, None),       # file separator
]


@pytest.mark.parametrize("text,offset,expected", BAD_INPUTS,
                         ids=[repr(c[0]) for c in BAD_INPUTS])
def test_errors_carry_position(text, offset, expected):
    with pytest.raises(RingSpecError) as exc:
        parse_ring_spec(text)
    assert exc.value.offset == offset
    if expected is not None:
        assert exc.value.expected == expected
    assert isinstance(exc.value, ValueError)
    assert f"offset {offset}" in str(exc.value)


def _random_tree(rng, depth):
    if depth == 0:
        return ZmodSpec(rng.randint(1, 12))
    pick = rng.random()
    if pick < 0.4:
        return ZmodSpec(rng.randint(1, 12))
    if pick < 0.6:
        return MatrixSpec(rng.randint(1, 3), _random_tree(rng, depth - 1))
    if pick < 0.8:
        return TriangularSpec(rng.randint(1, 3), _random_tree(rng, depth - 1))
    return ProductSpec(_random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


def test_random_corpus_round_trips():
    rng = random.Random(1729)
    built = 0
    for _ in range(1000):
        tree = _random_tree(rng, 3)
        text = spec_to_text(tree)
        assert parse_ring_spec(text) == tree
        # the formula must agree with an actually enumerated carrier
        if spec_cardinality(tree) <= 512:
            assert build_ring(tree).size == spec_cardinality(tree)
            built += 1
    assert built > 50  # the corpus really exercised the builder


def test_round_trip_keeps_product_grouping():
    text = "Z2x(Z3xZ5)"
    tree = parse_ring_spec(text)
    assert spec_to_text(tree) == text
    assert spec_to_text(parse_ring_spec("Z2xZ3xZ5")) == "Z2xZ3xZ5"


def test_build_ring_types_and_text_input(rings):
    assert isinstance(build_ring("Z6"), ZmodRing)
    assert isinstance(build_ring("M2(Z2)"), MatrixRing)
    assert isinstance(build_ring("T2(Z3)"), TriangularRing)
    product = build_ring("Z2xZ4")
    assert isinstance(product, ProductRing)
    assert product.size == 8
    assert build_ring(ZmodSpec(4)).size == 4  # trees work directly


def test_build_ring_spec_strings_round_trip():
    for text in ("Z6", "M2(Z2)", "T2(Z3)", "Z2xZ4", "M2(Z2)xZ2", "Z2x(Z3xZ5)",
                 "M2(Z2x(Z2xZ2))"):
        assert build_ring(text).spec_string == text


def test_cap_checked_before_any_allocation():
    with pytest.raises(SizeCapError) as exc:
        build_ring("M3(Z9)")  # 9^9 elements on paper only
    assert exc.value.cardinality == 9 ** 9
    with pytest.raises(SizeCapError):
        build_ring("Z7", size_cap=6)
    assert build_ring("Z7", size_cap=7).size == 7


def test_nesting_is_bounded_at_max_spec_depth():
    d = MAX_SPEC_DEPTH
    # d brackets, a tree d levels high, and a d-factor product all parse
    for text in ("(" * d + "Z2" + ")" * d,
                 "M1(" * (d - 1) + "Z2" + ")" * (d - 1),
                 "x".join(["Z1"] * d)):
        parse_ring_spec(text)
    for text in ("(" * (d + 1) + "Z2" + ")" * (d + 1),
                 "M1(" * d + "Z2" + ")" * d,
                 "x".join(["Z1"] * (d + 1)),
                 "M1(" * (d - 2) + "Z1xZ1xZ1" + ")" * (d - 2)):
        with pytest.raises(RingSpecError, match="nested deeper"):
            parse_ring_spec(text)


def test_number_digits_are_bounded():
    longest = "9" * MAX_NUMBER_DIGITS
    assert parse_ring_spec("Z" + longest) == ZmodSpec(int(longest))
    too_long = "9" * (MAX_NUMBER_DIGITS + 1)
    for text, offset in (("Z" + too_long, 1), ("Z2 x M" + too_long + "(Z2)", 6)):
        with pytest.raises(RingSpecError) as exc:
            parse_ring_spec(text)
        assert exc.value.offset == offset
        assert str(exc.value) == (f"number longer than {MAX_NUMBER_DIGITS} digits "
                                  f"at offset {offset}")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="interpreter without an int-conversion digit limit")
def test_number_digit_bound_follows_a_lowered_interpreter_limit():
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the lowest limit Python accepts
    try:
        assert max_number_digits() == 640
        assert parse_ring_spec("Z" + "9" * 640) == ZmodSpec(int("9" * 640))
        for digits in (641, MAX_NUMBER_DIGITS):
            with pytest.raises(RingSpecError) as exc:
                parse_ring_spec("Z" + "9" * digits)
            assert str(exc.value) == "number longer than 640 digits at offset 1"
        sys.set_int_max_str_digits(0)  # no limit: the fixed bound holds
        assert max_number_digits() == MAX_NUMBER_DIGITS
    finally:
        sys.set_int_max_str_digits(saved)


def test_cardinality_is_exact_below_the_digit_bound():
    with pytest.raises(SizeCapError) as exc:
        build_ring("M60(Z2)")  # 2^3600, about 10^1084
    assert exc.value.cardinality == 2 ** 3600
    with pytest.raises(SizeCapError) as exc:
        build_ring("M120(Z2)")  # 2^14400, about 10^4335
    assert exc.value.cardinality is None
    assert "above 10^4000" in str(exc.value)
    # the zero ring stays exact however large the dimension
    assert build_ring("M5(Z1)").size == 1


def test_product_terms_bound_matrix_dimensions():
    # M4: 4^3 = 64 terms, T4: 4*5*6/6 = 20 terms, summed over the tree
    assert build_ring("M4(Z1)", size_cap=64).size == 1
    assert build_ring("T4(Z1)", size_cap=20).size == 1
    assert build_ring("M4(Z1)xM4(Z1)", size_cap=128).size == 1
    for spec, cap in (("M4(Z1)", 63), ("T4(Z1)", 19), ("M4(Z1)xM4(Z1)", 127),
                      ("M2(M4(Z1))", 71)):
        with pytest.raises(SizeCapError) as exc:
            build_ring(spec, size_cap=cap)
        assert exc.value.cardinality == 1 and exc.value.cap == cap
        assert f"product terms (k^3 for Mk, k(k+1)(k+2)/6 for Tk) than cap {cap}" \
            in str(exc.value)


def test_zero_ring_builds():
    ring = build_ring("Z1")
    assert ring.size == 1 and ring.one == ring.zero == 0
