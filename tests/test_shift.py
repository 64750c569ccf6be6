"""Band operators over GF(2): normal forms, ring laws, truncation ranks.

The independent oracle for composition is the column calculus itself:
(x*y) applied to e_i must equal the XOR of x over the columns y hits. The
ring-law sweep runs the laws on a seeded random sample of operators, since
the canonical form is where the bugs would live. The oracle for the
incremental truncation ranks is a separate elimination per truncation size.
A rigged band product must make the demo fail, also after a clean demo ran
in the same process.
"""

import random

import pytest

from ringlab import (
    BandOperator,
    BandRing,
    run_shift_demo,
    truncation_dims,
    truncation_series,
)
from ringlab.cli import EXIT_FAIL, EXIT_PASS, run_command

S = BandOperator.right_shift()
T = BandOperator.left_shift()
ONE = BandOperator.identity()
ZERO = BandOperator.zero()
P0 = BandOperator.projection(0)


# construction and columns -----------------------------------------------------


def test_factory_columns():
    assert ONE.column(5) == {5}
    assert S.column(0) == {1} and S.column(7) == {8}
    assert T.column(0) == frozenset() and T.column(3) == {2}
    assert P0.column(0) == {0} and P0.column(3) == frozenset()
    assert ZERO.column(4) == frozenset()
    assert ZERO.is_zero and not ONE.is_zero


def test_column_rejects_negative_index():
    with pytest.raises(ValueError):
        S.column(-1)
    with pytest.raises(ValueError):
        BandOperator.projection(-2)


def test_from_parts_validation():
    with pytest.raises(ValueError):
        BandOperator.from_parts(diagonals=[(1, -2)])
    with pytest.raises(ValueError):
        BandOperator.from_parts(diagonals=[(1, 0), (1, 3)])
    with pytest.raises(ValueError):
        BandOperator.from_parts(exceptions={-1: [0]})
    with pytest.raises(ValueError):
        BandOperator.from_parts(exceptions=[(2, [0]), (2, [1])])
    with pytest.raises(ValueError):
        BandOperator.from_parts(exceptions={0: [-3]})


def test_normal_form_absorbs_redundant_descriptions():
    # a late diagonal start patched by agreeing exceptions is the plain shift
    patched = BandOperator.from_parts(diagonals=[(1, 3)],
                                      exceptions={0: [1], 1: [2], 2: [3]})
    assert patched == S
    assert BandOperator.from_parts(diagonals=[(1, 0)]) == S
    assert BandOperator.from_parts(diagonals=[(-1, 0)]) == T
    assert BandOperator.from_parts(diagonals=[(-1, 1)]) == T  # column 0 is empty either way
    assert BandOperator.from_parts() == ZERO
    # an exception that disagrees survives canonicalization
    bent = BandOperator.from_parts(diagonals=[(1, 0)], exceptions={2: [0]})
    assert bent != S
    assert bent.column(2) == {0} and bent.column(3) == {4}


def test_equality_is_semantic_for_normal_forms():
    a = BandOperator.from_parts(diagonals=[(0, 0), (2, 1)], exceptions={4: [0, 6]})
    # same map, spelled with lazy diagonals and every early column pinned
    start = a.stable_bound + 3
    b = BandOperator.from_parts(
        diagonals=[(0, start), (2, start)],
        exceptions={i: a.column(i) for i in range(start)})
    assert a == b
    assert hash(a) == hash(b)


# frozen operator identities -----------------------------------------------------


def test_shift_identities():
    assert T * S == ONE
    assert S * T != ONE
    assert S * T == ONE - P0
    assert S * T * S == S
    assert (S * T) * (S * T) == S * T  # st is idempotent
    assert T * P0 == T - T  # t kills the e0 line it never reaches back


def test_addition_is_characteristic_two():
    for op in (S, T, ONE, P0, S * S + T):
        assert op + op == ZERO
        assert -op == op
        assert op - op == ZERO
        assert op + ZERO == op


def test_ring_laws_on_seeded_sample():
    rng = random.Random(20260814)

    def random_op():
        offsets = rng.sample(range(-3, 4), rng.randint(0, 3))
        diagonals = [(d, rng.randint(0, 4)) for d in offsets]
        exceptions = {}
        for _ in range(rng.randint(0, 2)):
            exceptions[rng.randint(0, 5)] = {
                rng.randint(0, 6) for _ in range(rng.randint(0, 3))}
        return BandOperator.from_parts(diagonals, exceptions)

    sample = [ZERO, ONE, S, T, P0] + [random_op() for _ in range(7)]
    for x in sample:
        assert ONE * x == x == x * ONE
        assert ZERO * x == ZERO == x * ZERO
        for y in sample:
            assert x + y == y + x
            for z in sample:
                assert (x + y) + z == x + (y + z)
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z
                assert (x + y) * z == x * z + y * z


def test_product_columns_match_direct_composition():
    rng = random.Random(977)

    def random_op():
        offsets = rng.sample(range(-3, 4), rng.randint(1, 3))
        diagonals = [(d, rng.randint(0, 4)) for d in offsets]
        exceptions = {rng.randint(0, 5): {rng.randint(0, 6)}
                      for _ in range(rng.randint(0, 2))}
        return BandOperator.from_parts(diagonals, exceptions)

    ops = [random_op() for _ in range(8)] + [S, T, P0]
    for x in ops:
        for y in ops:
            prod = x * y
            total = x + y
            bound = max(prod.stable_bound, total.stable_bound,
                        x.stable_bound, y.stable_bound) + 5
            for i in range(bound):
                expect = frozenset()
                for j in y.column(i):
                    expect ^= x.column(j)
                assert prod.column(i) == expect, (x, y, i)
                assert total.column(i) == x.column(i) ^ y.column(i)


# truncation ranks ----------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 8, 32, 128])
def test_right_shift_truncations(n):
    assert truncation_dims(S, n) == (0, 1)


def test_truncations_of_reference_operators():
    for n in (2, 5, 16):
        assert truncation_dims(T, n) == (1, 1)
        assert truncation_dims(ONE, n) == (0, 0)
        assert truncation_dims(S * T, n) == (1, 1)
        assert truncation_dims(ZERO, n) == (n + 1, n + 1)
        assert truncation_dims(P0, n) == (n, n)
    assert truncation_dims(S, 0) == (0, 1)
    with pytest.raises(ValueError):
        truncation_dims(S, -1)
    with pytest.raises(ValueError):
        truncation_series(S, -1)


def per_size_dims(op, n):
    """Kernel and cokernel dimensions from a rank of columns 0..n alone,
    with the codomain padded to every hit target and at least the domain."""
    cols = [op.column(i) for i in range(n + 1)]
    basis = []
    for col in cols:
        row = sum(1 << j for j in col)
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
    codomain = max([n + 1] + [t + 1 for col in cols for t in col])
    return (n + 1 - len(basis), codomain - len(basis))


def random_band_ops(seed):
    """Seeded normal forms with offsets -4..4, diagonal starts up to 6 and
    up to three exceptions, with the reference operators, sums and products."""
    rng = random.Random(seed)

    def random_op():
        offsets = rng.sample(range(-4, 5), rng.randint(0, 4))
        diagonals = [(d, rng.randint(0, 6)) for d in offsets]
        exceptions = {rng.randint(0, 12): {rng.randint(0, 20)
                                           for _ in range(rng.randint(0, 3))}
                      for _ in range(rng.randint(0, 3))}
        return BandOperator.from_parts(diagonals, exceptions)

    base = [random_op() for _ in range(16)]
    ops = base + [S, T, ONE, ZERO, P0, S * T]
    ops += [x + y for x in base[:6] for y in base[6:12]]
    ops += [x * y for x in base[:6] for y in base[6:12]]
    return ops


def test_series_matches_per_size_elimination():
    for seed in (20261018, 20261019):
        for op in random_band_ops(seed):
            expect = [per_size_dims(op, n) for n in range(41)]
            assert truncation_series(op, 40) == expect, (seed, op)
            for n in range(41):
                assert truncation_dims(op, n) == expect[n], (seed, op, n)


# the ring adapter and the demo ----------------------------------------------------


def test_band_ring_adapter():
    ring = BandRing()
    assert ring.one == ONE and ring.zero == ZERO
    assert ring.mul(T, S) == ONE
    assert ring.add(S, S) == ZERO
    assert ring.neg(S) == S
    sample = (ZERO, ONE, S, T, P0)
    assert any(ring.mul(x, y) != ring.mul(y, x) for x in sample for y in sample)


def test_demo_report():
    demo = run_shift_demo(truncation=8)
    assert demo["ok"]
    assert demo["identities"] == {
        "ts=1": True, "st!=1": True, "st=1-p0": True, "sts=s": True,
        "aua=a": True, "uv=1": True, "vu=1": True,
    }
    assert demo["corner_form_ok"]
    assert demo["kernel_dim"] == 0 and demo["cokernel_dim"] == 1
    assert [row["n"] for row in demo["truncations"]] == list(range(2, 9))
    assert all(row["kernel_dim"] == 0 and row["cokernel_dim"] == 1
               for row in demo["truncations"])
    assert demo["scaffold"]["decidable"] is False
    assert "not a proof" in demo["note"]


def test_demo_truncation_bounds():
    assert run_shift_demo(truncation=2)["ok"]
    with pytest.raises(ValueError):
        run_shift_demo(truncation=1)


def test_rigged_band_product_fails_the_demo(monkeypatch):
    assert run_command(["shift-demo", "--truncation", "8"])[0] == EXIT_PASS
    mul = BandOperator.__mul__

    def rigged(x, y):
        return ONE if (x, y) == (S, T) else mul(x, y)

    monkeypatch.setattr(BandOperator, "__mul__", rigged)
    demo = run_shift_demo(truncation=8)
    assert demo["ok"] is False
    assert demo["identities"]["st!=1"] is False
    assert demo["identities"]["st=1-p0"] is False
    code, doc = run_command(["shift-demo", "--truncation", "8"])
    assert code == EXIT_FAIL and doc["status"] == "fail"
    assert doc["payload"]["ok"] is False
