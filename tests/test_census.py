"""Closed-form counts of residue rings and their products against classify.

The counts come from tests/oracles.zmod_census, which reads only the moduli,
so a fault in the ring's arithmetic, its unit sweep or its unit-regular
search cannot reach the oracle too.
"""

from math import prod

import pytest

from ringlab import build_ring, classify_payload
from oracles import zmod_census

PRODUCTS = ((32, 32), (2, 2, 2), (6, 10), (12, 18), (8, 27), (2, 3, 5, 7), (25, 40))


def _census_mismatches(all_moduli) -> list:
    mismatches = []
    for moduli in all_moduli:
        payload, _ = classify_payload(build_ring("x".join(f"Z{n}" for n in moduli)))
        units, idempotents, unit_regular = zmod_census(moduli)
        got = (payload["size"], payload["unit_count"], payload["idempotent_count"],
               payload["unit_regular_count"], payload["regular_count"])
        if got != (prod(moduli), units, idempotents, unit_regular, unit_regular):
            mismatches.append((moduli, got))
    return mismatches


def test_census_of_residue_rings_matches_classify():
    # Z1024 is the largest tabled carrier, Z1025 the smallest above it
    moduli = [(n,) for n in range(1, 301)] + [(1000,), (1024,), (1025,)]
    assert _census_mismatches(moduli) == []


@pytest.mark.parametrize("moduli", PRODUCTS, ids=lambda m: "x".join(f"Z{n}" for n in m))
def test_census_of_products_matches_classify(moduli):
    assert _census_mismatches([moduli]) == []


def test_census_formulas_on_hand_counted_rings():
    # Z1: one element, a unit and an idempotent; Z12 = Z4 x Z3 has the
    # units 1, 5, 7, 11, the idempotents 0, 1, 4, 9, and 3 x 3 unit-regular
    # elements; Z8 x Z9 multiplies the counts of Z8 (4, 2, 5) and Z9 (6, 2, 7)
    assert zmod_census((1,)) == (1, 1, 1)
    assert zmod_census((12,)) == (4, 4, 9)
    assert zmod_census((8, 9)) == zmod_census((72,)) == (24, 4, 35)
