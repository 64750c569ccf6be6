"""Write reference.json: the request pool and its expected outcomes.

Run from the repository root at the commit whose payloads are the
reference:

    python3 perfbench/make_reference.py

Every request gets the exit code the README contract expects for its
category (0 pass, 1 check failed, 2 unusable, 3 capped) and, for exit 0 or
1, the sha256 of its payload bytes. The script refuses to write when an
observed exit code breaks the contract, unless manifest.KNOWN_DEFECTS lists
that request with that outcome. The small-requests pool is drawn from
exhaustive enumerations with a fixed generator, so rerunning it at the
same commit writes the same file.
"""

from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from perfbench import manifest, worker, workloads  # noqa: E402

EXPECTED_EXIT = {
    "fixed": 0,
    "classify": 0,
    "verify-idem": 0,
    "witness-valid": 0,
    "witness-precondition": 1,
    "witness-badcode": 2,
    "malformed": 2,
    "oversized": 3,
    "shift-demo": 0,
}

# Per ring, how many witness tuples of each kind the pool keeps.
_PER_RING = 12

MALFORMED = (
    ["classify", "--ring", "Z"],
    ["classify", "--ring", "Z0"],
    ["classify", "--ring", "M2(Z3"],
    ["classify", "--ring", "Q5"],
    ["classify", "--ring", "Z2x"],
    ["classify", "--ring", "M(Z2)"],
    ["classify", "--ring", "T2Z2"],
    ["classify", "--ring", "Z2 Z3"],
    ["classify", "--ring", ""],
    ["classify", "--ring", "()"],
    ["verify-theorem", "--ring", "M2()"],
    ["verify-theorem", "--ring", "Z6)"],
    ["verify-theorem", "--ring", "Z6", "--idempotent", "one"],
    ["verify-theorem", "--ring", "Z6", "--idempotent", "2"],
    ["verify-theorem", "--ring", "Z6", "--idempotent", "6"],
    ["verify-theorem", "--ring", "Z6", "--size-cap", "0"],
    ["witness", "--ring", "Z6", "--e", "3", "--a", "3"],
    ["witness", "--ring", "Z6", "--e", "x", "--a", "3", "--b", "4", "--u", "1"],
    ["classify"],
    ["sweep", "--ring", "Z6"],
)

OVERSIZED = (
    ["classify", "--ring", "Z2000000"],
    ["classify", "--ring", "M5(Z10)"],
    ["classify", "--ring", "T8(Z4)"],
    ["classify", "--ring", "M4(M4(Z2))"],
    ["verify-theorem", "--ring", "M2(Z40)"],
    ["verify-theorem", "--ring", "M3(Z5)xM3(Z5)"],
    ["verify-theorem", "--ring", "Z1024xZ1025"],
    ["witness", "--ring", "M6(Z2)", "--e", "0", "--a", "0", "--b", "0", "--u", "1"],
    ["classify", "--ring", "Z6", "--size-cap", "5"],
    ["classify", "--ring", "M2(Z4)", "--size-cap", "255"],
)


# Small enough to stay short requests; the largest takes about 50 ms.
SHIFT_TRUNCATIONS = (16, 32, 64, 128, 256)


def _witness_argv(ring, e, a, b, u, v=None):
    argv = ["witness", "--ring", ring, "--e", str(e), "--a", str(a),
            "--b", str(b), "--u", str(u)]
    if v is not None:
        argv += ["--v", str(v)]
    return argv


def _witness_pools(spec: str, rng: random.Random) -> dict[str, list[list[str]]]:
    from ringlab import (build_ring, corner_ring, complement, idempotents,
                         unit_regular_witness, zero_divisor_status)

    ring = build_ring(spec)
    units = ring.units()
    valid, precondition, badcode = [], [], []
    for idem in idempotents(ring):
        ee = corner_ring(ring, idem)
        ff = corner_ring(ring, complement(ring, idem))
        inside = list(ee.elements())
        outside = [x for x in ring.elements() if not ee.contains(x)]
        f_inside = list(ff.elements())
        f_outside = [x for x in ring.elements() if not ff.contains(x)]
        clear = [b for b in f_inside if zero_divisor_status(ff, b).clear]
        zds = [b for b in f_inside if not zero_divisor_status(ff, b).clear]
        for a in inside:
            for b in clear:
                pair = unit_regular_witness(ring, ring.add(a, b))
                if pair is None:
                    continue
                v = pair[1] if rng.random() < 0.3 else None
                valid.append(_witness_argv(spec, idem.e, a, b, pair[0], v))
                # the same tuple with a unit that breaks the middle identity
                x = ring.add(a, b)
                for u in units:
                    if ring.mul3(x, u, x) != x:
                        precondition.append(_witness_argv(spec, idem.e, a, b, u))
                        break
                # an explicit partner that breaks (uv-1)e = 0
                for v_bad in ring.elements():
                    if ring.mul(ring.sub(ring.mul(pair[0], v_bad), ring.one),
                                idem.e) != ring.zero:
                        precondition.append(
                            _witness_argv(spec, idem.e, a, b, pair[0], v_bad))
                        break
            for b in zds:
                pair = unit_regular_witness(ring, ring.add(a, b))
                if pair is not None:
                    precondition.append(_witness_argv(spec, idem.e, a, b, pair[0]))
        if inside and f_inside:
            a, b = inside[-1], f_inside[-1]
            if outside:
                precondition.append(_witness_argv(spec, idem.e, rng.choice(outside), b, ring.one))
            if f_outside:
                precondition.append(_witness_argv(spec, idem.e, a, rng.choice(f_outside), ring.one))
            non_units = [x for x in ring.elements() if x not in units]
            if non_units:
                precondition.append(_witness_argv(spec, idem.e, a, b, rng.choice(non_units)))
            n = ring.size
            badcode.append(_witness_argv(spec, idem.e, n + rng.randrange(50), b, ring.one))
            badcode.append(_witness_argv(spec, idem.e, a, n + rng.randrange(50), ring.one))
    not_idem = [x for x in ring.elements() if ring.mul(x, x) != x]
    for _ in range(3):
        if not_idem:
            badcode.append(_witness_argv(spec, rng.choice(not_idem), 0, 0, ring.one))
        badcode.append(_witness_argv(spec, ring.size + rng.randrange(50), 0, 0, ring.one))

    def sample(items):
        unique = {tuple(x): x for x in items}
        items = [unique[k] for k in sorted(unique)]
        return rng.sample(items, min(_PER_RING, len(items)))

    return {"witness-valid": sample(valid),
            "witness-precondition": sample(precondition),
            "witness-badcode": sample(badcode)}


def build_pool() -> list[tuple[str, str | None, list[str]]]:
    from ringlab import build_ring, idempotents

    rng = random.Random(20260101)
    pool = []
    for workload, keys in workloads.FIXED.items():
        for key in keys:
            pool.append(("fixed", None, key.split(" ")))
    slots = {(cat, ring) for cat, ring, _ in workloads.SMALL_SLOTS}
    witness_cache: dict[str, dict] = {}
    for category, ring in sorted(slots, key=lambda s: (s[0], s[1] or "")):
        if category == "classify":
            pool.append((category, ring, ["classify", "--ring", ring]))
        elif category == "verify-idem":
            for idem in idempotents(build_ring(ring)):
                pool.append((category, ring, ["verify-theorem", "--ring", ring,
                                              "--idempotent", str(idem.e)]))
        elif category.startswith("witness-"):
            if ring not in witness_cache:
                witness_cache[ring] = _witness_pools(ring, rng)
            for argv in witness_cache[ring][category]:
                pool.append((category, ring, argv))
        elif category == "malformed":
            pool.extend((category, None, list(a)) for a in MALFORMED)
        elif category == "oversized":
            pool.extend((category, None, list(a)) for a in OVERSIZED)
        elif category == "shift-demo":
            pool.extend((category, None, ["shift-demo", "--truncation", str(n)])
                        for n in SHIFT_TRUNCATIONS)
    for defect in manifest.KNOWN_DEFECTS:
        pool.append(("known-defect", None, list(defect["argv"])))
    return pool


def main() -> int:
    defects = {" ".join(d["argv"]): d for d in manifest.KNOWN_DEFECTS}
    pool = build_pool()
    served = worker.serve({"requests": [(" ".join(argv), argv + ["--json"])
                                        for _, _, argv in pool]})
    requests = {}
    broken = []
    for (category, ring, argv), (key, outcome, sha, *_) in zip(pool, served["results"]):
        if category == "known-defect":
            expected = defects[key]["contract_exit"]
            if outcome not in (expected, defects[key]["seed_outcome"]):
                broken.append((key, outcome))
        else:
            expected = EXPECTED_EXIT[category]
            if outcome != expected:
                broken.append((key, outcome))
        requests[key] = {"category": category, "ring": ring, "argv": argv,
                         "exit": expected,
                         "sha256": sha if outcome == expected else None}
    if broken:
        for key, outcome in broken:
            print(f"contract broken and not a listed defect: {key[:80]} -> {outcome}",
                  file=sys.stderr)
        return 1
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump({"requests": requests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(requests)} requests to {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
