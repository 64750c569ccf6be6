"""Seeded request generation for the three benchmark workloads.

A request is a (key, argv) pair. The key names an entry of reference.json,
which records the exit code the README contract expects and, for exit 0/1,
the payload sha256 taken when the reference was made. The argv is what the
program sees: the seed picks request order, which pool entry fills each
small-requests slot, the spelling of ring descriptions (case and whitespace
at token boundaries, which the grammar ignores) and the flag form
(`--ring X` or `--ring=X`). None of these choices changes a payload, so
every generated request has a reference.

This module does not import ringlab: the program only sees the requests.
"""

from __future__ import annotations

import json
import os
import random
import re

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

WORKLOADS = ("tabled-verify", "raw-sweep", "small-requests")

# Fixed request lists, as canonical keys (argv without --json).
FIXED = {
    "tabled-verify": (
        "family",
        "verify-theorem --ring T2(Z5)",
        "verify-theorem --ring T2(Z4)xZ2",
    ),
    "raw-sweep": (
        "verify-theorem --ring M2(Z4) --axiom-cap 1",
        "classify --ring M2(Z4)",
        "classify --ring M3(Z2)",
    ),
}

# small-requests: how many requests of each (category, ring) slot one pass
# holds, 997 plus the three known defects. Fixing the slot counts keeps the cost
# mix, and so the latency distribution, the same for every seed; the seed
# chooses the concrete tuple in each slot and the order. Rings stay at or
# below 81 elements. The 17 requests that build M2(Z3), the costliest
# carrier here, keep the 99th percentile inside one group of requests.
SMALL_SLOTS = (
    # category, ring, count
    ("classify", "Z2", 25), ("classify", "Z6", 25), ("classify", "Z12", 25),
    ("classify", "Z2xZ4", 25), ("classify", "Z3xZ3", 25),
    ("classify", "T2(Z2)", 20), ("classify", "M2(Z2)", 20),
    ("classify", "T2(Z2)xZ2", 10), ("classify", "T2(Z3)", 10),
    ("classify", "M2(Z2)xZ2", 10), ("classify", "T2(Z4)", 4),
    ("classify", "M2(Z3)", 5),
    ("verify-idem", "Z6", 20), ("verify-idem", "Z12", 20),
    ("verify-idem", "Z2xZ4", 20), ("verify-idem", "T2(Z2)", 15),
    ("verify-idem", "M2(Z2)", 15), ("verify-idem", "T2(Z3)", 4),
    ("verify-idem", "M2(Z2)xZ2", 4),
    ("witness-valid", "Z6", 50), ("witness-valid", "Z12", 50),
    ("witness-valid", "Z2xZ3", 40), ("witness-valid", "Z2xZ4", 40),
    ("witness-valid", "T2(Z2)", 50), ("witness-valid", "M2(Z2)", 50),
    ("witness-valid", "T2(Z2)xZ2", 20), ("witness-valid", "T2(Z3)", 15),
    ("witness-valid", "M2(Z2)xZ2", 15), ("witness-valid", "M2(Z3)", 12),
    ("witness-precondition", "Z6", 35), ("witness-precondition", "Z12", 35),
    ("witness-precondition", "Z2xZ4", 20), ("witness-precondition", "T2(Z2)", 35),
    ("witness-precondition", "M2(Z2)", 35), ("witness-precondition", "T2(Z3)", 8),
    ("witness-precondition", "M2(Z2)xZ2", 8), ("witness-precondition", "T2(Z4)", 2),
    ("witness-badcode", "Z6", 20), ("witness-badcode", "Z12", 15),
    ("witness-badcode", "T2(Z2)", 15), ("witness-badcode", "M2(Z2)", 15),
    ("witness-badcode", "T2(Z3)", 5),
    ("shift-demo", None, 10),
    ("malformed", None, 55),
    ("oversized", None, 40),
)

_TOKEN = re.compile(r"\d+|\S")


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def respell(spec: str, rng: random.Random) -> str:
    """Same ring, other text: random letter case, spaces between tokens."""
    out = []
    for tok in _TOKEN.findall(spec):
        if tok.isalpha():
            tok = tok.upper() if rng.random() < 0.5 else tok.lower()
        out.append(tok)
        if rng.random() < 0.3:
            out.append(" ")
    return "".join(out)


def _argv(parts: list[str], vary: bool, rng: random.Random) -> list[str]:
    """Spell a canonical argv for the program; vary only parseable specs."""
    argv = []
    i = 0
    while i < len(parts):
        word = parts[i]
        if word.startswith("--") and i + 1 < len(parts) and not parts[i + 1].startswith("--"):
            value = parts[i + 1]
            if vary and word == "--ring":
                value = respell(value, rng)
            if vary and rng.random() < 0.5:
                argv.append(f"{word}={value}")
            else:
                argv.extend((word, value))
            i += 2
            continue
        argv.append(word)
        i += 1
    argv.append("--json")
    return argv


def _pool(reference: dict) -> dict:
    pool: dict[tuple, list[str]] = {}
    for key, entry in reference["requests"].items():
        slot = (entry["category"], entry.get("ring"))
        pool.setdefault(slot, []).append(key)
    for keys in pool.values():
        keys.sort()
    return pool


def small_pass_keys(reference: dict, rng: random.Random) -> list[str]:
    pool = _pool(reference)
    keys = []
    for category, ring, count in SMALL_SLOTS:
        choices = pool[(category, ring)]
        keys.extend(rng.choice(choices) for _ in range(count))
    keys.extend(pool[("known-defect", None)])
    return keys


def pass_requests(workload: str, seed: int, index: int,
                  reference: dict) -> list[tuple[str, list[str]]]:
    """The requests of pass `index` of a run with this seed, in order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}/{index}")
    if workload == "small-requests":
        keys = small_pass_keys(reference, rng)
    else:
        keys = list(FIXED[workload])
    rng.shuffle(keys)
    # Known defects go first: M40(M40(Z40)) allocates a transient big
    # integer, and landing it on top of the rings the pass has pinned by
    # then would make peak RSS depend on the shuffle.
    keys.sort(key=lambda k: reference["requests"][k]["category"] != "known-defect")
    requests = []
    for key in keys:
        entry = reference["requests"][key]
        vary = entry["category"] not in ("malformed", "known-defect")
        requests.append((key, _argv(entry["argv"], vary, rng)))
    return requests


def setup_specs(workload: str, reference: dict) -> list[str]:
    """Every ring description a workload's requests build successfully."""
    if workload == "small-requests":
        return sorted({ring for _, ring, _ in SMALL_SLOTS if ring is not None})
    specs = []
    for key in FIXED[workload]:
        parts = reference["requests"][key]["argv"]
        if parts[0] == "family":
            specs.append("@family")
        elif "--ring" in parts:
            specs.append(parts[parts.index("--ring") + 1])
    return specs
