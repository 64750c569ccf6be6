"""What the benchmark measures and why, kept next to the code that measures it.

BENCHMARK.json holds the metric declarations the harness prints (name, unit,
direction, bound). This module holds what that file has no key for: the
long form of each workload's reason, the requests that fail the README exit
code contract at the reference commit, the requests left out because they
do not end in bounded time, and which end-to-end metric each per-layer
metric is expected to move, on which workload. Later perf changes cite
these names.
"""

WORKLOADS = {
    "tabled-verify": (
        "family, then verify-theorem on T2(Z5) and T2(Z4)xZ2 at default caps. "
        "Every carrier has at most 128 elements, so all arithmetic goes "
        "through Cayley tables; the cubic check_ring_axioms dominates and "
        "table build takes most of the rest. Axiom-check and table-build "
        "changes show here; condition-engine changes should not."),
    "raw-sweep": (
        "verify-theorem M2(Z4) --axiom-cap 1, then classify M2(Z4) and "
        "M3(Z2). Carriers of 256 and 512 elements are above the table "
        "threshold, so every op goes through decode/encode and the axiom "
        "check is skipped. Time goes to the condition engine, the "
        "unit-regular witness search, units() and the one-sided searches. "
        "M2(Z4) at default caps is left out: see EXCLUDED."),
    "small-requests": (
        "About a thousand short requests on carriers of at most 81 "
        "elements: witness over valid and invalid tuples, classify, "
        "verify-theorem --idempotent E, malformed and oversized "
        "descriptions, the known contract defects, and ten shift-demo "
        "requests at truncations 16 to 256, the only requests that run "
        "shift. Every request parses its text and builds its ring, so "
        "specparse and table writing dominate; this is where per-request "
        "costs that long sweeps amortise show, and the refusal path runs."),
}

# A fourth workload, shift-demo at truncations 512, 1024 and 2048, was left
# out: its large-integer GF(2) rank work amplifies load from other tenants
# of a shared host, and over ten seeds the quartile spread of its wall time
# reached 0.32 and 0.52 of the median, beyond any allowed bound. The shift
# layer is measured through the shift-demo requests in small-requests.

# Requests whose outcome at the reference commit breaks the README exit
# code contract (0 pass, 1 check failed, 2 unusable, 3 capped). Each is
# accepted either with its contract exit code or with its recorded outcome
# at the reference commit, which is counted as a known defect rather than a
# failure; any third outcome fails.
NESTED_PARENS = "(" * 1200 + "Z2" + ")" * 1200

KNOWN_DEFECTS = (
    {
        "argv": ["classify", "--ring", "M40(M40(Z40))"],
        "contract_exit": 3,
        "seed_outcome": 2,
        "reason": ("ROADMAP item 2: cardinality is computed exactly (about "
                   "2 s) and SizeCapError's message then exceeds Python's "
                   "int-to-string digit limit, so the refusal exits 2"),
    },
    {
        "argv": ["classify", "--ring", NESTED_PARENS],
        "contract_exit": 2,
        "seed_outcome": "RecursionError",
        "reason": ("ROADMAP item 2: the recursive parser has no depth bound, "
                   "so 1200 nested parentheses raise RecursionError out of "
                   "run_command"),
    },
    {
        "argv": ["witness", "--ring", "Z6", "--e", "3", "--a", "3", "--b", "4",
                 "--u", "99"],
        "contract_exit": 2,
        "seed_outcome": 1,
        "reason": ("ROADMAP item 2: element codes are not validated before "
                   "inverse_of, so an out-of-range u exits 1 ('not a unit') "
                   "instead of 2"),
    },
)

# Requests the benchmark does not send because they do not finish in
# bounded time at the reference commit. A later benchmark change adds them
# once ROADMAP item 2 bounds them.
EXCLUDED = (
    {"argv": ["verify-theorem", "--ring", "M2(Z4)"],
     "reason": "ROADMAP item 2: the raw cubic axiom sweep runs over 13 minutes"},
    {"argv": ["classify", "--ring", "M99(M99(Z99))"],
     "reason": "ROADMAP item 2: exact cardinality does not finish in 30 s"},
    {"argv": ["shift-demo", "--truncation", "100000000"],
     "reason": "ROADMAP item 2: truncation has no cap and does not terminate"},
)

# per-layer metric -> (end-to-end metric it should move, workloads).
_ALL = ("tabled-verify", "raw-sweep", "small-requests")
_OPS = tuple(f"rings.{op}_ns.{c}.{m}" for op in ("add", "mul")
             for c in ("Z", "M2", "M3", "T2", "product") for m in ("tabled", "raw")
             if (c, m) != ("M3", "tabled"))

LAYER_MAP = {
    "specparse.build_ring_s": [("setup_s", _ALL), ("request_p50_ms", ("small-requests",))],
    "specparse.refusal_ms_max": [("request_p99_ms", ("small-requests",)),
                                 ("wall_s", ("small-requests",))],
    "specparse.self_s": [("request_p50_ms", ("small-requests",))],
    "rings.construct_s": [("setup_s", _ALL), ("peak_rss_mb", _ALL),
                          ("request_p50_ms", ("small-requests",))],
    "rings.axioms_s": [("wall_s", ("tabled-verify",))],
    "rings.units_s": [("verdicts_per_s", ("raw-sweep",))],
    "rings.ops_tabled": [("wall_s", ("raw-sweep",))],
    "rings.ops_raw": [("wall_s", ("raw-sweep",))],
    "rings.ops_raw_share": [("wall_s", ("raw-sweep",))],
    "rings.self_s": [("wall_s", _ALL)],
    **{name: [("wall_s", _ALL)] for name in _OPS},
    "corners.idempotents_s": [("verdicts_per_s", _ALL),
                              ("request_p50_ms", ("small-requests",))],
    "corners.corner_ring_s": [("verdicts_per_s", _ALL),
                              ("request_p50_ms", ("small-requests",))],
    "corners.corner_ring_calls": [("verdicts_per_s", _ALL)],
    "corners.corner_ring_builds": [("verdicts_per_s", _ALL),
                                   ("request_p50_ms", ("small-requests",))],
    "corners.self_s": [("verdicts_per_s", _ALL)],
    "regularity.unit_regular_witness_calls": [("verdicts_per_s", ("raw-sweep",))],
    "regularity.unit_regular_witness_s": [("verdicts_per_s", ("raw-sweep",))],
    "regularity.unit_regular_witness_hit_ratio": [("verdicts_per_s", ("raw-sweep",))],
    "regularity.regular_set_s": [("verdicts_per_s", ("raw-sweep",))],
    "regularity.unit_regular_set_s": [("verdicts_per_s", ("raw-sweep",))],
    "regularity.one_sided_calls": [("verdicts_per_s", ("raw-sweep",))],
    "regularity.one_sided_hit_ratio": [("verdicts_per_s", ("raw-sweep",))],
    "regularity.zero_divisor_status_calls": [("verdicts_per_s", ("raw-sweep",)),
                                             ("request_p50_ms", ("small-requests",))],
    "regularity.zero_divisor_status_s": [("verdicts_per_s", ("raw-sweep",)),
                                         ("request_p50_ms", ("small-requests",))],
    "regularity.self_s": [("verdicts_per_s", ("raw-sweep",))],
    "theorem.verdicts": [("verdicts_per_s", _ALL)],
    "theorem.verdict_s": [("verdicts_per_s", _ALL)],
    **{f"theorem.condition_s.{c}": [("verdicts_per_s", _ALL)]
       for c in ("1", "2", "3", "3p", "4", "4p", "5")},
    "theorem.inheritance_s": [("wall_s", ("tabled-verify",))],
    "theorem.witness_extract_calls": [("request_p50_ms", ("small-requests",))],
    "theorem.witness_extract_s": [("request_p50_ms", ("small-requests",))],
    "theorem.self_s": [("verdicts_per_s", _ALL)],
    "report.payload_self_s": [("wall_s", ("raw-sweep",)),
                              ("request_p50_ms", ("small-requests",))],
    "report.emit_s": [("wall_s", ("raw-sweep",)), ("request_p50_ms", ("small-requests",))],
    "report.document_bytes": [("wall_s", ("raw-sweep",)),
                              ("request_p50_ms", ("small-requests",))],
    "report.self_s": [("wall_s", ("raw-sweep",)), ("request_p50_ms", ("small-requests",))],
    "cli.self_s": [("request_p50_ms", ("small-requests",))],
    "shift.run_s": [("wall_s", ("small-requests",))],
    "shift.truncation_dims_s": [("wall_s", ("small-requests",))],
    "shift.scaffold_s": [("wall_s", ("small-requests",))],
    "shift.band_ops": [("wall_s", ("small-requests",))],
    "shift.self_s": [("wall_s", ("small-requests",))],
    "trace.overhead_ratio": [],
    "trace.ops_overhead_ratio": [],
    "trace.spans": [],
}
