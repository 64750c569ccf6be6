"""One benchmark worker process: set-up timing, one pass, or op timings.

Started by run.py as `python3 -m perfbench.worker MODE` from the checkout
root, with a JSON job on stdin; it prints one JSON object on stdout. A fresh
process per pass means peak RSS and every module-level cache belong to that
pass alone. ringlab is imported from the checkout's src/ and only after
the clock starts, so set-up time includes the import.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _use_checkout_source() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ringlab", "__init__.py")):
        raise SystemExit(f"perfbench: no ringlab package under {src}")
    sys.path.insert(0, src)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def count_verdicts(outcome, doc) -> int:
    """Element-level decisions a request returned.

    verify-theorem and family: corner elements evaluated (the sum of
    corner_size); classify: elements classified; witness: the one tuple;
    shift-demo: truncation sizes checked. Refusals and errors return none.
    """
    if doc is None or outcome not in (0, 1):
        return 0
    payload = doc["payload"]
    command = doc["command"]
    if command == "verify-theorem":
        return sum(b["corner_size"] for b in payload.get("verdicts") or ())
    if command == "family":
        return sum(b["corner_size"] for entry in payload["family"]
                   for b in entry["detail"].get("verdicts") or ())
    if command == "classify":
        return payload["size"]
    if command == "witness":
        return 1 if "witness" in payload else 0
    if command == "shift-demo":
        return len(payload["truncations"])
    return 0


def payload_sha256(doc) -> str:
    return hashlib.sha256(
        json.dumps(doc["payload"], sort_keys=True).encode("utf-8")).hexdigest()


def setup(job: dict) -> dict:
    start = time.perf_counter()
    from ringlab.report import CURATED_FAMILY
    from ringlab.specparse import build_ring

    for spec in job["specs"]:
        for text in (CURATED_FAMILY if spec == "@family" else (spec,)):
            build_ring(text)
    return {"setup_s": time.perf_counter() - start}


def serve(job: dict) -> dict:
    """Send each request after the previous one returned; time each one."""
    import ringlab.cli
    import ringlab.report

    tracer = restore = None
    if job.get("trace"):
        from perfbench import tracer as tracing

        tracer = tracing.Tracer()
        restore = tracing.install(tracer, count_ops=job["trace"] == "ops")
    run_command = ringlab.cli.run_command
    emit_report = ringlab.report.emit_report

    results = []
    clock = time.perf_counter
    with open(os.devnull, "w") as devnull, \
            contextlib.redirect_stdout(devnull), contextlib.redirect_stderr(devnull):
        for index, (key, argv) in enumerate(job["requests"]):
            if tracer is not None:
                tracer.request_id = index
            t0 = clock()
            try:
                outcome, doc = run_command(argv)
                text = "" if doc is None else emit_report(
                    doc, "json" if "--json" in argv else "human")
            except Exception as exc:  # counted against the request, not the run
                outcome, doc, text = type(exc).__name__, None, ""
            latency = clock() - t0
            sha = payload_sha256(doc) if doc is not None and outcome in (0, 1) else None
            results.append([key, outcome, sha, count_verdicts(outcome, doc),
                            latency, len(text)])

    out = {"results": results, "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        restore()
        if job["trace"] == "ops":
            out["layers"] = tracing.op_counts(tracer)
        else:
            out["layers"] = tracing.layer_metrics(tracer)
            out["layers"]["report.document_bytes"] = sum(r[5] for r in results)
            tracer.write(job["spans_path"], job["provenance"])
    return out


# (construction, carrier tabled at the reference commit, carrier above the
# 128-element table threshold there). M3 has no tabled carrier bigger than
# one element, so it is timed raw only.
OP_CARRIERS = (
    ("Z", "Z97", "Z4099"),
    ("M2", "M2(Z3)", "M2(Z4)"),
    ("M3", None, "M3(Z2)"),
    ("T2", "T2(Z4)", "T2(Z7)"),
    ("product", "Z8xZ16", "Z16xZ16"),
)


def ops(job: dict) -> dict:
    """ns per add/mul call over a seeded operand list, median of rounds."""
    from ringlab.specparse import build_ring

    rng = random.Random(f"ops/{job['seed']}")
    clock = time.perf_counter
    metrics = {}
    for construction, tabled, raw in OP_CARRIERS:
        for mode, spec, calls in (("tabled", tabled, 20000), ("raw", raw, 400)):
            if spec is None:
                continue
            ring = build_ring(spec)
            pairs = [(rng.randrange(ring.size), rng.randrange(ring.size))
                     for _ in range(calls)]
            for op_name in ("add", "mul"):
                op = getattr(ring, op_name)
                rounds = []
                for _ in range(5):
                    t0 = clock()
                    for a, b in pairs:
                        op(a, b)
                    rounds.append((clock() - t0) / calls * 1e9)
                metrics[f"rings.{op_name}_ns.{construction}.{mode}"] = statistics.median(rounds)
    return metrics


MODES = {"setup": setup, "serve": serve, "ops": ops}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in MODES:
        print(f"usage: python3 -m perfbench.worker {{{'|'.join(MODES)}}} < job.json",
              file=sys.stderr)
        return 2
    job = json.load(sys.stdin)
    _use_checkout_source()
    result = MODES[argv[0]](job)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
