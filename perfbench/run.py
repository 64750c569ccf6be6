"""ringlab benchmark: closed loop, one client, through ringlab.cli.run_command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Workloads are declared in BENCHMARK.json and
explained in perfbench/manifest.py; requests come from perfbench/workloads.py.

--trace 0 times set-up in five separate processes (import ringlab and build
every ring of the workload), then sends passes over the workload's
requests, each pass in a fresh worker process and each request only after
the last returned, until S seconds have gone. It prints every end-to-end
metric: the median over passes of each pass's figures.

--trace 1 ignores S. It sends the first pass three times: plain, with spans
around every layer's public functions (written to
perfbench/out/spans-WORKLOAD.tsv.gz), and with ring-op counters; then it
times add/mul per construction. It prints every per-layer metric.

Every request's exit code and payload sha256 are checked against
perfbench/reference.json. Lines before the last carry provenance and sample
counts; the last line is the result object."""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench import manifest, workloads  # noqa: E402

BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPS = 5
# Every run must end well inside 180 s, worker processes included.
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    """The run could not produce a result."""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def git_commit(root: str):
    """HEAD of the checkout's git metadata, read from files; None if absent."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_digest(root: str) -> str:
    """sha256 over ringlab's source files, for checkouts without git."""
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "ringlab")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def provenance(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "ringlab_commit": git_commit(ROOT),
        "ringlab_source_sha256": source_digest(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Runner:
    """Starts workers one at a time and holds the run's deadline."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        # Requests assume the default caps and the checkout's own source.
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("RINGLAB_") and k != "PYTHONPATH"}

    def call(self, mode: str, job: dict) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run budget exhausted")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "perfbench.worker", mode],
                input=json.dumps(job), capture_output=True, text=True,
                cwd=ROOT, env=self.env, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker exceeded the run budget") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def judge(key: str, outcome, sha, reference: dict, defects: dict) -> str:
    """'ok', 'known_defect' or 'failed' for one request's outcome."""
    expected = reference["requests"][key]
    if outcome == expected["exit"]:
        if outcome in (0, 1) and sha != expected["sha256"]:
            return "failed"
        return "ok"
    defect = defects.get(key)
    if defect is not None and outcome == defect["seed_outcome"]:
        return "known_defect"
    return "failed"


def tally(results: list, reference: dict) -> dict:
    defects = {" ".join(d["argv"]): d for d in manifest.KNOWN_DEFECTS}
    verdicts = {"ok": 0, "known_defect": 0, "failed": 0}
    failures = []
    for key, outcome, sha, *_ in results:
        verdict = judge(key, outcome, sha, reference, defects)
        verdicts[verdict] += 1
        if verdict == "failed" and len(failures) < 10:
            failures.append({"request": key[:120], "outcome": outcome})
    return {**verdicts, "attempted": len(results), "failures": failures}


def pass_figures(results: list) -> dict:
    """One pass's end-to-end figures; result rows are
    [key, outcome, sha256, verdicts, latency_s, document_bytes]."""
    latencies = [r[4] for r in results]
    verdicts = sum(r[3] for r in results)
    verdict_time = sum(r[4] for r in results if r[3])
    return {
        "wall_s": sum(latencies),
        "verdicts_per_s": verdicts / verdict_time if verdict_time else 0.0,
        "request_p50_ms": statistics.median(latencies) * 1000.0,
        "request_p99_ms": percentile(latencies, 99) * 1000.0,
    }


def end_to_end(passes: list[dict], setup_times: list[float]) -> tuple[dict, dict]:
    """Median over passes of each pass's figures, and the sample counts."""
    figures = [{**pass_figures(p["results"]), "peak_rss_mb": p["peak_rss_mb"]}
               for p in passes]
    metrics = {name: statistics.median(f[name] for f in figures)
               for name in figures[0]}
    metrics["setup_s"] = statistics.median(setup_times)
    samples = {
        "passes": len(passes),
        "requests_per_pass": [len(p["results"]) for p in passes],
        "setup_reps": len(setup_times),
        "setup_s_max": max(setup_times),
        "per_pass": figures,
    }
    return metrics, samples


def per_layer(plain: dict, traced: dict, counted: dict, op_ns: dict) -> dict:
    """Layer figures of the traced pass, op counts of the counting pass,
    op timings, and what each instrumented pass cost over the plain one."""
    wall_plain = sum(r[4] for r in plain["results"])
    return {
        **traced["layers"],
        **counted["layers"],
        **op_ns,
        "trace.overhead_ratio": sum(r[4] for r in traced["results"]) / wall_plain,
        "trace.ops_overhead_ratio": sum(r[4] for r in counted["results"]) / wall_plain,
    }


def declared(kind: str) -> dict:
    with open(BENCHMARK_PATH) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def run(args) -> int:
    started = time.monotonic()
    runner = Runner(started + RUN_BUDGET_S)
    reference = workloads.load_reference()
    prov = provenance(args)
    print(json.dumps({"provenance": prov}, sort_keys=True), flush=True)

    if args.trace:
        requests = workloads.pass_requests(args.workload, args.seed, 0, reference)
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.tsv.gz")
        plain = runner.call("serve", {"requests": requests})
        traced = runner.call("serve", {"requests": requests, "trace": "spans",
                                       "spans_path": spans_path,
                                       "provenance": prov})
        counted = runner.call("serve", {"requests": requests, "trace": "ops"})
        metrics = per_layer(plain, traced, counted,
                            runner.call("ops", {"seed": args.seed}))
        passes = [plain, traced, counted]
        samples = {"passes": len(passes), "requests": len(requests),
                   "spans_file": os.path.relpath(spans_path, ROOT)}
        units = declared("per_layer")
    else:
        setup_job = {"specs": workloads.setup_specs(args.workload, reference)}
        setup_times = [runner.call("setup", setup_job)["setup_s"]
                       for _ in range(SETUP_REPS)]
        passes = []
        measure_start = time.monotonic()
        while not passes or time.monotonic() - measure_start < args.seconds:
            requests = workloads.pass_requests(args.workload, args.seed,
                                               len(passes), reference)
            passes.append(runner.call("serve", {"requests": requests}))
        metrics, samples = end_to_end(passes, setup_times)
        units = declared("end_to_end")

    if set(metrics) != set(units):
        raise BenchError(f"metrics printed and declared differ: "
                         f"{sorted(set(metrics) ^ set(units))}")
    counts = tally([r for p in passes for r in p["results"]], reference)
    attempted = counts["attempted"]
    summary = {
        "samples": samples,
        "requests": {k: counts[k] for k in ("ok", "known_defect", "failed")},
        "failed_ratio": (counts["failed"] + counts["known_defect"]) / attempted,
        "failures": counts["failures"],
    }
    print(json.dumps({"summary": summary}, sort_keys=True), flush=True)
    result = {
        "correct": counts["failed"] == 0,
        "attempted": attempted,
        "failed": counts["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ringlab", "__init__.py")):
        print("perfbench: ringlab sources not found under src/; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    try:
        return run(args)
    except (BenchError, OSError, ValueError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
