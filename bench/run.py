"""Benchmark for the gallai CLI and library.

    python3 bench/run.py --workload check --seed 1 --seconds 20 --trace 0
    python3 bench/selftest.py

Drives ``gallai.cli.main(argv)`` in this process, as a closed loop with
one client: each request starts when the previous one has been checked.
The run repeats whole cycles of its workload's seeded requests (see
``workloads.py``) until ``--seconds`` have passed, times each request,
and checks every output, outside its timed interval, against answers the
benchmark derives itself (``referee.py``).  Each request's latency is the
median of its times over the cycles, so that a slow spell of the machine
during a minority of the cycles does not move the metrics.  The package is imported from
``src/`` next to this directory; without it the run fails with exit 2.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` alternates untraced and traced cycles, then runs one cycle
under tracemalloc, and reports the per-layer metrics (``tracing.py``); the
spans are written to ``.bench_build/``.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The line before it is a report: seed, Python version, CPU count, error
ratio, the first problems found, and either the output digests and the
known-defect requests or each layer's share of self time.
``--workload all`` runs every workload."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
# Set-up runs at least this often and for at least this long; the median counts.
SETUP_REPEATS, SETUP_MIN_SECONDS, SETUP_MAX_REPEATS = 5, 1.0, 50
MIN_REQUESTS = 100  # per cycle, so that p90 has ten requests beyond it
MIN_CYCLES = 3  # so that each request's median sets one outlier aside


def load_spec() -> tuple[dict, dict]:
    """Units of the end-to-end and of the per-layer metrics, by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"]}, {m["name"]: m["unit"] for m in spec["per_layer"]}


def import_gallai():
    """Import gallai afresh from ROOT/src, dropping any earlier import."""
    src = ROOT / "src"
    if not (src / "gallai" / "__init__.py").is_file():
        raise ImportError(f"no gallai package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "gallai" or m.startswith("gallai.")]:
        del sys.modules[name]
    gallai = importlib.import_module("gallai")
    for sub in tracing.SITES:
        importlib.import_module(f"gallai.{sub}")
    if Path(gallai.__file__).resolve().parent != (src / "gallai").resolve():
        raise ImportError(f"gallai imported from {gallai.__file__}, not {src}")
    return gallai


def setup(workload: str, seed: int):
    """Import the package, generate the seeded inputs and write the input
    documents, repeatedly; returns the median time and the last set-up's
    package and requests."""
    times = []
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS):
        t0 = perf_counter()
        gallai = import_gallai()
        requests = workloads.build(workload, random.Random(f"{workload}:{seed}"), gallai)
        times.append(perf_counter() - t0)
    return statistics.median(times), gallai, requests


def execute(request, gallai) -> list:
    """Run a request's steps; exceptions propagate to the caller."""
    results = []
    for step in request.steps:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if callable(step):
                results.append(step(gallai))
                continue
            code = gallai.cli.main(list(step))
        results.append((code, out.getvalue()))
        if code != 0:
            break
    return results


def attempt(request, gallai):
    """Time one request and check it.  Returns (seconds, problem or None,
    results); an exception escaping the program is a failed request."""
    t0 = perf_counter()
    try:
        results = execute(request, gallai)
    except (Exception, SystemExit) as exc:  # RecursionError and MemoryError included
        return perf_counter() - t0, f"{type(exc).__name__}: {str(exc)[:120]}", None
    elapsed = perf_counter() - t0
    try:
        return elapsed, request.check(results), results
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        return elapsed, f"unreadable output: {type(exc).__name__}: {str(exc)[:120]}", results


class Digest:
    """sha256 of every stdout and every written document, over one cycle."""

    def __init__(self):
        self.stdout = hashlib.sha256()
        self.documents = hashlib.sha256()
        self.files = 0

    def add(self, request, results) -> None:
        for step, result in zip(request.steps, results or ()):
            if not callable(step):
                self.stdout.update(f"{request.label} {result[0]}\n{result[1]}".encode())
        for name in request.files:
            path = Path(name)
            if path.is_file():
                self.documents.update(path.read_bytes())
                self.files += 1

    def report(self) -> dict:
        return {"stdout_sha256": self.stdout.hexdigest(),
                "documents_sha256": self.documents.hexdigest(), "documents": self.files}


def percentile(latencies, p: float) -> float:
    """Nearest-rank percentile; a failed request is passed as +inf."""
    ordered = sorted(latencies)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def summarize(samples, per_cycle: int) -> dict:
    """End-to-end request metrics from the (seconds, ok) samples of whole
    cycles of ``per_cycle`` requests.  A request's latency is the median of
    its times over the cycles, a failure ranking as +inf, and the
    percentiles are taken over the requests of a cycle.  Throughput is the
    successes per cycle over the cycle's time, summed from each request's
    median time, failures included."""
    by_request = [samples[i::per_cycle] for i in range(per_cycle)]
    latencies = [statistics.median(s if ok else math.inf for s, ok in runs) for runs in by_request]
    busy = sum(statistics.median(s for s, _ in runs) for runs in by_request)
    successes = sum(ok for _, ok in samples) * per_cycle / len(samples)
    return {
        "throughput_rps": successes / busy,
        "latency_p50_ms": percentile(latencies, 50) * 1000,
        "latency_p90_ms": percentile(latencies, 90) * 1000,
    }


def run_cycle(requests, gallai, samples, problems, digest=None, tracer=None) -> float:
    """One pass over the requests; returns the summed request time.  The
    documents a request wrote are removed after it has been checked, so
    that each write creates a file: overwriting one truncates it first,
    which on ext4 takes several times longer and stalls for milliseconds at
    times."""
    busy = 0.0
    for request in requests:
        if tracer is not None:
            tracer.request = len(samples)
        seconds, problem, results = attempt(request, gallai)
        busy += seconds
        samples.append((seconds, problem is None))
        if problem is not None:
            problems.append(f"{request.label}: {problem}")
        if digest is not None:
            digest.add(request, results)
        for name in request.files:
            Path(name).unlink(missing_ok=True)
    return busy


def run_workload(workload: str, seed: int, seconds: float, trace: bool, units: dict) -> dict:
    work = ROOT / ".bench_build" / f"work-{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    home = os.getcwd()
    os.chdir(work)
    try:
        setup_s, gallai, requests = setup(workload, seed)
        samples, problems, digest = [], [], Digest()
        report = {"workload": workload, "seed": seed, "why": workloads.WHY[workload],
                  "python": platform.python_version(), "cpu_count": os.cpu_count(),
                  "clients": 1, "requests_per_cycle": len(requests)}
        if len(requests) < MIN_REQUESTS:
            raise RuntimeError(f"{workload} has {len(requests)} requests per cycle, fewer than {MIN_REQUESTS}")
        start = perf_counter()
        if not trace:
            cycles = 0
            while cycles < MIN_CYCLES or perf_counter() - start < seconds:
                run_cycle(requests, gallai, samples, problems, digest if cycles == 0 else None)
                cycles += 1
            metrics = {"setup_s": setup_s, **summarize(samples, len(requests))}
            report["digests"] = digest.report()
            report["known_defects"] = run_known_defects(workload, gallai)
        else:
            cycles, plain, traced = 0, 0.0, 0.0
            timing = tracing.Tracer(gallai, "timing")
            while cycles == 0 or perf_counter() - start < seconds:
                plain += run_cycle(requests, gallai, samples, problems)
                with timing:
                    traced += run_cycle(requests, gallai, samples, problems, tracer=timing)
                cycles += 1
            memory = tracing.Tracer(gallai, "memory")
            with memory:
                run_cycle(requests, gallai, samples, problems, tracer=memory)
            metrics = tracing.layer_metrics(timing, memory, cycles, traced / plain, units)
            report["self_time_share"] = tracing.layer_shares(timing)
            timing.dump(ROOT / ".bench_build" / f"spans-{workload}-seed{seed}.jsonl")
        report.update(cycles=cycles, attempted=len(samples),
                      error_ratio=sum(not ok for _, ok in samples) / len(samples),
                      problems=problems[:20])
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    failed = sum(not ok for _, ok in samples)
    return {"report": report, "correct": not problems, "attempted": len(samples),
            "failed": failed, "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}


def run_known_defects(workload: str, gallai) -> list:
    """Run the labelled known-defect requests once, untimed."""
    out = []
    for request in workloads.known_defects(workload):
        _, problem, _ = attempt(request, gallai)
        out.append({"label": request.label, "ok": problem is None, "problem": problem})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        end_to_end, per_layer = load_spec()
        import_gallai()
    except (OSError, ValueError, KeyError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    units = per_layer if args.trace else end_to_end
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), units)
        results[name] = result
        for metric, m in result["metrics"].items():
            print(f"{name:10} {metric:28} {m['value']:.6g} {m['unit']}")
        print("report " + json.dumps(result.pop("report")))
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}}
    # A failure-ranked percentile is +inf; 1e309 is valid JSON that reads back as inf.
    print(json.dumps(final).replace("Infinity", "1e309"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
