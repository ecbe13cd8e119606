"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload cli-verbs --seed 1 --seconds 20 --trace 0

Run from the repository root.  The run imports homcat from ``src``, sets
the workload up several times (a fresh import of homcat, the seeded
inputs and the module-cache warm-up each time) and reports the median
set-up time.  It then runs whole rounds of the workload's jobs, in one
process and one thread, until ``--seconds`` have passed, timing only the
calls into homcat and checking every answer independently.  A job that
recurs, in a later round or within one, must render the same bytes as
its first run.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs the
layer wrappers, prints the per-layer metrics and writes the spans and
counters under ``perfbench/out/``.  Progress and a digest of the first
round's outputs go to stderr; the last line of stdout is the result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 25
MODULES = ("simplicial", "subdivision", "homotopy", "setcalc", "fincat",
           "modelcat", "algebra", "cli")


def import_homcat() -> types.SimpleNamespace:
    """A fresh import of every homcat module."""
    for name in [m for m in sys.modules if m == "homcat" or m.startswith("homcat.")]:
        del sys.modules[name]
    importlib.import_module("homcat")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"homcat.{m}") for m in MODULES})


def tail(samples: list[float]) -> float:
    """The 99th percentile; where a run has too few jobs for that to be a
    tail (below forty), the median stands in."""
    if len(samples) < 40:
        return statistics.median(samples)
    return statistics.quantiles(samples, n=100)[98]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "homcat", "__init__.py")):
        print(f"homcat sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    build = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)

    with tempfile.TemporaryDirectory(dir=OUT, prefix="fixtures-") as workdir:
        setups = []
        for _ in range(SETUP_REPEATS):
            # collect the modules and inputs the previous set-up dropped, so
            # that no set-up pays for another's garbage
            gc.collect()
            start = time.perf_counter()
            hc = import_homcat()
            jobs = build(args.seed, hc, workdir)
            setups.append(time.perf_counter() - start)

        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            tracer.install(hc)

        latencies: list[float] = []
        failed = unexpected = 0
        first: dict[int, bytes] = {}  # each job's first rendered output
        digest = hashlib.sha256()
        began = last = time.perf_counter()
        rounds = 0
        round_s = 0.0
        # whole rounds only, and no round that would end past --seconds
        while rounds == 0 or last - began + round_s <= args.seconds:
            for job in jobs:
                root = tracer.open("job") if tracer else None
                try:
                    try:
                        elapsed, out = job.timed()
                    finally:
                        if tracer:
                            tracer.close(root)
                    ok = job.check(out)
                    rendered = job.render(out)
                except Exception as exc:  # a crash is a failed operation
                    elapsed, ok, rendered = None, False, b""
                    print(f"{job.kind}: {type(exc).__name__}: {exc}", file=sys.stderr)
                if elapsed is not None:
                    latencies.append(elapsed)
                if rounds == 0:
                    digest.update(hashlib.sha256(rendered).digest())
                if first.setdefault(id(job), rendered) != rendered:
                    ok = False  # a repeated query must give identical bytes
                if not ok:
                    failed += 1
                    if not job.expected_failure:
                        unexpected += 1
                        print(f"{job.kind}: wrong answer", file=sys.stderr)
            rounds += 1
            round_s = time.perf_counter() - last
            last += round_s

    attempted = rounds * len(jobs)
    jobs_per_s = len(latencies) / sum(latencies)
    print(f"{args.workload} seed {args.seed}: {rounds} rounds, {attempted} jobs, "
          f"{failed} failed ({unexpected} unexpected), {len(latencies)} timed, "
          f"{jobs_per_s:.4f} jobs/s", file=sys.stderr)
    print(f"digest {digest.hexdigest()}", file=sys.stderr)

    if tracer:
        stem = os.path.join(OUT, f"trace-{args.workload}-{args.seed}")
        tracer.write(stem)
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in tracer.metrics().items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "jobs_per_s": {"value": jobs_per_s, "unit": "1/s"},
            "job_p50_ms": {"value": statistics.median(latencies) * 1000, "unit": "ms"},
            "job_p99_ms": {"value": tail(latencies) * 1000, "unit": "ms"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB",
            },
        }
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
