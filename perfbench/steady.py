"""Run one workload repeatedly and report how steady its metrics are.

    python3 perfbench/steady.py --workload cli-verbs --runs 10 --seconds 30 [--traced]

Run from the repository root.  Each run is a separate process of
``perfbench/run.py`` with its own seed (1, 2, ...).  For every end-to-end
metric the tool prints the median, the quartiles and their distance as a
share of the median, as ``statistics.quantiles(values, n=4)`` gives them.
It then runs the first seed once more and checks that the digest of the
first round's outputs is the same in both processes, and it checks that
failed operations are the same share of the attempted ones in every run.

With ``--traced`` it also makes one traced run per seed and prints the
tracing overhead (traced against untraced jobs per second, per seed) and
each layer's share of the traced job time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        sys.exit(f"run failed (seed {seed}):\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    digest = next(line.split()[1] for line in proc.stderr.splitlines()
                  if line.startswith("digest "))
    return result, digest


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def traced_profile(workload: str, seed: int) -> tuple[float, dict[str, float]]:
    """Jobs per second of a traced run, from its spans, and each layer's
    self time as a share of the traced job time."""
    tracer = tracing.Tracer()
    with open(os.path.join(HERE, "out", f"trace-{workload}-{seed}.spans.jsonl"),
              encoding="utf-8") as handle:
        tracer.spans = [json.loads(line) for line in handle]
    own = tracer.self_times()
    jobs = [end - start for name, start, end, _ in tracer.spans if name == "job"]
    total = sum(jobs)
    # a job span's own time is the part of homcat no wrapper covers
    own["(not wrapped)"] = own.pop("job")
    return len(jobs) / total, {name: value / total for name, value in own.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    seeds = list(range(1, args.runs + 1))
    results, digests = [], {}
    for seed in seeds:
        result, digest = run_once(args.workload, seed, args.seconds, 0)
        results.append(result)
        digests[seed] = digest
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values}", flush=True)

    print(f"\n{args.workload}: {len(seeds)} runs of {args.seconds:g} s")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median, q1, q3, share = spread(values)
        unit = results[0]["metrics"][name]["unit"]
        print(f"  {name:14s} median {median:12.4f} {unit:4s} q1 {q1:12.4f} q3 {q3:12.4f} "
              f"spread {share:.4f}")
    failed_shares = {Fraction(r["failed"], r["attempted"]) for r in results}
    print(f"  failed share: {sorted(str(s) for s in failed_shares)} "
          f"({'same in every run' if len(failed_shares) == 1 else 'DIFFERS'})")
    print(f"  correct in every run: {all(r['correct'] for r in results)}")

    again, digest = run_once(args.workload, seeds[0], args.seconds, 0)
    same = digest == digests[seeds[0]]
    print(f"  digest of seed {seeds[0]} in two processes: "
          f"{'identical' if same else 'DIFFERENT'} ({digest[:16]})")

    if args.traced:
        overheads = []
        totals: dict[str, list[float]] = {}
        for seed, untraced in zip(seeds, results):
            traced, _ = run_once(args.workload, seed, args.seconds, 1)
            if not traced["correct"]:
                print(f"  traced run of seed {seed} was not correct")
            traced_rate, shares = traced_profile(args.workload, seed)
            overheads.append(untraced["metrics"]["jobs_per_s"]["value"] / traced_rate - 1)
            for name, share in shares.items():
                totals.setdefault(name, []).append(share)
        print(f"  tracing overhead (untraced/traced jobs_per_s - 1): median "
              f"{statistics.median(overheads):.3f}, per seed "
              f"{[round(o, 3) for o in overheads]}")
        print("  layer self time as a share of traced job time (median over seeds):")
        for name, values in sorted(totals.items(), key=lambda kv: -statistics.median(kv[1])):
            print(f"    {name:34s} {statistics.median(values):.4f}")
    return 0 if same and len(failed_shares) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
