#!/usr/bin/env python3
"""Run the benchmark on several seeds per workload and report each end-to-end metric's spread.

    python3 benchmark/spread.py --runs 10
    python3 benchmark/spread.py --runs 5 --workloads cli_cold --compare .bench_out/spread-1.json

Run from the root of the checkout.  The spread of a metric is
(Q3 - Q1) / median over the runs, with the quartiles that
``statistics.quantiles(values, n=4)`` gives; it should stay below a third of
the metric's bound in BENCHMARK.json (setup_s is exempt).  With --compare,
each median is also checked against the medians of an earlier spread file:
it may not be worse by more than the bound.  Failed ops are reported per run;
the exit code is 1 if any run had one or any metric is not steady.  Results go to
``.bench_out/spread-<first seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload, seed) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    if cmd[0] == "python3":
        cmd[0] = sys.executable
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    record, result = (json.loads(line) for line in out.splitlines()[-2:])
    if result["failed"]:
        # Counted and reported, not fatal: a failed op keeps its time and adds no work.
        print(f"{workload} seed {seed}: {result['failed']} failed ops: {record['errors']}",
              flush=True)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["host_probe_ms"] = record["provenance"]["host_probe_ms"]
    values["ops"] = record["ops"]
    values["failed"] = result["failed"]
    return values


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--compare", type=Path, default=None)
    args = parser.parse_args(argv)

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(args.compare.read_text()) if args.compare else {}
    report, ok = {}, True
    for workload in args.workloads:
        runs = [run_once(spec, workload, args.first_seed + k) for k in range(args.runs)]
        report[workload] = {}
        for name, m in metrics.items():
            values = [run[name] for run in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            steady = name == "setup_s" or spread < m["bound"] / 3
            drift = ""
            if workload in earlier:
                before = earlier[workload][name]["median"]
                worse = (med - before) / before if m["better"] == "lower" else (before - med) / before
                drift = f" vs earlier {worse:+.3f}"
                steady = steady and worse <= m["bound"]
            ok = ok and steady
            report[workload][name] = {"values": values, "median": med, "spread": spread}
            print(f"{workload:10s} {name:12s} median {med:12.6g}  spread {spread:.4f}"
                  f"  bound/3 {m['bound'] / 3:.4f}{drift}  {'ok' if steady else 'NOT STEADY'}",
                  flush=True)
        for key in ("host_probe_ms", "ops", "failed"):
            report[workload][key] = [run[key] for run in runs]
        ok = ok and not any(run["failed"] for run in runs)
    out = ROOT / ".bench_out" / f"spread-{args.first_seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
