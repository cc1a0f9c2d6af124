#!/usr/bin/env python3
"""Benchmark of ghz_steering: one workload, one seed, timed (--trace 0) or traced (--trace 1).

    python3 benchmark/run.py --workload loss_map --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  The package is imported from
``src/`` of that checkout and never edited.  The last line of standard
output is the result; the line before it is the run record (provenance,
host-speed probe, sample counts, and with --trace 1 the full span table).
Scratch files go to ``.bench_out/`` in the checkout.  Metric definitions and
workload notes are in ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from itertools import islice
from pathlib import Path
from random import Random

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# BLAS threads for this process and every child.  One thread: the kernels are
# 6x6 algebra and streaming (n, 6) tables, and a single-threaded run is the
# steadier baseline on a small shared host.  Never more than nproc.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 5
COLD_PROBE_RUNS = 5

END_TO_END = {
    "setup_s": "s",
    "op_ms": "ms",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Per-layer metrics printed with --trace 1.  Times are the ones that are
# non-zero on every workload; the full per-function table (every traced
# function's calls and self_ms) is in the run record.
PER_LAYER_TIMES = (
    "network.build_state.self_ms", "network.build_ghz.self_ms", "network.lossy_channel.self_ms",
    "symplectic.schur_complement.self_ms", "symplectic.symplectic_eigenvalues.self_ms",
    "steering.steering_report.self_ms", "steering.gaussian_steering.self_ms",
    "steering.parse_direction.self_ms",
    "cli.interpreter_ms", "cli.import_ms",
    "trace.remainder_ms", "trace.wall_ms", "trace.untraced_wall_ms",
)
PER_LAYER_COUNTS = (
    "network.build_state.calls",
    "symplectic.schur_complement.calls", "symplectic.symplectic_eigenvalues.calls",
    "symplectic.is_physical.calls",
    "steering.steering_report.calls", "steering.gaussian_steering.calls",
    "steering.parse_direction.calls", "steering.find_threshold.calls",
    "steering.find_threshold.evals",
    "tomography.sample_quadratures.calls", "tomography.sample_quadratures.bytes",
    "tomography.measure_set.calls", "tomography.measure_set.bytes",
    "tomography.covariance_from_measurements.calls",
    "tomography.reconstruct_trials.calls", "tomography.reconstruct_trials.failed",
    "tomography.trials_attempted", "tomography.trials_accepted",
    "cli.main.calls", "cli.output_bytes",
)
PER_LAYER = {
    **{name: "ms" for name in PER_LAYER_TIMES},
    **{name: "count" for name in PER_LAYER_COUNTS},
    "tomography.accepted_frac": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("GHZ_STEERING_OUTDIR", None)
    env["PYTHONPATH"] = str(SRC)
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def load_package():
    """Import ghz_steering from this checkout's src/, and nowhere else."""
    if not (SRC / "ghz_steering" / "__init__.py").is_file():
        raise SystemExit(f"error: no package at {SRC / 'ghz_steering'}; "
                         "run from the root of a ghz-steering checkout")
    sys.path.insert(0, str(SRC))
    import ghz_steering
    import ghz_steering.cli  # noqa: F401  (ops call ghz_steering.cli.main)

    if SRC not in Path(ghz_steering.__file__).resolve().parents:
        raise SystemExit(f"error: imported ghz_steering from {ghz_steering.__file__}, not {SRC}")
    return ghz_steering


# -- provenance ---------------------------------------------------------------

def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _l3_bytes() -> int | None:
    try:
        size = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    return int(size[:-1]) * 1024 if size.endswith("K") else int(size)


def host_probe_ms() -> float:
    """Median time of a fixed CPU task (Python loop + small matmul), to separate host drift."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((160, 160))
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        sum(i * i for i in range(200_000))
        for _ in range(20):
            a @ a
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def provenance(argv: list[str]) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):  # numpy without mode="dicts", or no BLAS entry
        pass
    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "argv": argv,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l3_bytes": _l3_bytes(),
        "host_probe_ms": host_probe_ms(),
    }


# -- the loop -----------------------------------------------------------------

class Loop:
    """Closed loop over one workload: run, time and check one op at a time."""

    def __init__(self, workload, ctx):
        self.workload = workload
        self.ctx = ctx
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        # (kind, op seconds, work done, reference seconds); a failed op does no work
        self.samples: list[tuple[str, float, float, float | None]] = []

    def step(self, index, inp, tracer=None) -> float:
        """Run, time and check one op, and record its sample.  Failures are counted, not raised."""
        w = self.workload
        self.attempted += 1
        work = w.work(inp)
        elapsed = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = w.run(self.ctx, inp)
            else:
                result = tracer.run_op(index, w.run, self.ctx, inp)
            elapsed = time.perf_counter() - t0
            w.check(self.ctx, inp, result)
        except (Exception, SystemExit) as exc:  # an op boundary: count it and go on
            if elapsed is None:
                elapsed = time.perf_counter() - t0
            self.failed += 1
            work = 0
            if len(self.errors) < 5:
                self.errors.append("".join(traceback.format_exception_only(exc)).strip())
        self.samples.append((w.kind(inp), elapsed, work, None))
        return elapsed

    def run_for(self, inputs, seconds, reference) -> None:
        """Time ops until `seconds` have passed, with a reference task between ops.

        An op's reference time is the median of the four reference tasks
        around it (two before, two after): it follows the host's speed
        phases, which last seconds or more, while damping the noise of a
        single reference run.
        """
        start = time.perf_counter()
        first = len(self.samples)
        refs = [reference()]
        for index, inp in enumerate(inputs):
            self.step(index, inp)
            refs.append(reference())
            if time.perf_counter() - start >= seconds:
                break
        for i, (kind, elapsed, work, _) in enumerate(self.samples[first:]):
            ref_s = statistics.median(refs[max(0, i - 1):i + 3])
            self.samples[first + i] = (kind, elapsed, work, ref_s)


def _quantiles(values):
    if len(values) < 2:
        return {"n": len(values), "median": values[0] if values else None}
    q = statistics.quantiles(values, n=10)
    return {"n": len(values), "median": statistics.median(values), "p10": q[0], "p90": q[-1]}


def setup_times(workload, seed, reference) -> list[tuple[float, float, int]]:
    """Fresh-process set-ups (interpreter, import, inputs, one warm-up op), each
    paired with the fresh-process reference task run just before it, and with
    the probe's peak RSS in KiB.  A probe runs no reference task, so its peak
    is the program's own: import plus one op."""
    runs = []
    for _ in range(SETUP_RUNS):
        ref_s = reference()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.stdout.close()
        # wait4 gives this child's own peak RSS; Popen.wait would not.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe for {workload} failed (exit {proc.returncode})")
        runs.append((elapsed, ref_s, usage.ru_maxrss))
    return runs


def cold_probe_ms(runs) -> tuple[float, float]:
    """Median fresh-interpreter time (python -c pass) and in-process import time."""
    interp, imports = [], []
    code = ("import time; t = time.perf_counter(); import ghz_steering; "
            "print(time.perf_counter() - t)")
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=child_env(), check=True)
        interp.append(time.perf_counter() - t0)
        out = subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                             capture_output=True, text=True).stdout
        imports.append(float(out))
    return statistics.median(interp) * 1e3, statistics.median(imports) * 1e3


def timed_run(workload, ctx, seed, seconds):
    """End-to-end metrics, each wall time normalised by its paired reference task."""
    import reference  # imports numpy, so only after main() has pinned the BLAS threads

    def task(name):
        return lambda: reference.timed(name)

    setups = setup_times(workload.name, seed, task("fresh_process"))
    inputs = workload.inputs(Random(seed))
    loop = Loop(workload, ctx)
    loop.step(-1, next(inputs))  # untimed warm-up, still checked
    loop.samples.clear()
    loop.run_for(inputs, seconds, task(workload.reference))

    nominal = reference.NOMINAL_S[workload.reference]
    raw_ms: dict[str, list[float]] = {}
    norm_ms: dict[str, list[float]] = {}
    for kind, elapsed, _, ref_s in loop.samples:
        raw_ms.setdefault(kind, []).append(elapsed * 1e3)
        norm_ms.setdefault(kind, []).append(elapsed / ref_s * nominal * 1e3)
    work = sum(units for _, _, units, _ in loop.samples)
    # The largest command child on cli_cold; else the largest set-up probe,
    # since this process also runs the reference tasks.
    rss_kb = max(ctx.child_rss_kb or [rss for _, _, rss in setups])
    metrics = {
        "setup_s": statistics.median(s / r for s, r, _ in setups)
        * reference.NOMINAL_S["fresh_process"],
        "op_ms": statistics.fmean(statistics.median(v) for v in norm_ms.values()),
        "work_per_s": work / (sum(sum(v) for v in norm_ms.values()) / 1e3),
        "peak_rss_mb": rss_kb / 1024,
    }
    raw_s = sum(elapsed for _, elapsed, _, _ in loop.samples)
    record = {
        "reference_task": workload.reference,
        "setup_s_raw": [s for s, _, _ in setups],
        "setup_reference_s": [r for _, r, _ in setups],
        "setup_peak_rss_mb": [rss / 1024 for _, _, rss in setups],
        "op_ms_by_kind": {kind: _quantiles(v) for kind, v in norm_ms.items()},
        "raw_op_ms_by_kind": {kind: _quantiles(v) for kind, v in raw_ms.items()},
        "raw_work_per_s": work / raw_s,
        "ops": len(loop.samples),  # failed ops included, with no work
        "work": work,
        "op_samples": [[kind, elapsed * 1e3, ref_s * 1e3]
                       for kind, elapsed, _, ref_s in loop.samples],
    }
    return loop, metrics, record


def traced_run(workload, ctx, seed):
    """A fixed op list, each op run once untraced and once traced.

    The two runs of an op alternate in order, so that cache warmth and host
    drift fall on both sides; their ratio is the tracing overhead.  A third,
    untimed run of each op measures allocated bytes.  Counts and bytes repeat
    exactly for a seed.
    """
    inputs = workload.inputs(Random(seed))
    loop = Loop(workload, ctx)
    loop.step(-1, next(inputs))  # warm-up
    ops = list(islice(inputs, workload.trace_ops))
    tracer = tracing.Tracer()
    meter = tracing.Tracer(measure_bytes=True)
    untraced_s = 0.0
    output_bytes = 0  # written by cli.main during the traced runs
    for i, inp in enumerate(ops):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if not traced:
                untraced_s += loop.step(i, inp)
                continue
            sites = tracer.install(ctx.pkg)
            before = ctx.cli_output_bytes
            try:
                loop.step(i, inp, tracer)
            finally:
                tracer.uninstall()
            output_bytes += ctx.cli_output_bytes - before
        meter.install(ctx.pkg)
        try:
            loop.step(i, inp, meter)
        finally:
            meter.uninstall()
    summary = tracer.summary()
    interpreter_ms, import_ms = cold_probe_ms(COLD_PROBE_RUNS)

    calls, self_ms = summary["calls"], summary["self_ms"]
    counts = {**summary["counts"],
              **{name: n for name, n in meter.counts.items() if name.endswith(".bytes")}}
    wall_ms = summary["wall_ms"]
    metrics = {
        "cli.interpreter_ms": interpreter_ms,
        "cli.import_ms": import_ms,
        "trace.remainder_ms": self_ms.get(tracing.OP, 0.0),
        "trace.wall_ms": wall_ms,
        "trace.untraced_wall_ms": untraced_s * 1e3,
        "steering.find_threshold.evals": summary["find_threshold_evals"],
        "cli.main.calls": sum(n for name, n in calls.items() if name.startswith("cli.main.")),
        "cli.output_bytes": output_bytes,
    }
    for name in PER_LAYER_TIMES + PER_LAYER_COUNTS:
        span, _, field = name.rpartition(".")
        if name in metrics:
            continue
        if field == "self_ms":
            metrics[name] = self_ms.get(span, 0.0)
        elif field == "calls":
            metrics[name] = calls.get(span, 0)
        else:
            metrics[name] = counts.get(name, 0)
    attempted = counts.get("tomography.trials_attempted", 0)
    metrics["tomography.accepted_frac"] = (
        counts.get("tomography.trials_accepted", 0) / attempted if attempted else 0.0)

    listed_ms = wall_ms - metrics["trace.remainder_ms"]
    record = {
        "trace_ops": len(ops),
        "traced_sites": sites,
        "overhead_frac": wall_ms / (untraced_s * 1e3) - 1.0,
        "listed_share": listed_ms / wall_ms,
        "remainder": "harness glue inside the op (argv and GhzConfig construction, "
                     "result handling) plus tracer bookkeeping not inside a listed span",
        "spans": {name: {"calls": calls[name], "self_ms": self_ms[name],
                         "share": self_ms[name] / wall_ms}
                  for name in sorted(calls)},
    }
    return loop, metrics, record, tracer


def _write_spans(path: Path, tracer) -> None:
    with open(path, "w") as fh:
        for name, t0, t1, parent, op in tracer.spans:
            fh.write(json.dumps([name, t0, t1, parent, op]) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    pkg = load_package()
    OUT.mkdir(exist_ok=True)
    workload = workloads.make(args.workload)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        ctx = workloads.Context(pkg=pkg, root=ROOT, tmp=tmp, child_env=child_env(),
                                in_process=bool(args.trace))
        if args.setup_probe:
            # The main run's own warm-up counts a failure; a probe only times set-up.
            Loop(workload, ctx).step(-1, next(workload.inputs(Random(args.seed))))
            print("ready", flush=True)
            return 0

        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "provenance": provenance(["benchmark/run.py", *argv])}
        if args.trace:
            loop, metrics, detail, tracer = traced_run(workload, ctx, args.seed)
            _write_spans(OUT / f"spans-{args.workload}-{args.seed}.jsonl", tracer)
            units = PER_LAYER
        else:
            loop, metrics, detail = timed_run(workload, ctx, args.seed, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    record.update(detail)
    record["failed_frac"] = loop.failed / loop.attempted
    record["errors"] = loop.errors
    print(json.dumps(record))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
