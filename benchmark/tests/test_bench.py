"""Self-tests of the benchmark harness (not part of the package's test suite).

    python3 -m pytest benchmark/tests -q

They run each workload briefly in a subprocess, so they take about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Stated bound on tracing overhead: traced op wall time against untraced.
MAX_TRACE_OVERHEAD = 0.25


def bench(*args):
    cmd = [sys.executable, str(BENCH / "run.py"), *args]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    lines = out.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def expected(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_benchmark_json_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert expected("end_to_end") == run.END_TO_END
    assert expected("per_layer") == run.PER_LAYER


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_timed_run_emits_every_end_to_end_metric(workload):
    record, result = bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                           "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert record["provenance"]["blas_threads"] <= record["provenance"]["nproc"]


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_run_accounts_for_the_op_wall_time(workload):
    record, result = bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                           "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected("per_layer")

    # Self times of all spans, the op remainder included, add up to the traced wall.
    wall = metrics["trace.wall_ms"]
    total = sum(span["self_ms"] for span in record["spans"].values())
    assert total == pytest.approx(wall, rel=1e-9)
    assert record["listed_share"] > 0.9
    assert wall <= metrics["trace.untraced_wall_ms"] * (1 + MAX_TRACE_OVERHEAD)
    # Every traced function is wrapped at each module attribute that names it.
    assert "ghz_steering.tomography.steering_report" in record["traced_sites"]
    assert "ghz_steering.steering.schur_complement" in record["traced_sites"]


def test_counts_repeat_exactly_for_a_seed():
    runs = [bench("--workload", "tomo_many", "--seed", "5", "--trace", "1")[1]["metrics"]
            for _ in range(2)]
    counts = [{k: v["value"] for k, v in m.items() if v["unit"] == "count"} for m in runs]
    assert counts[0] == counts[1]


@pytest.fixture
def ctx(tmp_path):
    return workloads.Context(pkg=run.load_package(), root=ROOT, tmp=tmp_path,
                             child_env=run.child_env())


def test_invalid_fresh_process_op_is_counted_not_raised(ctx):
    workload = workloads.make("cli_cold")
    loop = run.Loop(workload, ctx)
    ops = [{"cmd": "check", "argv": ["check"], "index": 0},
           # a range grid past eta = 1 is a usage error: exit 3
           {"cmd": "sweep", "argv": ["sweep", "--grid", "0:1.5:0.1"], "index": 0},
           {"cmd": "check", "argv": ["check"], "index": 1}]
    for i, inp in enumerate(ops):
        loop.step(i, inp)
    assert (loop.attempted, loop.failed) == (3, 1)
    assert [work for _, _, work, _ in loop.samples] == [1, 0, 1]
    assert "exited 3" in loop.errors[0]


def test_invalid_in_process_op_is_counted_not_raised(ctx):
    workload = workloads.make("loss_map")
    loop = run.Loop(workload, ctx)
    good = {"r": 0.5, "t1": 0.4, "t2": 0.6, "grid": [0.2, 0.7]}
    loop.step(0, good)
    loop.step(1, {**good, "grid": [0.2, 1.5]})  # argparse exits 3 inside cli.main
    loop.step(2, good)
    assert (loop.attempted, loop.failed) == (3, 1)
    assert [work for _, _, work, _ in loop.samples] == [2, 0, 2]


def test_wrong_output_fails_its_check(ctx):
    workload = workloads.make("tomo_many")
    inp = {"eta": 0.8, "seed": 7}
    stats = workload.run(ctx, inp)
    workload.check(ctx, inp, stats)
    with pytest.raises(workloads.CheckFailed):  # statistics of another state
        workload.check(ctx, {**inp, "eta": 0.3}, stats)


def test_wrong_steering_values_fail_the_oracle_check(ctx):
    workload = workloads.make("loss_map")
    inp = {"r": 0.8, "t1": 0.4, "t2": 0.6, "grid": [0.6, 0.7, 0.9]}
    out, eta_star = workload.run(ctx, inp)
    workload.check(ctx, inp, (out, eta_star))
    header, *rows = out.read_text().splitlines()
    a_bc, bc_a = workloads.SWEEP_HEADER.index("G_AtoBC"), workloads.SWEEP_HEADER.index("G_BCtoA")

    def rewrite(edit):
        lines = [header]
        for row in rows:
            cells = row.split(",")
            edit(cells)
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def swap(cells):  # directions reversed
        cells[a_bc], cells[bc_a] = cells[bc_a], cells[a_bc]

    def scale(cells):  # G one percent high, residuals untouched
        cells[a_bc] = repr(1.01 * float(cells[a_bc]))

    for edit in (swap, scale):
        with pytest.raises(workloads.CheckFailed, match="oracle"):
            workloads.check_sweep_csv(rewrite(edit), inp["r"], inp["t1"], inp["t2"], inp["grid"])


def test_empty_checkout_fails_without_a_result(tmp_path):
    (tmp_path / "benchmark").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "benchmark" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "loss_map",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
