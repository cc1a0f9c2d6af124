"""The four benchmark workloads: seeded inputs, one op, and the op's output check.

Each workload is a closed loop driven by one client in one process: the next
op starts only after the previous one has returned and been checked.  Inputs
come from a ``random.Random`` seeded with the benchmark's ``--seed``; the
package receives only the generated values.  Why each workload exists is in
``README.md`` next to this file.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import oracle

# Sweep CSV columns as fixed by the package README.  Kept here, not imported,
# so that the check does not trust the code it checks.
SWEEP_HEADER = (
    "eta,G_AtoB,G_BtoA,G_AtoC,G_CtoA,G_BtoC,G_CtoB,"
    "G_AtoBC,G_BCtoA,G_BtoAC,G_ACtoB,G_CtoAB,G_ABtoC,"
    "res_A_out,res_A_in,res_B_out,res_B_in,res_C_out,res_C_in"
).split(",")
DIRECTION_COUNT = 12
G_COLUMNS = slice(1, 1 + DIRECTION_COUNT)

# The paper's set-up, which the tomography workloads and the CLI defaults use:
# r = 0.339 on all three inputs, beam splitters at t1 = 1/3 and t2 = 1/2.
PAPER_R, PAPER_T1, PAPER_T2 = 0.339, 1.0 / 3.0, 0.5

# loss_map domain.  r stops at 1.7 (15 dB, the experimental range); above
# r ~ 5 exact pure states are reported unphysical (a known defect).  r starts
# at 0.1 (0.87 dB): below that G(A->BC) near eta = 1/2 stays under the 1e-8
# steering threshold for longer than the bisection tolerance, so eta* sits
# measurably above 1/2, and at r = 0 there is no threshold at all.
R_RANGE = (0.1, 1.7)
T_RANGE = (0.1, 0.9)
GRID_POINTS = (5, 201)
GRID_STRATA = 16
THRESHOLD_TOL = 1e-6
RESIDUAL_FLOOR = -1e-10

# Statistical bound of the tomography check, for every direction:
#   |mean G - analytic G| <= (SPREAD / sqrt(k) + BIAS) / sqrt(n)
# over k accepted trials of n samples, with analytic G from oracle.py.  At
# r = 0.339 and eta in [0.1, 1] the per-trial standard deviation of every G
# is below 2/sqrt(n), so SPREAD = 12 is six standard errors of the mean;
# BIAS covers the upward bias of max(0, .) near a threshold (up to
# 1.0/sqrt(n) seen at n = 2k).  Measured over 420 ops at n = 2k and 35 at
# n = 1M, the largest error was 0.42 of the bound.  The check holds for any
# sampler with the right distribution, not only this seed.
TOMO_SPREAD = 12.0
TOMO_BIAS = 1.5
TOMO_ETA_RANGE = (0.1, 1.0)


class CheckFailed(Exception):
    """The op returned, but its output is wrong."""


def check_sweep_csv(text, r, t1, t2, grid=None):
    """Header, rows, residual signs, G(A->BC) = 0 below eta = 1/2, and every
    G against the oracle.  With `grid`, the rows must carry exactly its etas."""
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != SWEEP_HEADER:
        raise CheckFailed("sweep CSV header differs from the column contract")
    try:
        values = [[float(v) for v in row] for row in rows[1:]]
    except ValueError as exc:
        raise CheckFailed(f"malformed sweep row: {exc}") from None
    if any(len(row) != len(SWEEP_HEADER) for row in values):
        raise CheckFailed("sweep row with the wrong number of columns")
    etas = [row[0] for row in values]
    if grid is not None:
        if len(values) != len(grid):
            raise CheckFailed(f"{len(values)} sweep rows for {len(grid)} grid points")
        if any(abs(got - eta) > 1e-11 for got, eta in zip(etas, grid)):
            raise CheckFailed("sweep rows do not carry the grid's etas")
    expected = oracle.steering(oracle.covariance(r, t1, t2, etas))
    g_abc = SWEEP_HEADER.index("G_AtoBC")
    first_res = SWEEP_HEADER.index("res_A_out")
    for k, (eta, row) in enumerate(zip(etas, values)):
        if min(row[first_res:]) < RESIDUAL_FLOOR:
            raise CheckFailed(f"negative monogamy residual at eta={eta!r}")
        if eta < 0.5 and row[g_abc] != 0.0:
            raise CheckFailed(f"G(A->BC) = {row[g_abc]} at eta={eta!r} < 1/2")
        for label, got in zip(oracle.DIRECTIONS, row[G_COLUMNS]):
            if not oracle.close(got, expected[label][k]):
                raise CheckFailed(f"G({label}) = {got!r} at eta={eta!r}, "
                                  f"oracle {float(expected[label][k])!r}")
    return len(values)


def check_tomo_mean(mean, n_accepted, n_samples, eta):
    """Mean G of accepted trials against the oracle's G of the paper's state."""
    if n_accepted < 2:
        raise CheckFailed(f"only {n_accepted} trials accepted")
    analytic = oracle.steering(oracle.covariance(PAPER_R, PAPER_T1, PAPER_T2, [eta]))
    bound = (TOMO_SPREAD / math.sqrt(n_accepted) + TOMO_BIAS) / math.sqrt(n_samples)
    for label, g in analytic.items():
        if not abs(mean[label] - g[0]) <= bound:
            raise CheckFailed(f"mean G({label}) = {mean[label]:.6g} vs analytic "
                              f"{g[0]:.6g}, bound {bound:.3g}")


@dataclass
class Context:
    """What an op needs besides its input: the package, a scratch dir, a child env."""

    pkg: object
    root: Path
    tmp: Path
    child_env: dict
    in_process: bool = False  # cli_cold: call cli.main instead of a fresh process
    child_rss_kb: list = field(default_factory=list)
    cli_output_bytes: int = 0  # bytes written by in-process cli.main calls


class LossMap:
    """One op maps one seeded configuration: an in-process sweep, then the A->BC threshold."""

    name = "loss_map"
    reference = "small_algebra"
    trace_ops = GRID_STRATA

    def inputs(self, rng):
        # The first op (the warm-up) has the default sweep's 21 points, so
        # set-up time does not depend on the seed.  After it, grid lengths
        # are the 16 log-spaced midpoints of 5..201 points, in a seeded
        # order within each block of 16 ops: every whole block has the same
        # spread of lengths, so the split between per-call and per-point
        # cost depends on the program, not on the seed.
        lo, hi = (math.log(v) for v in GRID_POINTS)
        lengths = [round(math.exp(lo + (k + 0.5) / GRID_STRATA * (hi - lo)))
                   for k in range(GRID_STRATA)]

        def config(n):
            return {"r": rng.uniform(*R_RANGE), "t1": rng.uniform(*T_RANGE),
                    "t2": rng.uniform(*T_RANGE), "grid": sorted(rng.random() for _ in range(n))}

        yield config(21)
        while True:
            block = [config(n) for n in lengths]
            rng.shuffle(block)
            yield from block

    def kind(self, inp):
        return f"n{len(inp['grid'])}"

    def work(self, inp):
        return len(inp["grid"])

    def run(self, ctx, inp):
        pkg = ctx.pkg
        out = ctx.tmp / "sweep.csv"
        argv = ["sweep", "--r", repr(inp["r"]), "--t1", repr(inp["t1"]), "--t2", repr(inp["t2"]),
                "--grid", ",".join(map(repr, inp["grid"])), "--output", str(out)]
        code = pkg.cli.main(argv)
        if code != 0:
            raise CheckFailed(f"sweep exited {code}")
        ctx.cli_output_bytes += out.stat().st_size
        r = inp["r"]
        config = pkg.GhzConfig(r1=r, r2=r, r3=r, t1=inp["t1"], t2=inp["t2"])
        return out, pkg.find_threshold(config, "A->BC", tol=THRESHOLD_TOL)

    def check(self, ctx, inp, result):
        out, eta_star = result
        check_sweep_csv(out.read_text(), inp["r"], inp["t1"], inp["t2"], grid=inp["grid"])
        if abs(eta_star - 0.5) > 2 * THRESHOLD_TOL:
            raise CheckFailed(f"A->BC threshold {eta_star!r} is not 1/2 within 2*tol")


class Tomo:
    """One op reconstructs one seeded state: reconstruct_trials(build_state(GhzConfig(eta)))."""

    def __init__(self, name, n_samples, n_trials, work_per_op, reference, trace_ops):
        self.name = name
        self.reference = reference
        self.n_samples = n_samples
        self.n_trials = n_trials
        self.work_per_op = work_per_op  # samples x trials, or trials
        self.trace_ops = trace_ops

    def inputs(self, rng):
        while True:
            yield {"eta": rng.uniform(*TOMO_ETA_RANGE), "seed": rng.randrange(2**32)}

    def kind(self, inp):
        return "op"

    def work(self, inp):
        return self.work_per_op

    def run(self, ctx, inp):
        pkg = ctx.pkg
        state = pkg.build_state(pkg.GhzConfig(eta=inp["eta"]))
        return pkg.reconstruct_trials(state, n_samples=self.n_samples,
                                      n_trials=self.n_trials, seed=inp["seed"])

    def check(self, ctx, inp, stats):
        check_tomo_mean(stats.mean, len(stats.accepted), self.n_samples, inp["eta"])


class CliCold:
    """One op is one CLI command in a fresh ``python -m ghz_steering`` process.

    The four commands run round-robin.  build and tomo draw their argument
    from a pool of two seeded values, so every argv repeats and each repeat
    must reproduce the first output byte for byte.  First outputs are checked
    against oracle.py: build's matrix, sweep's G columns, tomo's analytic G
    exactly and its mean G within the statistical bound.
    """

    name = "cli_cold"
    reference = "fresh_process"
    trace_ops = 8
    commands = ("build", "sweep", "tomo", "check")

    def __init__(self):
        self.first_output: dict[tuple, bytes] = {}

    def inputs(self, rng):
        etas = [repr(rng.uniform(0.1, 1.0)) for _ in range(2)]
        seeds = [str(rng.randrange(2**31)) for _ in range(2)]
        argvs = {
            "build": [["build", "--eta", eta] for eta in etas],
            "sweep": [["sweep"]],
            "tomo": [["tomo", "--seed", seed] for seed in seeds],
            "check": [["check"]],
        }
        index = 0
        while True:
            for cmd in self.commands:
                pool = argvs[cmd]
                yield {"cmd": cmd, "argv": pool[index % len(pool)], "index": index}
            index += 1

    def kind(self, inp):
        return inp["cmd"]

    def work(self, inp):
        return 1

    def run(self, ctx, inp):
        argv = list(inp["argv"])
        out = None
        if inp["cmd"] != "check":
            out = ctx.tmp / f"{inp['cmd']}-{inp['index']}.out"
            argv += ["--output", str(out)]
        if ctx.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = ctx.pkg.cli.main(argv)
            stdout = buf.getvalue().encode()
            ctx.cli_output_bytes += len(stdout) + (out.stat().st_size if out else 0)
        else:
            code, stdout = self._spawn(ctx, argv)
        if code != 0:
            raise CheckFailed(f"{' '.join(inp['argv'])} exited {code}")
        return out.read_bytes() if out is not None else stdout

    @staticmethod
    def _spawn(ctx, argv):
        stdout_path = ctx.tmp / "cli.stdout"
        with open(stdout_path, "wb") as so, open(ctx.tmp / "cli.stderr", "wb") as se:
            proc = subprocess.Popen([sys.executable, "-m", "ghz_steering", *argv],
                                    cwd=ctx.root, env=ctx.child_env, stdout=so, stderr=se)
            # wait4 gives this child's own peak RSS; Popen.wait would not.
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        ctx.child_rss_kb.append(usage.ru_maxrss)
        return proc.returncode, stdout_path.read_bytes()

    def check(self, ctx, inp, output):
        key = tuple(inp["argv"])
        first = self.first_output.setdefault(key, output)
        if output != first:
            raise CheckFailed(f"{' '.join(key)}: output differs from the first run of this argv")
        if first is not output:
            return
        text = output.decode()
        cmd = inp["cmd"]
        if cmd == "build":
            eta = float(inp["argv"][inp["argv"].index("--eta") + 1])
            expected = oracle.covariance(PAPER_R, PAPER_T1, PAPER_T2, [eta])[0]
            matrix = json.loads(text)["covariance_matrix"]
            ok = [len(row) for row in matrix] == [6] * 6 and all(
                oracle.close(got, want)
                for got_row, want_row in zip(matrix, expected)
                for got, want in zip(got_row, want_row))
        elif cmd == "sweep":
            ok = check_sweep_csv(text, PAPER_R, PAPER_T1, PAPER_T2) == 21
        elif cmd == "tomo":
            doc = json.loads(text)
            accepted = sum(trial["accepted"] for trial in doc["trials"])
            config = doc["config"]
            check_tomo_mean(doc["mean"], accepted, config["samples"], config["eta"])
            analytic = oracle.steering(
                oracle.covariance(PAPER_R, PAPER_T1, PAPER_T2, [config["eta"]]))
            ok = len(doc["mean"]) == DIRECTION_COUNT and all(
                oracle.close(doc["analytic"][label], g[0]) for label, g in analytic.items())
        else:
            lines = text.splitlines()
            ok = len(lines) == 4 and all(line.startswith("PASS ") for line in lines)
        if not ok:
            raise CheckFailed(f"{cmd}: output does not match the oracle or its documented shape")


def make(name):
    """A fresh workload instance by name (check state is per instance)."""
    if name == "loss_map":
        return LossMap()
    if name == "tomo_large":
        return Tomo("tomo_large", 1_000_000, 3, 3_000_000, "streaming", trace_ops=2)
    if name == "tomo_many":
        return Tomo("tomo_many", 2_000, 50, 50, "small_tomography", trace_ops=16)
    if name == "cli_cold":
        return CliCold()
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("loss_map", "tomo_large", "tomo_many", "cli_cold")
