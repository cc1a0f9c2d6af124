"""Acceptance gate for the steering toolkit.

Seven end-to-end criteria, one test each, named so that `pytest -v` reads as
a checklist.  Each test also prints a single `acceptance ...: PASS/FAIL`
summary line (visible with `pytest -s`) and enforces a runtime budget.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np

from ghz_steering import (
    DIRECTIONS,
    GhzConfig,
    build_state,
    find_threshold,
    monogamy_residuals,
    reconstruct_trials,
    steering_report,
)
from ghz_steering.cli import main
from ghz_steering.network import correlation_variance
from ghz_steering.steering import gaussian_steering, parse_direction
from ghz_steering.symplectic import Partition, purity, schur_complement, symplectic_form
from ghz_steering.tomography import covariance_from_measurements, population_measurements

R = 0.339
A_CONST = math.exp(2 * R)
B_CONST = math.exp(-2 * R)
U_CONST = (A_CONST + 2 * B_CONST) / 3
V_CONST = (2 * A_CONST + B_CONST) / 3
ETA_GRID = [k * 0.05 for k in range(21)]
COLLECTIVE = DIRECTIONS[6:]


def _finish(name: str, start: float, budget: float, failures: list[str]) -> None:
    elapsed = time.perf_counter() - start
    print(f"acceptance {name}: {'FAIL' if failures else 'PASS'} ({elapsed:.2f} s)")
    assert not failures, f"{name}: " + "; ".join(failures)
    assert elapsed < budget, f"{name}: runtime {elapsed:.2f} s exceeded {budget} s budget"


def test_1_state_preparation_reproduces_correlation_variances():
    start = time.perf_counter()
    failures = []
    state = build_state(GhzConfig())

    combos = {"xA-xB": 2 * B_CONST, "xA-xC": 2 * B_CONST, "xB-xC": 2 * B_CONST,
              "pA+pB+pC": 3 * B_CONST}
    for label, expected in combos.items():
        got = correlation_variance(state, label)
        if abs(got - expected) > 1e-9:
            failures.append(f"var({label}) = {got!r}, expected {expected!r}")
    p = purity(state)
    if abs(p - 1.0) > 1e-9:
        failures.append(f"purity {p!r} is not 1 within 1e-9")
    _finish("1 state-preparation", start, 1.0, failures)


def test_2_pairwise_steering_vanishes_on_the_whole_grid():
    start = time.perf_counter()
    failures = []
    for eta in ETA_GRID:
        state = build_state(GhzConfig(eta=eta))
        for label in DIRECTIONS[:6]:
            g = gaussian_steering(state, parse_direction(label))
            if g > 1e-8:
                failures.append(f"G({label}) = {g!r} at eta={eta}")

    lossless = build_state(GhzConfig())
    for steering_mode in range(3):
        for steered_mode in range(3):
            if steered_mode == steering_mode:
                continue
            part = Partition(steering=(steering_mode,), steered=(steered_mode,))
            det = float(np.linalg.det(schur_complement(lossless, part)))
            if abs(det - 1.0) > 1e-9:
                failures.append(f"det Schur({steering_mode}->{steered_mode}) = {det!r}")
    _finish("2 pairwise-nullity", start, 1.0, failures)


def test_3_collective_steering_matches_closed_form_and_oracle():
    start = time.perf_counter()
    failures = []
    state = build_state(GhzConfig())
    expected = 0.5 * math.log(U_CONST * V_CONST)

    def oracle(label: str) -> float:
        # independent route: explicit block elimination, then a direct
        # eigen-solve of Omega @ sigma_bar instead of the library solvers
        part = parse_direction(label)
        rows = [i for m in part.steered for i in (2 * m, 2 * m + 1)]
        comp = [i for m in part.steering for i in (2 * m, 2 * m + 1)]
        m = state
        bar = m[np.ix_(rows, rows)] - m[np.ix_(rows, comp)] @ np.linalg.solve(
            m[np.ix_(comp, comp)], m[np.ix_(comp, rows)])
        evals = np.linalg.eigvals(symplectic_form(len(rows) // 2) @ bar)
        nus = np.sort(np.abs(evals.imag))[::2]
        return max(0.0, -sum(math.log(nu) for nu in nus if nu < 1 - 1e-10))

    values = {}
    for label in ("A->BC", "BC->A"):
        g = gaussian_steering(state, parse_direction(label))
        values[label] = g
        if abs(g - expected) > 1e-9:
            failures.append(f"G({label}) = {g!r}, closed form {expected!r}")
        ref = oracle(label)
        if abs(g - ref) > 1e-6:
            failures.append(f"G({label}) = {g!r} vs independent oracle {ref!r}")
    if abs(values["A->BC"] - values["BC->A"]) > 1e-9:
        failures.append("lossless state is not directionally symmetric")
    _finish("3 collective-closed-form", start, 1.0, failures)


def test_4_one_way_window_opens_at_half_transmission():
    start = time.perf_counter()
    failures = []

    eta_star = find_threshold(GhzConfig(), "A->BC", tol=1e-4)
    if not 0.49 <= eta_star <= 0.51:
        failures.append(f"A->BC threshold {eta_star!r} outside [0.49, 0.51]")

    below = build_state(GhzConfig(eta=0.3))
    g_below = gaussian_steering(below, parse_direction("A->BC"))
    if g_below != 0.0:
        failures.append(f"G(A->BC) = {g_below!r} at eta=0.3, expected 0")

    for eta in ETA_GRID:
        if eta < 0.05:
            continue
        state = build_state(GhzConfig(eta=eta))
        for label in ("BC->A", "B->AC", "AC->B", "C->AB", "AB->C"):
            g = gaussian_steering(state, parse_direction(label))
            if g <= 1e-8:
                failures.append(f"G({label}) = {g!r} at eta={eta}, expected > 0")
    _finish("4 one-way-window", start, 5.0, failures)


def test_5_monogamy_residuals_stay_non_negative():
    start = time.perf_counter()
    failures = []
    for r in (0.1, R, 0.8):
        for eta in ETA_GRID:
            cfg = GhzConfig(r1=r, r2=r, r3=r, eta=eta)
            res = monogamy_residuals(build_state(cfg))
            bad = {k: v for k, v in res.items() if v < -1e-10}
            if bad:
                failures.append(f"r={r} eta={eta}: {bad}")

    values = [
        gaussian_steering(build_state(GhzConfig(eta=eta)), parse_direction("BC->A"))
        for eta in ETA_GRID
    ]
    drops = [(a, b) for a, b in zip(values, values[1:]) if b - a < -1e-12]
    if drops:
        failures.append(f"G(BC->A) not monotone on the grid: {drops[:3]}")
    _finish("5 monogamy", start, 5.0, failures)


def test_6_reconstruction_recovers_steering_within_error_bars():
    start = time.perf_counter()
    failures = []

    for eta in (1.0, 0.37):
        state = build_state(GhzConfig(eta=eta))
        rebuilt = covariance_from_measurements(population_measurements(state))
        dev = float(np.max(np.abs(rebuilt - state)))
        if dev > 1e-12:
            failures.append(f"population round trip at eta={eta} off by {dev!r}")

    state = build_state(GhzConfig())
    analytic = steering_report(state)
    stats = reconstruct_trials(state, n_samples=100_000, n_trials=3, seed=12345)
    if stats.accepted != (0, 1, 2):
        failures.append(f"trials rejected unexpectedly: accepted={stats.accepted}")
    for direction in DIRECTIONS:
        diff = abs(stats.mean[direction] - analytic[direction])
        spread = stats.std[direction]
        if spread == 0.0:
            if diff > 1e-12:
                failures.append(f"{direction}: zero spread but mean off by {diff!r}")
        elif diff > 3 * spread:
            failures.append(f"{direction}: |mean - analytic| = {diff!r} > 3 std = {3 * spread!r}")

    # error bars must shrink roughly like 1/sqrt(n): compare trial spreads at
    # n and 10n over many master seeds, on the always-active directions
    ratios = []
    for seed in range(20):
        small = reconstruct_trials(state, n_samples=10_000, n_trials=3, seed=seed)
        large = reconstruct_trials(state, n_samples=100_000, n_trials=3, seed=seed)
        for direction in COLLECTIVE:
            if large.std[direction] > 0:
                ratios.append(small.std[direction] / large.std[direction])
    ratio = float(np.mean(ratios))
    if not 2.0 < ratio < 5.0:
        failures.append(f"std ratio across a 10x sample increase is {ratio!r}, not in (2, 5)")
    _finish("6 reconstruction", start, 60.0, failures)


def test_7_cli_outputs_are_deterministic(tmp_path):
    start = time.perf_counter()
    failures = []

    def render(argv, name):
        target = tmp_path / name
        rc = main(argv + ["--output", str(target)])
        if rc != 0:
            failures.append(f"{argv} exited {rc}")
            return b""
        return target.read_bytes()

    pairs = [
        (["build"], "build"),
        (["sweep"], "sweep"),
        (["tomo", "--samples", "20000", "--seed", "3"], "tomo"),
    ]
    for argv, name in pairs:
        first = render(argv, f"{name}-1.out")
        second = render(argv, f"{name}-2.out")
        if first != second:
            failures.append(f"{name} reruns differ")
        if not first:
            failures.append(f"{name} produced no output")

    sweep_text = (tmp_path / "sweep-1.out").read_text()
    header = sweep_text.splitlines()[0]
    expected_header = "eta," + ",".join(
        f"G_{label.replace('->', 'to')}" for label in DIRECTIONS
    ) + ",res_A_out,res_A_in,res_B_out,res_B_in,res_C_out,res_C_in"
    if header != expected_header:
        failures.append(f"sweep header drifted: {header}")

    tomo_doc = json.loads((tmp_path / "tomo-1.out").read_text())
    if tomo_doc["config"]["seed"] != 3:
        failures.append("tomo document does not record its seed")
    _finish("7 cli-determinism", start, 60.0, failures)
