"""Command-line front end: build states, sweep loss, simulate tomography, self-check.

Exit codes: 0 success, 2 unphysical state or numerical failure, 3 argument/parse error or
unwritable output, 4 check-suite failure.  Output is CSV or JSON; identical configurations
(including seeds) produce byte-identical files, and files are written atomically (temp file
then rename), through a symlink to its target; an existing FIFO or device is written
directly.  If the environment variable GHZ_STEERING_OUTDIR is set, relative output paths
land inside it.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import stat
import sys
from collections.abc import Sequence
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .network import (
    MODE_NAMES,
    GhzConfig,
    build_states,
    correlation_variance,
    squeezing_db_to_r,
)
from .steering import DIRECTIONS, RESIDUAL_KEYS, STEERING_EPS, _factor, _g, monogamy_stack
from .symplectic import (NumericalError, _below_floor, _factor_spectrum, physicality_floor, purity,
                         symplectic_eigenvalues)
from .tomography import REJECT_NU_FLOOR, reconstruct_trials

SCHEMA_VERSION = 2
OUTDIR_ENV = "GHZ_STEERING_OUTDIR"
DEFAULT_GRID = "0.0:1.0:0.05"
DEFAULT_SEED = 12345
CSV_NUMBER = ".12g"  # the CSV number contract: 12 significant digits

# Caps on the argument sizes that allocate per element, checked before anything
# is built.  At the caps a fresh process peaks at about 76 MB RSS (sweep) and
# 100 MB (tomo), against 31 and 37 MB at the defaults (numpy 2.4, x86-64 Linux).
MAX_GRID_POINTS = 10_001
MAX_TRIALS = 10_000

EXIT_OK = 0
EXIT_UNPHYSICAL = 2
EXIT_USAGE = 3
EXIT_CHECK_FAILED = 4

# Fixed column contract of the sweep CSV, and one row of it as a %-format.
SWEEP_COLUMNS: tuple[str, ...] = (
    "eta",
    *[f"G_{label.replace('->', 'to')}" for label in DIRECTIONS],
    *[f"res_{key}" for key in RESIDUAL_KEYS],
)
_SWEEP_ROW = ",".join(["%" + CSV_NUMBER] * len(SWEEP_COLUMNS))

# The headline second-moment combinations reported by `build`.
BUILD_COMBOS: tuple[str, ...] = ("xA-xB", "xA-xC", "xB-xC", "pA+pB+pC")


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors remapped to exit code 3 (2 is reserved)."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(value: float) -> str:
    """12 significant digits, the CSV number contract."""
    return format(float(value), CSV_NUMBER)


def _emit(text: str, output: str | None) -> None:
    """Write to stdout, or to the --output path (a relative one under $GHZ_STEERING_OUTDIR when
    set): atomically to a regular file or a symlink's target, by a rename of a temp file beside it
    that this call created, the only file it ever removes; directly to an existing FIFO or device.
    Missing parent directories are created.  ValueError if unwritable, a directory before any
    temp file."""
    if output is None:
        sys.stdout.write(text)
        return
    path = Path(os.environ.get(OUTDIR_ENV, ""), output)  # Path drops the dir before an absolute one
    target = str(path)
    try:
        if os.path.islink(target):
            target = os.path.realpath(target)
            if os.path.islink(target):  # realpath stops at a link only in a loop
                raise OSError(errno.ELOOP, os.strerror(errno.ELOOP))
        try:
            mode = os.stat(target).st_mode
        except FileNotFoundError:  # written as a new regular file
            mode = stat.S_IFREG
        if stat.S_ISDIR(mode):
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR))
        if not stat.S_ISREG(mode):  # a FIFO or device
            with open(target, "w") as stream:
                stream.write(text)
            return
        tmp = f"{target}.{os.urandom(8).hex()}.tmp"
        # O_EXCL fails on any existing file; the umask applies to 0o666, as for open()
        flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
        try:
            fd = os.open(tmp, flags, 0o666)
        except FileNotFoundError:  # a missing parent directory
            os.makedirs(os.path.dirname(tmp), exist_ok=True)
            fd = os.open(tmp, flags, 0o666)
        try:
            with open(fd, "wb") as stream:
                stream.write(text.encode())
            os.replace(tmp, target)
        except BaseException:
            Path(tmp).unlink(missing_ok=True)  # this run's own temp file
            raise
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def _config_from_args(args: argparse.Namespace) -> GhzConfig:
    r = args.r if args.squeezing_db is None else squeezing_db_to_r(args.squeezing_db)
    return GhzConfig(r1=r, r2=r, r3=r, t1=args.t1, t2=args.t2,
                     eta=getattr(args, "eta", GhzConfig.eta))  # sweep and check have no --eta


def _parse_grid(expr: str) -> list[float]:
    """Parse an eta grid: either start:stop:step or a comma-separated list."""
    try:
        if ":" in expr:
            fields = expr.split(":")
            if len(fields) != 3:
                raise ValueError("grid must be start:stop:step")
            start, stop, step = (float(f) for f in fields)
            if not (math.isfinite(step) and step > 0):
                raise ValueError("grid step must be finite and positive")
            if not (0.0 <= start <= stop <= 1.0):
                raise ValueError("grid must lie within [0, 1] with start <= stop")
            # the slack keeps a last point that round-off puts just short of stop
            steps = (stop - start) / step + 1e-9
            _check_grid_size(steps + 1)
            return [min(start + k * step, stop) for k in range(math.floor(steps) + 1)]
        values = [float(f) for f in expr.split(",") if f.strip() != ""]
        if not values:
            raise ValueError("empty eta grid")
        if any(not 0.0 <= v <= 1.0 for v in values):
            raise ValueError("grid values must lie within [0, 1]")
        _check_grid_size(len(values))
        return values
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _check_grid_size(points: float) -> None:
    """ValueError if a grid has more than MAX_GRID_POINTS points (points may be inf)."""
    if points >= MAX_GRID_POINTS + 1:
        raise ValueError(f"grid has {points:.0f} points, more than {MAX_GRID_POINTS}")


def _int(text: str) -> int:
    """int(text), failing with argparse's own "invalid int value" message."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _non_negative_int(text: str) -> int:
    """argparse type for seeds: an integer >= 0."""
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _trial_count(text: str) -> int:
    """argparse type for --trials: an integer of at most MAX_TRIALS."""
    value = _int(text)
    if value > MAX_TRIALS:
        raise argparse.ArgumentTypeError(f"{value} trials, more than {MAX_TRIALS}")
    return value


def _add_state_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--r", type=float, default=0.339,
                       help="squeezing parameter for all three inputs (default 0.339)")
    group.add_argument("--squeezing-db", type=float, default=None,
                       help="squeezing in dB instead of r (e.g. 2.944)")
    parser.add_argument("--t1", type=float, default=1.0 / 3.0,
                        help="first beam-splitter transmittance (default 1/3)")
    parser.add_argument("--t2", type=float, default=0.5,
                        help="second beam-splitter transmittance (default 1/2)")


def _add_output_args(parser: argparse.ArgumentParser, formats: tuple[str, ...], default: str) -> None:
    parser.add_argument("--format", choices=formats, default=default,
                        help=f"output format (default {default})")
    parser.add_argument("--output", default=None,
                        help="output file (default stdout); relative paths honor "
                             f"${OUTDIR_ENV} when set")


def _require_physical(states: np.ndarray, etas: Sequence[float]) -> None:
    """NumericalError at the eta of the first state below its floor (below_floor)."""
    below = _below_floor(states).nonzero()[0]
    if below.size:
        raise NumericalError(f"state at eta={etas[below[0]]} violates the uncertainty relation")


def cmd_build(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    states = build_states(config, [config.eta])
    _require_physical(states, [config.eta])
    state = states[0]
    nus = symplectic_eigenvalues(state)
    variances = {lab: correlation_variance(state, lab) for lab in BUILD_COMBOS}

    if args.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "build",
            "config": asdict(config),
            "covariance_matrix": state.tolist(),
            "purity": purity(state),
            "symplectic_eigenvalues": nus.tolist(),
            "correlation_variances": variances,
        }
        text = json.dumps(doc, indent=2) + "\n"
    else:
        lines = [f"# purity={_fmt(purity(state))}"]
        lines.append("# symplectic_eigenvalues=" + ";".join(_fmt(nu) for nu in nus))
        for lab, val in variances.items():
            lines.append(f"# var({lab})={_fmt(val)}")
        header = [f"{quad}{name}" for name in MODE_NAMES for quad in ("x", "p")]
        lines.append(",".join(header))
        for row in state:
            lines.append(",".join(_fmt(v) for v in row))
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    states = build_states(config, args.grid)  # built symmetric and finite: no ingest copy
    g = _g(_factor(states))
    _require_physical(states, args.grid)
    res = monogamy_stack(g)

    if args.format == "csv":  # one % over the whole (K, 19) table
        table = np.column_stack([args.grid, g, res])
        body = (_SWEEP_ROW + "\n") * len(table) % tuple(table.ravel().tolist())
        text = ",".join(SWEEP_COLUMNS) + "\n" + body
    else:
        rows = zip(args.grid, g.tolist(), res.tolist())
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "sweep",
            "config": asdict(config),
            "rows": [
                {"eta": eta, "g": dict(zip(DIRECTIONS, g_row)),
                 "residuals": dict(zip(RESIDUAL_KEYS, res_row))}
                for eta, g_row, res_row in rows
            ],
        }
        text = json.dumps(doc, indent=2) + "\n"
    _emit(text, args.output)
    return EXIT_OK


def cmd_tomo(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    states = build_states(config, [config.eta])
    g = _g(_factor(states))
    _require_physical(states, [config.eta])
    analytic = dict(zip(DIRECTIONS, g[0].tolist()))  # steering_report(states[0])
    try:
        stats = reconstruct_trials(states[0], n_samples=args.samples, n_trials=args.trials,
                                   seed=args.seed)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNPHYSICAL

    g_by_trial = dict(zip(stats.accepted, stats.g.tolist()))
    trials_doc = [{"trial": index, "accepted": index in g_by_trial, "min_symplectic_eigenvalue": nu,
                   "g": dict(zip(DIRECTIONS, g_by_trial[index])) if index in g_by_trial else None}
                  for index, nu in enumerate(stats.min_symplectic_eigenvalues)]

    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "tomo",
        "config": {
            **asdict(config),
            "samples": args.samples,
            "trials": args.trials,
            "seed": args.seed,
        },
        "rejection_rule": {
            "min_symplectic_eigenvalue_floor": REJECT_NU_FLOOR,
            "note": "trials reconstructing below the floor are excluded; no repair applied",
        },
        "analytic": analytic,
        "trials": trials_doc,
        "mean": stats.mean,
        "std": stats.std,
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.output)
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    grid = _parse_grid(DEFAULT_GRID)
    states = build_states(config, grid)
    low = _factor(states)
    g = _g(low)
    nu_min = _factor_spectrum(low[:, 0])[:, 0]  # ordering 0 is sigma's own factor
    floor = physicality_floor(states, nu_min)
    worst = np.argmin(nu_min - floor)  # the row with the least margin
    worst_pair = g[:, :6].max()  # DIRECTIONS[:6] are the one-to-one directions
    asym = np.abs(g[-1, 6::2] - g[-1, 7::2]).max()  # eta = 1: G(X->YZ) against G(YZ->X)
    worst_res = monogamy_stack(g).min()
    checks = [
        ("physicality", bool(np.all(nu_min >= floor)),
         f"min symplectic eigenvalue {nu_min[worst]:.6g} vs floor {floor[worst]:.6g}"),
        ("one-to-one-nullity", worst_pair <= STEERING_EPS, f"max pairwise G {worst_pair:.3g}"),
        ("pure-state-symmetry", asym <= 1e-9, f"max |G(X->Y) - G(Y->X)| at eta=1: {asym:.3g}"),
        ("monogamy", worst_res >= -1e-10, f"min residual {worst_res:.3g}"),
    ]
    failed = [name for name, ok, _ in checks if not ok]
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    if failed:
        print(f"check failed: {failed[0]}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The CLI parser, built once per process; parse_args leaves it unchanged."""
    parser = _Parser(prog="ghz-steering",
                     description="Three-mode GHZ-state Gaussian steering toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct one state and report its moments")
    _add_state_args(p_build)
    p_build.add_argument("--eta", type=float, default=1.0,
                         help="channel efficiency on mode A (default 1.0)")
    _add_output_args(p_build, ("json", "csv"), "json")
    p_build.set_defaults(func=cmd_build)

    p_sweep = sub.add_parser("sweep", help="steering and monogamy across an eta grid")
    _add_state_args(p_sweep)
    p_sweep.add_argument("--grid", type=_parse_grid, default=tuple(_parse_grid(DEFAULT_GRID)),
                         help=f"eta grid, start:stop:step or comma list (default {DEFAULT_GRID})")
    _add_output_args(p_sweep, ("csv", "json"), "csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_tomo = sub.add_parser("tomo", help="simulated covariance reconstruction with error bars")
    _add_state_args(p_tomo)
    p_tomo.add_argument("--eta", type=float, default=1.0,
                        help="channel efficiency on mode A (default 1.0)")
    p_tomo.add_argument("--samples", type=int, default=100_000,
                        help="quadrature samples per trial (default 100000)")
    p_tomo.add_argument("--trials", type=_trial_count, default=3,
                        help="number of reconstruction trials (default 3)")
    p_tomo.add_argument("--seed", type=_non_negative_int, default=DEFAULT_SEED,
                        help=f"master seed; trial i draws the same at any --trials "
                             f"(default {DEFAULT_SEED})")
    _add_output_args(p_tomo, ("json",), "json")
    p_tomo.set_defaults(func=cmd_tomo)

    p_check = sub.add_parser("check", help="run the invariant suite")
    _add_state_args(p_check)
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNPHYSICAL
    except ValueError as exc:
        # domain validation failures (bad eta, bad grid, bad direction, ...)
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
