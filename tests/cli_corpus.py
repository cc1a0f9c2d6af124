"""A fixed corpus of CLI and script runs, and a comparator of two package trees.

Every entry is an argv and the exit code it gives: CLI_RUNS, HELP_RUNS and
OUTPUT_RUNS are argvs of ``python -m ghz_steering``, SCRIPT_RUNS those of the
example scripts.  tests/test_cli_corpus.py runs each entry in-process twice.
TRIAL_CASES is a second list, of seeded reconstruct_trials calls.

Run as a script to compare this tree's package with another tree's:

    python tests/cli_corpus.py PARENT_SRC

runs every entry in fresh processes, once with PARENT_SRC and once with this
tree's src/ on PYTHONPATH (the scripts are this tree's in both), and prints
one line per entry: "identical", "numbers differ" with the largest relative
change and where it sits (stdout, stderr or a written file, and the line), and
whether a zero changed sign, which no relative change shows, or
which of text, exit code or written file differs.  It then runs every
trial case in one fresh process per tree and prints each case whose matrices,
G, nu_min or accepted indices differ in their bytes, or whose error differs in
type or text, and a count of the identical ones.  The exit status is 1 unless
every entry and every trial case is identical.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"

CLI_RUNS: list[tuple[list[str], int]] = [
    (["build"], 0),
    (["build", "--format", "csv"], 0),
    # eta = 0 zeroes A's rows and columns, and the CSV prints the sign of each zero
    (["build", "--format", "csv", "--eta", "0"], 0),
    (["build", "--r", "3", "--t1", "0", "--t2", "1", "--eta", "0"], 0),
    (["build", "--squeezing-db", "26.05"], 0),
    (["build", "--r", "0"], 0),
    (["sweep"], 0),
    (["sweep", "--format", "json"], 0),
    (["sweep", "--squeezing-db", "26.05", "--grid", "0:1:0.001"], 0),
    (["sweep", "--grid", "0.5,1"], 0),
    (["sweep", "--r", "0"], 0),
    (["sweep", "--r", "3", "--t1", "0", "--t2", "1"], 0),
    (["tomo"], 0),
    (["tomo", "--samples", "2000", "--trials", "50", "--seed", "1"], 0),
    (["tomo", "--samples", "2000", "--trials", "3", "--seed", "1"], 0),
    (["tomo", "--samples", str(10**400), "--trials", "3"], 3),  # n_samples - 1 past the largest float
    # exit 2: fewer than 2 trials reconstruct a physical matrix
    (["tomo", "--samples", "3", "--trials", "5"], 2),
    (["tomo", "--samples", "8", "--trials", "200", "--seed", "3"], 2),
    (["tomo", "--samples", "7", "--trials", "10000", "--seed", "1", "--eta", "0.7"], 2),
    (["tomo", "--r", "3", "--eta", "0", "--samples", "5000", "--trials", "4"], 2),
    (["tomo", "--samples", "1000", "--seed", "0"], 2),
    # trial 849 measures a variance that rounds to -2.3e-13: rejected, not a usage error
    (["tomo", "--r", "3", "--eta", "1", "--samples", "2", "--trials", "850", "--seed", "268"], 2),
    (["check"], 0),
    (["check", "--r", "3"], 0),
    (["check", "--r", "0"], 0),
    (["check", "--squeezing-db", "26.05"], 0),
    (["check", "--r", "1.7"], 0),
    # usage errors
    (["build", "--r", "3.5"], 3),
    (["sweep", "--grid", "0:1:0.00001"], 3),
    (["tomo", "--trials", "10001"], 3),
    (["tomo", "--seed", "-1"], 3),
    (["sweep", "--grid", "2"], 3),
    (["tomo", "--trials", "1"], 3),
    (["tomo", "--samples", "1"], 3),
]

# argparse lays these out differently across Python versions, so in-process
# runs compare only their exit codes.
HELP_RUNS: list[tuple[list[str], int]] = [
    ([*command, "--help"], 0) for command in ([], ["build"], ["sweep"], ["tomo"], ["check"])
]

# A relative --output lands under $GHZ_STEERING_OUTDIR, with any missing parent directory
# created; "./", "//" and a trailing "/" are normalised away, so "sweep.csv/" is a file.
OUTPUT_RUNS: list[tuple[list[str], int]] = [
    (["sweep", "--format", "json", "--output", "runs/sweep.json"], 0),
    *((["sweep", "--output", output], 0)
      for output in ("runs/a/b/sweep.csv", "./sweep.csv", "runs//sweep.csv", "sweep.csv/")),
]

SCRIPT_RUNS: list[tuple[list[str], int]] = [
    (["loss_sweep.py", "--steps", "5"], 0),
    (["loss_sweep.py", "--r", "0", "--steps", "5"], 0),
    (["tomography_demo.py"], 0),
]

# (r, eta, n_samples, n_trials, seed) of a reconstruct_trials call on the state of squeezing r
# in all three inputs at efficiency eta: every combination below with two seeds, then a
# SeedSequence seed and the two seeds whose last trial measures a variance that rounds below 0.
TRIAL_CASES: list[tuple] = [
    (r, eta, n, trials, 2 * index + copy)
    for index, (n, trials, r, eta) in enumerate(itertools.product(
        (2, 3, 7, 8, 2000, 10**6), (2, 3, 50, 1000), (0.0, 0.339, 1.7, 3.0), (0.0, 0.3, 0.7, 1.0)))
    for copy in range(2)
] + [
    (0.339, 0.7, 2000, 50, np.random.SeedSequence(20261020, spawn_key=(1, 2), pool_size=8)),
    (3.0, 1.0, 2, 850, 268),
    (3.0, 0.5, 2, 558, 260),
]
TRIAL_FIELDS = ("matrices", "G", "nu_min", "accepted", "mean", "std")

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf|NaN|Infinity)\b")


def _number(text: str) -> float:
    return float({"NaN": "nan", "Infinity": "inf"}.get(text, text))


def number_change(old: str, new: str) -> float | None:
    """Largest relative change between the numbers of two texts whose other text is equal;
    None if the texts differ otherwise."""
    if _NUMBER.split(old) != _NUMBER.split(new):
        return None
    pairs = zip(map(_number, _NUMBER.findall(old)), map(_number, _NUMBER.findall(new)))
    changes = [0.0 if a == b or (math.isnan(a) and math.isnan(b))
               else abs(a - b) / max(abs(a), abs(b)) for a, b in pairs]
    return max(changes, default=0.0)


def zero_changes_sign(old: str, new: str) -> bool:
    """Whether a number of old is a zero whose sign differs from that of the same number of new."""
    pairs = zip(map(_number, _NUMBER.findall(old)), map(_number, _NUMBER.findall(new)))
    return any(a == b == 0.0 and math.copysign(1.0, a) != math.copysign(1.0, b) for a, b in pairs)


def run_fresh(src: Path, kind: str, argv: list[str]) -> tuple[int, str, str, dict[str, bytes]]:
    """Exit code, stdout, stderr and written files of one run in a fresh process and directory."""
    with tempfile.TemporaryDirectory() as work:
        outdir = Path(work, "out")
        env = {**os.environ, "PYTHONPATH": str(src), "GHZ_STEERING_OUTDIR": str(outdir)}
        command = ([str(SCRIPTS / argv[0]), *argv[1:]] if kind == "script"
                   else ["-m", "ghz_steering", *argv])
        proc = subprocess.run([sys.executable, *command], cwd=work, env=env,
                              capture_output=True, text=True, timeout=300)
        files = {str(p.relative_to(outdir)): p.read_bytes()
                 for p in sorted(outdir.rglob("*")) if p.is_file()}
    return proc.returncode, proc.stdout, proc.stderr, files


def compare(old: tuple, new: tuple) -> str:
    """One line for two results of run_fresh."""
    (old_code, *old_texts, old_files), (new_code, *new_texts, new_files) = old, new
    if old_code != new_code:
        return f"exit code differs ({old_code} -> {new_code})"
    if old_files.keys() != new_files.keys():
        return "written file differs (different files)"
    names = ["stdout", "stderr", *sorted(old_files)]
    old_texts += [old_files[name].decode() for name in names[2:]]
    new_texts += [new_files[name].decode() for name in names[2:]]
    if old_texts == new_texts:
        return "identical"
    changes = [number_change(a, b) for a, b in zip(old_texts, new_texts)]
    if None in changes:
        where = changes.index(None)
        return "text differs" if where < 2 else "written file differs"
    signs = "a zero changed sign, " if any(map(zero_changes_sign, old_texts, new_texts)) else ""
    # the equal text around the numbers holds the same line breaks, so the lines pair up
    change, place = max(((number_change(a, b), f"{name} line {k}")
                         for name, old_text, new_text in zip(names, old_texts, new_texts)
                         for k, (a, b) in enumerate(zip(old_text.splitlines(),
                                                        new_text.splitlines()), 1)
                         if a != b), key=lambda found: found[0])  # the first line of the largest
    return f"numbers differ ({signs}largest relative change {change:.3g} at {place})"


def trial_record(case: tuple) -> str:
    """One line for one trial case: a digest of the bytes of each of TRIAL_FIELDS, or the error."""
    from ghz_steering import DIRECTIONS, GhzConfig, build_state, reconstruct_trials

    r, eta, n_samples, n_trials, seed = case
    try:
        stats = reconstruct_trials(build_state(GhzConfig(r1=r, r2=r, r3=r, eta=eta)),
                                   n_samples, n_trials, seed)
    except Exception as exc:  # the type and text are the record
        return f"{type(exc).__name__}: {exc}"
    fields = (stats.matrices, stats.g, stats.min_symplectic_eigenvalues, stats.accepted,
              [stats.mean[d] for d in DIRECTIONS], [stats.std[d] for d in DIRECTIONS])
    return " ".join(hashlib.sha256(np.ascontiguousarray(field, dtype=float).tobytes()).hexdigest()
                    for field in fields)


def trial_records(src: Path) -> list[str]:
    """trial_record of every case of TRIAL_CASES, in one fresh process with src on PYTHONPATH."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, __file__, "--trial-records"], env=env,
                          capture_output=True, text=True, timeout=600, check=True)
    return proc.stdout.splitlines()


def compare_trials(old: str, new: str) -> str:
    """One line for two trial records."""
    if old == new:
        return "identical"
    old_fields, new_fields = old.split(" "), new.split(" ")
    if ":" in old or ":" in new or len(old_fields) != len(new_fields):
        return f"outcome differs ({old} -> {new})"
    return "bytes differ in " + ", ".join(name for name, a, b in
                                          zip(TRIAL_FIELDS, old_fields, new_fields) if a != b)


def entries() -> list[tuple[str, list[str], int]]:
    """(kind, argv, exit code) of every run of the corpus."""
    return ([("cli", argv, code) for argv, code in [*CLI_RUNS, *HELP_RUNS, *OUTPUT_RUNS]]
            + [("script", argv, code) for argv, code in SCRIPT_RUNS])


def main(argv: list[str]) -> int:
    if argv == ["--trial-records"]:  # the fresh process of trial_records
        print("\n".join(map(trial_record, TRIAL_CASES)))
        return 0
    if len(argv) != 1:
        print("usage: python tests/cli_corpus.py PARENT_SRC", file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    differing = 0
    for kind, run_argv, _ in entries():
        verdict = compare(run_fresh(parent, kind, run_argv), run_fresh(ROOT / "src", kind, run_argv))
        differing += verdict != "identical"
        shown = " ".join(a if len(a) < 20 else f"{a[:8]}...({len(a)} chars)" for a in run_argv)
        print(f"{verdict}: {'' if kind == 'script' else 'ghz-steering '}{shown}")
    print(f"{len(entries()) - differing} of {len(entries())} identical")
    verdicts = list(map(compare_trials, trial_records(parent), trial_records(ROOT / "src")))
    for case, verdict in zip(TRIAL_CASES, verdicts):
        if verdict != "identical":
            print(f"{verdict}: reconstruct_trials case {case}")
    same = verdicts.count("identical")
    print(f"{same} of {len(TRIAL_CASES)} trial cases identical")
    return 1 if differing or same < len(TRIAL_CASES) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
