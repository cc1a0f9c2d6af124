"""Every run of the CLI corpus gives its exit code and writes the same bytes twice."""

import runpy
import sys

import pytest

from cli_corpus import (CLI_RUNS, HELP_RUNS, OUTPUT_RUNS, SCRIPT_RUNS, SCRIPTS, TRIAL_CASES, compare,
                        compare_trials, number_change, trial_record)
from ghz_steering.cli import OUTDIR_ENV, main


def params(runs):
    return [pytest.param(argv, code, id=" ".join(argv)[:50]) for argv, code in runs]


def run(capsys, call):
    """Exit code, stdout and stderr of one in-process call; a call that returns None exits 0."""
    try:
        code = call() or 0
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv, code", params(CLI_RUNS))
def test_cli_run_is_repeatable(capsys, argv, code):
    first = run(capsys, lambda: main(argv))
    assert first[0] == code, first[2]
    assert run(capsys, lambda: main(argv)) == first


@pytest.mark.parametrize("argv, code", params(HELP_RUNS))
def test_help_exit_code(capsys, argv, code):
    assert run(capsys, lambda: main(argv))[0] == code


@pytest.mark.parametrize("argv, code", params(OUTPUT_RUNS))
def test_output_run_writes_the_same_file_twice(capsys, monkeypatch, tmp_path, argv, code):
    monkeypatch.setenv(OUTDIR_ENV, str(tmp_path))
    target, written = tmp_path / argv[-1], []
    for _ in range(2):
        assert run(capsys, lambda: main(argv)) == (code, "", "")
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [target]
        written.append(target.read_bytes())
    assert written[0] and written[0] == written[1]


@pytest.mark.parametrize("argv, code", params(SCRIPT_RUNS))
def test_script_run_is_repeatable(capsys, monkeypatch, argv, code):
    monkeypatch.setattr(sys, "argv", argv)

    def script():
        runpy.run_path(str(SCRIPTS / argv[0]), run_name="__main__")

    first = run(capsys, script)
    assert first[0] == code, first[2]
    assert run(capsys, script) == first


# every 97th trial case, the SeedSequence seed and the two rounded negative variances
@pytest.mark.parametrize("case", TRIAL_CASES[::97] + TRIAL_CASES[-3:],
                         ids=lambda case: " ".join(map(str, case[:4])))
def test_trial_case_is_repeatable(case):
    first = trial_record(case)
    assert trial_record(case) == first


@pytest.mark.parametrize("old, new, verdict", [
    ("a b c d", "a b c d", "identical"),
    ("a b c d", "a b c e", "bytes differ in accepted"),
    ("a b c d", "x b y d", "bytes differ in matrices, nu_min"),
    ("a b c d e f", "a b c d x y", "bytes differ in mean, std"),
    ("ValueError: x", "RuntimeError: x", "outcome differs (ValueError: x -> RuntimeError: x)"),
])
def test_compare_trials(old, new, verdict):
    assert compare_trials(old, new) == verdict


@pytest.mark.parametrize("old, new, change", [
    ("eta,G\n0.5,1e-3\n", "eta,G\n0.5,1e-3\n", 0.0),
    ("G 0.5 2", "G 0.5 2.5", 0.2),
    ("G 0.5", "H 0.5", None),
    ("G 0.5", "G 0.5 1", None),
])
def test_number_change(old, new, change):
    assert number_change(old, new) == change


@pytest.mark.parametrize("old, new, verdict", [
    ("xA\n-0,1\n", "xA\n0,1\n",
     "numbers differ (a zero changed sign, largest relative change 0 at stdout line 2)"),
    ("xA\n0,1\n", "xA\n-0,1.5\n",
     "numbers differ (a zero changed sign, largest relative change 0.333 at stdout line 2)"),
    ("xA\n0,1\n", "xA\n0,1.5\n", "numbers differ (largest relative change 0.333 at stdout line 2)"),
    ("xA\n0,1\n", "xA\n0,1\n", "identical"),
])
def test_compare_names_a_change_in_the_sign_of_zero(old, new, verdict):
    # (exit code, stdout, stderr, written files) as run_fresh returns them
    assert compare((0, old, "", {}), (0, new, "", {})) == verdict


@pytest.mark.parametrize("old, new, place", [
    ((0, "a 1\nb 2\nc 3\n", "", {}), (0, "a 1.1\nb 2\nc 4\n", "", {}), "0.25 at stdout line 3"),
    ((0, "a 1\nb 2\n", "", {}), (0, "a 1.5\nb 2.5\n", "", {}), "0.333 at stdout line 1"),
    ((2, "a 1\n", "error: nu=0.5\n", {}), (2, "a 1.1\n", "error: nu=1\n", {}),
     "0.5 at stderr line 1"),
    ((0, "a 1\n", "", {"s.csv": b"eta\n0.5\n", "t.csv": b"x\n1\n2\n"}),
     (0, "a 1\n", "", {"s.csv": b"eta\n0.5\n", "t.csv": b"x\n1\n4\n"}), "0.5 at t.csv line 3"),
])
def test_compare_names_where_the_largest_change_sits(old, new, place):
    assert compare(old, new) == f"numbers differ (largest relative change {place})"
