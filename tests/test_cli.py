"""Command-line interface: formats, exit codes, determinism."""

import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from ghz_steering import build_states, cli, network
from ghz_steering.network import build_ghz
from ghz_steering.cli import DEFAULT_GRID, SWEEP_COLUMNS, main
from ghz_steering.symplectic import PHYSICALITY_TOL

R = 0.339

EXPECTED_SWEEP_HEADER = (
    "eta,G_AtoB,G_BtoA,G_AtoC,G_CtoA,G_BtoC,G_CtoB,"
    "G_AtoBC,G_BCtoA,G_BtoAC,G_ACtoB,G_CtoAB,G_ABtoC,"
    "res_A_out,res_A_in,res_B_out,res_B_in,res_C_out,res_C_in"
)


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestBuild:
    def test_json_document(self, capsys):
        rc, out, _ = run(capsys, ["build"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["command"] == "build"
        assert doc["config"]["r1"] == R
        matrix = np.array(doc["covariance_matrix"])
        assert matrix.shape == (6, 6)
        assert doc["purity"] == pytest.approx(1.0, abs=1e-9)
        assert doc["symplectic_eigenvalues"] == pytest.approx([1.0, 1.0, 1.0], abs=1e-9)
        b = math.exp(-2 * R)
        assert doc["correlation_variances"]["xA-xB"] == pytest.approx(2 * b, abs=1e-10)
        assert doc["correlation_variances"]["pA+pB+pC"] == pytest.approx(3 * b, abs=1e-10)

    def test_squeezing_db_matches_r(self, capsys):
        rc, out_r, _ = run(capsys, ["build", "--r", "0.339"])
        db = 20 * 0.339 / math.log(10)
        rc2, out_db, _ = run(capsys, ["build", "--squeezing-db", str(db)])
        assert rc == rc2 == 0
        m_r = np.array(json.loads(out_r)["covariance_matrix"])
        m_db = np.array(json.loads(out_db)["covariance_matrix"])
        assert np.allclose(m_r, m_db, atol=1e-12)

    def test_csv_format(self, capsys):
        rc, out, _ = run(capsys, ["build", "--format", "csv"])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].startswith("# purity=")
        header_at = lines.index("xA,pA,xB,pB,xC,pC")
        data = lines[header_at + 1:]
        assert len(data) == 6
        parsed = np.array([[float(v) for v in row.split(",")] for row in data])
        assert parsed.shape == (6, 6)

    def test_r_and_db_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build", "--r", "0.3", "--squeezing-db", "3.0"])
        assert exc.value.code == 3

    def test_bad_eta_is_a_usage_error(self, capsys):
        rc, _, err = run(capsys, ["build", "--eta", "1.5"])
        assert rc == 3
        assert "error" in err

    def test_impossible_tolerance_reports_unphysical(self, capsys):
        # a negative tolerance makes the vacuum limit itself fail the gate
        rc, _, err = run(capsys, ["build", "--tol-phys", "-1"])
        assert rc == 2
        assert "uncertainty" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_tolerance_is_a_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["build", f"--tol-phys={value}"])
        assert exc.value.code == 3
        assert "argument --tol-phys: must be a finite number" in capsys.readouterr().err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "state.json"
        rc, out, _ = run(capsys, ["build", "--output", str(target)])
        assert rc == 0
        assert out == ""
        assert json.loads(target.read_text())["command"] == "build"
        assert not list(tmp_path.glob("*.tmp"))


class TestSweep:
    def test_header_is_exact(self, capsys):
        rc, out, _ = run(capsys, ["sweep"])
        assert rc == 0
        assert out.splitlines()[0] == EXPECTED_SWEEP_HEADER
        assert ",".join(SWEEP_COLUMNS) == EXPECTED_SWEEP_HEADER

    def test_default_grid_has_21_points(self, capsys):
        _, out, _ = run(capsys, ["sweep"])
        lines = out.splitlines()
        assert len(lines) == 22
        etas = [float(row.split(",")[0]) for row in lines[1:]]
        assert etas == pytest.approx([k * 0.05 for k in range(21)], abs=1e-12)

    def test_lossless_row_values(self, capsys):
        _, out, _ = run(capsys, ["sweep", "--grid", "1.0"])
        row = dict(zip(SWEEP_COLUMNS, out.splitlines()[1].split(",")))
        assert row["eta"] == "1"
        assert row["G_AtoB"] == "0"
        a, b = math.exp(2 * R), math.exp(-2 * R)
        expected = 0.5 * math.log((a + 2 * b) / 3 * (2 * a + b) / 3)
        assert float(row["G_AtoBC"]) == pytest.approx(expected, abs=1e-10)
        assert float(row["G_BCtoA"]) == pytest.approx(expected, abs=1e-10)

    def test_one_way_row_at_half_transmission(self, capsys):
        _, out, _ = run(capsys, ["sweep", "--grid", "0.5"])
        row = dict(zip(SWEEP_COLUMNS, out.splitlines()[1].split(",")))
        assert row["G_AtoBC"] == "0"
        assert float(row["G_BCtoA"]) == pytest.approx(0.0875672, abs=1e-6)

    def test_residual_columns_are_non_negative(self, capsys):
        _, out, _ = run(capsys, ["sweep"])
        for line in out.splitlines()[1:]:
            row = dict(zip(SWEEP_COLUMNS, line.split(",")))
            for key in SWEEP_COLUMNS:
                if key.startswith("res_"):
                    assert float(row[key]) >= -1e-10

    def test_json_format(self, capsys):
        rc, out, _ = run(capsys, ["sweep", "--grid", "0.0,0.5,1.0", "--format", "json"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["command"] == "sweep"
        assert [r["eta"] for r in doc["rows"]] == [0.0, 0.5, 1.0]
        assert doc["rows"][2]["g"]["A->B"] == 0.0

    def test_grid_expression(self, capsys):
        _, out, _ = run(capsys, ["sweep", "--grid", "0.2:0.6:0.2"])
        etas = [float(r.split(",")[0]) for r in out.splitlines()[1:]]
        assert etas == pytest.approx([0.2, 0.4, 0.6], abs=1e-12)

    @pytest.mark.parametrize("grid, etas", [
        ("0:1:0.6", [0.0, 0.6]),  # 1.0 is not on this grid
        ("0:1:0.7", [0.0, 0.7]),
        ("0:0.3:0.1", [0.0, 0.1, 0.2, 0.3]),  # 0.3 / 0.1 = 2.9999999999999996
        (DEFAULT_GRID, [min(k * 0.05, 1.0) for k in range(21)]),
    ])
    def test_grid_range_holds_only_grid_points(self, capsys, grid, etas):
        _, out, _ = run(capsys, ["sweep", "--grid", grid, "--format", "json"])
        assert [row["eta"] for row in json.loads(out)["rows"]] == etas

    @pytest.mark.parametrize("grid", ["0:2:0.5", "0.5:0.1:0.1", "abc", ""])
    def test_bad_grid_is_a_usage_error(self, grid):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--grid", grid])
        assert exc.value.code == 3

    @pytest.mark.parametrize("grid", ["0:1:nan", "0:1:inf"])
    def test_non_finite_grid_step_is_a_grid_argument_error(self, capsys, grid):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--grid", grid])
        assert exc.value.code == 3
        assert "argument --grid: grid step must be finite and positive" in capsys.readouterr().err

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, ["sweep", "--output", str(a)])
        run(capsys, ["sweep", "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestTomo:
    def test_json_document(self, capsys):
        rc, out, _ = run(capsys, ["tomo", "--samples", "20000", "--seed", "7"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["command"] == "tomo"
        assert doc["config"]["samples"] == 20000
        assert doc["config"]["seed"] == 7
        assert doc["rejection_rule"]["min_symplectic_eigenvalue_floor"] == 0.95
        assert len(doc["trials"]) == 3
        for entry in doc["trials"]:
            assert set(entry) == {"trial", "accepted", "min_symplectic_eigenvalue", "g"}
            if entry["accepted"]:
                assert entry["g"]["BC->A"] >= 0.0
        for direction, value in doc["mean"].items():
            assert abs(value - doc["analytic"][direction]) < 0.1
        assert all(v >= 0 for v in doc["std"].values())

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, ["tomo", "--samples", "20000", "--seed", "3", "--output", str(a)])
        run(capsys, ["tomo", "--samples", "20000", "--seed", "3", "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_all_trials_rejected_exits_2(self, capsys):
        # seed found by searching 0..99: the first for which fewer than 2 of
        # the 3 trials pass the floor
        rc, _, err = run(capsys, ["tomo", "--samples", "1000", "--seed", "0"])
        assert rc == 2
        assert "floor" in err

    def test_single_trial_is_a_usage_error(self, capsys):
        rc, _, err = run(capsys, ["tomo", "--trials", "1"])
        assert rc == 3
        assert "2 trials" in err

    def test_negative_seed_is_a_seed_argument_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tomo", "--seed", "-1"])
        assert exc.value.code == 3
        assert "argument --seed: must be a non-negative integer" in capsys.readouterr().err


def _never_called(*args, **kwargs):
    raise AssertionError("called after a size cap should have fired")


class TestSizeCaps:
    """Grid points and trials are capped at parse time, before anything is built."""

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--grid", "0:1:1e-12"],
         "argument --grid: grid has 1000000000001 points, more than 10001"),
        # a subnormal step: the point count overflows to inf
        (["sweep", "--grid", "0:1:5e-324"], "argument --grid: grid has inf points, more than 10001"),
        (["tomo", "--trials", "1000000000"], "argument --trials: 1000000000 trials, more than 10000"),
    ])
    def test_fires_before_anything_is_allocated(self, capsys, monkeypatch, argv, message):
        for name in ("build_state", "build_states", "reconstruct_trials"):
            monkeypatch.setattr(cli, name, _never_called)
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.code == 3
        assert message in capsys.readouterr().err
        assert peak < 2**20

    def test_the_finest_range_grid_is_the_cap(self):
        assert len(cli._parse_grid("0:1:0.0001")) == cli.MAX_GRID_POINTS

    def test_the_caps_are_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 5)
        monkeypatch.setattr(cli, "MAX_TRIALS", 4)
        for argv in (["sweep", "--grid", "0:1:0.25"], ["sweep", "--grid", "0.1,0.2,0.3,0.4,0.5"],
                     ["tomo", "--samples", "20000", "--trials", "4"]):
            assert run(capsys, argv)[0] == 0
        for argv in (["sweep", "--grid", "0:1:0.2"], ["sweep", "--grid", "0.1,0.2,0.3,0.4,0.5,0.6"],
                     ["tomo", "--trials", "5"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 3
            assert "more than" in capsys.readouterr().err


class TestCheck:
    def test_default_run_passes(self, capsys):
        rc, out, err = run(capsys, ["check"])
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(line.startswith("PASS ") for line in lines)
        assert err == ""

    def test_names_every_check(self, capsys):
        _, out, _ = run(capsys, ["check"])
        names = {line.split()[1].rstrip(":") for line in out.splitlines()}
        assert names == {"physicality", "one-to-one-nullity", "pure-state-symmetry", "monogamy"}

    def test_exact_pure_state_at_r_5_passes_physicality(self, capsys):
        _, out, _ = run(capsys, ["check", "--r", "5"])
        assert out.splitlines()[0] == "PASS physicality: min symplectic eigenvalue 1 vs floor 1"

    def test_unreachable_floor_fails(self, capsys):
        rc, out, err = run(capsys, ["check", "--nu-floor", "1.5"])
        assert rc == 4
        assert any(line.startswith("FAIL physicality") for line in out.splitlines())
        assert "check failed: physicality" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_floor_is_a_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["check", f"--nu-floor={value}"])
        assert exc.value.code == 3
        assert "argument --nu-floor: must be a finite number" in capsys.readouterr().err


class TestOutputResolution:
    def test_env_var_redirects_relative_paths(self, capsys, tmp_path, monkeypatch):
        outdir = tmp_path / "results"
        monkeypatch.setenv("GHZ_STEERING_OUTDIR", str(outdir))
        monkeypatch.chdir(tmp_path)
        rc, _, _ = run(capsys, ["build", "--output", "state.json"])
        assert rc == 0
        assert (outdir / "state.json").exists()

    def test_env_var_leaves_absolute_paths_alone(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("GHZ_STEERING_OUTDIR", str(tmp_path / "elsewhere"))
        target = tmp_path / "direct.json"
        rc, _, _ = run(capsys, ["build", "--output", str(target)])
        assert rc == 0
        assert target.exists()


class TestUnwritableOutput:
    COMMANDS = [["build"], ["sweep"], ["tomo", "--samples", "2000"]]

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_a_directory_target_is_a_usage_error(self, capsys, tmp_path, argv):
        target = tmp_path / "taken"
        target.mkdir()
        rc, out, err = run(capsys, [*argv, "--output", str(target)])
        assert rc == 3
        assert out == ""
        assert err == f"ghz-steering: error: cannot write {target}: Is a directory\n"
        assert target.is_dir() and not any(target.iterdir())
        assert list(tmp_path.rglob("*.tmp")) == []

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_a_parent_that_is_a_file_is_a_usage_error(self, capsys, tmp_path, argv):
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        target = blocker / "sub" / "out.txt"
        rc, out, err = run(capsys, [*argv, "--output", str(target)])
        assert rc == 3
        assert out == ""
        assert err.startswith(f"ghz-steering: error: cannot write {target}: ")
        assert blocker.read_text() == "kept"
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_no_traceback_from_a_fresh_process(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "ghz_steering", "build", "--output", str(tmp_path)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 3
        assert proc.stderr == f"ghz-steering: error: cannot write {tmp_path}: Is a directory\n"
        assert list(tmp_path.parent.glob(tmp_path.name + ".tmp")) == []


@pytest.mark.parametrize("argv", [["sweep"], ["sweep", "--format", "json"], ["check"]])
def test_the_eta_grid_is_built_once(capsys, monkeypatch, argv):
    calls, lossless = [], []

    def spy(config, etas):
        calls.append(list(etas))
        return build_states(config, etas)

    def build_ghz_spy(config):
        lossless.append(config)
        return build_ghz(config)

    monkeypatch.setattr(cli, "build_states", spy)
    # build_states of any module builds the lossless state through this name
    monkeypatch.setattr(network, "build_ghz", build_ghz_spy)
    rc, _, _ = run(capsys, argv)
    assert rc == 0
    assert calls == [cli._parse_grid(DEFAULT_GRID)]
    assert len(lossless) == 1


@pytest.mark.parametrize("argv", [["sweep", "--r", "8", "--grid", "0.5,1"], ["check", "--r", "8"]])
def test_numerical_failure_exits_2(capsys, argv):
    # at r = 8 the two-mode steering blocks have condition number ~1e14
    rc, out, err = run(capsys, argv)
    assert rc == 2
    assert out == ""
    assert "steering party block not invertible" in err


def test_unphysical_row_before_a_numerical_failure_is_reported(capsys, monkeypatch):
    # rows fail in grid order: here the pure state at eta = 1 comes first.
    # Built states pass the condition-aware floor, so the fixed floor stands
    # in for it; under that floor round-off makes the r = 8 row unphysical.
    monkeypatch.setattr(cli, "physicality_floor",
                        lambda states, nu_min: np.full_like(nu_min, 1 - PHYSICALITY_TOL))
    rc, _, err = run(capsys, ["sweep", "--r", "8", "--grid", "1,0.5"])
    assert rc == 2
    assert "state at eta=1.0 violates the uncertainty relation" in err


@pytest.mark.parametrize("argv", [["build", "--r", "6"], ["sweep", "--r", "6"]])
def test_exact_pure_states_at_large_squeezing_are_physical(capsys, argv):
    # min nu - 1 = -1.9e-7 from round-off, within eps * kappa = 5.9e-6
    rc, out, err = run(capsys, argv)
    assert rc == 0
    assert out and err == ""


def test_an_explicit_tolerance_still_rejects_round_off(capsys):
    rc, _, err = run(capsys, ["build", "--r", "6", "--tol-phys", "1e-9"])
    assert rc == 2
    assert "uncertainty" in err


@pytest.mark.parametrize("argv", [
    ["build", "--r", "400"],
    ["sweep", "--r", "400"],
    ["build", "--r", "nan"],
    ["build", "--r", "inf"],
    ["check", "--r", "nan"],
])
def test_squeezing_out_of_range_is_a_usage_error(capsys, argv):
    # r = 400 overflows e^{2r}; nan and inf are no squeezing strength at all
    rc, out, err = run(capsys, argv)
    assert rc == 3
    assert out == ""
    assert "error: r1 must be finite and at most 354.891" in err


@pytest.mark.parametrize("argv, message", [
    (["build", "--r", "354.8913"], "error: constructed state violates the uncertainty relation"),
    (["sweep", "--r", "354.8913"], "error: not a state"),
])
def test_squeezing_near_the_float_limit_is_a_numerical_failure(capsys, argv, message):
    # entries near the largest float: symmetrizing must not overflow them to
    # inf, and the state fails physicality (exit 2), not argument parsing (3)
    rc, out, err = run(capsys, argv)
    assert rc == 2
    assert out == ""
    assert err.startswith(message)


def test_no_arguments_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 3


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ghz_steering", "build"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "build"


def test_import_leaves_concurrent_futures_unloaded():
    # concurrent.futures pulls in logging: ~2.6 ms on every cold command
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ghz_steering.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestSharedParser:
    # main builds the parser once per process; every call must behave as if
    # it had a parser of its own
    INTERLEAVED = (
        ["build"],
        ["sweep", "--grid", "0.2,0.7,1"],
        ["sweep"],
        ["tomo", "--samples", "2000", "--trials", "3"],
        ["check"],
        ["sweep", "--grid", "1:0:0.1"],  # usage error, exit 3
        ["sweep"],
    )

    @staticmethod
    def outcomes(capsys, argvs):
        results = []
        for argv in argvs:
            try:
                rc = main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
            captured = capsys.readouterr()
            results.append((rc, captured.out, captured.err))
        return results

    def test_the_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_the_default_grid_cannot_be_mutated(self):
        assert isinstance(cli.build_parser().parse_args(["sweep"]).grid, tuple)

    def test_interleaved_calls_match_fresh_parsers(self, capsys, monkeypatch):
        shared = self.outcomes(capsys, self.INTERLEAVED)
        assert [rc for rc, _, _ in shared] == [0, 0, 0, 0, 0, 3, 0]
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert self.outcomes(capsys, self.INTERLEAVED) == shared
