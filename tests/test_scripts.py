"""The example scripts run end to end on small inputs and print their summaries."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args, returncode=0):
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == returncode, proc.stderr
    return proc.stdout.splitlines() if returncode == 0 else proc.stderr.splitlines()


def test_loss_sweep():
    lines = run_script("loss_sweep.py", "--steps", "5")
    assert lines[0] == "r = 0.339 (2.945 dB)"
    assert lines[1] == "A->BC activates at eta = 0.500000"


def test_loss_sweep_without_squeezing():
    lines = run_script("loss_sweep.py", "--r", "0", "--steps", "5")
    assert lines == ["r = 0.0 (0.000 dB)", "A->BC never activates without squeezing"]


def test_loss_sweep_rejects_a_one_point_grid_and_out_of_domain_squeezing():
    lines = run_script("loss_sweep.py", "--steps", "1", returncode=2)
    assert lines[-1] == "loss_sweep.py: error: --steps must be at least 2, got 1"
    lines = run_script("loss_sweep.py", "--r", "3.5", returncode=2)
    assert "outside the squeezing domain" in lines[-1]


def test_tomography_demo():
    lines = run_script("tomography_demo.py", "--sizes", "2000", "--trials", "3")
    assert lines[0].split() == ["direction", "n=2000", "analytic"]
    assert [line.split()[0] for line in lines[1:]] == ["A->BC", "BC->A", "B->AC"]
    assert all("+/-" in line for line in lines[1:])


def test_tomography_demo_rejects_bad_arguments():
    for args, message in [
        (["--trials", "1"], "--trials must be at least 2 for a standard deviation, got 1"),
        (["--sizes", "2000", "1"], "every --sizes value must be at least 2, got 1"),
        (["--seed", "-1"], "--seed must be non-negative, got -1"),
        (["--eta", "1.5"], "eta must lie in [0, 1]"),
    ]:
        lines = run_script("tomography_demo.py", *args, returncode=2)
        assert lines[-1] == f"tomography_demo.py: error: {message}", args
