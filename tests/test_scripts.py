"""The example scripts run end to end on small inputs and print their summaries."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_loss_sweep(tmp_path):
    output = tmp_path / "sweep.csv"
    lines = run_script("loss_sweep.py", "--steps", "5", "--output", str(output))
    assert lines[0] == "r = 0.339 (2.945 dB)"
    assert lines[1] == "A->BC activates at eta = 0.500000"
    assert lines[-1] == f"wrote {output} (5 rows)"
    assert len(output.read_text().splitlines()) == 6


def test_monogamy_scan():
    lines = run_script("monogamy_scan.py", "--eta-steps", "5")
    assert lines[0] == "checked 90 residuals"
    assert lines[-1] == "monogamy holds everywhere on the scan"


def test_tomography_demo():
    lines = run_script("tomography_demo.py", "--sizes", "2000", "--trials", "3")
    assert lines[0].split() == ["direction", "n=2000", "analytic"]
    assert [line.split()[0] for line in lines[1:]] == ["A->BC", "BC->A", "B->AC"]
    assert all("+/-" in line for line in lines[1:])
