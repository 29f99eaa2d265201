"""The benchmark's own test: every workload on a few flows, answers checked.

    python3 -m pytest -q perfbench/check_smoke.py

Not named test_*.py, so the repository's test run does not collect it.
"""
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_runs_every_workload_and_checks_its_answers():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"], capture_output=True,
                          text=True, timeout=120, cwd=RUN.parent.parent)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 8 and all(" ok " in line for line in lines), proc.stdout
