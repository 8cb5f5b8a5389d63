"""The scripts under scripts/ run end to end against the package in src/."""

import os
import pathlib
import subprocess
import sys

import pytest

from linestab.stability import ratio_P

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run_script(name, *flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    argv = [sys.executable, str(ROOT / "scripts" / name), *flags]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done


def test_stability_sweep_smoke_run():
    done = _run_script(
        "run_stability_sweep.py",
        "--n", "3",
        "--reps", "1",
        "--min-events", "2000",
        "--multipliers", "2.0",
    )
    rows = [line.split() for line in done.stdout.splitlines()]
    assert any(row[:3] == ["3", "distflow", "2.00"] for row in rows), done.stdout


def test_reproduce_tables_smoke_run():
    done = _run_script("reproduce_tables.py")
    prefix = "ratio endpoint at delta = 0.5: "
    lines = [line for line in done.stdout.splitlines() if line.startswith(prefix)]
    assert lines, done.stdout
    # the closed-form endpoint agrees with the ratio routine at delta = 1/2
    assert float(lines[0][len(prefix):]) == pytest.approx(ratio_P(0.5), abs=1e-6)
