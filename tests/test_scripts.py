"""The scripts under scripts/ run end to end against the package in src/."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_stability_sweep_smoke_run():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    argv = [
        sys.executable,
        str(ROOT / "scripts" / "run_stability_sweep.py"),
        "--n", "3",
        "--reps", "1",
        "--min-events", "2000",
        "--multipliers", "2.0",
    ]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    assert any(row[:3] == ["3", "distflow", "2.00"] for row in rows), done.stdout
