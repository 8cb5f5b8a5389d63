"""Fast self-test of the benchmark harness at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

Checks that every workload prints every metric of BENCHMARK.json with its
unit in both modes, that the known threshold failures are counted and
named, that a traced run survives wrap points that do not exist, and that
the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120)


def check_metrics_print() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        for name in workloads.WORKLOADS:
            proc = _run(ROOT, "--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny")
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] is True and result["attempted"] >= 1, result
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            assert got == declared, (name, trace, got)
            for metric, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (metric, m)
                line = next(ln for ln in lines if ln.split()[:1] == [metric])
                assert line.split()[2] == m["unit"], line
            if name == "threshold-sweep":
                # the tiny grid keeps the known failure at n = 100, delta = 0.5
                assert result["failed"] > 0, result
                assert any(ln.strip().startswith("failing: thresholds n=100 delta=0.5") for ln in lines)
            print(f"ok  {name} trace {trace}: {len(got)} metrics")


def check_missing_wrap_point() -> None:
    from linestab import simulator

    original = simulator._binding_solve
    bogus = (
        ("linestab.simulator", "_solver_renamed_away", "allocator", "solve"),
        ("linestab.no_such_module", "gradient", "powerflow", "gradient"),
    )
    t = tracer.Tracer(tracer.WRAP_POINTS + bogus)
    ops = workloads.build("probe-overload", 3, ROOT / ".perfbench_out" / "tmp", tiny=True)
    t.install()
    try:
        result = worker._run_round(ops, t)
    finally:
        t.uninstall()
    assert simulator._binding_solve is original
    assert t.absent == ["linestab.simulator._solver_renamed_away", "linestab.no_such_module.gradient"], t.absent
    assert result["failed"] == 0, result["failures"]
    metrics = worker._per_layer(t, 1)
    assert metrics["allocator.solves"][0] > 0 and metrics["simulator.events"][0] > 0, metrics
    print(f"ok  traced run with {len(t.absent)} absent wrap points, {len(t.spans)} spans")


def check_refuses_without_sources() -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(bare, "--workload", "allocate-batch", "--seed", "1", "--seconds", "1")
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print("ok  refuses to run without src/linestab")


if __name__ == "__main__":
    check_missing_wrap_point()
    check_refuses_without_sources()
    check_metrics_print()
    print("selftest passed")
