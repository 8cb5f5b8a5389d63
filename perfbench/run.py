"""linestab benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload probe-overload --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Run from the root of a checkout; the program is imported from its `src/`.
Each workload runs in its own worker process (`worker.py`): set-up is
measured in SETUP_REPEATS extra fresh processes as well, and the reported
`setup_s` is the median.

Times are stated at the host's reference speed: each process also times a
fixed reference loop, and every time it measures is multiplied by
REFERENCE_S / (the loop's median time in that process).  REFERENCE_S is the
loop's median on the machine the README's baseline comes from, so there the
figures read as plain seconds; elsewhere, and when a shared host speeds up
or slows down, they still compare with that baseline.  The record keeps
the measured times and the factor.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with `--trace 0`, its per-layer
metrics with `--trace 1`.  A readable record with the machine, the sample
count behind each metric, the failing operations and an output digest is
printed above it and saved under `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("probe-overload", "probe-stable", "threshold-sweep", "allocate-batch")
SETUP_REPEATS = 4
REFERENCE_S = 0.05  # median of worker._reference_s on the baseline machine
SETUP_TIMEOUT_S = 60


def _parse(argv: "list[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds is not None and not 1 <= args.seconds <= 60:
        parser.error("--seconds must lie in [1, 60]")
    return args


def _worker(args: argparse.Namespace, workload: str, seconds: int, setup_only: bool) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    timeout = SETUP_TIMEOUT_S if setup_only else 60 + 4 * seconds
    # numpy's BLAS would otherwise start a thread per core at import, at a
    # cost that varies with the host's state; the harness is single-threaded
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    # subprocess.run kills and reaps the worker if it overruns
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _speed(reference: list[float]) -> float:
    """Factor that turns a time measured next to these reference samples into one at reference speed."""
    return REFERENCE_S / statistics.median(reference)


def _end_to_end(rep: dict, setups: list[float]) -> dict:
    side = rep["untraced"]
    speed = _speed(rep["reference_s"])
    rounds = [t * speed for t in side["round_s"]]
    op_ms = [t * speed for t in side["op_ms"]]
    # Every round runs the same inputs, so the median round is the typical
    # one, and a burst of slowness on a shared machine moves it less than
    # it moves the mean.
    wall = statistics.median(rounds)
    ok = rep["attempted"] - rep["failed"]
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "wall_s": (wall, "s", len(rounds)),
        "events_per_s": (side["events"] / len(rounds) / wall, "1/s", side["events"]),
        "ops_per_s": (rep["ops_per_round"] / wall, "1/s", len(rounds)),
        "op_p50_ms": (statistics.median(op_ms), "ms", len(op_ms)),
        "op_p90_ms": (_p90(op_ms), "ms", len(op_ms)),
        "success_ratio": (ok / rep["attempted"], "ratio", rep["attempted"]),
        "peak_rss_mb": (rep["peak_rss_mb"], "MB", 1),
    }


def _per_layer(rep: dict) -> dict:
    metrics = {k: (m["value"], m["unit"], m["samples"]) for k, m in rep["per_layer"].items()}
    untraced = rep["untraced"]["round_s"]
    traced = rep["traced"]["round_s"]
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0,
        "ratio",
        min(len(traced), len(untraced)),
    )
    metrics["trace.absent_points"] = (len(rep["absent"]), "count", 1)
    return metrics


def _declared(trace: int) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def run_workload(args: argparse.Namespace, workload: str, seconds: int) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        sample = _worker(args, workload, seconds, True)
        setups.append(sample["setup_s"] * _speed(sample["reference_s"]))
    rep = _worker(args, workload, seconds, False)
    setups.append(rep["setup_s"] * _speed(rep["reference_s"]))
    metrics = _per_layer(rep) if args.trace else _end_to_end(rep, setups)
    declared = _declared(args.trace)
    produced = {name: unit for name, (_, unit, _) in metrics.items()}
    if produced != declared:
        raise RuntimeError(f"metrics {produced} differ from BENCHMARK.json {declared}")

    record = {
        "workload": workload,
        "seed": args.seed,
        "seconds": seconds,
        "timed_s": rep["timed_s"],
        "trace": args.trace,
        "cores": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": rep["numpy"],
        "git_sha": _git_sha(),
        "rounds": rep["rounds"],
        "speed_factor": _speed(rep["reference_s"]),
        "measured_round_s": rep["untraced"]["round_s"],
        "reference_s": rep["reference_s"],
        "ops_per_round": rep["ops_per_round"],
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "failing_ops": rep["failures"],
        "wrong_outputs": rep["wrong"],
        "traced_outputs_differ": rep["traced_outputs_differ"],
        "digest": rep["digest"],
        "digest_detail": rep["digest_detail"],
    }
    if args.trace:
        record.update(absent_wrap_points=rep["absent"], spans=rep["spans"], spans_file=rep["spans_file"])
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"record-{workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"== {workload}  seed {args.seed}  {seconds} s requested, {rep['timed_s']:.1f} s timed  trace {args.trace}")
    print(
        f"   {record['cores']} cores, {record['cpu']}, Python {record['python']}, "
        f"numpy {record['numpy']}, git {record['git_sha'][:12]}"
    )
    print(
        f"   reference loop median {statistics.median(rep['reference_s']) * 1e3:.2f} ms"
        f" (n={len(rep['reference_s'])}): times below are measured x {record['speed_factor']:.4f}"
    )
    for name, (value, unit, samples) in metrics.items():
        print(f"   {name:32s} {value:14.6g} {unit:6s} n={samples}")
    print(
        f"   fail_ratio {rep['failed']}/{rep['attempted']} = {rep['failed'] / rep['attempted']:.4f}"
        f" ({rep['rounds']} rounds of {rep['ops_per_round']} ops)"
    )
    for label, reason in rep["failures"].items():
        print(f"   failing: {label}: {reason}")
    if args.trace and rep["absent"]:
        print(f"   absent wrap points: {', '.join(rep['absent'])}")
    detail = rep["digest_detail"]
    print(f"   digest {rep['digest'][:16]}  cli bytes {detail['cli_bytes']}")
    for verdict in detail["verdicts"]:
        print(f"   verdict {verdict}")
    print(f"   record {path.relative_to(ROOT)}")
    return {
        "correct": not rep["wrong"] and not rep["traced_outputs_differ"],
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }


def main(argv: "list[str] | None" = None) -> int:
    args = _parse(argv)
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(args, name, seconds)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
