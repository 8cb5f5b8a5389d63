"""Run one benchmark workload in this process and print its measurements as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only] [--tiny]

`run.py` starts this script once per set-up sample and once for the timed
run, so each workload's memory is its own.  Set-up (importing linestab,
the base thresholds and making the inputs) is timed from before the first
linestab import.  The timed phase runs whole rounds, each on the same
inputs; after MIN_ROUNDS it starts no round that it expects to end after
`--seconds`.
With `--trace 1` every round runs twice, untraced and then traced: the
untraced copy is the baseline for the tracing overhead, the traced one
gives the per-layer numbers, and both must produce the same outputs.
Outputs are checked after each round, outside the timed region, and only
a tally of them is kept, so the worker's memory does not grow with the
number of rounds.

Between the calls of each untraced round the worker times a fixed
reference loop (`_reference_s`), about once per REFERENCE_EVERY_S of round
time.  A shared host's speed drifts by tens of percent over minutes, and
the loop slows and speeds up with it; `run.py` uses these samples to state
times at the host's reference speed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE_LOOPS = 2500  # with REFERENCE_LENGTH, about 50 ms on the baseline machine
REFERENCE_LENGTH = 150_000
REFERENCE_EVERY_S = 0.5
MIN_ROUNDS = 2
SETUP_REFERENCE_REPEATS = 3


def _parse(argv: "list[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    return parser.parse_args(argv)


def _reference_s(track: list[float]) -> float:
    """Seconds taken by fixed pure-Python float work shaped like the program's.

    Two parts of about equal time: short lists rebuilt many times, like
    the allocator's per-event gradients, and one recursion over the long
    list `track`, like the sensitivity recursion at large N, whose working set
    lies outside the core's own caches.
    """
    start = time.perf_counter()
    acc = 0.0
    for k in range(REFERENCE_LOOPS):
        powers = [(j % 7 + 1) * 1e-3 for j in range(k % 5, k % 5 + 40)]
        v_prev, v = 1.0, 1.0 + powers[0]
        for p in powers[1:]:
            v_prev, v = v, 2.0 * v - v_prev + p / v
        acc += math.fsum(powers) / v
    track[0], track[1] = 1.0, 1.0 + 1e-11
    for j in range(1, REFERENCE_LENGTH):
        vj = track[j]
        track[j + 1] = 2.0 * vj - track[j - 1] + 1e-11 / vj
    acc += track[-1]
    elapsed = time.perf_counter() - start
    assert acc > 0.0
    return elapsed


class _Reference:
    """Samples of `_reference_s`, taken about once per REFERENCE_EVERY_S of round time."""

    def __init__(self):
        # made once, so its memory is a constant part of the process's peak
        self.track = [float(j) for j in range(REFERENCE_LENGTH + 1)]
        self.samples: list[float] = []
        self.owed = 0.0  # round time since the last sample

    def take(self) -> None:
        self.samples.append(_reference_s(self.track))
        self.owed = 0.0


def _run_round(ops, tracer, reference: "_Reference | None" = None) -> dict:
    """Time every call of one round; judge and tally the outputs afterwards.

    With `reference`, a reference sample is taken between calls whenever
    one is due; its time is left out of the round's.
    """
    results = []
    durations = []
    sink = io.StringIO()
    round_start = prev = time.perf_counter()
    sampling_s = 0.0
    with contextlib.redirect_stderr(sink):
        for i, op in enumerate(ops):
            sink.seek(0)
            sink.truncate()
            if tracer is not None:
                tracer.op_id = i
            start = time.perf_counter()
            try:
                if tracer is None:
                    value = op.call()
                else:
                    value = tracer.call(op.layer, op.kind, op.label, op.call)
                error = ""
            except SystemExit as exc:  # argparse inside cli.main exits on bad flags
                value, error = None, f"exit {exc.code}: {sink.getvalue().strip()}"
            except Exception as exc:  # any failure of the program counts, and the run goes on
                value, error = None, f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
            durations.append(end - start)
            results.append((value, error or sink.getvalue()))
            if reference is not None:
                reference.owed += end - prev
                if reference.owed >= REFERENCE_EVERY_S:
                    reference.take()
                prev = time.perf_counter()
                sampling_s += prev - end
    wall = time.perf_counter() - round_start - sampling_s
    outcomes = [op.finish(value, error) for op, (value, error) in zip(ops, results)]
    return {
        "wall": wall,
        "durations": durations,
        "events": sum(o.events for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "failures": {op.label: o.reason for op, o in zip(ops, outcomes) if o.failed},
        "wrong": {op.label for op, o in zip(ops, outcomes) if o.wrong},
        "bytes_written": sum(o.bytes_written for o in outcomes),
        "verdicts": [o.digest for o in outcomes if o.digest.startswith("probe")],
        "digest": hashlib.sha256("\n".join(o.digest for o in outcomes).encode()).hexdigest(),
    }


class _Side:
    """Running totals over the rounds of one side (untraced or traced)."""

    def __init__(self):
        self.round_s: list[float] = []
        self.op_ms: list[float] = []
        self.events = 0
        self.failed = 0
        self.bytes_written = 0

    def add(self, rd: dict) -> None:
        self.round_s.append(rd["wall"])
        self.op_ms.extend(d * 1e3 for d in rd["durations"])
        self.events += rd["events"]
        self.failed += rd["failed"]
        self.bytes_written += rd["bytes_written"]


def _per_layer(tracer, rounds: int) -> dict:
    """Per-layer metrics as name -> (value, unit, samples behind it); counts and times per round."""
    c, t = tracer.counts, tracer.times

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    events = c["simulator.events"]
    lookups = events + c["simulator.runs"]  # one allocation per event plus one at the start
    sim_solves = c["allocator.solve_calls"] + c["allocator.fallback_calls"]
    solves = c["allocator.solves"]
    grads = c["powerflow.gradient_calls"]
    sens = c["powerflow.sensitivity_calls"]
    thresholds = c["stability.threshold_calls"]
    metrics = {
        "simulator.events": (events / rounds, "count", events),
        "simulator.self_us_per_event": (ratio(tracer.self_s["simulator"], events) * 1e6, "us", events),
        "simulator.cache_hit_ratio": (1.0 - ratio(sim_solves, lookups) if lookups else 0.0, "ratio", lookups),
        "simulator.peak_queue": (tracer.peak_queue, "count", c["simulator.runs"]),
        "allocator.solves": (solves / rounds, "count", solves),
        "allocator.us_per_solve": (ratio(tracer.busy_s["allocator"], solves) * 1e6, "us", solves),
        "allocator.self_s": (tracer.self_s["allocator"] / rounds, "s", solves),
        "allocator.fallbacks": (c["allocator.fallback_calls"] / rounds, "count", solves),
        "allocator.fallback_ratio": (ratio(c["allocator.fallback_calls"], solves), "ratio", solves),
        "allocator.failures": (c["allocator.failures"] / rounds, "count", solves),
        "allocator.gradients_per_solve": (ratio(grads, solves), "ratio", solves),
        "powerflow.gradient_calls": (grads / rounds, "count", grads),
    }
    for n in (3, 5, 20):
        calls = c[f"powerflow.gradient_calls.n{n}"]
        metrics[f"powerflow.us_per_gradient.n{n}"] = (ratio(t[f"powerflow.gradient.n{n}"], calls) * 1e6, "us", calls)
    metrics.update(
        {
            "powerflow.gradient_terms": (c["powerflow.gradient_terms"] / rounds, "count", grads),
            "powerflow.root_voltage_calls": (
                c["powerflow.root_voltage_calls"] / rounds,
                "count",
                c["powerflow.root_voltage_calls"],
            ),
            "powerflow.sensitivity_calls": (sens / rounds, "count", sens),
            "powerflow.sensitivity_s": (t["powerflow.sensitivity"] / rounds, "s", sens),
            "powerflow.recursion_steps": (c["powerflow.recursion_steps"] / rounds, "count", sens),
            "stability.threshold_calls": (thresholds / rounds, "count", thresholds),
            "stability.newton_iterations": (c["stability.newton_iterations"] / rounds, "count", thresholds),
            "stability.failures": (c["stability.failures"] / rounds, "count", thresholds),
            "stability.self_s": (tracer.self_s["stability"] / rounds, "s", thresholds),
            "specfun.erfi_calls": (c["specfun.erfi_calls"] / rounds, "count", c["specfun.erfi_calls"]),
            "specfun.erfi_s": (t["specfun.erfi"] / rounds, "s", c["specfun.erfi_calls"]),
            "cli.calls": (c["cli.calls"] / rounds, "count", c["cli.calls"]),
            "cli.self_ms_per_call": (ratio(tracer.self_s["cli"], c["cli.calls"]) * 1e3, "ms", c["cli.calls"]),
        }
    )
    return metrics


def main(argv: "list[str] | None" = None) -> int:
    args = _parse(argv)
    setup_start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import linestab
    except ImportError:
        linestab = None
    if linestab is None or Path(linestab.__file__).resolve().parent != (SRC / "linestab").resolve():
        where = linestab.__file__ if linestab else "nowhere"
        print(f"worker: linestab must come from {SRC / 'linestab'}, found {where}", file=sys.stderr)
        return 2
    import workloads
    scratch = OUT_DIR / "tmp" / args.workload
    scratch.mkdir(parents=True, exist_ok=True)
    ops = workloads.build(args.workload, args.seed, scratch, tiny=args.tiny)
    setup_s = time.perf_counter() - setup_start
    if args.setup_only:
        reference = _Reference()
        for _ in range(SETUP_REFERENCE_REPEATS):
            reference.take()
        print(json.dumps({"setup_s": setup_s, "reference_s": reference.samples}))
        return 0

    import numpy

    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    sides = {"untraced": _Side(), "traced": _Side()}
    failures: dict[str, str] = {}
    wrong: set[str] = set()
    differ = []  # rounds whose traced outputs differ from the untraced ones
    first = None
    reference = _Reference()
    start = time.perf_counter()
    r = 0
    while True:
        iteration_start = time.perf_counter()
        plain = _run_round(ops, None, reference)
        sides["untraced"].add(plain)
        rounds = [plain]
        if tracer is not None:
            tracer.install()
            try:
                traced = _run_round(ops, tracer)
            finally:
                tracer.uninstall()
            sides["traced"].add(traced)
            rounds.append(traced)
            if traced["digest"] != plain["digest"]:
                differ.append(r)
        for rd in rounds:
            for label, reason in rd["failures"].items():
                failures.setdefault(label, reason)
            wrong |= rd["wrong"]
        if first is None:
            first = plain
        r += 1
        now = time.perf_counter()
        # every round repeats the same inputs, so the last one predicts the next
        if r >= MIN_ROUNDS and now + (now - iteration_start) - start > args.seconds:
            break

    if not reference.samples:
        reference.take()
    both = sides["untraced"], sides["traced"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "numpy": numpy.__version__,
        "setup_s": setup_s,
        "reference_s": reference.samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rounds": r,
        "ops_per_round": len(ops),
        "attempted": len(ops) * sum(len(side.round_s) for side in both),
        "failed": sum(side.failed for side in both),
        "failures": dict(sorted(failures.items())),
        "wrong": sorted(wrong),
        "traced_outputs_differ": differ,
        "digest": first["digest"],
        "digest_detail": {"cli_bytes": first["bytes_written"], "verdicts": first["verdicts"]},
        "timed_s": time.perf_counter() - start,
    }
    for name, side in sides.items():
        if side.round_s:
            report[name] = {"round_s": side.round_s, "op_ms": side.op_ms, "events": side.events}
    if tracer is not None:
        report["absent"] = tracer.absent
        metrics = _per_layer(tracer, len(sides["traced"].round_s))
        traced = sides["traced"]
        metrics["cli.bytes_written"] = (traced.bytes_written / len(traced.round_s), "B", len(traced.round_s))
        report["per_layer"] = {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()}
        spans_path = OUT_DIR / f"spans-{args.workload}.csv"
        tracer.write_spans(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        report["spans"] = len(tracer.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
