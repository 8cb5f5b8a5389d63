"""The four benchmark workloads: inputs made from a seed, the timed calls, and their checks.

Every operation enters the program through a public entry point
(`linestab.cli.main`, `stability_probe`, `alpha_fair_distflow`) and never
passes `--threads`.  A workload is one list of operations drawn from the
seed; the harness runs it as a round, repeatedly, so the inputs behind a
measurement do not depend on how many rounds fit in the run.  The checks below
recompute what they verify with the harness's own arithmetic rather than
with library helpers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable

from linestab import cli
from linestab.allocator import FairnessSpec, alpha_fair_distflow
from linestab.powerflow import NetworkConfig, PowerModel
from linestab.simulator import Classification, SimConfig, stability_probe
from linestab.stability import lambda_dist, lambda_lin

WORKLOADS = ("probe-overload", "probe-stable", "threshold-sweep", "allocate-batch")

LINDIST_SLACK_TOL = 1e-10
DISTFLOW_VOLTAGE_TOL = 1e-9
NEWTON_REL_TOL = 1e-9
ALLOCATION_SLACK_TOL = 1e-9


@dataclass(frozen=True)
class Outcome:
    """What one call produced, judged outside the timed region.

    failed: the call raised, exited nonzero or failed its check.
    wrong: the call reported success but its output failed the check.
    """

    failed: bool
    wrong: bool
    events: int
    digest: str
    reason: str = ""
    bytes_written: int = 0


@dataclass(frozen=True)
class Op:
    """One timed call into the program.

    layer and kind name the boundary the harness crosses, for the traced
    run; finish turns the call's return value (None when it raised, with
    the error text) into an Outcome.
    """

    label: str
    layer: str
    kind: "str | None"
    call: Callable[[], object]
    finish: Callable[[object, str], Outcome]


def _g12(x: float) -> str:
    return format(x, ".12g")


def _failed(reason: str) -> Outcome:
    return Outcome(failed=True, wrong=False, events=0, digest=f"error {reason}", reason=reason)


def _wrong(reason: str, events: int, digest: str) -> Outcome:
    return Outcome(failed=True, wrong=True, events=events, digest=digest, reason=reason)


def _root_voltage(powers: "list[float] | tuple[float, ...]", r: float) -> float:
    """Root-side Distflow voltage V_N with the far end at 1, recomputed here."""
    v_prev, v = 1.0, 1.0 + r * powers[0]
    for j in range(1, len(powers)):
        v_prev, v = v, 2.0 * v - v_prev + r * powers[j] / v
    return v


# ------------------------------------------------------------- probes


def _probe_op(label: str, base: SimConfig, mult: float, min_events: int) -> Op:
    expected = Classification.STABLE if mult < 1.0 else Classification.UNSTABLE

    def finish(rows, error: str) -> Outcome:
        if rows is None:
            return _failed(error)
        (row,) = rows
        events = sum(rep.arrivals + rep.departures for rep in row.reports)
        digest = ",".join(
            [
                label,
                row.classification.value,
                str(row.stable_votes),
                str(row.unstable_votes),
                ";".join(_g12(d) for d in row.drifts),
                ";".join(str(q) for q in row.max_queues),
            ]
        )
        if row.classification is not expected:
            return _wrong(f"{row.classification.value}, expected {expected.value}", events, digest)
        return Outcome(failed=False, wrong=False, events=events, digest=digest)

    return Op(
        label=label,
        layer="simulator",
        kind=None,
        call=partial(stability_probe, base, (mult,), replications=1, min_events=min_events),
        finish=finish,
    )


def _probes(rng: random.Random, plan: list[tuple[int, PowerModel, float, int]]) -> list[Op]:
    """Single-replication probes; plan rows are (n, model, multiplier, min_events)."""
    bases = {}
    for n, model, _, _ in plan:
        net = NetworkConfig(n_stations=n, resistance=1.0, delta=0.1)
        lam = lambda_lin(net) if model is PowerModel.LINDIST else lambda_dist(net)
        bases[n, model] = SimConfig(
            network=net,
            fairness=FairnessSpec(alpha=1.0),
            model=model,
            arrival_rate=lam,
            horizon=1.0,
            seed=0,
            sample_interval=1.0,
        )
    ops = []
    for n, model, mult, min_events in plan:
        sim_seed = rng.randrange(2**31)
        ops.append(
            _probe_op(
                f"probe {model.value} n={n} mult={mult} sim_seed={sim_seed}",
                replace(bases[n, model], seed=sim_seed),
                mult,
                min_events,
            )
        )
    return ops


def _probe_overload(rng: random.Random, tiny: bool) -> list[Op]:
    # Gate 8's hot spot: overloaded Distflow, queues into the thousands, so
    # the allocator's state cache misses on most events.  The cost of an
    # event differs by up to 1.6x between trajectories, so a round holds
    # several: four N = 5 runs and two N = 20 runs keep the median call in
    # the N = 5 group and the 90th percentile in the N = 20 group.
    events = {5: 300, 20: 150} if tiny else {5: 2000, 20: 1000}
    return _probes(rng, [(n, PowerModel.DISTFLOW, 2.0, events[n]) for n in (5, 5, 5, 5, 20, 20)])


def _probe_stable(rng: random.Random, tiny: bool) -> list[Op]:
    # The rest of gate 8: stable Distflow (cache nearly always hits) and the
    # closed-form Lindist allocator, so the event loop and RNG dominate.
    # Each setting runs twice, on two trajectories: the slowest calls, the
    # N = 5 Distflow runs, cost up to 1.5x more on one than on another.
    min_events = 300 if tiny else 10_000
    return _probes(
        rng,
        [
            (n, model, mult, min_events)
            for n in (3, 5)
            for model, mult in (
                (PowerModel.LINDIST, 0.5),
                (PowerModel.LINDIST, 2.0),
                (PowerModel.DISTFLOW, 0.5),
            )
            for _ in range(2)
        ]
    )


# ---------------------------------------------------------------- cli


def _read_cli_output(out: Path) -> "tuple[list[list[str]], int]":
    """Data rows of a CSV the CLI wrote, and the bytes it wrote with its manifest."""
    manifest = Path(f"{out}.manifest.json")
    size = out.stat().st_size + (manifest.stat().st_size if manifest.exists() else 0)
    rows = [line.split(",") for line in out.read_text(encoding="ascii").splitlines()[1:]]
    return rows, size


def _cli_op(label: str, argv: list[str], out: Path, check: Callable[[list[list[str]]], str]) -> Op:
    def finish(code, error: str) -> Outcome:
        if code is None:
            return _failed(error)
        if code != 0:
            last = error.strip().splitlines()[-1] if error.strip() else ""
            return _failed(f"exit {code}: {last}")
        rows, size = _read_cli_output(out)
        digest = f"{label}\n" + "\n".join(",".join(row) for row in rows)
        problem = check(rows)
        if problem:
            return _wrong(problem, len(rows), digest)
        return Outcome(failed=False, wrong=False, events=len(rows), digest=digest, bytes_written=size)

    return Op(label=label, layer="cli", kind="cli", call=partial(cli.main, argv), finish=finish)


def _threshold_check(n: int, delta: float) -> Callable[[list[list[str]]], str]:
    headroom = delta * (2.0 - delta) / (1.0 - delta) ** 2
    v_limit = 1.0 / (1.0 - delta)

    def check(rows: list[list[str]]) -> str:
        models = [row[0] for row in rows]
        if models != ["lindist", "distflow"]:
            return f"rows {models}"
        lam_lin = float(rows[0][4])
        slack = headroom - lam_lin * n * (n + 1)
        if not abs(slack) < LINDIST_SLACK_TOL:
            return f"lindist slack {slack:.3g}"
        lam_dist = float(rows[1][4])
        gap = _root_voltage([lam_dist] * n, 1.0) - v_limit
        if not abs(gap) <= DISTFLOW_VOLTAGE_TOL:
            return f"distflow V_N - v_limit = {gap:.3g}"
        return ""

    return check


def _newton_check(a: float, n_values: list[int]) -> Callable[[list[list[str]]], str]:
    def check(rows: list[list[str]]) -> str:
        if [int(row[0]) for row in rows] != n_values:
            return f"rows for n = {[row[0] for row in rows]}"
        for row in rows:
            a_final = float(row[3])
            if not abs(a_final - a) <= NEWTON_REL_TOL * a:
                return f"n = {row[0]}: a_final {a_final!r} for a = {a!r}"
        return ""

    return check


def _threshold_sweep(rng: random.Random, tiny: bool, out_dir: Path) -> list[Op]:
    # Small N is dominated by the CLI's own cost, N >= 3e4 by the O(N)
    # sensitivity recursion.  The fixed grid holds every known solver
    # failure (delta = 0.5 from N = 30 up, N = 3e4 and 1e5 at small delta).
    # The seed adds points at N <= 1000, one in each cell of a strata x
    # strata grid over (log N, delta) so that every seed puts the same
    # number near delta = 0.5, and shuffles the order.  64 of them put the
    # 90th percentile of call latency inside the N = 3e4 calls instead of
    # on the gap between them and the N = 1e5 calls.
    if tiny:
        n_grid, d_grid, strata, newton_n = [2, 10, 100], [0.01, 0.1, 0.5], 1, [10, 100]
    else:
        n_grid = [2, 3, 5, 10, 30, 100, 300, 1000, 3000, 10_000, 30_000, 100_000]
        d_grid = [0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.5]
        strata, newton_n = 8, [10, 100, 1000, 10_000, 100_000]
    n_text = ",".join(str(n) for n in newton_n)

    points = [(n, d) for n in n_grid for d in d_grid]
    lo, hi = math.log10(2.0), 3.0
    for i in range(strata):
        for j in range(strata):
            log_n = lo + (hi - lo) * (i + rng.random()) / strata
            d = 0.01 + 0.49 * (j + rng.random()) / strata
            points.append((int(round(10.0**log_n)), round(d, 4)))
    ops = []
    for i, (n, d) in enumerate(points):
        out = out_dir / f"thresholds{i}.csv"
        argv = ["thresholds", "--n", str(n), "--delta", repr(d), "--model", "both", "--out", str(out)]
        ops.append(_cli_op(f"thresholds n={n} delta={d!r}", argv, out, _threshold_check(n, d)))
    for j, a in enumerate((0.01, 0.05, 0.1)):
        out = out_dir / f"newton{j}.csv"
        argv = ["newton", "--a", repr(a), "--n", n_text, "--out", str(out)]
        ops.append(_cli_op(f"newton a={a!r} n={n_text}", argv, out, _newton_check(a, newton_n)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------- allocator


def _occupancy(rng: random.Random, n: int, large: bool) -> list[int]:
    if large:
        # like the states an overloaded run visits: hundreds to thousands
        # of vehicles, every station occupied
        total = 10.0 ** rng.uniform(math.log10(300.0), math.log10(6000.0))
        return [max(1, int(total / n * rng.uniform(0.2, 1.8))) for _ in range(n)]
    while True:
        # geometric queues near the origin, about half the stations empty
        x = [int(rng.expovariate(1.0 / 1.5)) for _ in range(n)]
        if any(x):
            return x


def _allocate_op(label: str, x: list[int], alpha: float) -> Op:
    net = NetworkConfig(n_stations=len(x), resistance=1.0, delta=0.1)
    spec = FairnessSpec(alpha=alpha)

    def finish(alloc, error: str) -> Outcome:
        if alloc is None:
            return _failed(error)
        p = alloc.p
        digest = f"{label}:" + ",".join(_g12(v) for v in p)
        if len(p) != len(x) or any(not v >= 0.0 for v in p):
            return _wrong("negative or missing power", len(x), digest)
        if any(v != 0.0 for v, xj in zip(p, x) if xj == 0):
            return _wrong("power at an empty station", len(x), digest)
        slack = net.w_limit - _root_voltage(p, net.resistance) ** 2
        if not abs(slack) <= ALLOCATION_SLACK_TOL:
            return _wrong(f"slack {slack:.3g}", len(x), digest)
        return Outcome(failed=False, wrong=False, events=len(x), digest=digest)

    return Op(
        label=label,
        layer="allocator",
        kind="public_solve",
        call=partial(alpha_fair_distflow, x, spec, net),
        finish=finish,
    )


def _allocate_batch(rng: random.Random, tiny: bool) -> list[Op]:
    # Cold public solves (dual search plus stationarity sweep), the other
    # way of using the allocator besides the simulator's warm binding solve.
    # An N = 20 solve takes 3 to 7 times as long as an N = 5 one; three N = 5
    # solves to one N = 20 keep the median latency inside the N = 5 group
    # and the 90th percentile inside the N = 20 group, off the gap between.
    per_kind = {5: 1, 20: 1} if tiny else {5: 36, 20: 12}
    ops = []
    for n in (5, 20):
        for alpha in (0.5, 1.0, 2.0):
            for large in (False, True):
                for _ in range(per_kind[n]):
                    x = _occupancy(rng, n, large)
                    label = f"allocate n={n} alpha={alpha} x={','.join(map(str, x))}"
                    ops.append(_allocate_op(label, x, alpha))
    rng.shuffle(ops)
    return ops


def build(name: str, seed: int, out_dir: Path, tiny: bool = False) -> list[Op]:
    """Set up a workload and return its operations, one round's worth.

    Set-up computes the base thresholds the probes scale.  The inputs come
    from (name, seed) alone: the same seed gives the same operations, and
    every round of a run repeats them.
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "probe-overload":
        return _probe_overload(rng, tiny)
    if name == "probe-stable":
        return _probe_stable(rng, tiny)
    if name == "threshold-sweep":
        return _threshold_sweep(rng, tiny, out_dir)
    if name == "allocate-batch":
        return _allocate_batch(rng, tiny)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
