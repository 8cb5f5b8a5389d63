"""Event-driven queueing simulation of the feeder under fair allocation.

Vehicles arrive at each station as independent Poisson streams of rate
lambda, bring unit-mean exponential energy demands, and leave when served.
After *every* arrival or departure the allocator recomputes the fair power
split for the new occupancy, so a station's departure rate is exactly its
allocated power.  The chain is simulated with the Gillespie recipe: draw
an exponential holding time at the total event rate, then pick the event
in proportion to its rate.

Randomness comes from numpy's default_rng (PCG64), which is seedable and
cheap to split: replication k of a probe runs on seed + k.  Fixing the
seed fixes the whole trajectory.

`stability_probe` wraps repeated runs at scaled arrival rates and applies
the drift/excursion classification rule described in SimReport.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .allocator import (
    AllocationError,
    FairnessSpec,
    _binding_solve,
    _dual_solve,
    _RecursionOverflow,
)
from .powerflow import NetworkConfig, PowerModel

__all__ = [
    "Classification",
    "ProbeRow",
    "SimConfig",
    "SimReport",
    "SimulationError",
    "simulate",
    "stability_probe",
]


@dataclass(frozen=True)
class SimConfig:
    """Immutable description of one simulation run.

    arrival_rate is per station; horizon and sample_interval are in model
    time units.  Two runs with equal configs produce identical reports.
    """

    network: NetworkConfig
    fairness: FairnessSpec
    model: PowerModel
    arrival_rate: float
    horizon: float
    seed: int
    sample_interval: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.arrival_rate) and self.arrival_rate >= 0.0):
            raise ValueError(
                f"arrival_rate must be nonnegative, got {self.arrival_rate!r}"
            )
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError(f"horizon must be positive, got {self.horizon!r}")
        if not (math.isfinite(self.sample_interval) and self.sample_interval > 0.0):
            raise ValueError(
                f"sample_interval must be positive, got {self.sample_interval!r}"
            )
        if self.sample_interval > self.horizon:
            raise ValueError(
                f"sample_interval {self.sample_interval!r} exceeds the horizon "
                f"{self.horizon!r}"
            )
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")


@dataclass(frozen=True)
class SimReport:
    """Outcome of one run.

    total_queue[i] is the vehicle count at time_grid[i] (piecewise-constant
    sample, state *before* any event at the same instant).  drift_estimate
    is the least-squares slope of total_queue over the last half of the
    grid: near zero for a stable queue, close to the arrival surplus for an
    unstable one.  per_station_mean is the time-average occupancy.  error
    is None for a clean run; an aborted run keeps the samples gathered so
    far and stores the reason.
    """

    time_grid: tuple[float, ...]
    total_queue: tuple[int, ...]
    per_station_mean: tuple[float, ...]
    arrivals: int
    departures: int
    drift_estimate: float
    max_total_queue: int
    error: "str | None" = None


class SimulationError(RuntimeError):
    """A probe replication aborted (allocator failure inside the run)."""


class Classification(enum.Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ProbeRow:
    """Verdict for one arrival-rate multiplier of a stability probe."""

    multiplier: float
    arrival_rate: float
    classification: Classification
    drifts: tuple[float, ...]
    max_queues: tuple[int, ...]
    stable_votes: int
    unstable_votes: int
    eps_drift: float
    q_cap: float
    reports: tuple[SimReport, ...] = ()


def _normalize(x: Sequence[int]) -> tuple[int, ...]:
    """Scale queue lengths by their gcd; fair splits are ray-invariant in x."""
    g = 0
    for v in x:
        g = math.gcd(g, v)
        if g == 1:
            return tuple(x)
    if g <= 1:
        return tuple(x)
    return tuple(v // g for v in x)


def _make_allocator(cfg: SimConfig) -> Callable[[Sequence[int]], tuple[list[float], float]]:
    """Per-run allocation oracle: occupancy -> (powers, total power).

    Linearized allocations are a closed form and get evaluated inline.
    Distflow allocations go through the binding solve (dual search as the
    fallback); solved states are cached under their gcd-normalized
    occupancy (the optimum only depends on the ray through x), and cache
    misses warm-start from the previous event's solution, one vehicle away.
    """
    net = cfg.network
    n = net.n_stations
    inv_alpha = 1.0 / cfg.fairness.alpha
    weights = [2.0 * net.resistance * (n - j) for j in range(n)]
    zeros = ([0.0] * n, 0.0)

    if cfg.model is PowerModel.LINDIST:
        w_neg = [w ** (-inv_alpha) for w in weights]
        w_pos = [w ** (1.0 - inv_alpha) for w in weights]
        headroom = net.w_headroom

        def solve_lin(x: Sequence[int]) -> tuple[list[float], float]:
            denom = 0.0
            for j in range(n):
                if x[j] > 0:
                    denom += x[j] * w_pos[j]
            if denom == 0.0:
                return zeros
            scale = headroom / denom
            p = [x[j] * w_neg[j] * scale if x[j] > 0 else 0.0 for j in range(n)]
            return p, math.fsum(p)

        return solve_lin

    cache: dict[tuple[int, ...], tuple[list[float], float]] = {}
    hint_p: "list[float] | None" = None
    # the dual scales like (sum x)^alpha along a ray, so carry it normalized
    hint_nu: "float | None" = None
    alpha = cfg.fairness.alpha

    def solve_dist(x: Sequence[int]) -> tuple[list[float], float]:
        nonlocal hint_p, hint_nu
        key = _normalize(x)
        hit = cache.get(key)
        if hit is not None:
            return hit
        if not any(key):
            return zeros
        total = sum(key)
        try:
            p_tuple, mu = _binding_solve(key, cfg.fairness, net, p_hint=hint_p)
        except (AllocationError, _RecursionOverflow):
            mu_hint = None if hint_nu is None else hint_nu * total**alpha
            p_tuple, mu = _dual_solve(
                key, cfg.fairness, net, mu_hint=mu_hint, p_hint=hint_p
            )
        p = list(p_tuple)
        entry = (p, math.fsum(p))
        hint_p, hint_nu = p, mu / total**alpha
        if len(cache) < 200_000:  # states mostly repeat near the origin
            cache[key] = entry
        return entry

    return solve_dist


def simulate(cfg: SimConfig) -> SimReport:
    """Run one trajectory and sample it on the configured grid."""
    n = cfg.network.n_stations
    lam = cfg.arrival_rate
    horizon = cfg.horizon
    interval = cfg.sample_interval
    rng = np.random.default_rng(cfg.seed)
    solve = _make_allocator(cfg)

    x = [0] * n
    total = 0
    max_total = 0
    arrivals = departures = 0
    occupancy_time = [0.0] * n
    grid_count = int(horizon / interval) + 1
    samples: list[int] = []
    next_idx = 0
    t = 0.0
    error: "str | None" = None

    p, p_sum = solve(x)
    total_arrival = n * lam
    while True:
        rate = total_arrival + p_sum
        # rate 0 means an empty feeder with no arrivals coming: frozen state
        dt = rng.exponential(1.0 / rate) if rate > 0.0 else math.inf
        t_next = t + dt
        step_end = min(t_next, horizon)
        while next_idx < grid_count and next_idx * interval < t_next:
            samples.append(total)
            next_idx += 1
        span = step_end - t
        for j in range(n):
            if x[j]:
                occupancy_time[j] += x[j] * span
        if t_next >= horizon:
            break
        u = rng.random() * rate
        if u < total_arrival:
            j = min(int(u / lam), n - 1)
            x[j] += 1
            total += 1
            if total > max_total:
                max_total = total
            arrivals += 1
        else:
            u -= total_arrival
            acc = 0.0
            j = -1
            for i in range(n):
                if p[i] > 0.0:
                    acc += p[i]
                    j = i
                    if u < acc:
                        break
            # j falls through to the last powered station on float residue
            x[j] -= 1
            total -= 1
            departures += 1
        t = t_next
        try:
            p, p_sum = solve(x)
        except AllocationError as exc:
            error = f"allocation failed at t = {t:.6g}, state {tuple(x)}: {exc}"
            break
    if error is None:
        while next_idx < grid_count:
            samples.append(total)
            next_idx += 1

    time_grid = tuple(i * interval for i in range(len(samples)))
    elapsed = min(t, horizon) if error else horizon
    denom = elapsed if elapsed > 0.0 else 1.0
    half = len(samples) // 2
    ts = np.asarray(time_grid[half:], dtype=float)
    qs = np.asarray(samples[half:], dtype=float)
    drift = float(np.polyfit(ts, qs, 1)[0]) if len(ts) >= 2 and ts[-1] > ts[0] else 0.0
    return SimReport(
        time_grid=time_grid,
        total_queue=tuple(samples),
        per_station_mean=tuple(v / denom for v in occupancy_time),
        arrivals=arrivals,
        departures=departures,
        drift_estimate=drift,
        max_total_queue=max_total,
        error=error,
    )


def stability_probe(
    base: SimConfig,
    multipliers: Sequence[float],
    replications: int = 5,
    eps_drift: "float | None" = None,
    q_cap: "float | None" = None,
    min_events: int = 100_000,
) -> list[ProbeRow]:
    """Classify the feeder at several scalings of the base arrival rate.

    For every multiplier m, runs `replications` independent trajectories at
    rate m * base.arrival_rate (seeds base.seed + k) and long enough to see
    at least min_events events in expectation; each run is sampled on 512
    grid points regardless of base.sample_interval.  A run votes stable
    when its drift stays below eps_drift (default 0.05 * N * lambda) *and*
    its queue peak stays below q_cap (default 50 N); it votes unstable when
    the drift exceeds eps_drift.  A strict majority either way decides;
    anything else is INCONCLUSIVE.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    n = base.network.n_stations
    rows = []
    if base.arrival_rate <= 0.0:
        raise ValueError("stability_probe needs a positive base arrival rate")
    for m in multipliers:
        if not (math.isfinite(m) and m > 0.0):
            raise ValueError(f"multipliers must be positive, got {m!r}")
        lam = m * base.arrival_rate
        eps = 0.05 * n * lam if eps_drift is None else eps_drift
        cap = 50.0 * n if q_cap is None else q_cap
        horizon = max(base.horizon, 1.05 * min_events / (n * lam))
        drifts: list[float] = []
        peaks: list[int] = []
        reports: list[SimReport] = []
        stable_votes = unstable_votes = 0
        for k in range(replications):
            rep = simulate(
                replace(
                    base,
                    arrival_rate=lam,
                    horizon=horizon,
                    seed=base.seed + k,
                    sample_interval=horizon / 512.0,
                )
            )
            if rep.error is not None:
                raise SimulationError(
                    f"replication {k} at multiplier {m:g} aborted: {rep.error}"
                )
            drifts.append(rep.drift_estimate)
            peaks.append(rep.max_total_queue)
            reports.append(rep)
            if rep.drift_estimate < eps and rep.max_total_queue < cap:
                stable_votes += 1
            elif rep.drift_estimate > eps:
                unstable_votes += 1
        if stable_votes * 2 > replications:
            verdict = Classification.STABLE
        elif unstable_votes * 2 > replications:
            verdict = Classification.UNSTABLE
        else:
            verdict = Classification.INCONCLUSIVE
        rows.append(
            ProbeRow(
                multiplier=float(m),
                arrival_rate=lam,
                classification=verdict,
                drifts=tuple(drifts),
                max_queues=tuple(peaks),
                stable_votes=stable_votes,
                unstable_votes=unstable_votes,
                eps_drift=eps,
                q_cap=cap,
                reports=tuple(reports),
            )
        )
    return rows
