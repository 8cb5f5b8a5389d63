"""Event-driven queueing simulation of the feeder under fair allocation.

Vehicles arrive at each station as independent Poisson streams of rate
lambda, bring unit-mean exponential energy demands, and leave when served.
After *every* arrival or departure the allocator gives the fair power
split for the new occupancy, so a station's departure rate is exactly its
allocated power.  One cache, keyed by the occupancy, serves both models,
so a state the run has seen before costs a lookup: a run stores up to
200,000 Distflow states, whose warm solves make the stored set part of the
trajectory, and up to 4,096 Lindist states, whose split is a pure function
of the occupancy and cheap to redo (see `_make_allocator`).  The chain is
simulated with the Gillespie recipe: draw an exponential holding time at
the total event rate, then pick the event in proportion to its rate.

Randomness comes from numpy's default_rng (PCG64), which is seedable and
cheap to split: replication k of a probe runs on seed + k.  Fixing the
seed fixes the whole trajectory.  `simulate` imports numpy itself, for the
generator and the drift fit: nothing else in the package needs it, and it
is most of the package's import time, so the threshold, allocation and
convergence commands never load it.

A run either reaches its horizon and returns a SimReport, or raises
SimulationError where the allocator fails.  `stability_probe` wraps
repeated runs at scaled arrival rates and applies the drift/excursion
classification rule described in SimReport.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .allocator import (
    AllocationError,
    FairnessSpec,
    _binding_solve,
    _lin_split,
    _powers,
)
from .powerflow import NetworkConfig, PowerModel

__all__ = [
    "QUEUE_CAP_PER_STATION",
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
                f"arrival_rate must be nonnegative and finite, got {self.arrival_rate!r}"
            )
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon!r}")
        if not (math.isfinite(self.sample_interval) and self.sample_interval > 0.0):
            raise ValueError(
                f"sample_interval must be positive and finite, got {self.sample_interval!r}"
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
    unstable one.  mean_total_queue is the time average of the vehicle
    count over [0, horizon].  Only a run that reached its horizon has a
    report; an aborted one raises SimulationError.
    """

    time_grid: tuple[float, ...]
    total_queue: tuple[int, ...]
    mean_total_queue: float
    arrivals: int
    departures: int
    drift_estimate: float
    max_total_queue: int


class SimulationError(RuntimeError):
    """A run aborted: the allocator failed on a state the run reached."""


class Classification(enum.Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ProbeRow:
    """Verdict for one arrival-rate multiplier of a stability probe.

    reports holds one run per replication, in seed order; drifts,
    max_queues and the votes are read off it.
    """

    multiplier: float
    arrival_rate: float
    classification: Classification
    drifts: tuple[float, ...]
    max_queues: tuple[int, ...]
    stable_votes: int
    unstable_votes: int
    reports: tuple[SimReport, ...]


# how many states a run's allocation cache stores, the empty feeder
# included: see _make_allocator for why each bound is what it is
_DISTFLOW_STATES = 200_000
_LINDIST_STATES = 4_096


def _make_allocator(
    model: PowerModel, spec: FairnessSpec, net: NetworkConfig
) -> Callable[[Sequence[int]], tuple[list[float], float]]:
    """Per-run allocation oracle: occupancy -> (powers, total power).

    One cache, keyed by the occupancy, sits in front of either model's
    split and starts out holding the empty feeder's zero split; it stores
    the first states a run splits, whether or not they recur, and splits
    a state past the bound afresh on every visit.  A stable run keeps
    returning to a few hundred states near the origin.  Distflow stores up
    to _DISTFLOW_STATES (200,000): a miss warm-starts from the last solve,
    so which states are stored fixes the bits a revisit gets, and the
    bound is part of the trajectory.  Lindist stores up to
    _LINDIST_STATES (4,096): its split is a pure function of the
    occupancy, so the bound never changes a run, and a miss costs about
    1.5 us, while an overloaded run barely revisits a state and storing
    every one would only add memory.

    A Lindist miss evaluates the closed form inline, on the unit weights 2
    (N - j), with r in its scale.  A Distflow miss goes through the binding
    solve and `_powers`, warm-started from the last solve's return,
    typically one vehicle away: its loads, the occupancy they solve and the
    unknowns its shot settled on, which, moved for the counts that changed,
    start the next shot, and the Jacobian that shot ended with, which steps
    it.  Where the miss occupies a station the last solve left empty, the
    shot takes the cold start instead, one adjoint gradient on the closed
    form.  A hit, the empty feeder included, leaves that hint as it is.  Either
    split raises AllocationError where its public allocator does, with its
    message: naming alpha, a station's power at the true r, or Distflow's
    last residuals.
    """
    n = net.n_stations
    alpha = spec.alpha
    inv_alpha = 1.0 / alpha

    if model is PowerModel.LINDIST:
        # the unit weights 2 (N - j) >= 2, raised to powers below 1, stay finite
        w_neg = [(2.0 * (n - j)) ** -inv_alpha for j in range(n)]
        w_pos = [(2.0 * (n - j)) ** (1.0 - inv_alpha) for j in range(n)]
        headroom = net.w_headroom
        r = net.resistance
        # every occupied station's power is at least least * scale
        least = min(w_neg)
        normal = sys.float_info.min
        bound = _LINDIST_STATES

        def split(key: tuple[int, ...]) -> tuple[list[float], float]:
            denom = 0.0
            for xj, wj in zip(key, w_pos):
                if xj > 0:
                    denom += xj * wj
            scale = headroom / denom / r if denom else 0.0
            p = [xj * wj * scale if xj > 0 else 0.0 for xj, wj in zip(key, w_neg)]
            total = math.fsum(p)
            # the cache answers the empty feeder: an occupied one must draw
            # power.  Where the scale or a power may have left the normal
            # doubles, split as alpha_fair_lindist does, which answers or
            # fails as it does
            if not 0.0 < total < math.inf or least * scale < normal:
                p = _powers(key, _lin_split(key, alpha, headroom), r, alpha)
                total = math.fsum(p)
            return p, total

    else:
        # the last _binding_solve return: loads, occupancy, V_N, settled
        # (b_2, log c, b_N) and Jacobian
        hint = None
        bound = _DISTFLOW_STATES

        def split(key: tuple[int, ...]) -> tuple[list[float], float]:
            nonlocal hint
            hint = _binding_solve(key, spec, net, hint)
            p = _powers(key, hint[0], net.resistance, alpha)
            return p, math.fsum(p)

    cache: dict[tuple[int, ...], tuple[list[float], float]] = {(0,) * n: ([0.0] * n, 0.0)}

    def solve(x: Sequence[int]) -> tuple[list[float], float]:
        key = tuple(x)
        hit = cache.get(key)
        if hit is not None:
            return hit
        entry = split(key)
        if len(cache) < bound:
            cache[key] = entry
        return entry

    return solve


def simulate(cfg: SimConfig) -> SimReport:
    """Run one trajectory and sample it on the configured grid.

    Raises SimulationError, naming the time and the state, when the
    allocator fails on a state the run reaches; the AllocationError is its
    cause.
    """
    import numpy as np  # not at module level: see the module docstring

    n = cfg.network.n_stations
    lam = cfg.arrival_rate
    horizon = cfg.horizon
    interval = cfg.sample_interval
    rng = np.random.default_rng(cfg.seed)
    solve = _make_allocator(cfg.model, cfg.fairness, cfg.network)

    x = [0] * n
    total = 0
    max_total = 0
    arrivals = departures = 0
    area = 0.0  # integral of the vehicle count over time
    grid_count = int(horizon / interval) + 1
    samples: list[int] = []
    next_idx = 0
    t = 0.0

    p, p_sum = solve(x)
    total_arrival = n * lam
    last = n - 1
    exponential = rng.exponential
    random = rng.random
    append = samples.append
    next_time = 0.0  # next_idx * interval, inf once the grid is full
    while True:
        rate = total_arrival + p_sum
        # rate 0 means an empty feeder with no arrivals coming: frozen state
        dt = exponential(1.0 / rate) if rate > 0.0 else math.inf
        t_next = t + dt
        while next_time < t_next:
            append(total)
            next_idx += 1
            next_time = next_idx * interval if next_idx < grid_count else math.inf
        if t_next >= horizon:
            area += total * (horizon - t)
            break
        area += total * (t_next - t)
        u = random() * rate
        if u < total_arrival:
            j = int(u / lam)
            if j > last:
                j = last
            x[j] += 1
            total += 1
            if total > max_total:
                max_total = total
            arrivals += 1
        else:
            u -= total_arrival
            acc = 0.0
            j = -1
            for i, pi in enumerate(p):
                if pi > 0.0:
                    acc += pi
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
            raise SimulationError(
                f"allocation failed at t = {t:.6g}, state {tuple(x)}: {exc}"
            ) from exc
    while next_idx < grid_count:
        samples.append(total)
        next_idx += 1

    time_grid = tuple(i * interval for i in range(len(samples)))
    half = len(samples) // 2
    # polyfit squares the times, which leave the doubles at extreme rates:
    # fit them in units of 2^e near the interval, an exact rescaling that
    # polyfit's own column scaling absorbs, so every slope keeps its bits
    e = math.frexp(interval)[1]
    ts = np.ldexp(np.asarray(time_grid[half:], dtype=float), -e)
    qs = np.asarray(samples[half:], dtype=float)
    drift = 0.0
    if len(ts) >= 2 and ts[-1] > ts[0]:
        drift = math.ldexp(float(np.polyfit(ts, qs, 1)[0]), -e)
    return SimReport(
        time_grid=time_grid,
        total_queue=tuple(samples),
        mean_total_queue=area / horizon,
        arrivals=arrivals,
        departures=departures,
        drift_estimate=drift,
        max_total_queue=max_total,
    )


# a run whose queue peak reaches this many vehicles per station cannot
# vote stable, whatever its drift
QUEUE_CAP_PER_STATION = 50.0


def stability_probe(
    base: SimConfig,
    multipliers: Sequence[float],
    replications: int,
    min_events: int,
) -> list[ProbeRow]:
    """Classify the feeder at several scalings of the base arrival rate.

    For every multiplier m, runs `replications` independent trajectories at
    rate lambda = m * base.arrival_rate (seeds base.seed + k), each over a
    horizon of 1.05 min_events / (N lambda), long enough to see min_events
    events in expectation, and sampled on 513 grid points, 512 intervals
    over it.  The probe reads neither base.horizon nor base.sample_interval.
    A multiplier's runs are kept in one list, and its drifts, peaks and
    votes are read off that list.  A run votes stable when its drift stays
    below eps = 0.05 * N * lambda *and* its queue peak stays below
    QUEUE_CAP_PER_STATION * N; it votes unstable when the drift exceeds
    eps.  A strict majority either way decides; anything else is
    INCONCLUSIVE.

    Raises ValueError, naming min_events and the rate, when that horizon
    leaves the doubles, and SimulationError, prefixed with the replication
    and the multiplier, when a run aborts; no row is returned then.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    if min_events < 1:
        raise ValueError(f"min_events must be >= 1, got {min_events!r}")
    if base.arrival_rate <= 0.0:
        raise ValueError("stability_probe needs a positive base arrival rate")
    multipliers = tuple(multipliers)
    for m in multipliers:
        if not (math.isfinite(m) and m > 0.0):
            raise ValueError(f"multipliers must be positive and finite, got {m!r}")
    n = base.network.n_stations
    rows = []
    for m in multipliers:
        lam = m * base.arrival_rate
        eps = 0.05 * n * lam
        cap = QUEUE_CAP_PER_STATION * n
        horizon = 1.05 * min_events / (n * lam)
        if not 0.0 < horizon < math.inf:
            raise ValueError(
                f"min_events = {min_events} at arrival rate {lam:g} (multiplier {m:g}) "
                "needs a run length outside the doubles"
            )
        reports: list[SimReport] = []
        for k in range(replications):
            run = replace(
                base,
                arrival_rate=lam,
                horizon=horizon,
                seed=base.seed + k,
                sample_interval=horizon / 512.0,
            )
            try:
                rep = simulate(run)
            except SimulationError as exc:
                raise SimulationError(
                    f"replication {k} at multiplier {m:g} aborted: {exc}"
                ) from exc
            reports.append(rep)
        drifts = tuple(rep.drift_estimate for rep in reports)
        peaks = tuple(rep.max_total_queue for rep in reports)
        stable_votes = sum(d < eps and q < cap for d, q in zip(drifts, peaks))
        unstable_votes = sum(d > eps for d in drifts)
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
                drifts=drifts,
                max_queues=peaks,
                stable_votes=stable_votes,
                unstable_votes=unstable_votes,
                reports=tuple(reports),
            )
        )
    return rows
