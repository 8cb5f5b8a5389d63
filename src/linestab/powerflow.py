"""Load flow on a line feeder: full Distflow and its linearization.

The feeder is a path of N charging stations hanging off a root bus that
holds exactly one unit of voltage.  Public APIs index stations in
*relabeled* order: index 0 is the station farthest from the root, index
N-1 is the station next to it.  Lines all carry the same resistance and
loads are pure active power, which collapses the branch-flow equations to
a scalar second-order recursion in the squared voltages

    W[j+1, j+1] = W[j, j+1]^2 / W[j, j],
    W[j, j+1]   = 2 W[j, j] - W[j-1, j] + r p[j],

or, on the voltage magnitudes themselves,

    V[j+1] = 2 V[j] - V[j-1] + r p[j] / V[j],  V[0] = 1, V[1] = 1 + r p[0].

Every pass evaluates it literally, left to right, in plain doubles: the
tables pin its digits, rounding noise included, so the digits are
reproduced, not exact (V[N] is off by about 3e-9 relative at N = 10^5).
r enters only through the loads q = r p, so every pass runs on unit
resistance: the adjoint pass `_root_voltage_and_gradient`, which the
allocator takes at most once a solve, on the linearized closed form's q,
where no settled shot gives the start; the uniform-load tangent pass of
`distflow_sensitivity`, which the threshold solver's Newton steps call;
and the value-only pass `_root_voltage`, for the callers that read V[N]
alone: `voltage_slack`, the threshold solver's closing residual,
`convergence_report` and the CLI's `newton` caps (the uniform ones
through `_uniform_root_voltage`).  All three compute V with the same
expression, as do the allocator's shooting sweeps, so V[N] has the same
bits in each, and a solve reads it off the sweep that settled.

The linearized model drops the quadratic line-loss term and fixes the
*root* at the nominal voltage instead; its squared-voltage profile is an
explicit weighted sum of the loads.  A profile is feasible when the drop
across the feeder stays within the configured tolerance delta, i.e. the
high end of V stays below 1/(1 - delta) (Distflow) or the far end of W
stays above 1 (linearized).
"""

from __future__ import annotations

import enum
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "NetworkConfig",
    "PowerAllocation",
    "PowerModel",
    "distflow_sensitivity",
    "voltage_slack",
]


class PowerModel(enum.Enum):
    """Which load-flow model a computation runs under."""

    DISTFLOW = "distflow"
    LINDIST = "lindist"


def _check_resistance(r: float) -> None:
    # every rate the tool prints is at most 3/r, finite for a normal r only
    if not sys.float_info.min <= r < math.inf:
        raise ValueError(f"resistance must be a positive normal double, got {r!r}")


def _check_delta(delta: float) -> None:
    if not (math.isfinite(delta) and 0.0 < delta <= 0.5):
        raise ValueError(f"delta must lie in (0, 0.5], got {delta!r}")


def _w_headroom(delta: float) -> float:
    # w_limit - 1 without cancellation: delta (2 - delta) / (1 - delta)^2
    return delta * (2.0 - delta) / ((1.0 - delta) ** 2)


@dataclass(frozen=True)
class NetworkConfig:
    """Static description of the feeder.

    Attributes:
        n_stations: number of charging stations N >= 1.
        resistance: per-line resistance r > 0 (same on every segment).
        delta: allowed relative voltage drop, 0 < delta <= 0.5.
    """

    n_stations: int
    resistance: float
    delta: float

    def __post_init__(self) -> None:
        if not isinstance(self.n_stations, int) or self.n_stations < 1:
            raise ValueError(f"n_stations must be an integer >= 1, got {self.n_stations!r}")
        _check_resistance(self.resistance)
        _check_delta(self.delta)

    @property
    def v_limit(self) -> float:
        """Largest admissible far-end voltage 1 / (1 - delta), root at 1."""
        return 1.0 / (1.0 - self.delta)

    @property
    def w_limit(self) -> float:
        """Squared-voltage cap (1 / (1 - delta))^2."""
        return self.v_limit**2

    @property
    def w_headroom(self) -> float:
        """w_limit - 1, evaluated without cancellation by `_w_headroom`."""
        return _w_headroom(self.delta)


@dataclass(frozen=True)
class PowerAllocation:
    """Per-station active power draws, relabeled order (index 0 farthest)."""

    p: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", tuple(float(v) for v in self.p))
        for v in self.p:
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"powers must be finite and nonnegative, got {v!r}")


def _as_powers(p: "PowerAllocation | Sequence[float]") -> tuple[float, ...]:
    if isinstance(p, PowerAllocation):
        return p.p
    return PowerAllocation(p=tuple(p)).p


def voltage_slack(
    p: "PowerAllocation | Sequence[float]",
    cfg: NetworkConfig,
    model: PowerModel,
) -> float:
    """Slack of one allocation under the voltage-drop constraint.

    Nonnegative exactly when the profile is feasible.  Distflow slack is
    w_limit - W[N, N] with the far end at 1; linearized slack is the
    headroom w_limit - 1 less the linearized drop 2 r sum_m (N - m) p[m],
    the budget the Lindist split spends.  Both are in squared-voltage units.
    The Distflow slack takes V[N] from the value-only pass; no gradient is
    formed.
    """
    powers = _as_powers(p)
    if len(powers) != cfg.n_stations:
        raise ValueError(
            f"allocation has {len(powers)} entries for {cfg.n_stations} stations"
        )
    if model is PowerModel.DISTFLOW:
        v_n = _root_voltage(cfg.resistance * v for v in powers)
        return cfg.w_limit - v_n**2
    if model is PowerModel.LINDIST:
        # collapsed load moment sum_m (N - m) p[m] of the linearized drop
        n = len(powers)
        moment = math.fsum((n - m) * powers[m] for m in range(n))
        return cfg.w_headroom - 2.0 * cfg.resistance * moment
    raise ValueError(f"unknown model {model!r}")


def distflow_sensitivity(a: float, n: int) -> tuple[float, float]:
    """Root voltage V[n] and its scaled derivative Y[n] = n^2 dV[n]/da.

    The load is uniform, a / (r n^2) per station, with the resistance
    folded in.  One forward tangent sweep carries T[j] = n^2 dV[j]/da:

        T[j+1] = 2 T[j] - T[j-1] + 1 / V[j] - s T[j] / V[j]^2,  s = a / n^2,

    with T[0] = 0 and T[1] = 1.  V[n] has the bits of
    `_root_voltage_and_gradient` on loads s, and Y[n] is the sum
    of that gradient to within 2e-14 n relative.  Newton runs this pass once
    per iterate it evaluates, 2 to 11 times per threshold at n up to 10^5,
    where the adjoint pass, with its stored profile and gradient list, costs
    1.6 to 1.7 times as much.  A caller that reads V[n] alone runs
    `_uniform_root_voltage` instead, at about a third of the cost.
    Defined for every a >= 0: V stays finite and increasing, and Y[n] > 0.
    """
    _check_uniform(a, n)
    s = a / (n * n)
    v_prev, v = 1.0, 1.0 + s
    t_prev, t = 0.0, 1.0
    # no counter: range would make a new int at every step past 256
    for _ in itertools.repeat(None, n - 1):
        t, t_prev = 2.0 * t - t_prev + 1.0 / v - s * t / (v * v), t
        v, v_prev = 2.0 * v - v_prev + s / v, v
    return v, t


def _check_uniform(a: float, n: int) -> None:
    """The domain of the uniform-load passes: n >= 1 stations, load a >= 0."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if not (math.isfinite(a) and a >= 0.0):
        raise ValueError(f"a must be finite and nonnegative, got {a!r}")


def _root_voltage(q: Iterable[float]) -> float:
    """Unvalidated value-only pass on the loads q = r p: V[N] alone.

    V follows the expression of `_root_voltage_and_gradient` and
    `distflow_sensitivity`, so V[N] has their bits; the start V[-1] = V[0]
    = 1 gives V[1] = 2 - 1 + q[0] / 1 = 1 + q[0] exactly.  Nothing is
    stored, so q may be any iterable.
    """
    v_prev, v = 1.0, 1.0
    for qj in q:
        v, v_prev = 2.0 * v - v_prev + qj / v, v
    return v


def _uniform_root_voltage(a: float, n: int) -> float:
    """V[n] of `distflow_sensitivity(a, n)`, bit for bit, without its tangent."""
    _check_uniform(a, n)
    return _root_voltage(itertools.repeat(a / (n * n), n))


def _root_voltage_and_gradient(q: Sequence[float]) -> tuple[float, list[float]]:
    """Unvalidated fused pass on the loads q = r p: V[N] and dV[N]/dq.

    The allocator's binding solve calls it only on the linearized closed
    form's loads, once, on its first start, where the last solve's settled
    shot gives none (no hint, a station that gains its first vehicle, or an
    O(1) warm start out of the doubles); never in its continuation, nor on
    the point it returns, whose V[N] the settled sweep gives with these bits.
    A forward voltage pass, then one O(N) adjoint pass in
    a = dV[N]/dV[j+1], j = N-1 .. 0:
    g[j] = a / V[j] and a <- (2 - q[j] / V[j]^2) a - a_prev.
    """
    n = len(q)
    v = [0.0] * (n + 1)
    v[0] = 1.0
    v[1] = 1.0 + q[0]
    for j in range(1, n):
        v[j + 1] = 2.0 * v[j] - v[j - 1] + q[j] / v[j]
    g = [0.0] * n
    a, a_prev = 1.0, 0.0  # dV[N]/dV[j+1] and dV[N]/dV[j+2]
    for j in range(n - 1, 0, -1):
        vj = v[j]
        g[j] = a / vj
        a, a_prev = (2.0 - q[j] / (vj * vj)) * a - a_prev, a
    g[0] = a  # V[1] = 1 + q[0]
    return v[n], g
