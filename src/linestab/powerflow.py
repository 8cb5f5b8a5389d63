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

The linearized model drops the quadratic line-loss term and fixes the
*root* at the nominal voltage instead; its squared-voltage profile is an
explicit weighted sum of the loads.  A profile is feasible when the drop
across the feeder stays within the configured tolerance delta, i.e. the
high end of V stays below 1/(1 - delta) (Distflow) or the far end of W
stays above 1 (linearized).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "NetworkConfig",
    "PowerAllocation",
    "PowerModel",
    "VoltageProfile",
    "distflow_from_root",
    "distflow_gradient",
    "distflow_sensitivity",
    "distflow_voltages",
    "feasible",
    "lindist_weighted_load",
]


class PowerModel(enum.Enum):
    """Which load-flow model a computation runs under."""

    DISTFLOW = "distflow"
    LINDIST = "lindist"


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
        if not (math.isfinite(self.resistance) and self.resistance > 0.0):
            raise ValueError(f"resistance must be positive, got {self.resistance!r}")
        if not (math.isfinite(self.delta) and 0.0 < self.delta <= 0.5):
            raise ValueError(f"delta must lie in (0, 0.5], got {self.delta!r}")

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
        """w_limit - 1, evaluated without cancellation: delta (2 - delta) / (1 - delta)^2."""
        return self.delta * (2.0 - self.delta) / ((1.0 - self.delta) ** 2)


@dataclass(frozen=True)
class PowerAllocation:
    """Per-station active power draws, relabeled order (index 0 farthest)."""

    p: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", tuple(float(v) for v in self.p))
        for v in self.p:
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"powers must be finite and nonnegative, got {v!r}")

    def __len__(self) -> int:
        return len(self.p)

    def __iter__(self):
        return iter(self.p)


@dataclass(frozen=True)
class VoltageProfile:
    """Voltages along the feeder, far end first.

    v has N+1 entries (buses 0..N, bus N is the root side), w_diag the
    squared voltages, and w_off the N products V[j] V[j+1] of neighbours.
    """

    v: tuple[float, ...]
    w_diag: tuple[float, ...]
    w_off: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.v) - 1

    @property
    def far_end(self) -> float:
        return self.v[0]

    @property
    def root_end(self) -> float:
        return self.v[-1]

    @classmethod
    def from_voltages(cls, v: Sequence[float]) -> "VoltageProfile":
        v = tuple(v)
        return cls(
            v=v,
            w_diag=tuple(x * x for x in v),
            w_off=tuple(v[j] * v[j + 1] for j in range(len(v) - 1)),
        )


def _as_powers(p: "PowerAllocation | Sequence[float]") -> tuple[float, ...]:
    if isinstance(p, PowerAllocation):
        return p.p
    return PowerAllocation(p=tuple(p)).p


def distflow_from_root(v0: float, p: "PowerAllocation | Sequence[float]", r: float) -> VoltageProfile:
    """Integrate the Distflow recursion outward from far-end voltage v0.

    v0 is the *far-end* magnitude (bus 0); the zero-current boundary there
    makes the first step V[1] = v0 + r p[0] / v0 and every later step

        V[j+1] = 2 V[j] - V[j-1] + r p[j] / V[j].

    The recursion is evaluated literally, left to right, in plain doubles.
    Reordering it is not harmless: downstream tables are reproduced digit
    for digit only because 2 V[j] - V[j-1] is exact in IEEE arithmetic.
    """
    if not (math.isfinite(v0) and v0 > 0.0):
        raise ValueError(f"far-end voltage must be positive, got {v0!r}")
    if not (math.isfinite(r) and r > 0.0):
        raise ValueError(f"resistance must be positive, got {r!r}")
    powers = _as_powers(p)
    n = len(powers)
    v = [0.0] * (n + 1)
    v[0] = v0
    if n >= 1:
        v[1] = v0 + r * powers[0] / v0
    for j in range(1, n):
        v[j + 1] = 2.0 * v[j] - v[j - 1] + r * powers[j] / v[j]
    return VoltageProfile.from_voltages(v)


def distflow_voltages(p: "PowerAllocation | Sequence[float]", r: float) -> VoltageProfile:
    """Distflow profile with the reference far-end voltage V[0] = 1."""
    return distflow_from_root(1.0, p, r)


def lindist_weighted_load(p: "PowerAllocation | Sequence[float]") -> float:
    """Collapsed load moment sum_m (N - m) p[m] of the linearized drop."""
    powers = _as_powers(p)
    n = len(powers)
    return math.fsum((n - m) * powers[m] for m in range(n))


def feasible(
    p: "PowerAllocation | Sequence[float]",
    cfg: NetworkConfig,
    model: PowerModel,
) -> tuple[bool, float]:
    """Check one allocation against the voltage-drop constraint.

    Returns (ok, slack); slack is nonnegative exactly when the profile is
    feasible.  Distflow slack is w_limit - W[N, N] with the far end at 1;
    linearized slack is W[0] - 1 with the root at the cap.  Both are in
    squared-voltage units.
    """
    powers = _as_powers(p)
    if len(powers) != cfg.n_stations:
        raise ValueError(
            f"allocation has {len(powers)} entries for {cfg.n_stations} stations"
        )
    if model is PowerModel.DISTFLOW:
        prof = distflow_voltages(powers, cfg.resistance)
        slack = cfg.w_limit - prof.root_end**2
    elif model is PowerModel.LINDIST:
        w0 = cfg.w_limit - 2.0 * cfg.resistance * lindist_weighted_load(powers)
        slack = w0 - 1.0
    else:
        raise ValueError(f"unknown model {model!r}")
    return slack >= 0.0, slack


def distflow_sensitivity(a: float, n: int) -> tuple[float, float]:
    """Root voltage V[n] and its scaled derivative Y[n] = n^2 dV[n]/da.

    The load is uniform, a / (r n^2) per station, with the resistance
    folded in: the tangent pass on d[j] = 1, s = a / n^2 and r = 1.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if not (math.isfinite(a) and a >= 0.0):
        raise ValueError(f"a must be nonnegative, got {a!r}")
    if n > 1 and a >= 2.0 * n / (n - 1.0):
        raise ValueError(f"a = {a:g} is past the blow-up bound 2n/(n-1) for n = {n}")
    return _root_voltage_and_slope((1.0,) * n, a / (n * n), 1.0)


def _root_voltage_and_gradient(powers: Sequence[float], r: float) -> tuple[float, list[float]]:
    """Unvalidated fused pass: V[N] and its gradient as a plain list.

    Shared by `distflow_gradient` and the allocator's binding solve, which
    calls it once per direction refresh and once on the point it returns.
    A forward voltage pass, then one O(N) adjoint pass in
    a = dV[N]/dV[j+1], j = N-1 .. 0:
    g[j] = a r / V[j] and a <- (2 - r p[j] / V[j]^2) a - a_prev.
    """
    n = len(powers)
    v = [0.0] * (n + 1)
    v[0] = 1.0
    v[1] = 1.0 + r * powers[0]
    for j in range(1, n):
        v[j + 1] = 2.0 * v[j] - v[j - 1] + r * powers[j] / v[j]
    g = [0.0] * n
    a, a_prev = 1.0, 0.0  # dV[N]/dV[j+1] and dV[N]/dV[j+2]
    for j in range(n - 1, 0, -1):
        vj = v[j]
        g[j] = a * r / vj
        a, a_prev = (2.0 - r * powers[j] / (vj * vj)) * a - a_prev, a
    g[0] = a * r  # V[1] = 1 + r p[0]
    return v[n], g


def _root_voltage_and_slope(d: Sequence[float], s: float, r: float) -> tuple[float, float]:
    """Unvalidated fused pass: V[N] at loads q = s d and its slope dV[N]/ds.

    One forward tangent sweep, T[j] = dV[j]/ds:

        T[j+1] = 2 T[j] - T[j-1] + r d[j] / V[j] - r q[j] T[j] / V[j]^2,

    with T[0] = 0 and T[1] = r d[0].  V follows the literal recursion on
    q[j] = s * d[j], so V[N] is bit-identical to what
    `_root_voltage_and_gradient` gives for those loads.  The slope equals
    sum_j g[j] d[j] at a fraction of the gradient's cost.
    """
    v_prev, v = 1.0, 1.0 + r * (s * d[0])
    t_prev, t = 0.0, r * d[0]
    for j in range(1, len(d)):
        dj = d[j]
        q = s * dj
        vj = v
        v, v_prev = 2.0 * vj - v_prev + r * q / vj, vj
        t, t_prev = 2.0 * t - t_prev + r * dj / vj - r * q * t / (vj * vj), t
    return v, t


def distflow_gradient(p: "PowerAllocation | Sequence[float]", r: float) -> tuple[float, ...]:
    """Gradient of the root-side Distflow voltage V[N] in each station power.

    One reverse (adjoint) sweep over the recursion; entry j is dV[N]/dp[j].
    All entries are positive: pushing power anywhere raises the drop.
    """
    if not (math.isfinite(r) and r > 0.0):
        raise ValueError(f"resistance must be positive, got {r!r}")
    powers = _as_powers(p)
    if not powers:
        return ()
    return tuple(_root_voltage_and_gradient(powers, r)[1])
