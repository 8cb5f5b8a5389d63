"""State-dependent alpha-fair power allocation on the feeder.

Given per-station queue lengths x, the allocator maximizes the aggregate
alpha-fairness utility sum_j x_j U_alpha(p_j / x_j) over allocations that
keep the voltage profile feasible, with

    U_alpha(y) = y^(1 - alpha) / (1 - alpha)   (alpha != 1),
    U_1(y) = log y.

Under the linearized model the feasibility set is the half space
sum_j w_j p_j <= headroom with weights w_j = 2 r (N - j), and the KKT
conditions collapse to a closed form.  Under full Distflow the constraint
surface is curved.  Stationarity still fixes the direction of the optimum,
p_j proportional to x_j g_j(p)^(-1/alpha) with g_j the gradient of the
squared root-side voltage, and the binding constraint fixes its scale; the
solver alternates the two.  A direction refresh takes one O(N) adjoint
gradient; the scale solve needs only the slope along the direction, one
forward tangent pass per Newton step.  Empty stations always get zero power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .powerflow import (
    NetworkConfig,
    PowerAllocation,
    _root_voltage_and_gradient,
    _root_voltage_and_slope,
)

__all__ = [
    "AllocationError",
    "FairnessSpec",
    "QueueState",
    "alpha_fair_distflow",
    "alpha_fair_lindist",
    "fairness_utility",
]


@dataclass(frozen=True)
class FairnessSpec:
    """Fairness family selector; alpha > 0 (alpha = 1 is proportional fairness)."""

    alpha: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError(f"alpha must be positive, got {self.alpha!r}")


@dataclass(frozen=True)
class QueueState:
    """Vehicle counts per station, relabeled order (index 0 farthest)."""

    x: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", tuple(int(v) for v in self.x))
        for v in self.x:
            if v < 0:
                raise ValueError(f"queue lengths must be nonnegative, got {v!r}")

    @property
    def total(self) -> int:
        return sum(self.x)

    def __len__(self) -> int:
        return len(self.x)


class AllocationError(RuntimeError):
    """The Distflow solve failed to settle on the constraint; carries diagnostics."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


def _as_counts(x: "QueueState | Sequence[int]") -> tuple[int, ...]:
    if isinstance(x, QueueState):
        return x.x
    return QueueState(x=tuple(x)).x


def fairness_utility(
    rates: "PowerAllocation | Sequence[float]", x: "QueueState | Sequence[int]", alpha: float
) -> float:
    """Aggregate utility sum_j x_j U_alpha(p_j / x_j); empty stations are skipped."""
    counts = _as_counts(x)
    powers = tuple(float(v) for v in rates)
    if len(powers) != len(counts):
        raise ValueError("rates and queue lengths must have matching length")
    total = 0.0
    for xj, pj in zip(counts, powers):
        if xj == 0:
            continue
        y = pj / xj
        if alpha == 1.0:
            total += xj * math.log(y) if y > 0.0 else -math.inf
        elif alpha > 1.0:
            total += xj * y ** (1.0 - alpha) / (1.0 - alpha) if y > 0.0 else -math.inf
        else:
            total += xj * y ** (1.0 - alpha) / (1.0 - alpha)
    return total


def _lin_weights(cfg: NetworkConfig) -> list[float]:
    n = cfg.n_stations
    return [2.0 * cfg.resistance * (n - j) for j in range(n)]


def alpha_fair_lindist(
    x: "QueueState | Sequence[int]", spec: FairnessSpec, cfg: NetworkConfig
) -> PowerAllocation:
    """Closed-form alpha-fair optimum under the linearized constraint.

    Stationarity gives p_j proportional to x_j w_j^(-1/alpha); the budget
    sum_j w_j p_j = headroom fixes the scale:

        p_j = x_j w_j^(-1/alpha) * headroom / sum_k x_k w_k^(1 - 1/alpha).

    The constraint binds whenever any station is occupied.
    """
    counts = _as_counts(x)
    if len(counts) != cfg.n_stations:
        raise ValueError(f"state has {len(counts)} entries for {cfg.n_stations} stations")
    if all(v == 0 for v in counts):
        return PowerAllocation(p=(0.0,) * cfg.n_stations)
    w = _lin_weights(cfg)
    inv_alpha = 1.0 / spec.alpha
    scale = cfg.w_headroom / math.fsum(
        counts[j] * w[j] ** (1.0 - inv_alpha) for j in range(len(counts)) if counts[j] > 0
    )
    p = [
        counts[j] * w[j] ** (-inv_alpha) * scale if counts[j] > 0 else 0.0
        for j in range(len(counts))
    ]
    return PowerAllocation(p=tuple(p))


_MAX_OUTER = 120  # direction refreshes before the binding solve gives up


def _binding_solve(
    counts: tuple[int, ...],
    spec: FairnessSpec,
    cfg: NetworkConfig,
    p_hint: "Sequence[float] | None" = None,
) -> tuple[float, ...]:
    """Scale-and-direction form of the Distflow optimum.

    Stationarity makes p_j = s x_j ghat_j^(-1/alpha) with ghat the gradient
    of the squared root voltage and s = mu^(-1/alpha); the constraint binds,
    which pins s.  Each outer step refreshes the direction with one adjoint
    gradient, then solves for s by Newton with one tangent pass (V_N and
    dV_N/ds) per step; one more adjoint pass checks the returned point.
    ``p_hint`` warm-starts the direction (the simulator passes the previous
    event's solution, one vehicle away); without it, or when it leaves an
    occupied station unpowered, the linearized closed form seeds the
    iteration.  Returns powers with |slack| <= 1e-9 in squared-voltage
    units, or raises AllocationError.
    """
    n = cfg.n_stations
    active = [j for j in range(n) if counts[j] > 0]
    if not active:
        return (0.0,) * n
    inv_alpha = 1.0 / spec.alpha
    r = cfg.resistance
    v_limit = cfg.v_limit
    w_limit = cfg.w_limit

    if p_hint is not None and len(p_hint) == n and all(
        p_hint[j] > 0.0 for j in active
    ):
        p = [float(p_hint[j]) if counts[j] > 0 else 0.0 for j in range(n)]
    else:
        seed = alpha_fair_lindist(counts, spec, cfg)
        p = list(seed.p)

    d = [0.0] * n
    trial = [0.0] * n
    theta = 1.0
    prev_p: "list[float] | None" = None
    prev_q: "list[float] | None" = None
    for outer in range(_MAX_OUTER):
        v_n, grad = _root_voltage_and_gradient(p, r)
        shrink = 0
        while not math.isfinite(v_n) or any(grad[j] <= 0.0 for j in active):
            # seed past blow-up (the linearized model admits loads the
            # quadratic one does not); V(eps p) -> 1, so shrinking lands
            # in the representable basin
            shrink += 1
            if shrink > 100:
                raise AllocationError(
                    "loads stay past the representable range",
                    {"state": counts, "outer": outer},
                )
            for j in active:
                p[j] *= 0.0625
            v_n, grad = _root_voltage_and_gradient(p, r)
        two_vn = 2.0 * v_n
        for j in active:
            d[j] = counts[j] * (two_vn * grad[j]) ** (-inv_alpha)
        # scalar problem: V_N(s d) = v_limit, increasing and convex in s.
        # Newton with the slope taken at the trial point itself; a slope
        # frozen at p is arbitrarily wrong decades away and stalls.
        s = math.fsum(p[j] for j in active) / math.fsum(d[j] for j in active)
        s_lo, s_hi = 0.0, math.inf
        for _ in range(80):
            v_try, slope = _root_voltage_and_slope(d, s, r)
            if not math.isfinite(v_try) or not slope > 0.0:
                s_hi = s
                s = 0.5 * (s_lo + s)
                continue
            phi = v_try - v_limit
            if abs(phi) < 1e-12 * v_limit:
                # slack = (v_limit - V)(v_limit + V) lands ~2e-12, well
                # inside the acceptance tolerance; tighter is wasted work
                break
            if phi < 0.0:
                s_lo = s
            else:
                s_hi = s
            if math.isfinite(s_hi) and s_hi - s_lo <= 4e-16 * s_hi:
                # where V is steep in s the residual target is below the
                # double-precision floor; a machine-width bracket is done
                break
            s_new = s - phi / slope
            if not s_lo < s_new < s_hi:
                s_new = 0.5 * (s_lo + s_hi) if math.isfinite(s_hi) else 8.0 * s
            s = s_new
        else:
            raise AllocationError(
                "scale solve did not settle", {"state": counts, "outer": outer}
            )
        change = 0.0
        for j in active:
            q = s * d[j]
            trial[j] = q
            diff = abs(q - p[j])
            if diff > change * q:
                change = diff / max(q, 1e-300)
        if change < 1e-12:
            # p is now the last scalar trial; the tangent passes see only
            # g . d, so check every station's gradient entry here
            for j in active:
                p[j] = trial[j]
            v_n, grad = _root_voltage_and_gradient(p, r)
            if any(grad[j] <= 0.0 for j in active):
                raise AllocationError(
                    "returned loads are past the representable range",
                    {"state": counts, "outer": outer, "grad": grad},
                )
            slack = w_limit - v_n * v_n
            if abs(slack) <= 1e-9:
                return tuple(p)
            raise AllocationError(
                "direction iteration settled off the constraint",
                {"state": counts, "slack": slack},
            )
        # relax by 1/(1 - sigma), sigma the map slope seen between steps
        if prev_p is not None:
            num = den = 0.0
            for j in active:
                dp = p[j] - prev_p[j]
                num += (trial[j] - prev_q[j]) * dp
                den += dp * dp
            if den > 0.0:
                sigma = min(num / den, 0.0)
                theta = min(max(1.0 / (1.0 - sigma), 0.02), 1.0)
        prev_p, prev_q = list(p), list(trial)
        one_minus = 1.0 - theta
        for j in active:
            p[j] = one_minus * p[j] + theta * trial[j]
    raise AllocationError(
        "direction iteration did not settle", {"state": counts, "outer": _MAX_OUTER}
    )




def alpha_fair_distflow(
    x: "QueueState | Sequence[int]", spec: FairnessSpec, cfg: NetworkConfig
) -> PowerAllocation:
    """Alpha-fair optimum under the full Distflow constraint.

    The constraint binds to within 1e-9 in squared-voltage units.  Raises
    AllocationError with diagnostics when the solve fails to settle.
    """
    counts = _as_counts(x)
    if len(counts) != cfg.n_stations:
        raise ValueError(f"state has {len(counts)} entries for {cfg.n_stations} stations")
    return PowerAllocation(p=_binding_solve(counts, spec, cfg))
