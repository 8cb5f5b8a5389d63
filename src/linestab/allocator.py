"""State-dependent alpha-fair power allocation on the feeder.

Given per-station queue lengths x, the allocator maximizes the aggregate
alpha-fairness utility sum_j x_j U_alpha(p_j / x_j) over allocations that
keep the voltage profile feasible, with

    U_alpha(y) = y^(1 - alpha) / (1 - alpha)   (alpha != 1),
    U_1(y) = log y.

Under the linearized model the feasibility set is the half space
sum_j w_j p_j <= headroom with weights w_j = 2 r (N - j), and the KKT
conditions collapse to a closed form.  Under full Distflow the constraint
surface is curved; the optimum is found by searching the dual multiplier:
for fixed mu the stationarity condition p_j = x_j (mu g_j(p))^(-1/alpha),
with g_j the gradient of the squared root-side voltage, is a fixed point
in p, and mu is driven to the value that makes the voltage constraint
bind.  Empty stations always get zero power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .powerflow import (
    NetworkConfig,
    PowerAllocation,
    _root_voltage_and_gradient,
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
    """The dual search or inner fixed point failed; carries diagnostics."""

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


class _RecursionOverflow(Exception):
    """Loads so large the forward recursion left the representable range."""


def _stationarity_sweep(
    p: list[float],
    mu: float,
    counts: tuple[int, ...],
    active: list[int],
    inv_alpha: float,
    r: float,
    w_limit: float,
    max_sweeps: int = 300,
) -> tuple[list[float], float, bool]:
    """Fixed point of p_j = x_j (mu g_j(p))^(-1/alpha) at fixed mu.

    Returns (allocation, feasibility slack there, settled flag).  The
    iteration runs on log p: the bare map oscillates (raising p raises the
    gradient, which lowers the next target) and for alpha < 1 the targets
    swing over decades, so linear relaxation cannot hold it.  In log
    coordinates steps are clamped and relaxed per component by
    1/(1 - sigma_j), sigma_j being the map slope estimated from
    consecutive sweeps; that keeps the iteration contractive even where
    the bare slope is below -1.  A seed past blow-up is shrunk into range
    (V(eps p) -> 1), and steps whose landing point leaves the
    representable range are halved, so no starting point can misclassify
    a feasible mu.  When the fixed point does not settle the last state
    still carries usable sign information: slack < 0 iff the iteration
    stagnated past the voltage limit, which is what the dual bracketing
    needs.
    """
    n = len(p)
    theta = {j: 1.0 for j in active}
    logt = [0.0] * n
    v_n, grad = _root_voltage_and_gradient(p, r)
    shrink = 0
    while not math.isfinite(v_n) or any(grad[j] <= 0.0 for j in active):
        shrink += 1
        if shrink > 100:
            raise _RecursionOverflow
        for j in active:
            p[j] *= 0.0625
        v_n, grad = _root_voltage_and_gradient(p, r)
    logp = [math.log(p[j]) if counts[j] > 0 else 0.0 for j in range(n)]
    prev_lp: "list[float] | None" = None
    prev_lt: "list[float] | None" = None
    for _ in range(max_sweeps):
        log_mu_v = math.log(2.0 * v_n * mu)
        resid = 0.0
        for j in active:
            logt[j] = math.log(counts[j]) - inv_alpha * (log_mu_v + math.log(grad[j]))
            diff = abs(logt[j] - logp[j])
            if diff > resid:
                resid = diff
        if resid < 1e-13:
            return p, w_limit - v_n * v_n, True
        if prev_lp is not None:
            for j in active:
                dp = logp[j] - prev_lp[j]
                if dp != 0.0:
                    sigma = min((logt[j] - prev_lt[j]) / dp, 0.0)
                    theta[j] = min(max(1.0 / (1.0 - sigma), 0.02), 1.0)
        prev_lp, prev_lt = list(logp), list(logt)
        scale = 1.0
        for _ in range(60):
            trial_lp = list(logp)
            for j in active:
                step = logt[j] - logp[j]
                if step > 4.0:
                    step = 4.0
                elif step < -4.0:
                    step = -4.0
                trial_lp[j] += scale * theta[j] * step
            trial_p = [math.exp(lp) if counts[j] > 0 else 0.0 for j, lp in enumerate(trial_lp)]
            v_try, g_try = _root_voltage_and_gradient(trial_p, r)
            if math.isfinite(v_try) and all(g_try[j] > 0.0 for j in active):
                logp, p, v_n, grad = trial_lp, trial_p, v_try, g_try
                break
            scale *= 0.5
        else:
            break
    return p, w_limit - v_n * v_n, False


def _binding_solve(
    counts: tuple[int, ...],
    spec: FairnessSpec,
    cfg: NetworkConfig,
    p_hint: "Sequence[float] | None" = None,
    tol: float = 1e-9,
    max_outer: int = 120,
) -> tuple[tuple[float, ...], float]:
    """Scale-and-direction form of the Distflow optimum, for hot paths.

    Stationarity makes p_j = s x_j ghat_j^(-1/alpha) with ghat the gradient
    of the squared root voltage and s = mu^(-1/alpha); the constraint binds,
    which pins s.  Alternating a direction refresh with a scalar Newton
    solve for s takes one gradient per outer step plus one per Newton step
    (about 18 a solve in an overloaded simulation); that is several times
    faster than the dual search it must agree with (`_dual_solve`), which
    the simulator falls back to if this iteration fails to settle.
    """
    n = cfg.n_stations
    active = [j for j in range(n) if counts[j] > 0]
    if not active:
        return (0.0,) * n, 0.0
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
    for outer in range(max_outer):
        v_n, grad = _root_voltage_and_gradient(p, r)
        shrink = 0
        while not math.isfinite(v_n) or any(grad[j] <= 0.0 for j in active):
            # seed past blow-up (the linearized model admits loads the
            # quadratic one does not); V(eps p) -> 1, so shrinking lands
            # in the representable basin
            shrink += 1
            if shrink > 100:
                raise _RecursionOverflow
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
            for j in active:
                trial[j] = s * d[j]
            v_try, g_try = _root_voltage_and_gradient(trial, r)
            if not math.isfinite(v_try) or any(g_try[j] <= 0.0 for j in active):
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
            s_new = s - phi / math.fsum(g_try[j] * d[j] for j in active)
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
            for j in active:
                p[j] = trial[j]
            v_n = _root_voltage(p, r)
            slack = w_limit - v_n * v_n
            if abs(slack) <= tol:
                return tuple(p), s ** (-spec.alpha)
            raise AllocationError(
                "direction iteration settled off the constraint",
                {"state": counts, "slack": slack},
            )
        # relax by the same slope estimate as the stationarity sweep
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
        "direction iteration did not settle", {"state": counts, "outer": max_outer}
    )


def _root_voltage(p: Sequence[float], r: float) -> float:
    vp, v = 1.0, 1.0 + r * p[0]
    for j in range(1, len(p)):
        vp, v = v, 2.0 * v - vp + r * p[j] / v
    if not math.isfinite(v):
        raise _RecursionOverflow
    return v


def alpha_fair_distflow(
    x: "QueueState | Sequence[int]",
    spec: FairnessSpec,
    cfg: NetworkConfig,
    tol: float = 1e-9,
    mu_hint: "float | None" = None,
    p_hint: "Sequence[float] | None" = None,
) -> PowerAllocation:
    """Alpha-fair optimum under the full Distflow constraint.

    Searches the dual multiplier mu for the value that makes the voltage
    constraint bind (|slack| <= tol in squared-voltage units), solving the
    stationarity fixed point at every trial mu.  The search brackets the
    root geometrically and then alternates secant proposals with log-space
    bisection, so it is globally safe and locally fast.  ``mu_hint`` and
    ``p_hint`` warm-start the search (useful when states change by one
    vehicle at a time); results do not depend on them beyond the tolerance.

    Raises AllocationError with bracket and sweep diagnostics when either
    loop fails to settle.
    """
    return PowerAllocation(p=_dual_solve(x, spec, cfg, tol, mu_hint, p_hint)[0])


def _dual_solve(
    x: "QueueState | Sequence[int]",
    spec: FairnessSpec,
    cfg: NetworkConfig,
    tol: float = 1e-9,
    mu_hint: "float | None" = None,
    p_hint: "Sequence[float] | None" = None,
) -> tuple[tuple[float, ...], float]:
    """alpha_fair_distflow core; also returns the dual multiplier for reuse."""
    counts = _as_counts(x)
    if len(counts) != cfg.n_stations:
        raise ValueError(f"state has {len(counts)} entries for {cfg.n_stations} stations")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol!r}")
    n = cfg.n_stations
    if all(v == 0 for v in counts):
        return (0.0,) * n, 0.0
    active = [j for j in range(n) if counts[j] > 0]
    inv_alpha = 1.0 / spec.alpha
    r = cfg.resistance
    w_limit = cfg.w_limit

    # linearized closed form seeds both mu and p; at p = 0 the Distflow
    # gradient equals the linearized weights, so the seed is already close
    w = _lin_weights(cfg)
    if mu_hint is not None and mu_hint > 0.0 and math.isfinite(mu_hint):
        mu_seed = mu_hint
    else:
        mu_seed = (
            math.fsum(counts[j] * w[j] ** (1.0 - inv_alpha) for j in active)
            / cfg.w_headroom
        ) ** spec.alpha
    if p_hint is not None and len(p_hint) == n:
        p_cur = [max(float(p_hint[j]), 0.0) if counts[j] > 0 else 0.0 for j in range(n)]
        for j in active:
            if p_cur[j] <= 0.0:
                p_cur[j] = counts[j] * (mu_seed * w[j]) ** (-inv_alpha)
    else:
        p_cur = [
            counts[j] * (mu_seed * w[j]) ** (-inv_alpha) if counts[j] > 0 else 0.0
            for j in range(n)
        ]

    evals = 0

    def try_mu(mu: float, p_start: list[float]) -> tuple[list[float], float, bool]:
        nonlocal evals
        evals += 1
        try:
            return _stationarity_sweep(
                list(p_start), mu, counts, active, inv_alpha, r, w_limit
            )
        except (_RecursionOverflow, OverflowError):
            # mu far too small: powers blew past the representable range
            return list(p_start), -math.inf, False

    p_cur, slack, settled = try_mu(mu_seed, p_cur)
    if settled and abs(slack) <= tol:
        return tuple(p_cur), mu_seed

    # bracket: slack is increasing in mu (larger price, smaller powers)
    mu_lo, slack_lo = (mu_seed, slack) if slack < 0.0 else (None, None)
    mu_hi, slack_hi = (mu_seed, slack) if slack > 0.0 else (None, None)
    mu, factor = mu_seed, 4.0
    while mu_lo is None or mu_hi is None:
        mu = mu * factor if mu_hi is None else mu / factor
        if not (1e-300 < mu < 1e300) or evals > 200:
            raise AllocationError(
                "failed to bracket the dual multiplier",
                {"state": counts, "alpha": spec.alpha, "mu_last": mu, "evals": evals},
            )
        p_cur, slack, settled = try_mu(mu, p_cur)
        if settled and abs(slack) <= tol:
            return tuple(p_cur), mu
        if slack < 0.0:
            mu_lo, slack_lo = mu, slack
        else:
            mu_hi, slack_hi = mu, slack

    # secant in log mu, safeguarded by bisection on the bracket
    prev = (math.log(mu_lo), slack_lo)
    last = (math.log(mu_hi), slack_hi)
    while evals <= 300:
        l_lo, l_hi = math.log(mu_lo), math.log(mu_hi)
        if last[1] != prev[1] and math.isfinite(last[1]) and math.isfinite(prev[1]):
            l_next = last[0] - last[1] * (last[0] - prev[0]) / (last[1] - prev[1])
        else:
            l_next = 0.5 * (l_lo + l_hi)
        if not l_lo < l_next < l_hi:
            l_next = 0.5 * (l_lo + l_hi)
        mu = math.exp(l_next)
        p_cur, slack, settled = try_mu(mu, p_cur)
        if settled and abs(slack) <= tol:
            return tuple(p_cur), mu
        if slack < 0.0:
            mu_lo, slack_lo = mu, slack
        else:
            mu_hi, slack_hi = mu, slack
        prev, last = last, (l_next, slack)
        if mu_hi / mu_lo - 1.0 < 1e-15:
            break

    # bracket pinched without a settled probe: the fixed point converges
    # slowly there, so grant one generous last pass at the midpoint
    mu = math.sqrt(mu_lo * mu_hi)
    try:
        p_cur, slack, settled = _stationarity_sweep(
            list(p_cur), mu, counts, active, inv_alpha, r, w_limit, max_sweeps=5000
        )
        if settled and abs(slack) <= tol:
            return tuple(p_cur), mu
    except (_RecursionOverflow, OverflowError):
        pass
    raise AllocationError(
        "dual search did not reach the requested slack tolerance",
        {
            "state": counts,
            "alpha": spec.alpha,
            "bracket": (mu_lo, mu_hi),
            "slack": (slack_lo, slack_hi),
            "evals": evals,
        },
    )
