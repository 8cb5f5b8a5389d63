"""Independent reference implementations used only by the test suite.

Everything here is deliberately written the slow, obvious way and in a
different style from the package internals (numpy vectorization, mpmath
big-float arithmetic, generic grid search, the squared-voltage and summed
forms of the recursion, a dual-multiplier search for the fair split) so
that agreement between the two routes is meaningful evidence rather than
a tautology.  The literal profile (`distflow_from_root`,
`distflow_voltages`), the linearized load moment and the validated
adjoint gradient `distflow_gradient` are the exception: they are the
package's own arithmetic kept whole, where the package keeps only V[N],
inlines the sum or calls the bare pass, so the package must match them
bit for bit.  The last section holds small helpers that only the tests call:
the continuum profile, the inverse of f0 and the fairness utility.
"""

import math
import random
from dataclasses import dataclass
from typing import Sequence

import mpmath
import numpy as np
from scipy import integrate

from linestab.allocator import AllocationError, FairnessSpec, _as_counts, _lin_weights
from linestab.powerflow import (
    NetworkConfig,
    PowerAllocation,
    _as_powers,
    _root_voltage_and_gradient,
)
from linestab.specfun import erfi, f0


def erfi_quadrature(x: float) -> float:
    """erfi via adaptive quadrature of its defining integral."""
    val, _ = integrate.quad(lambda v: math.exp(v * v), 0.0, x, epsabs=1e-14, epsrel=1e-13)
    return 2.0 / math.sqrt(math.pi) * val


def voltage_profile_mp(powers, r, dps: int = 50):
    """Far-end-anchored voltage recursion in 50-digit arithmetic."""
    with mpmath.workdps(dps):
        rr = mpmath.mpf(repr(r))
        p = [mpmath.mpf(repr(q)) for q in powers]
        v_prev, v = mpmath.mpf(1), mpmath.mpf(1) + rr * p[0]
        profile = [mpmath.mpf(1), v]
        for j in range(1, len(p)):
            v_prev, v = v, 2 * v - v_prev + rr * p[j] / v
            profile.append(v)
        return [float(u) for u in profile]


def threshold_root_mp(n: int, delta: float, dps: int = 30) -> float:
    """Root a_bar of V_N(a) = 1/(1 - delta) in dps-digit arithmetic.

    Newton on the uniform-load recursion V[j+1] = 2 V[j] - V[j-1] + a/N^2
    / V[j] and its a-derivative, both carried in mpmath, so no rounding
    floor gets in the way.  Starts at a_inf N/(N+1), within O(N^-2) of the
    root, which keeps the O(N) big-float passes to three or four (0.7 s
    in all at N = 3e4).
    """
    with mpmath.workdps(dps):
        target = 1 / (1 - mpmath.mpf(delta))
        a = mpmath.pi / 2 * mpmath.erfi(mpmath.sqrt(mpmath.log(target))) ** 2 * n / (n + 1)
        n2 = mpmath.mpf(n) ** 2
        for _ in range(20):
            k = a / n2
            v_prev, v = mpmath.mpf(1), 1 + k
            t_prev, t = mpmath.mpf(0), 1 / n2  # dV[j]/da
            for _ in range(1, n):
                inv = 1 / v
                v, v_prev, t, t_prev = (
                    2 * v - v_prev + k * inv,
                    v,
                    2 * t - t_prev + (1 / n2 - k * t * inv) * inv,
                    t,
                )
            step = (v - target) / t
            a -= step
            # the big-float recursion's own rounding grows like N^2 10^-dps
            if abs(step) < a * mpmath.mpf(10) ** (10 - dps):
                return float(a)
    raise ArithmeticError(f"mpmath threshold root did not converge (n = {n}, delta = {delta!r})")


def distflow_gradient(p: "PowerAllocation | Sequence[float]", r: float) -> tuple[float, ...]:
    """Gradient of the root-side Distflow voltage V[N] in each station power.

    The package's own adjoint pass, validated: one reverse sweep over the
    recursion; entry j is dV[N]/dp[j].  All entries are positive: pushing
    power anywhere raises the drop.
    """
    if not (math.isfinite(r) and r > 0.0):
        raise ValueError(f"resistance must be positive, got {r!r}")
    powers = _as_powers(p)
    if not powers:
        return ()
    return tuple(_root_voltage_and_gradient(powers, r)[1])


def distflow_gradient_forward(powers, r):
    """dV[N]/dp by forward-mode differentiation, O(N^2).

    The whole gradient rides along with every recursion step; the package
    computes the same derivative with one reverse sweep.
    """
    n = len(powers)
    v = [1.0, 1.0 + r * powers[0]]
    for j in range(1, n):
        v.append(2.0 * v[j] - v[j - 1] + r * powers[j] / v[j])
    g_prev = [0.0] * n  # dV[0]/dp = 0
    g_cur = [0.0] * n
    g_cur[0] = r  # V[1] = 1 + r p[0]
    for i in range(1, n):
        vi = v[i]
        damp = r * powers[i] / (vi * vi)
        g_next = [(2.0 - damp) * g_cur[j] - g_prev[j] for j in range(n)]
        g_next[i] += r / vi
        g_prev, g_cur = g_cur, g_next
    return tuple(g_cur)


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


def distflow_from_root(v0: float, p: "PowerAllocation | Sequence[float]", r: float) -> VoltageProfile:
    """Integrate the Distflow recursion outward from far-end voltage v0.

    v0 is the *far-end* magnitude (bus 0); the zero-current boundary there
    makes the first step V[1] = v0 + r p[0] / v0 and every later step

        V[j+1] = 2 V[j] - V[j-1] + r p[j] / V[j].

    The recursion is evaluated literally, left to right, in plain doubles,
    so at v0 = 1 its V[N] is bit-identical to the package's passes, which
    keep only V[N].
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


def distflow_w_recursion(p: "PowerAllocation | Sequence[float]", r: float) -> VoltageProfile:
    """Distflow in squared-voltage form, one diagonal and one off-diagonal track.

    Same trajectory as `distflow_voltages` up to rounding; kept as an
    independent route for consistency checks.
    """
    if not (math.isfinite(r) and r > 0.0):
        raise ValueError(f"resistance must be positive, got {r!r}")
    powers = _as_powers(p)
    n = len(powers)
    w_diag = [0.0] * (n + 1)
    w_off = [0.0] * n
    w_diag[0] = 1.0
    if n >= 1:
        w_off[0] = 1.0 + r * powers[0]
    for j in range(1, n):
        w_diag[j] = w_off[j - 1] ** 2 / w_diag[j - 1]
        w_off[j] = 2.0 * w_diag[j] - w_off[j - 1] + r * powers[j]
    if n >= 1:
        w_diag[n] = w_off[n - 1] ** 2 / w_diag[n - 1]
    v = tuple(math.sqrt(x) for x in w_diag)
    return VoltageProfile(v=v, w_diag=tuple(w_diag), w_off=tuple(w_off))


def distflow_double_sum(p: "PowerAllocation | Sequence[float]", r: float) -> VoltageProfile:
    """Distflow voltages through the summed form of the recursion.

    V[j] = 1 + sum_{m < j} sum_{i <= m} r p[i] / V[i].  Algebraically equal
    to `distflow_voltages`; numerically independent (partial sums are
    compensated), which is what makes it useful as a cross-check.
    """
    if not (math.isfinite(r) and r > 0.0):
        raise ValueError(f"resistance must be positive, got {r!r}")
    powers = _as_powers(p)
    n = len(powers)
    v = [1.0]
    inner_terms: list[float] = []  # r p[i] / V[i]
    partials: list[float] = []  # sum_{i <= m} of the above
    for j in range(1, n + 1):
        inner_terms.append(r * powers[j - 1] / v[j - 1])
        partials.append(math.fsum(inner_terms))
        v.append(1.0 + math.fsum(partials))
    return VoltageProfile.from_voltages(v)



def distflow_sensitivity_profile(a: float, n: int) -> tuple[list[float], list[float]]:
    """Voltage and d/da tracks for the uniform load p = a / (r n^2) per station.

    With every station drawing the same scaled power a / n^2 (resistance
    folded in), the Distflow recursion and its derivative in a form a joint
    pair with k = a / n^2:

        V[j+1] = 2 V[j] - V[j-1] + k / V[j]
        Y[j+1] = 2 Y[j] - Y[j-1] + 1 / V[j] - k Y[j] / V[j]^2

    where Y[j] = n^2 dV[j]/da.  Returns both tracks, length n + 1.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if not (math.isfinite(a) and a >= 0.0):
        raise ValueError(f"a must be nonnegative, got {a!r}")
    k = a / (n * n)
    v = [0.0] * (n + 1)
    y = [0.0] * (n + 1)
    v[0] = 1.0
    v[1] = 1.0 + k
    y[1] = 1.0
    for j in range(1, n):
        vj = v[j]
        v[j + 1] = 2.0 * vj - v[j - 1] + k / vj
        y[j + 1] = 2.0 * y[j] - y[j - 1] + 1.0 / vj - k * y[j] / (vj * vj)
    return v, y


def lindist_squared_voltages(
    p: "PowerAllocation | Sequence[float]", r: float, delta: float
) -> list[float]:
    """Linearized squared-voltage profile W[0..N], anchored at the root.

    The root bus is pinned at the cap, W[N] = (1 / (1 - delta))^2, and the
    profile decreases toward the far end:

        W[j] = W[j+1] - 2 r sum_{m=0}^{N-1-j} p[m].

    An independent route to the LINDIST slack W[0] - 1, which `voltage_slack`
    computes from the collapsed load moment instead.
    """
    powers = _as_powers(p)
    n = len(powers)
    w = [0.0] * (n + 1)
    w[n] = (1.0 / (1.0 - delta)) ** 2
    prefix = 0.0  # sum of p[0..n-1-j] when filling w[j]
    for j in range(n - 1, -1, -1):
        prefix += powers[n - 1 - j]
        w[j] = w[j + 1] - 2.0 * r * prefix
    return w


def _utility_grid(p: np.ndarray, counts, alpha: float) -> np.ndarray:
    """Sum of per-station utilities over a (m, n) batch of allocations."""
    total = np.zeros(p.shape[0])
    for j, x_j in enumerate(counts):
        if x_j == 0:
            continue
        y = p[:, j] / x_j
        with np.errstate(divide="ignore"):
            if alpha == 1.0:
                u = np.log(y)
            else:
                u = y ** (1.0 - alpha) / (1.0 - alpha)
        total += x_j * u
    return total


def _feasible_lindist(p: np.ndarray, counts, cfg) -> np.ndarray:
    n = cfg.n_stations
    weights = np.array([2.0 * cfg.resistance * (n - j) for j in range(n)])
    return p @ weights <= cfg.w_headroom + 1e-15


def _feasible_distflow(p: np.ndarray, counts, cfg) -> np.ndarray:
    r = cfg.resistance
    v_prev = np.ones(p.shape[0])
    v = 1.0 + r * p[:, 0]
    for j in range(1, p.shape[1]):
        v_prev, v = v, 2.0 * v - v_prev + r * p[:, j] / v
    return v <= cfg.v_limit + 1e-15


def _boundary_scale(dirs: np.ndarray, counts, cfg, feas) -> np.ndarray:
    """Largest s per row with s * d feasible (lands on the constraint surface)."""
    n = cfg.n_stations
    w = np.array([2.0 * cfg.resistance * (n - j) for j in range(n)])
    # the linearized half space contains the quadratic region, so its cap
    # brackets the surface from above
    s_hi = cfg.w_headroom / (dirs @ w)
    s_lo = np.zeros_like(s_hi)
    for _ in range(60):
        mid = 0.5 * (s_lo + s_hi)
        ok = feas(dirs * mid[:, None], counts, cfg)
        s_lo = np.where(ok, mid, s_lo)
        s_hi = np.where(ok, s_hi, mid)
    return s_lo


def grid_search_allocation(counts, alpha: float, cfg, model: str, rounds: int = 24, pts: int = 9):
    """Boundary-projected zooming grid maximizer of the fair utility.

    The optimum always binds the voltage constraint (utility is strictly
    increasing in every coordinate), and a plain box zoom over p cannot
    slide along a curved constraint surface: one-cell diagonal moves leave
    the surface, so the incumbent freezes short of the peak.  Instead the
    grid runs over load directions, log ratios to the last occupied
    station, and every candidate is scaled onto the surface by bisection
    against the feasibility predicate.  That keeps the landscape mask-free
    and unimodal; the box recentres at fixed width whenever the incumbent
    sits on an edge, then shrinks.  Good to ~1e-8 relative per coordinate.
    """
    n = cfg.n_stations
    feas = _feasible_lindist if model == "lindist" else _feasible_distflow
    active = [j for j in range(n) if counts[j] > 0]
    m = len(active)
    if m == 0:
        return (0.0,) * n
    anchor = active[-1]
    if m == 1:
        d = np.zeros((1, n))
        d[0, anchor] = 1.0
        out = [0.0] * n
        out[anchor] = float(_boundary_scale(d, counts, cfg, feas)[0])
        return tuple(out)
    free = active[:-1]
    lo_box = [-12.0] * (m - 1)
    hi_box = [12.0] * (m - 1)
    best = None
    drifts = 0
    for _ in range(rounds):
        axes = [np.linspace(lo_box[k], hi_box[k], pts) for k in range(m - 1)]
        mesh = np.meshgrid(*axes, indexing="ij")
        dirs = np.zeros((mesh[0].size, n))
        dirs[:, anchor] = 1.0
        for k, j in enumerate(free):
            dirs[:, j] = np.exp(mesh[k].ravel())
        scale = _boundary_scale(dirs, counts, cfg, feas)
        cand = dirs * scale[:, None]
        util = _utility_grid(cand, counts, alpha)
        i_best = int(np.argmax(util))
        best = cand[i_best]
        logs = [mesh[k].ravel()[i_best] for k in range(m - 1)]
        cells = [(hi_box[k] - lo_box[k]) / (pts - 1) for k in range(m - 1)]
        on_edge = any(
            logs[k] - lo_box[k] < 0.5 * cells[k] or hi_box[k] - logs[k] < 0.5 * cells[k]
            for k in range(m - 1)
        )
        if on_edge and drifts < 3:
            drifts += 1
            for k in range(m - 1):
                width = hi_box[k] - lo_box[k]
                lo_box[k] = logs[k] - 0.5 * width
                hi_box[k] = logs[k] + 0.5 * width
        else:
            drifts = 0
            for k in range(m - 1):
                lo_box[k] = logs[k] - cells[k]
                hi_box[k] = logs[k] + cells[k]
    return tuple(best)


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



def _dual_solve(
    x: Sequence[int],
    spec: FairnessSpec,
    cfg: NetworkConfig,
    tol: float = 1e-9,
    mu_hint: "float | None" = None,
    p_hint: "Sequence[float] | None" = None,
) -> tuple[tuple[float, ...], float]:
    """Distflow fair split by searching the dual multiplier; returns (p, mu).

    For fixed mu the stationarity condition p_j = x_j (mu g_j(p))^(-1/alpha)
    is a fixed point in p (`_stationarity_sweep`); mu is bracketed
    geometrically and then driven to the value that makes the voltage
    constraint bind by secant steps safeguarded with log-space bisection.
    ``mu_hint`` and ``p_hint`` warm-start the search.
    """
    counts = _as_counts(x, cfg.n_stations)
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
                f"failed to bracket the dual multiplier: state {counts}, alpha = "
                f"{spec.alpha!r}, last mu = {mu:.6g} after {evals} evaluations"
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
        f"dual search did not reach the requested slack tolerance: state {counts}, "
        f"alpha = {spec.alpha!r}, bracket mu = ({mu_lo:.6g}, {mu_hi:.6g}), slacks = "
        f"({slack_lo:.6g}, {slack_hi:.6g}) after {evals} evaluations"
    )



def kkt_point_mp(x: Sequence[int], alpha: float, r: float, delta: float, dps: int = 40):
    """Distflow alpha-fair optimum from its KKT system in dps-digit arithmetic.

    Unknowns are log p_j at the occupied stations and log mu; the equations
    are stationarity, log p_j - log x_j + (log mu + log g_j(p)) / alpha = 0
    with g the adjoint gradient of V_N carried in mpmath, and the binding
    constraint V_N(p) = 1 / (1 - delta).  `mpmath.findroot` solves them
    from `_dual_solve`'s float answer, so no rounding floor of the double
    recursion gets in.  Returns the powers as floats, zero at empty stations.
    """
    counts = _as_counts(x, len(x))
    n = len(counts)
    active = [j for j in range(n) if counts[j] > 0]
    start, _ = _dual_solve(counts, FairnessSpec(alpha), NetworkConfig(n, r, delta))
    with mpmath.workdps(dps):
        rr = mpmath.mpf(repr(r))
        aa = mpmath.mpf(repr(alpha))
        cap = 1 / (1 - mpmath.mpf(repr(delta)))

        def voltage_and_gradient(p):
            v = [mpmath.mpf(1), 1 + rr * p[0]]
            for j in range(1, n):
                v.append(2 * v[j] - v[j - 1] + rr * p[j] / v[j])
            g = [mpmath.mpf(0)] * n
            a, a_prev = mpmath.mpf(1), mpmath.mpf(0)
            for j in range(n - 1, 0, -1):
                g[j] = a * rr / v[j]
                a, a_prev = (2 - rr * p[j] / v[j] ** 2) * a - a_prev, a
            g[0] = a * rr
            return v[n], g

        def powers(logs):
            p = [mpmath.mpf(0)] * n
            for j, lp in zip(active, logs):
                p[j] = mpmath.exp(lp)
            return p

        def residual(*unknowns):
            *logs, log_mu = unknowns
            v_n, g = voltage_and_gradient(powers(logs))
            eqs = [
                lp - mpmath.log(counts[j]) + (log_mu + mpmath.log(g[j])) / aa
                for j, lp in zip(active, logs)
            ]
            return eqs + [v_n - cap]

        logs0 = [mpmath.log(mpmath.mpf(repr(start[j]))) for j in active]
        _, g0 = voltage_and_gradient(powers(logs0))
        j = active[0]
        log_mu0 = -aa * (logs0[0] - mpmath.log(counts[j])) - mpmath.log(g0[j])
        root = mpmath.findroot(residual, logs0 + [log_mu0])
        return tuple(float(u) for u in powers(list(root)[:-1]))


# ------------------------------------------------- helpers only tests call


def hard_allocation_cases(seed: int, count: int) -> list:
    """A seeded stress mix of Distflow allocation inputs: (x, alpha, cfg).

    N is log-uniform over 1 to 200, delta uniform over 0.01 to 0.5, alpha
    and r log-uniform over 0.25 to 4 and 0.2 to 3.  Occupancies come in
    three shapes, a third each: sparse (each station occupied with
    probability 0.05 to 0.3, 1 to 50 vehicles), geometric along the feeder
    (x_j = floor(x0 q^j), q spanning up to e^6 end to end, some stations
    empty) and heavy (every station occupied, 10^2 to 10^4 vehicles in
    all), with at least one vehicle in every state.
    """
    rng = random.Random(seed)
    cases = []
    for k in range(count):
        n = min(int(math.exp(rng.uniform(0.0, math.log(201.0)))), 200)
        delta = rng.uniform(0.01, 0.5)
        alpha = math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
        r = math.exp(rng.uniform(math.log(0.2), math.log(3.0)))
        shape = k % 3
        if shape == 0:
            occupied = rng.uniform(0.05, 0.3)
            x = [
                int(math.exp(rng.uniform(0.0, math.log(50.0)))) if rng.random() < occupied else 0
                for _ in range(n)
            ]
        elif shape == 1:
            x0 = math.exp(rng.uniform(0.0, math.log(1000.0)))
            q = math.exp(rng.uniform(-6.0, 6.0) / n)
            x = [int(x0 * q**j) for j in range(n)]
        else:
            total = 10.0 ** rng.uniform(2.0, 4.0)
            x = [max(1, int(total / n * rng.uniform(0.2, 1.8))) for _ in range(n)]
        if not any(x):
            x[rng.randrange(n)] = 1
        cases.append((tuple(x), alpha, NetworkConfig(n, r, delta)))
    return cases


def continuum_voltage(a: float, t: float) -> float:
    """Continuum squared-drop profile f0(t sqrt(a)) on the unit feeder.

    Solves the boundary layer equation V'' V = a with V(0) = 1, V'(0) = 0;
    t is the normalized position (0 far end, 1 root side).
    """
    if not (math.isfinite(a) and a >= 0.0):
        raise ValueError(f"a must be nonnegative, got {a!r}")
    if not (math.isfinite(t) and 0.0 <= t <= 1.0):
        raise ValueError(f"t must lie in [0, 1], got {t!r}")
    return f0(t * math.sqrt(a))


def f0_inverse(y: float) -> float:
    """Inverse of f0 on y >= 1: sqrt(pi/2) * erfi(sqrt(log(y)))."""
    if not math.isfinite(y) or y < 1.0:
        raise ValueError(f"f0_inverse expects y >= 1, got {y!r}")
    return math.sqrt(0.5 * math.pi) * erfi(math.sqrt(math.log(y)))


def fairness_utility(
    rates: "PowerAllocation | Sequence[float]", x: Sequence[int], alpha: float
) -> float:
    """Aggregate utility sum_j x_j U_alpha(p_j / x_j); empty stations are skipped."""
    counts = _as_counts(x, len(x))
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
