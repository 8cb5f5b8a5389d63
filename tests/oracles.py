"""Independent reference implementations used only by the test suite.

Everything here is deliberately written the slow, obvious way and in a
different style from the package internals (numpy vectorization, mpmath
big-float arithmetic, generic grid search) so that agreement between the
two routes is meaningful evidence rather than a tautology.
"""

import math

import mpmath
import numpy as np
from scipy import integrate


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
