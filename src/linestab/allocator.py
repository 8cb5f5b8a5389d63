"""State-dependent alpha-fair power allocation on the feeder.

Given per-station queue lengths x, the allocator maximizes the aggregate
alpha-fairness utility sum_j x_j U_alpha(p_j / x_j) over allocations that
keep the voltage profile feasible, with

    U_alpha(y) = y^(1 - alpha) / (1 - alpha)   (alpha != 1),
    U_1(y) = log y.

Under the linearized model the feasibility set is the half space
sum_j w_j p_j <= headroom with weights w_j = 2 r (N - j), and the KKT
conditions collapse to a closed form.  Under full Distflow the constraint
surface is curved; one station takes the whole headroom, and otherwise
every solve starts from powers with the V_N and O(N) adjoint gradient
taken on them: the previous solve's return when the simulator passes one
as a hint, else the linearized closed form, with one gradient taken there.

From that start the solve shoots.  The KKT conditions are a two-point
recursion: voltages run out from the far end, and the costate b_k =
dV_N/dV_k obeys the adjoint recursion, which runs forward just as well.
Fixing b_1 = 1, the unknowns (b_2, log c), c the scaled multiplier, are
pinned by V_N = v_limit and b_{N+1} = 0, so Newton's method shoots on two
unknowns for any N, each step one O(N) sweep that carries two tangent
directions (Stoer & Bulirsch, Introduction to Numerical Analysis, 7.3).
Once the residual is small, the next sweep first runs without its
tangents, which only a further step would use.  A warm solve then takes
one adjoint gradient, on the powers it returns, about 2.3 two-tangent
sweeps and one value-only sweep; the gradient it returns starts the next
solve.  A cold solve takes two gradients, about 3.1 two-tangent sweeps and
one value-only sweep.

Newton's steps are damped: a step that loses the costate sign, leaves
the floats or does not lower the residual is halved, and a start whose
first sweep fails backs off toward smaller powers.  Should the damped
shot still give up, it is continued in the headroom from zero load, where
the costate is known, out to v_limit.  At large N a shot is accurate to
about N^2 ulps of the costate, whose last entry b_N is about b_1 / N: up
to 7e-11 relative in the powers at N = 140 to 200, against a 40-digit KKT
solve.  Empty stations always get zero power.
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
    "alpha_fair_distflow",
    "alpha_fair_lindist",
]


@dataclass(frozen=True)
class FairnessSpec:
    """Fairness family selector; alpha > 0 (alpha = 1 is proportional fairness)."""

    alpha: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")


class AllocationError(RuntimeError):
    """No fair split; the message says why.

    It names alpha where the powers of the weights leave the doubles, or
    the last (V_N - v_limit, costate ratio) pair and the continuation's t
    where the Distflow solve does not settle on the constraint.
    """


def _as_counts(x: Sequence[int], n: int) -> tuple[int, ...]:
    """Vehicle counts at n stations, relabeled order (index 0 farthest)."""
    raw = tuple(x)
    counts = tuple(map(int, raw))
    if counts != raw or min(counts, default=0) < 0:
        raise ValueError(f"queue lengths must be nonnegative integers, got {raw!r}")
    if len(counts) != n:
        raise ValueError(f"state has {len(counts)} entries for {n} stations")
    return counts


def _lin_weights(cfg: NetworkConfig) -> list[float]:
    n = cfg.n_stations
    return [2.0 * cfg.resistance * (n - j) for j in range(n)]


def _range_error(alpha: float) -> AllocationError:
    # the fair split's powers would come out zero, infinite or undefined
    return AllocationError(f"alpha = {alpha!r} takes the weights w^(-1/alpha) out of double range")


def alpha_fair_lindist(
    x: Sequence[int], spec: FairnessSpec, cfg: NetworkConfig
) -> PowerAllocation:
    """Closed-form alpha-fair optimum under the linearized constraint.

    Stationarity gives p_j proportional to x_j w_j^(-1/alpha); the budget
    sum_j w_j p_j = headroom fixes the scale:

        p_j = x_j w_j^(-1/alpha) * headroom / sum_k x_k w_k^(1 - 1/alpha).

    The constraint binds whenever any station is occupied.  Raises
    AllocationError where the powers of w leave the doubles (alpha near 0).
    """
    counts = _as_counts(x, cfg.n_stations)
    if all(v == 0 for v in counts):
        return PowerAllocation(p=(0.0,) * cfg.n_stations)
    w = _lin_weights(cfg)
    inv_alpha = 1.0 / spec.alpha
    try:
        scale = cfg.w_headroom / math.fsum(
            counts[j] * w[j] ** (1.0 - inv_alpha) for j in range(len(counts)) if counts[j] > 0
        )
        p = [
            counts[j] * w[j] ** (-inv_alpha) * scale if counts[j] > 0 else 0.0
            for j in range(len(counts))
        ]
        total = math.fsum(p)
    except (OverflowError, ZeroDivisionError):
        total = math.nan
    if not 0.0 < total < math.inf:
        raise _range_error(spec.alpha)
    return PowerAllocation(p=tuple(p))


# a binding solve's powers, with the V_N and adjoint gradient taken on them
_Solution = tuple[tuple[float, ...], float, list[float]]

_MAX_SHOTS = 20  # Newton steps before a shot gives up
# residuals (|V_N - target| / target, |costate ratio| / its tolerance)
# below which the next sweep is tried without its tangents first
_NEAR_F1 = 3e-6
_NEAR_F2 = 3e6


def _shoot(
    counts: tuple[int, ...], inv_alpha: float, r: float, beta: float, ell: float
) -> "tuple[list[float], float, float, float, float, float, float] | None":
    """One forward sweep of the KKT two-point recursion, with two tangents.

    The costate b_k = dV_N/dV_k, scaled so that b_1 = 1, obeys the adjoint
    recursion run forward, b_{j+2} = (2 - r p_j / V_j^2) b_{j+1} - b_j, and
    stationarity gives p_j = x_j (c b_{j+1} / V_j)^(-1/alpha).  From the
    unknowns (b_2, log c) = (beta, ell) the sweep returns the powers, V_N,
    the costate ratio b_{N+1} / b_N (zero at the optimum) and the Jacobian
    of (V_N, b_{N+1} / b_N) in (beta, ell), row by row; None when a
    costate the powers depend on is not positive.  V follows the literal
    recursion, so V_N is what `_root_voltage_and_gradient` gives for the
    returned powers.
    """
    c = math.exp(ell)
    expo = -inv_alpha
    n = len(counts)
    p = [0.0] * n
    pj = counts[0] * c**expo if counts[0] else 0.0
    p[0] = pj
    # suffix b: derivative in beta; suffix l: derivative in ell
    v_prev, v = 1.0, 1.0 + r * pj
    vb_prev = vb = 0.0
    vl_prev, vl = 0.0, expo * r * pj
    b_prev, b = 1.0, beta
    bb_prev, bb = 0.0, 1.0
    bl_prev = bl = 0.0
    for j in range(1, n):
        x = counts[j]
        iv = 1.0 / v
        if x:
            u = c * b * iv
            if not u > 0.0:
                return None
            pj = x * u**expo
            ib = 1.0 / b
            k = expo * pj
            pb = k * (bb * ib - vb * iv)
            pl = k * (1.0 + bl * ib - vl * iv)
        else:
            pj = pb = pl = 0.0
        p[j] = pj
        # h (dp - e dV) is the tangent of r p / V, and hb (dp - 2 e dV) is
        # b times that of r p / V^2
        h = r * iv
        e = pj * iv
        e2 = e + e
        hb = h * iv * b
        a = 2.0 - h * e
        v_prev, v = v, 2.0 * v - v_prev + r * pj / v
        b_prev, b = b, a * b - b_prev
        bb_prev, bb = bb, a * bb - bb_prev - hb * (pb - e2 * vb)
        bl_prev, bl = bl, a * bl - bl_prev - hb * (pl - e2 * vl)
        vb_prev, vb = vb, 2.0 * vb - vb_prev + h * (pb - e * vb)
        vl_prev, vl = vl, 2.0 * vl - vl_prev + h * (pl - e * vl)
    if not b_prev > 0.0:
        return None
    ratio = b / b_prev
    return (
        p,
        v,
        ratio,
        vb,
        vl,
        (bb - ratio * bb_prev) / b_prev,
        (bl - ratio * bl_prev) / b_prev,
    )


def _shoot_values(
    counts: tuple[int, ...], inv_alpha: float, r: float, beta: float, ell: float
) -> "tuple[list[float], float, float] | None":
    """`_shoot` without its tangents: the powers, V_N and costate ratio.

    The tangents never feed the values, so these are `_shoot`'s own, bit
    for bit, and it returns None (or raises) exactly where `_shoot` does.
    """
    c = math.exp(ell)
    expo = -inv_alpha
    n = len(counts)
    p = [0.0] * n
    pj = counts[0] * c**expo if counts[0] else 0.0
    p[0] = pj
    v_prev, v = 1.0, 1.0 + r * pj
    b_prev, b = 1.0, beta
    for j in range(1, n):
        x = counts[j]
        iv = 1.0 / v
        if x:
            u = c * b * iv
            if not u > 0.0:
                return None
            pj = x * u**expo
        else:
            pj = 0.0
        p[j] = pj
        a = 2.0 - (r * iv) * (pj * iv)
        v_prev, v = v, 2.0 * v - v_prev + r * pj / v
        b_prev, b = b, a * b - b_prev
    if not b_prev > 0.0:
        return None
    return p, v, b / b_prev


def _damped_shot(
    counts: tuple[int, ...],
    active: list[int],
    inv_alpha: float,
    r: float,
    target: float,
    p: list[float],
    v_n: float,
    grad: list[float],
) -> "tuple[bool, list[float] | None, float, float] | None":
    """Damped Newton on (b_2, log c) for V_N = target and b_{N+1} = 0.

    Starts from powers p with V_N and the adjoint gradient g on them: g
    gives the costate, b_{j+1} / b_1 = g_j V_j / g_0, hence b_2 = g_1 V_1 /
    g_0, and log c puts the linearized V_N along that costate on target.
    Each step is one `_shoot` sweep.  A sweep that is not valid, or does
    not lower |V_N - target| / (1e-12 target) + |costate ratio| / f2_tol,
    is retried up to 30 times: from the start with log c += 1/2 (smaller
    powers), else with the step halved (Deuflhard, Newton Methods for
    Nonlinear Problems, 2004, ch. 3).  Near the root (_NEAR_F1, _NEAR_F2)
    the next sweep first runs as `_shoot_values`, and stops there if it
    converges.  Converged once |V_N - target| < 1e-12 target and |costate
    ratio| < f2_tol, or once a halved step no longer moves the unknowns.
    Returns (converged, powers, V_N, costate ratio) of the last valid sweep
    (nan if none), or None where g gives no start or the start's powers
    leave the floats.
    """
    g0 = grad[0]
    if not (math.isfinite(v_n) and g0 > 0.0):
        return None
    beta = grad[1] * (1.0 + r * p[0]) / g0
    # along q_j = x_j (g_j / g_0)^(-1/alpha) the powers are c^(-1/alpha) q,
    # and V_N ~ v_n + g . (c^(-1/alpha) q - p) = target fixes c
    lift = target - v_n
    slope = 0.0
    for j in active:
        gj = grad[j]
        if not gj > 0.0:
            return None
        lift += gj * p[j]
        try:
            slope += gj * counts[j] * (gj / g0) ** -inv_alpha
        except (OverflowError, ZeroDivisionError):
            return None
    if not (lift > 0.0 and 0.0 < slope / lift < math.inf):
        return None
    ell = math.log(slope / lift) / inv_alpha
    f1_tol = 1e-12 * target
    # b_N is about b_1 / N, so the costate ratio carries ~N^2 ulps of
    # cancellation; its tolerance follows that floor
    f2_tol = 4e-15 * max(len(counts) ** 2, 100)
    v_n = f2 = math.nan
    best = math.inf  # merit of the last accepted sweep
    near = False
    for _ in range(_MAX_SHOTS):
        for _ in range(30):
            try:
                if near:
                    # a sweep that converges needs no Jacobian: try the values
                    # alone, then redo them with tangents at the same unknowns
                    values = _shoot_values(counts, inv_alpha, r, beta, ell)
                    if values is not None:
                        p, v_n, f2 = values
                        if abs(v_n - target) < f1_tol and abs(f2) < f2_tol:
                            return True, p, v_n, f2
                shot = _shoot(counts, inv_alpha, r, beta, ell)
            except (OverflowError, ZeroDivisionError):
                shot = None
            if shot is not None:
                p, v_n, f2, j11, j12, j21, j22 = shot
                f1 = v_n - target
                merit = abs(f1) / f1_tol + abs(f2) / f2_tol
                if merit < best:
                    break
            if best == math.inf:
                ell += 0.5
            else:
                step_b *= 0.5
                step_l *= 0.5
                beta = beta0 - step_b
                ell = ell0 - step_l
                if beta == beta0 and ell == ell0:
                    # the step fell below the spacing of the doubles
                    return (True, *accepted)
        else:
            break
        if abs(f1) < f1_tol and abs(f2) < f2_tol:
            return True, p, v_n, f2
        near = abs(f1) < _NEAR_F1 * target and abs(f2) < _NEAR_F2 * f2_tol
        det = j11 * j22 - j12 * j21
        if not (det != 0.0 and math.isfinite(det)):
            break
        best, accepted = merit, (p, v_n, f2)
        beta0, ell0 = beta, ell
        step_b = (f1 * j22 - f2 * j12) / det
        step_l = (j11 * f2 - j21 * f1) / det
        beta -= step_b
        ell -= step_l
    return False, p, v_n, f2


def _binding_solve(
    counts: tuple[int, ...],
    spec: FairnessSpec,
    cfg: NetworkConfig,
    hint: "_Solution | None" = None,
) -> _Solution:
    """Distflow optimum, with the V_N and adjoint gradient on its powers.

    One station takes the whole headroom, p_0 = (v_limit - 1) / r.  Else
    ``hint`` is the previous solve's return, typically one vehicle away.
    The start keeps its powers at the occupied stations, zero elsewhere,
    with the hint's V_N and gradient, recomputed only if a station has
    emptied.  Without a hint the start is the linearized closed form, with
    one adjoint gradient taken on it.  One `_damped_shot` runs from the
    start.  Should it give up, or the start give it none (its start powers
    out of the floats included), a continuation runs in the headroom, v_t =
    1 + t (v_limit - 1), from zero load, where g_j = r (N - j), at t = 1/8
    (Deuflhard, ch. 5): each step a damped shot from the last converged
    powers, t's step doubling on success and halving on failure.

    Returns (powers, V_N, gradient), the last two from the adjoint pass on
    the powers, with |slack| <= 1e-9 in squared-voltage units.  Raises
    AllocationError: naming alpha (`_range_error`) where the closed form or
    the zero-load costate gives no start in the doubles; else naming the
    last (V_N - v_limit, costate ratio) pair and t, the continuation's
    reach (1 if it never ran), once t's step is below 2^-12 or the settled
    powers miss the constraint.
    """
    n = cfg.n_stations
    r = cfg.resistance
    v_limit = cfg.v_limit
    active = [j for j in range(n) if counts[j] > 0]
    if not active:
        zeros = (0.0,) * n
        return (zeros, *_root_voltage_and_gradient(zeros, r))
    if n == 1:
        # V_1 = 1 + r p_0 = v_limit
        p0 = ((v_limit - 1.0) / r,)
        return (p0, *_root_voltage_and_gradient(p0, r))
    if hint is None:
        p = list(alpha_fair_lindist(counts, spec, cfg).p)
    else:
        p = [hint[0][j] if counts[j] > 0 else 0.0 for j in range(n)]
    if hint is not None and tuple(p) == hint[0]:
        v_n, grad = hint[1], hint[2]
    else:
        v_n, grad = _root_voltage_and_gradient(p, r)
    inv_alpha = 1.0 / spec.alpha
    shot = _damped_shot(counts, active, inv_alpha, r, v_limit, p, v_n, grad)
    t = 1.0
    if shot is None or not shot[0]:
        p, v_n, grad = [0.0] * n, 1.0, [r * (n - j) for j in range(n)]
        t, step = 0.0, 0.125
        while t < 1.0:
            t_next = min(t + step, 1.0)
            target = v_limit if t_next == 1.0 else 1.0 + t_next * (v_limit - 1.0)
            shot = _damped_shot(counts, active, inv_alpha, r, target, p, v_n, grad)
            if shot is None and t == 0.0:
                raise _range_error(spec.alpha)
            if shot is not None and shot[0]:
                t, step = t_next, 2.0 * step
                p = shot[1]
                if t < 1.0:
                    v_n, grad = _root_voltage_and_gradient(p, r)
            elif step > 2.0**-12:
                step *= 0.5
            else:
                break
    if shot is not None and shot[0]:
        p = shot[1]
        v_n, grad = _root_voltage_and_gradient(p, r)
        if all(grad[j] > 0.0 for j in active) and abs(cfg.w_limit - v_n * v_n) <= 1e-9:
            return tuple(p), v_n, grad
    v_n, f2 = (math.nan, math.nan) if shot is None else shot[2:]
    raise AllocationError(
        "costate shooting did not settle on the constraint: last (V_N - v_limit, "
        f"costate ratio) = ({v_n - v_limit:.6g}, {f2:.6g}), continuation at t = {t:g}"
    )


def alpha_fair_distflow(
    x: Sequence[int], spec: FairnessSpec, cfg: NetworkConfig
) -> PowerAllocation:
    """Alpha-fair optimum under the full Distflow constraint.

    The constraint binds to within 1e-9 in squared-voltage units.  Raises
    AllocationError, naming its last residuals, when the solve fails to
    settle.
    """
    counts = _as_counts(x, cfg.n_stations)
    return PowerAllocation(p=_binding_solve(counts, spec, cfg)[0])
