"""State-dependent alpha-fair power allocation on the feeder.

Given per-station queue lengths x, the allocator maximizes the aggregate
alpha-fairness utility sum_j x_j U_alpha(p_j / x_j) over allocations that
keep the voltage profile feasible, with

    U_alpha(y) = y^(1 - alpha) / (1 - alpha)   (alpha != 1),
    U_1(y) = log y.

Under the linearized model the feasibility set is the half space
sum_j w_j p_j <= headroom with weights w_j = 2 r (N - j), and the KKT
conditions collapse to a closed form.  Under full Distflow the constraint
surface is curved.  Every solve starts from powers with the V_N and O(N)
adjoint gradient taken on them: the previous solve's return when the
simulator passes one as a hint, else the linearized closed form, with one
gradient taken there.

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

Shooting from a far-off start is not robust, so the phase hands over,
from the same start, to an alternating iteration whenever a costate turns
nonpositive, a value leaves the floats or the residual stops falling.
Stationarity fixes the direction of the optimum, p_j proportional to
x_j g_j(p)^(-1/alpha) with g_j the gradient of the squared root-side
voltage, and the binding constraint fixes its scale; the iteration
alternates the two, each scalar Newton step one adjoint gradient at the
trial point.  Empty stations always get zero power.
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
            raise ValueError(f"alpha must be positive, got {self.alpha!r}")


class AllocationError(RuntimeError):
    """The Distflow solve failed to settle on the constraint; carries diagnostics."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


def _as_counts(x: Sequence[int]) -> tuple[int, ...]:
    """Vehicle counts per station, relabeled order (index 0 farthest)."""
    raw = tuple(x)
    counts = tuple(map(int, raw))
    if counts != raw or min(counts, default=0) < 0:
        raise ValueError(f"queue lengths must be nonnegative integers, got {raw!r}")
    return counts


def _lin_weights(cfg: NetworkConfig) -> list[float]:
    n = cfg.n_stations
    return [2.0 * cfg.resistance * (n - j) for j in range(n)]


def _range_error(alpha: float) -> AllocationError:
    # the fair split's powers would come out zero, infinite or undefined
    msg = f"alpha = {alpha!r} takes the weights w^(-1/alpha) out of double range"
    return AllocationError(msg, {"alpha": alpha})


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
    counts = _as_counts(x)
    if len(counts) != cfg.n_stations:
        raise ValueError(f"state has {len(counts)} entries for {cfg.n_stations} stations")
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

_MAX_OUTER = 120  # direction refreshes before the binding solve gives up
_MAX_SHOTS = 20  # Newton steps before the shooting phase gives up
_SHOT_STALL = 3  # steps without a residual decrease before it gives up
# residuals (|V_N - v_limit| / v_limit, |costate ratio| / its tolerance)
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


def _shooting_phase(
    counts: tuple[int, ...],
    active: list[int],
    inv_alpha: float,
    r: float,
    v_limit: float,
    w_limit: float,
    p: list[float],
    v_n: float,
    grad: list[float],
) -> "_Solution | None":
    """Local phase of the binding solve: Newton on (b_2, log c).

    Starts from the binding solve's start powers p (the hint's, or the
    linearized closed form's), with V_N and the adjoint gradient g taken
    on them.  g gives the costate, b_{j+1} / b_1 =
    g_j V_j / g_0, hence the start b_2 = g_1 V_1 / g_0; log c starts where
    the powers along that costate put the linearized V_N at p on v_limit;
    a station p leaves unpowered has g_j > 0 all the same.  Each Newton
    step is one `_shoot` sweep.  Once |V_N - v_limit| < _NEAR_F1 v_limit
    and the costate ratio is below _NEAR_F2 times its tolerance, the next
    step first runs `_shoot_values` at the new unknowns and stops there if
    that sweep converges; otherwise `_shoot` redoes it with tangents, so
    the iterates are those of plain Newton.  Returns (powers, V_N, gradient)
    once |V_N - v_limit| < 1e-12 v_limit and the costate ratio is at its
    rounding floor, provided they pass the binding solve's final checks
    (one adjoint gradient, the one returned); None, to fall back to the
    outer iteration, on N = 1, costate sign loss, a non-finite value, no
    residual decrease within _SHOT_STALL steps, or _MAX_SHOTS steps.
    Where pow or exp would leave the floats it raises OverflowError or
    ZeroDivisionError instead, which the binding solve also takes as a
    fallback.
    """
    if len(counts) < 2:
        return None
    g0 = grad[0]
    if not (math.isfinite(v_n) and g0 > 0.0):
        return None
    beta = grad[1] * (1.0 + r * p[0]) / g0
    # along q_j = x_j (g_j / g_0)^(-1/alpha) the powers are c^(-1/alpha) q,
    # and V_N ~ v_n + g . (c^(-1/alpha) q - p) = v_limit fixes c
    lift = v_limit - v_n
    slope = 0.0
    for j in active:
        gj = grad[j]
        if not gj > 0.0:
            return None
        lift += gj * p[j]
        slope += gj * counts[j] * (gj / g0) ** -inv_alpha
    if not (lift > 0.0 and 0.0 < slope / lift < math.inf):
        return None
    ell = math.log(slope / lift) / inv_alpha
    # b_N is about b_1 / N, so the costate ratio carries ~N^2 ulps of
    # cancellation; its tolerance follows that floor
    f2_tol = 4e-15 * max(len(counts) ** 2, 100)
    best = math.inf
    stall = 0
    near = False
    for _ in range(_MAX_SHOTS):
        if near:
            # a sweep that converges needs no Jacobian: try the values
            # alone, then redo them with tangents at the same unknowns
            values = _shoot_values(counts, inv_alpha, r, beta, ell)
            if values is None:
                return None
            p, v_n, f2 = values
            if abs(v_n - v_limit) < 1e-12 * v_limit and abs(f2) < f2_tol:
                break
        shot = _shoot(counts, inv_alpha, r, beta, ell)
        if shot is None:
            return None
        p, v_n, f2, j11, j12, j21, j22 = shot
        f1 = v_n - v_limit
        if not (math.isfinite(f1) and math.isfinite(f2)):
            return None
        if abs(f1) < 1e-12 * v_limit and abs(f2) < f2_tol:
            break
        near = abs(f1) < _NEAR_F1 * v_limit and abs(f2) < _NEAR_F2 * f2_tol
        res = abs(f1) + abs(f2)
        if res < best:
            best, stall = res, 0
        else:
            stall += 1
            if stall >= _SHOT_STALL:
                return None
        det = j11 * j22 - j12 * j21
        if not (det != 0.0 and math.isfinite(det)):
            return None
        beta -= (f1 * j22 - f2 * j12) / det
        ell -= (j11 * f2 - j21 * f1) / det
    else:
        return None
    v_n, grad = _root_voltage_and_gradient(p, r)
    if any(grad[j] <= 0.0 for j in active) or abs(w_limit - v_n * v_n) > 1e-9:
        return None
    return tuple(p), v_n, grad


def _binding_solve(
    counts: tuple[int, ...],
    spec: FairnessSpec,
    cfg: NetworkConfig,
    hint: "_Solution | None" = None,
) -> _Solution:
    """Scale-and-direction form of the Distflow optimum.

    ``hint`` is the previous solve's return, typically one vehicle away.
    The start keeps its powers at the occupied stations, zero elsewhere,
    with the hint's V_N and gradient, recomputed only if a station has
    emptied.  Without a hint the start is the linearized closed form, with
    one adjoint gradient taken on it.  `_shooting_phase` runs from the
    start, and only should the shot give up does the outer iteration run,
    from the same start.

    Stationarity makes p_j = s x_j ghat_j^(-1/alpha) with ghat the gradient
    of the squared root voltage and s = mu^(-1/alpha); the constraint binds,
    which pins s.  Each outer step refreshes the direction d from the
    gradient, then solves V_N(s d) = v_limit by Newton, each step one
    adjoint pass at the trial loads s d for V_N and the slope g . d; the
    last of them checks the returned point.  Returns (powers, V_N,
    gradient), the last two from the adjoint pass on the powers, which have
    |slack| <= 1e-9 in squared-voltage units; or raises AllocationError,
    which names alpha where ghat^(-1/alpha) leaves the doubles.
    """
    n = cfg.n_stations
    r = cfg.resistance
    active = [j for j in range(n) if counts[j] > 0]
    if not active:
        zeros = (0.0,) * n
        return (zeros, *_root_voltage_and_gradient(zeros, r))
    inv_alpha = 1.0 / spec.alpha
    v_limit = cfg.v_limit
    w_limit = cfg.w_limit
    if hint is None:
        p = list(alpha_fair_lindist(counts, spec, cfg).p)
    else:
        p = [hint[0][j] if counts[j] > 0 else 0.0 for j in range(n)]
    if hint is not None and tuple(p) == hint[0]:
        v_n, grad = hint[1], hint[2]
    else:
        v_n, grad = _root_voltage_and_gradient(p, r)
    try:
        shot = _shooting_phase(counts, active, inv_alpha, r, v_limit, w_limit, p, v_n, grad)
    except (OverflowError, ZeroDivisionError):
        shot = None  # pow or exp left the floats: fall back as well
    if shot is not None:
        return shot

    d = [0.0] * n
    trial = [0.0] * n
    theta = 1.0
    prev_p: "list[float] | None" = None
    prev_q: "list[float] | None" = None
    for outer in range(_MAX_OUTER):
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
        try:
            for j in active:
                d[j] = counts[j] * (two_vn * grad[j]) ** (-inv_alpha)
            s = math.fsum(p[j] for j in active) / math.fsum(d[j] for j in active)
        except (OverflowError, ZeroDivisionError):
            raise _range_error(spec.alpha) from None
        # scalar problem: V_N(s d) = v_limit, increasing and concave in s,
        # so a Newton step from below never lands past the root.  The slope
        # g . d is taken at the trial point itself; a slope frozen at p is
        # arbitrarily wrong decades away and stalls.
        s_lo, s_hi = 0.0, math.inf
        for _ in range(80):
            for j in active:
                trial[j] = s * d[j]
            v_n, grad = _root_voltage_and_gradient(trial, r)
            slope = sum(grad[j] * d[j] for j in active)
            if not math.isfinite(v_n) or not slope > 0.0:
                s_hi = s
                s = 0.5 * (s_lo + s)
                continue
            phi = v_n - v_limit
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
            q = trial[j]
            diff = abs(q - p[j])
            if diff > change * q:
                change = diff / max(q, 1e-300)
        if change < 1e-12:
            # the last scalar trial is returned; the scale solve saw only
            # g . d, so check every station's gradient entry here
            if any(grad[j] <= 0.0 for j in active):
                raise AllocationError(
                    "returned loads are past the representable range",
                    {"state": counts, "outer": outer, "grad": grad},
                )
            slack = w_limit - v_n * v_n
            if abs(slack) <= 1e-9:
                return tuple(trial), v_n, grad
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
        v_n, grad = _root_voltage_and_gradient(p, r)
    raise AllocationError(
        "direction iteration did not settle", {"state": counts, "outer": _MAX_OUTER}
    )


def alpha_fair_distflow(
    x: Sequence[int], spec: FairnessSpec, cfg: NetworkConfig
) -> PowerAllocation:
    """Alpha-fair optimum under the full Distflow constraint.

    The constraint binds to within 1e-9 in squared-voltage units.  Raises
    AllocationError with diagnostics when the solve fails to settle.
    """
    counts = _as_counts(x)
    if len(counts) != cfg.n_stations:
        raise ValueError(f"state has {len(counts)} entries for {cfg.n_stations} stations")
    return PowerAllocation(p=_binding_solve(counts, spec, cfg)[0])
