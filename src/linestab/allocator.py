"""State-dependent alpha-fair power allocation on the feeder.

Given per-station queue lengths x, the allocator maximizes the aggregate
alpha-fairness utility sum_j x_j U_alpha(p_j / x_j) over allocations that
keep the voltage profile feasible, with

    U_alpha(y) = y^(1 - alpha) / (1 - alpha)   (alpha != 1),
    U_1(y) = log y.

Under the linearized model the feasibility set is the half space sum_j w_j
p_j <= headroom with weights w_j = 2 r (N - j), and the KKT conditions
collapse to a closed form.  Under full Distflow the constraint surface is
curved.  Both splits run on the loads q = r p of a unit-resistance feeder,
and `_powers` divides them by r.  One station takes the whole headroom;
every other Distflow solve shoots on two unknowns, as below.  A warm solve,
handed the previous solve's return as a hint by the simulator, starts from
the unknowns that solve settled on, with log c moved in O(1) for the counts
that changed.  Where a station gains its first vehicle, where that move
leaves the doubles, and without a hint, the start comes from loads with the
V_N and O(N) adjoint gradient on them: the hint's loads, else the
linearized closed form.

The KKT conditions are a two-point recursion: voltages run out from the
far end, and the costate b_k = dV_N/dV_k obeys the adjoint recursion,
which runs forward just as well.
Fixing b_1 = 1, the unknowns (b_2, log c), c the scaled multiplier, are
pinned by V_N = v_limit and b_{N+1} = 0, so Newton's method shoots on two
unknowns for any N, each step one O(N) sweep that carries two tangent
directions (Stoer & Bulirsch, Introduction to Numerical Analysis, 7.3).
Once the residual is small, the next sweep first runs without its
tangents, which only a further step would use.  A cold solve takes one
gradient, about 3.1 two-tangent sweeps and one value-only sweep.  A warm
solve first steps on value-only sweeps with the Jacobian the previous
solve ended with, corrected by Broyden's rank-one rule after each step,
and hands over to Newton only where that stalls.  In an overloaded
simulation it takes about 4.8 value-only sweeps, 0.019 two-tangent
sweeps and 0.013 adjoint gradients.  No adjoint pass closes a solve: V_N
is the settled sweep's, and the unknowns and Jacobian it returns start
the next solve.

Newton's steps are damped: a step that loses the costate sign, leaves
the floats or does not lower the residual is halved, and a start whose
first sweep fails backs off toward smaller loads.  Should the damped
shot still give up, it is continued in the headroom from zero load, where
the costate is known, out to v_limit.  At large N a shot is accurate to
about N^2 ulps of the costate, whose last entry b_N is about b_1 / N: up
to 7e-11 relative in the powers at N = 140 to 200, against a 40-digit KKT
solve.  Empty stations always get zero power.
"""

from __future__ import annotations

import math
import sys
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

    It names alpha where the powers of the weights leave the doubles, the
    last (V_N - v_limit, costate ratio) pair and the continuation's t
    where the Distflow solve does not settle, or a station's power.
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

    It runs on the unit weights 2 (N - j); `_powers` divides by r.  The
    constraint binds whenever any station is occupied.  Raises
    AllocationError naming alpha where the weights' powers leave the
    doubles (alpha near 0), or a station whose power is not normal.
    """
    counts = _as_counts(x, cfg.n_stations)
    if all(v == 0 for v in counts):
        return PowerAllocation(p=(0.0,) * cfg.n_stations)
    q = _lin_split(counts, spec.alpha, cfg.w_headroom)
    return PowerAllocation(p=_powers(counts, q, cfg.resistance, spec.alpha))


def _lin_split(counts: tuple[int, ...], alpha: float, headroom: float) -> list[float]:
    """The closed form's loads q = r p for an occupied state, on the unit weights 2 (N - j)."""
    inv_alpha = 1.0 / alpha
    w = [2.0 * (len(counts) - j) for j in range(len(counts))]
    try:
        scale = headroom / math.fsum(
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
        raise _range_error(alpha)
    return p


def _powers(counts: tuple[int, ...], q: Sequence[float], r: float, alpha: float) -> list[float]:
    """p = q / r; raises AllocationError where an occupied station's p is not a normal double.

    The loads sum to at most v_limit (v_limit - 1) <= 2, so p <= 2 / r is finite.
    """
    p = [v / r for v in q]
    if min(p) < sys.float_info.min:  # an empty station, or a power below the normals
        for j, x in enumerate(counts):
            if x and p[j] < sys.float_info.min:
                raise AllocationError(
                    f"station {j}'s power {p[j]!r} at r = {r!r}, alpha = {alpha!r} "
                    "is not a normal double"
                )
    return p


# the Jacobian of (V_N - target, costate ratio) in (b_2, log c), row by row
_Jacobian = tuple[float, float, float, float]
# a binding solve's loads, the occupancy they solve and the V_N on them, with
# the (b_2, log c, b_N) of the sweep that settled them and the Jacobian its
# shot ended with (both None where nothing was shot)
_Solution = tuple[
    tuple[float, ...],
    tuple[int, ...],
    float,
    "tuple[float, float, float] | None",
    "_Jacobian | None",
]

_MAX_SHOTS = 20  # Newton steps before a shot gives up
# a warm shot's quasi-Newton phase stops below this merit, and after this
# many sweeps at most
_BROYDEN_MERIT = 0.1
_BROYDEN_SWEEPS = 12
# residuals (|V_N - target| / target, |costate ratio| / its tolerance)
# below which the next sweep is tried without its tangents first
_NEAR_F1 = 3e-6
_NEAR_F2 = 3e6


def _shoot(
    counts: tuple[int, ...], inv_alpha: float, beta: float, ell: float
) -> "tuple[list[float], float, float, float, float, float, float, float] | None":
    """One forward sweep of the KKT two-point recursion, with two tangents.

    The costate b_k = dV_N/dV_k, scaled so that b_1 = 1, obeys the adjoint
    recursion run forward, b_{j+2} = (2 - q_j / V_j^2) b_{j+1} - b_j, and
    stationarity gives q_j = x_j (c b_{j+1} / V_j)^(-1/alpha).  From the
    unknowns (b_2, log c) = (beta, ell) the sweep returns the loads, V_N,
    the costate ratio b_{N+1} / b_N (zero at the optimum), the costate's
    last entry b_N, whose inverse is dV_N/dq_0, and the Jacobian of (V_N,
    b_{N+1} / b_N) in (beta, ell), row by row; None when a costate the
    loads depend on is not positive.  V follows the literal recursion, so
    V_N is what `_root_voltage_and_gradient` gives for the returned loads.
    """
    c = math.exp(ell)
    expo = -inv_alpha
    n = len(counts)
    q = [0.0] * n
    qj = counts[0] * c**expo if counts[0] else 0.0
    q[0] = qj
    # suffix b: derivative in beta; suffix l: derivative in ell
    v_prev, v = 1.0, 1.0 + qj
    vb_prev = vb = 0.0
    vl_prev, vl = 0.0, expo * qj
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
            qj = x * u**expo
            ib = 1.0 / b
            k = expo * qj
            qb = k * (bb * ib - vb * iv)
            ql = k * (1.0 + bl * ib - vl * iv)
        else:
            qj = qb = ql = 0.0
        q[j] = qj
        # iv (dq - e dV) is the tangent of q / V, and hb (dq - 2 e dV) is
        # b times that of q / V^2
        e = qj * iv
        e2 = e + e
        hb = iv * iv * b
        a = 2.0 - iv * e
        v_prev, v = v, 2.0 * v - v_prev + qj / v
        b_prev, b = b, a * b - b_prev
        bb_prev, bb = bb, a * bb - bb_prev - hb * (qb - e2 * vb)
        bl_prev, bl = bl, a * bl - bl_prev - hb * (ql - e2 * vl)
        vb_prev, vb = vb, 2.0 * vb - vb_prev + iv * (qb - e * vb)
        vl_prev, vl = vl, 2.0 * vl - vl_prev + iv * (ql - e * vl)
    if not b_prev > 0.0:
        return None
    ratio = b / b_prev
    return (
        q,
        v,
        ratio,
        b_prev,
        vb,
        vl,
        (bb - ratio * bb_prev) / b_prev,
        (bl - ratio * bl_prev) / b_prev,
    )


def _shoot_values(
    counts: tuple[int, ...], inv_alpha: float, beta: float, ell: float
) -> "tuple[list[float], float, float, float] | None":
    """`_shoot` without its tangents: the loads, V_N, costate ratio and b_N.

    The tangents never feed the values, so these are `_shoot`'s own, bit
    for bit, and it returns None (or raises) exactly where `_shoot` does.
    """
    c = math.exp(ell)
    expo = -inv_alpha
    n = len(counts)
    q = [0.0] * n
    qj = counts[0] * c**expo if counts[0] else 0.0
    q[0] = qj
    v_prev, v = 1.0, 1.0 + qj
    b_prev, b = 1.0, beta
    for j in range(1, n):
        x = counts[j]
        iv = 1.0 / v
        if x:
            u = c * b * iv
            if not u > 0.0:
                return None
            qj = x * u**expo
        else:
            qj = 0.0
        q[j] = qj
        a = 2.0 - iv * (qj * iv)
        v_prev, v = v, 2.0 * v - v_prev + qj / v
        b_prev, b = b, a * b - b_prev
    if not b_prev > 0.0:
        return None
    return q, v, b / b_prev, b_prev


def _broyden_shot(
    counts: tuple[int, ...],
    inv_alpha: float,
    target: float,
    beta: float,
    ell: float,
    jac: _Jacobian,
    f1_tol: float,
    f2_tol: float,
) -> "tuple[tuple[list[float], float, float, float, _Jacobian] | None, float, float]":
    """Quasi-Newton on (b_2, log c) from a carried Jacobian, on `_shoot_values` alone.

    Each step solves with ``jac``, which is then corrected along the step
    by Broyden's rank-one rule (Broyden, Math. Comp. 19, 1965; Dennis &
    Schnabel, Numerical Methods for Unconstrained Optimization and
    Nonlinear Equations, SIAM 1996, ch. 8).  The phase ends once the merit
    |V_N - target| / f1_tol + |costate ratio| / f2_tol is below
    _BROYDEN_MERIT, a sweep is not valid, the merit fails to halve, or
    after _BROYDEN_SWEEPS sweeps.  It returns (settled, b_2, log c) of the
    last sweep whose merit fell, the start if none did.  settled is
    (loads, V_N, costate ratio, b_N, Jacobian) if that sweep passes the
    residual test, |V_N - target| < f1_tol and |costate ratio| < f2_tol,
    where a Newton step would stop at once, else None.  Its Jacobian is the
    one in use when the test first passed: the steps after that are at
    rounding level.
    """
    j11, j12, j21, j22 = jac
    kept = None
    best = math.inf
    beta0, ell0 = beta, ell
    for _ in range(_BROYDEN_SWEEPS):
        try:
            values = _shoot_values(counts, inv_alpha, beta, ell)
        except (OverflowError, ZeroDivisionError):
            break
        if values is None:
            break
        f1 = values[1] - target
        f2 = values[2]
        merit = abs(f1) / f1_tol + abs(f2) / f2_tol
        if not merit < 0.5 * best:
            break
        sb = beta - beta0
        sl = ell - ell0
        ss = sb * sb + sl * sl
        if ss > 0.0:  # every sweep after the first
            # J += (y - J s) s^T / (s^T s) for the step s and the change y in f
            r1 = (f1 - f1_0 - j11 * sb - j12 * sl) / ss
            r2 = (f2 - f2_0 - j21 * sb - j22 * sl) / ss
            j11 += r1 * sb
            j12 += r1 * sl
            j21 += r2 * sb
            j22 += r2 * sl
        best = merit
        beta0, ell0 = beta, ell
        f1_0, f2_0 = f1, f2
        accepted = values
        if kept is None and abs(f1) < f1_tol and abs(f2) < f2_tol:
            kept = (j11, j12, j21, j22)
        if merit < _BROYDEN_MERIT:
            break
        det = j11 * j22 - j12 * j21
        if not (det != 0.0 and math.isfinite(det)):
            break
        beta -= (f1 * j22 - f2 * j12) / det
        ell -= (j11 * f2 - j21 * f1) / det
    # the merit only falls, so once the test passed the last sweep passes it
    return (None if kept is None else (*accepted, kept)), beta0, ell0


def _gradient_start(
    counts: tuple[int, ...],
    active: list[int],
    inv_alpha: float,
    target: float,
    q: list[float],
    v_n: float,
    grad: list[float],
) -> "tuple[float, float] | None":
    """The unknowns (b_2, log c) from loads q with V_N and the adjoint gradient g on them.

    g gives the costate, b_{j+1} / b_1 = g_j V_j / g_0, hence b_2 = g_1 V_1 /
    g_0, and log c puts the linearized V_N along that costate on target.
    None where g gives no start: V_N is not finite, an occupied station's
    g_j is not positive, or the multiplier leaves the doubles.
    """
    g0 = grad[0]
    if not (math.isfinite(v_n) and g0 > 0.0):
        return None
    beta = grad[1] * (1.0 + q[0]) / g0
    # along d_j = x_j (g_j / g_0)^(-1/alpha) the loads are c^(-1/alpha) d,
    # and V_N ~ v_n + g . (c^(-1/alpha) d - q) = target fixes c
    lift = target - v_n
    slope = 0.0
    for j in active:
        gj = grad[j]
        if not gj > 0.0:
            return None
        lift += gj * q[j]
        try:
            slope += gj * counts[j] * (gj / g0) ** -inv_alpha
        except (OverflowError, ZeroDivisionError):
            return None
    if not (lift > 0.0 and 0.0 < slope / lift < math.inf):
        return None
    return beta, math.log(slope / lift) / inv_alpha


def _warm_start(
    counts: tuple[int, ...], alpha: float, hint: _Solution
) -> "tuple[float, float] | None":
    """The unknowns (b_2, log c) of a warm start in O(1): the hint's, log c moved.

    At the hint's unknowns a sweep gives station k about x'_k / x_k times
    the hint's load q_k, so V_N moves by dV = sum_k g_k q_k (x'_k - x_k) /
    x_k over the stations whose count changed, where stationarity gives
    g_k = dV_N/dq_k = (x_k / q_k)^alpha e^(-log c) / b_N.  Moving log c by
    -dV / J_12, J_12 = dV_N/d(log c) the hint's Jacobian entry, puts V_N
    back on target to first order.  None where the hint carries no shot, a
    station occupied now was empty in the hint's state (its g_k is not
    known), or the formula leaves the doubles.
    """
    loads, was, _, settled, jac = hint
    if settled is None:
        return None
    beta, ell, b_n = settled
    dv = 0.0
    try:
        scale = math.exp(-ell) / b_n
        for k, (x, w) in enumerate(zip(counts, was)):
            if x != w:
                if not w:
                    return None
                qk = loads[k]
                gk = (w / qk) ** alpha * scale
                if not 0.0 < gk < math.inf:
                    return None
                dv += gk * qk * (x - w) / w
        ell -= dv / jac[1]
    except (OverflowError, ZeroDivisionError):
        return None
    return (beta, ell) if math.isfinite(ell) else None


def _damped_shot(
    counts: tuple[int, ...],
    inv_alpha: float,
    target: float,
    beta: float,
    ell: float,
    jac: "_Jacobian | None" = None,
) -> "tuple[bool, list[float] | None, float, float, float, float, float, _Jacobian | None]":
    """Damped Newton on (b_2, log c) for V_N = target and b_{N+1} = 0.

    Starts from the unknowns (beta, ell).  Given a Jacobian ``jac`` (a warm
    solve), `_broyden_shot` runs first, and Newton starts where it leaves
    off unsettled.  Each Newton step is one `_shoot` sweep.  A sweep that
    is not valid, or does not lower |V_N - target| / (1e-12 target) +
    |costate ratio| / f2_tol, is retried up to 30 times: from the start
    with log c += 1/2 (smaller loads), else with the step halved
    (Deuflhard, Newton Methods for Nonlinear Problems, 2004, ch. 3).
    Near the root (_NEAR_F1, _NEAR_F2) the next sweep first runs as
    `_shoot_values`, and stops there if it converges.  Converged once
    |V_N - target| < 1e-12 target and |costate ratio| < f2_tol, or once a
    halved step no longer moves the unknowns.  Returns (converged, loads,
    V_N, costate ratio, b_N, b_2, log c): the settled sweep's if
    converged, else the last valid one's (None and nan if none), and a
    Jacobian, the settled phase's or else the last valid `_shoot`
    sweep's (None if none).
    """
    f1_tol = 1e-12 * target
    # b_N is about b_1 / N, so the costate ratio carries ~N^2 ulps of
    # cancellation; its tolerance follows that floor
    f2_tol = 4e-15 * max(len(counts) ** 2, 100)
    if jac is not None:
        settled, beta, ell = _broyden_shot(
            counts, inv_alpha, target, beta, ell, jac, f1_tol, f2_tol
        )
        if settled is not None:
            *values, kept = settled
            return (True, *values, beta, ell, kept)
    # the last valid sweep's loads, V_N, costate ratio and b_N, and its unknowns
    last = (None, math.nan, math.nan, math.nan, beta, ell)
    jac = None
    best = math.inf  # merit of the last accepted sweep
    near = False
    for _ in range(_MAX_SHOTS):
        for _ in range(30):
            try:
                if near:
                    # a sweep that converges needs no Jacobian: try the values
                    # alone, then redo them with tangents at the same unknowns
                    values = _shoot_values(counts, inv_alpha, beta, ell)
                    if values is not None:
                        last = (*values, beta, ell)
                        if abs(values[1] - target) < f1_tol and abs(values[2]) < f2_tol:
                            return (True, *last, jac)
                shot = _shoot(counts, inv_alpha, beta, ell)
            except (OverflowError, ZeroDivisionError):
                shot = None
            if shot is not None:
                last = (*shot[:4], beta, ell)
                jac = j11, j12, j21, j22 = shot[4:]
                f1 = shot[1] - target
                f2 = shot[2]
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
                    return (True, *accepted, jac)
        else:
            break
        if abs(f1) < f1_tol and abs(f2) < f2_tol:
            return (True, *last, jac)
        near = abs(f1) < _NEAR_F1 * target and abs(f2) < _NEAR_F2 * f2_tol
        det = j11 * j22 - j12 * j21
        if not (det != 0.0 and math.isfinite(det)):
            break
        best, accepted = merit, last
        beta0, ell0 = beta, ell
        step_b = (f1 * j22 - f2 * j12) / det
        step_l = (j11 * f2 - j21 * f1) / det
        beta -= step_b
        ell -= step_l
    return (False, *last, jac)


def _binding_solve(
    counts: tuple[int, ...],
    spec: FairnessSpec,
    cfg: NetworkConfig,
    hint: "_Solution | None" = None,
) -> _Solution:
    """Distflow optimum on unit resistance, with the V_N on it and the shot that settled it.

    Every loop runs on the loads q = r p; cfg's r is never read.  One
    station takes the whole headroom, q_0 = v_limit - 1.  Else ``hint`` is
    the previous solve's return, typically one vehicle away.  Where every
    station occupied now was occupied in the hint's state, the shot starts
    from the hint's settled unknowns, log c moved in O(1) (`_warm_start`).
    Else, or where that formula leaves the doubles, the start keeps the
    hint's loads at the occupied stations, zero elsewhere, and takes one
    adjoint gradient on them (`_gradient_start`); without a hint it takes
    that gradient on the linearized closed form on the unit weights 2 (N -
    j).  One `_damped_shot` runs from the start, stepped first with the
    hint's Jacobian if it carries one.  Should it give up, or the start
    give it none (its start loads out of the floats included), a
    continuation runs in the headroom, v_t = 1 + t (v_limit - 1), from zero
    load, where g_j = N - j, at t = 1/8 (Deuflhard, ch. 5): each step a
    damped shot from the gradient start on the last converged loads, t's
    step doubling on success and halving on failure.

    Returns (loads, counts, V_N, (b_2, log c, b_N), Jacobian) with |slack|
    <= 1e-9 in squared-voltage units.  V_N is the settled sweep's, which
    has the bits of the adjoint pass on the loads, and no adjoint pass
    closes the solve; (b_2, log c, b_N) and the Jacobian are those of the
    shot that settled (None where one station or none is occupied).  The
    continuation's shots, like every hint-less one, carry no Jacobian in.
    Raises AllocationError: naming alpha (`_range_error`) where the closed
    form or the zero-load costate gives no start in the doubles; else
    naming the last (V_N - v_limit, costate ratio) pair and t, the
    continuation's reach (1 if it never ran), once t's step is below 2^-12
    or the settled loads miss the constraint.
    """
    n = cfg.n_stations
    v_limit = cfg.v_limit
    active = [j for j in range(n) if counts[j] > 0]
    if not active:
        return (0.0,) * n, counts, 1.0, None, None
    if n == 1:
        # V_1 = 1 + q_0 = v_limit
        q0 = v_limit - 1.0
        return (q0,), counts, 1.0 + q0, None, None
    inv_alpha = 1.0 / spec.alpha
    start = None if hint is None else _warm_start(counts, spec.alpha, hint)
    if start is None:
        if hint is None:
            q = _lin_split(counts, spec.alpha, cfg.w_headroom)
        else:
            q = [hint[0][j] if counts[j] > 0 else 0.0 for j in range(n)]
        v_n, grad = _root_voltage_and_gradient(q)
        start = _gradient_start(counts, active, inv_alpha, v_limit, q, v_n, grad)
    carried = None if hint is None else hint[4]
    shot = None if start is None else _damped_shot(counts, inv_alpha, v_limit, *start, carried)
    t = 1.0
    if shot is None or not shot[0]:
        q, v_n, grad = [0.0] * n, 1.0, [float(n - j) for j in range(n)]
        t, step = 0.0, 0.125
        while t < 1.0:
            t_next = min(t + step, 1.0)
            target = v_limit if t_next == 1.0 else 1.0 + t_next * (v_limit - 1.0)
            start = _gradient_start(counts, active, inv_alpha, target, q, v_n, grad)
            if start is None and t == 0.0:
                raise _range_error(spec.alpha)
            shot = None if start is None else _damped_shot(counts, inv_alpha, target, *start)
            if shot is not None and shot[0]:
                t, step = t_next, 2.0 * step
                q = shot[1]
                if t < 1.0:
                    v_n, grad = _root_voltage_and_gradient(q)
            elif step > 2.0**-12:
                step *= 0.5
            else:
                break
    if shot is not None and shot[0]:
        _, q, v_n, _, b_n, beta, ell, jac = shot
        if abs(cfg.w_limit - v_n * v_n) <= 1e-9:
            return tuple(q), counts, v_n, (beta, ell, b_n), jac
    v_n, f2 = (math.nan, math.nan) if shot is None else shot[2:4]
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
    settle, or a station whose power is not a normal double.
    """
    counts = _as_counts(x, cfg.n_stations)
    q = _binding_solve(counts, spec, cfg)[0]
    return PowerAllocation(p=_powers(counts, q, cfg.resistance, spec.alpha))
