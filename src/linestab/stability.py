"""Stability thresholds for the line feeder under both load-flow models.

A feeder with N stations, per-line resistance r and drop tolerance delta
can sustain a per-station arrival rate lambda exactly when the uniform
allocation p = lambda stays feasible.  That pins four quantities:

  * lambda under the linearized model, explicit:
        lambda_lin = headroom / (r N (N + 1)),   headroom = w_limit - 1
  * its scaled large-N limit lambda_lin_critical = headroom / r
    (N^2 lambda_lin converges to it),
  * lambda under full Distflow, through the root a_bar of
        V_N(a) = 1 / (1 - delta)
    along the uniform one-parameter family a = r N^2 lambda, found by a
    bracketed, safeguarded Newton iteration started at the continuum
    root, and
  * its scaled limit lambda_dist_critical = (pi / 2 r) erfi(sqrt(log
    (1/(1-delta))))^2, the a solving the continuum equation exactly.

The ratio of the two scaled limits is a function of delta alone,
evaluated here as ratio_P; it is strictly decreasing and tends to 1 as
delta -> 0.  The continuum voltage profile itself is f0(t sqrt(a)), which
convergence_report compares against the discrete recursion on a grid of
feeder sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .powerflow import (
    NetworkConfig,
    _check_delta,
    _check_resistance,
    _uniform_root_voltage,
    _w_headroom,
    distflow_sensitivity,
)
from .specfun import erfi, f0

__all__ = [
    "ITERATION_CAP",
    "STEP_TOL",
    "ConvergenceReport",
    "NewtonFailure",
    "NewtonTrace",
    "convergence_report",
    "lambda_dist",
    "lambda_dist_critical",
    "lambda_lin",
    "lambda_lin_critical",
    "newton_solve_a",
    "ratio_P",
]

# `newton_solve_a` accepts a root once its relative step falls below
# STEP_TOL, and raises NewtonFailure after ITERATION_CAP iterations
STEP_TOL = 1e-10
ITERATION_CAP = 50


@dataclass(frozen=True)
class NewtonTrace:
    """Full record of one Newton run for the scaled Distflow threshold.

    iterates[0] is the Newton start (the continuum root a0, capped just
    below 2N/(N-1) for N >= 2), iterates[-1] the accepted root;
    residuals[j] = V_N(iterates[j]) - 1/(1 - delta), same length.  When the iteration
    stops at the rounding floor, the last entry repeats the earlier
    iterate with the smallest |residual|, which is the one accepted.
    `newton_solve_a` returns a trace only for an accepted root; a failed
    run's trace rides on its NewtonFailure.
    """

    a0: float
    iterates: tuple[float, ...]
    residuals: tuple[float, ...]
    a_final: float
    iterations: int


class NewtonFailure(RuntimeError):
    """Newton did not converge; carries the partial trace."""

    def __init__(self, message: str, trace: NewtonTrace):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class ConvergenceReport:
    """One row of the discrete-to-continuum comparison at fixed a."""

    n: int
    v_discrete: float
    v_continuum: float
    abs_err: float
    rel_err: float


def _log_v_limit(delta: float) -> float:
    # log(1 / (1 - delta)) without forming the quotient; accurate for tiny delta
    return -math.log1p(-delta)


def _continuum_root(delta: float) -> float:
    # a_inf(delta), where the continuum profile f0(sqrt(a)) meets the cap
    return 0.5 * math.pi * erfi(math.sqrt(_log_v_limit(delta))) ** 2


def lambda_lin(cfg: NetworkConfig) -> float:
    """Exact per-station critical arrival rate, linearized model.

    The uniform allocation p = lambda exhausts the squared-voltage
    headroom when r lambda N (N + 1) equals it.
    """
    n = cfg.n_stations
    return cfg.w_headroom / (cfg.resistance * n * (n + 1))


def lambda_lin_critical(r: float, delta: float) -> float:
    """Scaled large-N limit of the linearized threshold, headroom / r."""
    _check_resistance(r)
    _check_delta(delta)
    return _w_headroom(delta) / r


def lambda_dist_critical(r: float, delta: float) -> float:
    """Scaled large-N limit of the Distflow threshold.

    This is the root of the continuum boundary problem: the a with
    f0(sqrt(a)) = 1/(1 - delta), i.e. (pi/2) erfi(sqrt(log 1/(1-delta)))^2,
    divided by r.
    """
    _check_resistance(r)
    _check_delta(delta)
    return _continuum_root(delta) / r


def ratio_P(delta: float) -> float:
    """Distflow-to-linearized ratio of the scaled thresholds.

    Depends on delta only:

        P = 2 (1 - delta)^2 (int_0^y exp(u^2) du)^2 / (delta (2 - delta)),
        y = sqrt(log(1 / (1 - delta))).

    Strictly decreasing on (0, 0.5], tending to 1 as delta -> 0.
    """
    _check_delta(delta)
    y = math.sqrt(_log_v_limit(delta))
    integral = 0.5 * math.sqrt(math.pi) * erfi(y)
    return 2.0 * (1.0 - delta) ** 2 * integral * integral / (delta * (2.0 - delta))


def newton_solve_a(n: int, delta: float) -> NewtonTrace:
    """Solve V_N(a) = 1/(1 - delta) for the scaled uniform load a.

    Bracketed, safeguarded Newton iteration on the forward recursion
    (`rtsafe`, Press et al., Numerical Recipes, section 9.4), derivative
    from the joint sensitivity track:

        a_{j+1} = a_j - (V_N(a_j) - 1/(1-delta)) / (Y_N(a_j) / N^2).

    V_N(a) is finite and increasing on all of a >= 0 and V_N(0) = 1, so the
    residual signs keep a bracket [lo, hi] around the root, with lo = 0 at
    the start and hi unbounded until a residual comes out positive.  A
    Newton step is kept when it lands strictly inside the bracket;
    otherwise the iteration bisects, or doubles a while hi is unbounded.

    The start is the continuum root a0 = (pi/2) erfi(sqrt(log 1/(1-delta)))^2,
    capped just below 2N/(N-1) for N >= 2; it already carries the right
    large-N behaviour.  At N = 1, V_1 = 1 + a is linear, and the first
    Newton step lands on a = delta / (1 - delta).  V_N is concave in a, so
    in exact arithmetic the Newton steps approach the root from below and
    never leave the bracket; the safeguards act on rounding noise and on
    roots past the capped start.
    Each Newton iterate costs one `distflow_sensitivity` pass.
    The iteration stops when the relative step falls below STEP_TOL, or
    at the recursion's rounding floor: when |residual| has not fallen for
    two evaluations, or a finite bracket is at most 4 ulps wide.  The
    floor stop accepts the evaluated iterate with the smallest |residual|.
    At large N the rounded V_N(a) is a staircase; an exact repeat of the
    previous residual means Newton is walking one flat step of it toward
    the edge, and does not count as a residual that failed to fall.
    A run that stops on the step, or at ITERATION_CAP, evaluates the
    residual of its last iterate with the value-only pass
    `_uniform_root_voltage`, which gives the same V_N without Y_N.

    The answer is as accurate as the literal recursion allows, which is
    less than the 15 digits the CLI prints.  Against an mpmath root, the
    relative error of a_final is about 1e-13 at N = 100, 1e-11 at N = 1e3,
    1.2e-7 at N = 3e4 with delta = 0.01, and 3.4e-6 at N = 1e5 with
    delta = 0.01; larger delta does better.

    Raises NewtonFailure after ITERATION_CAP iterations, or when the
    accepted residual plus the cap's rounding exceeds 1e-6 of the headroom
    delta/(1 - delta), the rise V_N makes over V_0 = 1; at tiny delta the
    rounding of V_N or of the cap itself lies past that bound, and the
    threshold fails there rather than print a wrong root.
    """
    _check_delta(delta)

    target = 1.0 / (1.0 - delta)
    a0 = _continuum_root(delta)
    # the discrete profile majorizes the continuum one, so the root sits
    # below a0; the cap only bites for delta near 1/2, and moving it would
    # move the digits of every threshold reported there.  A bad n is left
    # to `distflow_sensitivity`
    a_start = min(a0, (1.0 - 1e-6) * (2.0 * n / (n - 1.0))) if n >= 2 else a0

    iterates = [a_start]
    residuals: list[float] = []
    a_cur = a_start
    lo, hi = 0.0, math.inf
    best_a, best_resid, prev_resid, stale = a_start, math.inf, math.nan, 0
    converged = False
    for _ in range(ITERATION_CAP):
        v_n, y_n = distflow_sensitivity(a_cur, n)
        resid = v_n - target
        residuals.append(resid)
        if y_n <= 0.0:
            raise ArithmeticError(
                f"sensitivity Y_N = {y_n:g} lost positivity at a = {a_cur:g}, n = {n}"
            )
        if resid < 0.0:
            lo = a_cur
        elif resid > 0.0:
            hi = a_cur
        if abs(resid) < abs(best_resid):
            best_a, best_resid, stale = a_cur, resid, 0
        elif resid != prev_resid:
            # a repeat of the previous residual is a flat tread of the
            # rounded V_N(a): Newton is still walking toward its edge
            stale += 1
        prev_resid = resid
        if stale >= 2 or (hi < math.inf and hi - lo <= 4.0 * math.ulp(hi)):
            # rounding floor: accept the best evaluated iterate as it stands
            iterates.append(best_a)
            residuals.append(best_resid)
            converged = True
            break
        a_next = a_cur - resid / (y_n / (n * n))
        rel_step = abs(a_next - a_cur) / abs(a_cur)
        # a zero residual gives a zero step and stops below; a step under
        # STEP_TOL is accepted as the root wherever it lands
        if rel_step >= STEP_TOL and not lo < a_next < hi:
            a_next = 2.0 * a_cur if hi == math.inf else 0.5 * (lo + hi)
            rel_step = abs(a_next - a_cur) / abs(a_cur)
        iterates.append(a_next)
        a_cur = a_next
        if rel_step < STEP_TOL:
            converged = True
            break
    if len(residuals) < len(iterates):
        # the accepted iterate's residual needs no derivative
        residuals.append(_uniform_root_voltage(a_cur, n) - target)
    trace = NewtonTrace(
        a0=a0,
        iterates=tuple(iterates),
        residuals=tuple(residuals),
        a_final=iterates[-1],
        iterations=len(iterates) - 1,
    )
    if not converged:
        raise NewtonFailure(
            f"no convergence within {ITERATION_CAP} iterations (n = {n}, delta = {delta:g})",
            trace,
        )
    headroom = delta / (1.0 - delta)
    cap_error = abs((target - 1.0) - headroom)
    if abs(residuals[-1]) + cap_error > 1e-6 * headroom:
        raise NewtonFailure(
            f"accepted residual {residuals[-1]:.3g} plus the cap's rounding "
            f"{cap_error:.3g} exceeds 1e-6 of the headroom delta/(1 - delta) = "
            f"{headroom:.3g} (n = {n}, delta = {delta:g})",
            trace,
        )
    return trace


def lambda_dist(cfg: NetworkConfig) -> float:
    """Exact per-station critical arrival rate, full Distflow model.

    a_bar / (r N^2) with a_bar from `newton_solve_a`, run to its fixed
    STEP_TOL and ITERATION_CAP.  At N = 1, V_1 = 1 + a gives a_bar =
    delta / (1 - delta), below the linearized
    delta (2 - delta) / (2 (1 - delta)^2).
    """
    trace = newton_solve_a(cfg.n_stations, cfg.delta)
    n = cfg.n_stations
    return trace.a_final / (cfg.resistance * n * n)


def convergence_report(a: float, n_values: "list[int] | tuple[int, ...]") -> list[ConvergenceReport]:
    """Compare discrete V_N(a) against the continuum value V(1) = f0(sqrt(a)).

    One row per feeder size; abs_err = |V(1) - V_N|, rel_err = abs_err / V_N.
    V_N comes from the value-only pass, with the bits of
    `distflow_sensitivity(a, N)[0]`.
    The gap shrinks like 1/N, roughly a factor ten per decade of N.
    """
    if not (math.isfinite(a) and a >= 0.0):
        raise ValueError(f"a must be finite and nonnegative, got {a!r}")
    v_cont = f0(math.sqrt(a))
    rows = []
    for n in n_values:
        v_disc = _uniform_root_voltage(a, n)
        abs_err = abs(v_cont - v_disc)
        rows.append(
            ConvergenceReport(
                n=n,
                v_discrete=v_disc,
                v_continuum=v_cont,
                abs_err=abs_err,
                rel_err=abs_err / v_disc,
            )
        )
    return rows
