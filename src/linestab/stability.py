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
    damped Newton iteration started at the continuum root, and
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

from .powerflow import NetworkConfig, distflow_sensitivity
from .specfun import erfi, f0

__all__ = [
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

_HALF_PI = 0.5 * math.pi


@dataclass(frozen=True)
class NewtonTrace:
    """Full record of one Newton run for the scaled Distflow threshold.

    iterates[0] is the Newton start (the continuum root a0, pulled just
    inside the sensitivity window when it lands past it), iterates[-1] the
    accepted root; residuals[j] = V_N(iterates[j]) - 1/(1 - delta), same
    length.  The window flag reports whether every iterate stayed inside
    the open interval (0, 2N/(N-1)) on which the sensitivity recursion is
    defined.
    """

    a0: float
    iterates: tuple[float, ...]
    residuals: tuple[float, ...]
    a_final: float
    iterations: int
    converged: bool
    in_window: bool


class NewtonFailure(RuntimeError):
    """Newton did not converge; carries the partial trace."""

    def __init__(self, message: str, trace: NewtonTrace):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class ConvergenceReport:
    """One row of the discrete-to-continuum comparison at fixed a."""

    n: int
    a: float
    v_discrete: float
    v_continuum: float
    abs_err: float
    rel_err: float


def _validate_delta(delta: float) -> None:
    if not (math.isfinite(delta) and 0.0 < delta <= 0.5):
        raise ValueError(f"delta must lie in (0, 0.5], got {delta!r}")


def _validate_r(r: float) -> None:
    if not (math.isfinite(r) and r > 0.0):
        raise ValueError(f"resistance must be positive, got {r!r}")


def _log_v_limit(delta: float) -> float:
    # log(1 / (1 - delta)) without forming the quotient; accurate for tiny delta
    return -math.log1p(-delta)


def lambda_lin(cfg: NetworkConfig) -> float:
    """Exact per-station critical arrival rate, linearized model.

    The uniform allocation p = lambda exhausts the squared-voltage
    headroom when r lambda N (N + 1) equals it.
    """
    n = cfg.n_stations
    return cfg.w_headroom / (cfg.resistance * n * (n + 1))


def lambda_lin_critical(r: float, delta: float) -> float:
    """Scaled large-N limit of the linearized threshold, headroom / r."""
    _validate_r(r)
    _validate_delta(delta)
    return delta * (2.0 - delta) / ((1.0 - delta) ** 2 * r)


def lambda_dist_critical(r: float, delta: float) -> float:
    """Scaled large-N limit of the Distflow threshold.

    This is the root of the continuum boundary problem: the a with
    f0(sqrt(a)) = 1/(1 - delta), i.e. (pi/2) erfi(sqrt(log 1/(1-delta)))^2,
    divided by r.
    """
    _validate_r(r)
    _validate_delta(delta)
    return _HALF_PI * erfi(math.sqrt(_log_v_limit(delta))) ** 2 / r


def ratio_P(delta: float) -> float:
    """Distflow-to-linearized ratio of the scaled thresholds.

    Depends on delta only:

        P = 2 (1 - delta)^2 (int_0^y exp(u^2) du)^2 / (delta (2 - delta)),
        y = sqrt(log(1 / (1 - delta))).

    Strictly decreasing on (0, 0.5], tending to 1 as delta -> 0.
    """
    _validate_delta(delta)
    y = math.sqrt(_log_v_limit(delta))
    integral = 0.5 * math.sqrt(math.pi) * erfi(y)
    return 2.0 * (1.0 - delta) ** 2 * integral * integral / (delta * (2.0 - delta))


def newton_solve_a(
    n: int, delta: float, stop_tol: float = 1e-10, max_iter: int = 50
) -> NewtonTrace:
    """Solve V_N(a) = 1/(1 - delta) for the scaled uniform load a.

    Newton iteration on the forward recursion, derivative from the joint
    sensitivity track:

        a_{j+1} = a_j - (V_N(a_j) - 1/(1-delta)) / (Y_N(a_j) / N^2).

    Started at the continuum root a0 = (pi/2) erfi(sqrt(log 1/(1-delta)))^2,
    which already carries the right large-N behaviour, so a handful of
    steps suffice for moderate N.  Not for every N: the literal recursion's
    rounding error in V_N grows to about 3e-9 at N = 10^5, the iteration
    chatters at that floor, and newton_solve_a(100000, 0.1) raises
    NewtonFailure after max_iter = 50 steps (ROADMAP item 1 holds the fix,
    a bracketed, safeguarded Newton).  Steps that would leave the window
    (0, 2N/(N-1)) are halved until they land inside; the iteration stops
    when the relative step falls below stop_tol.

    Near delta = 1/2 the cap 1/(1 - delta) can sit beyond the top of the
    window for a large feeder; the iteration then stalls against the edge
    and raises NewtonFailure rather than accepting the pinned iterate.
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n!r}")
    _validate_delta(delta)
    if not (0.0 < stop_tol < 1.0):
        raise ValueError(f"stop_tol must lie in (0, 1), got {stop_tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter!r}")

    target = 1.0 / (1.0 - delta)
    upper = 2.0 * n / (n - 1.0)
    a0 = _HALF_PI * erfi(math.sqrt(_log_v_limit(delta))) ** 2
    # the discrete profile majorizes the continuum one, so the root sits
    # below a0; still, for delta near 1/2 and n >= 8 the continuum value
    # pokes past the sensitivity window, and the run must start just inside
    a_start = min(a0, (1.0 - 1e-6) * upper)

    iterates = [a_start]
    residuals: list[float] = []
    a_cur = a_start
    converged = False
    for _ in range(max_iter):
        v_n, y_n = distflow_sensitivity(a_cur, n)
        resid = v_n - target
        residuals.append(resid)
        if y_n <= 0.0:
            raise ArithmeticError(
                f"sensitivity Y_N = {y_n:g} lost positivity at a = {a_cur:g}, n = {n}"
            )
        step = resid / (y_n / (n * n))
        a_next = a_cur - step
        halvings = 0
        while not 0.0 < a_next < upper:
            step *= 0.5
            a_next = a_cur - step
            halvings += 1
            if halvings > 200:  # pragma: no cover - cannot trigger from a valid start
                raise NewtonFailure(
                    "damping failed to keep the iterate inside the window",
                    _make_trace(a0, iterates, residuals, upper, converged=False),
                )
        iterates.append(a_next)
        done = abs(a_next - a_cur) / abs(a_cur) < stop_tol
        a_cur = a_next
        if done:
            converged = True
            break
    trace_residual = distflow_sensitivity(a_cur, n)[0] - target
    residuals.append(trace_residual)
    if converged and abs(trace_residual) > 1e-6 * target:
        # the step criterion can fire with the iterate pinned against the
        # window edge when the cap is unreachable inside it (delta near 1/2
        # on a large feeder); report that instead of returning a bogus root
        raise NewtonFailure(
            f"iteration stalled at the sensitivity window edge "
            f"(n = {n}, delta = {delta:g}); the drop cap is out of reach",
            _make_trace(a0, iterates, residuals, upper, converged=False),
        )
    trace = _make_trace(a0, iterates, residuals, upper, converged)
    if not converged:
        raise NewtonFailure(
            f"no convergence within {max_iter} iterations (n = {n}, delta = {delta:g})",
            trace,
        )
    return trace


def _make_trace(
    a0: float,
    iterates: list[float],
    residuals: list[float],
    upper: float,
    converged: bool,
) -> NewtonTrace:
    return NewtonTrace(
        a0=a0,
        iterates=tuple(iterates),
        residuals=tuple(residuals),
        a_final=iterates[-1],
        iterations=len(iterates) - 1,
        converged=converged,
        in_window=all(0.0 < a < upper for a in iterates),
    )


def lambda_dist(cfg: NetworkConfig, stop_tol: float = 1e-10) -> float:
    """Exact per-station critical arrival rate, full Distflow model.

    a_bar / (r N^2) with a_bar from `newton_solve_a`; requires N >= 2
    (the N = 1 threshold is the same under both models).
    """
    trace = newton_solve_a(cfg.n_stations, cfg.delta, stop_tol=stop_tol)
    n = cfg.n_stations
    return trace.a_final / (cfg.resistance * n * n)


def convergence_report(a: float, n_values: "list[int] | tuple[int, ...]") -> list[ConvergenceReport]:
    """Compare discrete V_N(a) against the continuum value V(1) = f0(sqrt(a)).

    One row per feeder size; abs_err = |V(1) - V_N|, rel_err = abs_err / V_N.
    The gap shrinks like 1/N, roughly a factor ten per decade of N.
    """
    if not (math.isfinite(a) and a >= 0.0):
        raise ValueError(f"a must be nonnegative, got {a!r}")
    v_cont = f0(math.sqrt(a))
    rows = []
    for n in n_values:
        if not isinstance(n, int) or n < 2:
            raise ValueError(f"feeder sizes must be integers >= 2, got {n!r}")
        v_disc = distflow_sensitivity(a, n)[0]
        abs_err = abs(v_cont - v_disc)
        rows.append(
            ConvergenceReport(
                n=n,
                a=a,
                v_discrete=v_disc,
                v_continuum=v_cont,
                abs_err=abs_err,
                rel_err=abs_err / v_disc,
            )
        )
    return rows
