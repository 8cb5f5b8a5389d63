"""Special functions behind the continuum voltage profile.

The squared-voltage profile of a long feeder converges to the solution of
the autonomous equation f''(t) * f(t) = k with f(0) = y0, f'(0) = w0 >= 0.
Every such solution is a shifted and scaled copy of the base solution f0,
which is defined implicitly through the imaginary error function

    erfi(x) = (2/sqrt(pi)) * int_0^x exp(u^2) du.

This module keeps the function zoo small: erfi, the inverse u_inverse of
x -> sqrt(2) * int_0^x exp(u^2) du, and the base solution
f0 = exp(u_inverse^2) with its inverse.
"""

from __future__ import annotations

import math
import sys

__all__ = [
    "ERFI_ARG_MAX",
    "erfi",
    "f0",
    "f0_inverse",
    "u_inverse",
]

_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)
_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)

# exp(x*x) overflows past this point, and erfi(x) ~ exp(x^2) / (x sqrt(pi)).
ERFI_ARG_MAX = math.sqrt(math.log(sys.float_info.max))

#: default residual tolerance for the scalar inversions in this module
RESIDUAL_TOL = 1e-13


def erfi(x: float) -> float:
    """Imaginary error function, (2/sqrt(pi)) * int_0^x exp(u^2) du.

    Evaluated by the Maclaurin series

        erfi(x) = (2/sqrt(pi)) * sum_n x^(2n+1) / (n! (2n+1)),

    whose terms are all positive, so there is no cancellation and the
    truncation error is bounded by the first omitted term.  The series is
    carried to machine precision for every representable result; arguments
    beyond ERFI_ARG_MAX (about 26.64) would overflow and raise instead.
    """
    if not math.isfinite(x):
        raise ValueError(f"erfi expects a finite argument, got {x!r}")
    if abs(x) > ERFI_ARG_MAX:
        raise OverflowError(
            f"erfi({x:g}) exceeds the largest double; |x| must stay below "
            f"{ERFI_ARG_MAX:.6f}"
        )
    ax = abs(x)
    x2 = ax * ax
    term = ax  # x^(2n+1) / n! at n = 0
    total = ax
    for n in range(1, 4000):
        term *= x2 / n
        contrib = term / (2 * n + 1)
        total += contrib
        if contrib <= 1e-17 * total:
            break
    else:  # pragma: no cover - series always terminates within the cap
        raise RuntimeError("erfi series failed to converge")
    return math.copysign(_TWO_OVER_SQRT_PI * total, x)


# largest x with a representable u_inverse(x); erfi(ERFI_ARG_MAX) is finite
_U_ARG_MAX = _SQRT_HALF_PI * erfi(ERFI_ARG_MAX)


def u_inverse(x: float, tol: float = RESIDUAL_TOL) -> float:
    """Solve sqrt(2) * int_0^U exp(u^2) du = x for U >= 0.

    Equivalently erfi(U) = x * sqrt(2/pi).  Safeguarded Newton iteration:
    steps that leave the current root bracket are replaced by bisection, so
    the quadratic convergence of Newton is kept without losing the global
    guarantee.  The iteration runs to machine precision; ``tol`` only sets
    the residual bound that is verified before returning.
    """
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"u_inverse expects x >= 0, got {x!r}")
    if x == 0.0:
        return 0.0
    if x > _U_ARG_MAX:
        raise OverflowError(f"u_inverse({x:g}) is not representable")

    def residual(u: float) -> float:
        return _SQRT_HALF_PI * erfi(u) - x

    # integrand >= 1, so U <= x / sqrt(2); that gives a free upper bracket
    hi = min(x / math.sqrt(2.0), ERFI_ARG_MAX)
    lo = 0.0
    if x <= 2.0:
        u = hi
    else:
        # asymptotically x ~ exp(U^2) / (sqrt(2) U); one fixed-point pass
        # on U^2 = log(sqrt(2) x) + log U seeds Newton within a few steps,
        # where starting from the upper bracket would crawl at O(1/U)
        lx = math.log(math.sqrt(2.0) * x)
        u = math.sqrt(lx)
        u = math.sqrt(lx + math.log(u))
        u = min(u, hi)
    for _ in range(200):
        g = residual(u)
        if g == 0.0:
            return u
        if g < 0.0:
            lo = u
        else:
            hi = u
        step = g / (math.sqrt(2.0) * math.exp(min(u * u, 709.0)))
        u_next = u - step
        if not lo < u_next < hi:
            u_next = 0.5 * (lo + hi)
        if abs(u_next - u) <= 2.0 * sys.float_info.epsilon * max(abs(u), 1e-300):
            u = u_next
            break
        u = u_next
    # a root pinned to the last ulp still moves the residual by the local
    # derivative, so grant that much on top of the requested bound
    ulp_slack = (
        8.0 * sys.float_info.epsilon * u * math.sqrt(2.0) * math.exp(min(u * u, 709.0))
    )
    if abs(residual(u)) > tol * max(1.0, x) + ulp_slack:
        raise ArithmeticError(f"u_inverse({x:g}) residual above {tol:g}")
    return u


def f0(x: float) -> float:
    """Base solution of f'' f = 1 with f(0) = 1, f'(0) = 0: exp(u_inverse(x)^2)."""
    return math.exp(u_inverse(x) ** 2)


def f0_inverse(y: float) -> float:
    """Inverse of f0 on y >= 1: sqrt(pi/2) * erfi(sqrt(log(y)))."""
    if not math.isfinite(y) or y < 1.0:
        raise ValueError(f"f0_inverse expects y >= 1, got {y!r}")
    return _SQRT_HALF_PI * erfi(math.sqrt(math.log(y)))
