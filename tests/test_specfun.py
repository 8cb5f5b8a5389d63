"""Special-function layer: the erfi series, its inversions, and f0."""

import math

import pytest
from hypothesis import given, strategies as st

from linestab.specfun import (
    ERFI_ARG_MAX,
    erfi,
    f0,
    u_inverse,
)
from oracles import erfi_quadrature, f0_inverse

SQRT_HALF_PI = math.sqrt(0.5 * math.pi)


class TestErfi:
    def test_matches_quadrature(self):
        for i in range(61):
            x = 0.05 * i  # [0, 3]
            want = erfi_quadrature(x)
            got = erfi(x)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-14), f"x={x}"

    def test_matches_quadrature_moderately_large(self):
        for x in (4.0, 5.5, 7.0):
            assert erfi(x) == pytest.approx(erfi_quadrature(x), rel=1e-10)

    def test_odd_function(self):
        for x in (0.3, 1.7, 9.0):
            assert erfi(-x) == -erfi(x)

    def test_zero(self):
        assert erfi(0.0) == 0.0

    def test_largest_argument_is_finite(self):
        assert math.isfinite(erfi(ERFI_ARG_MAX))

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            erfi(ERFI_ARG_MAX * 1.0000001)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            erfi(math.nan)
        with pytest.raises(ValueError):
            erfi(math.inf)

    @given(st.floats(min_value=0.0, max_value=10.0), st.floats(min_value=0.0, max_value=10.0))
    def test_monotone(self, x, y):
        lo, hi = sorted((x, y))
        assert erfi(lo) <= erfi(hi)

    @given(st.floats(min_value=0.0, max_value=20.0))
    def test_dominates_linear_part(self, x):
        # exp(u^2) >= 1 on the integration range
        assert erfi(x) >= 2.0 / math.sqrt(math.pi) * x - 1e-15


class TestUInverse:
    def test_round_trip(self):
        for i in range(1, 101):
            u = 0.05 * i  # (0, 5]
            x = SQRT_HALF_PI * erfi(u)
            assert u_inverse(x) == pytest.approx(u, rel=1e-12), f"u={u}"

    def test_zero(self):
        assert u_inverse(0.0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            u_inverse(-0.5)

    def test_overflow_guard(self):
        # the representable ceiling is sqrt(pi/2)*erfi(ERFI_ARG_MAX) ~ 4.8e306
        with pytest.raises(OverflowError):
            u_inverse(5e306)

    @given(st.floats(min_value=1e-3, max_value=100.0))
    def test_residual_definition(self, x):
        u = u_inverse(x)
        assert SQRT_HALF_PI * erfi(u) == pytest.approx(x, rel=1e-12)

    @given(st.floats(min_value=0.0, max_value=50.0))
    def test_below_linear_bound(self, x):
        # integrand >= 1 forces U <= x / sqrt(2)
        assert u_inverse(x) <= x / math.sqrt(2.0) + 1e-15


class TestF0:
    def test_anchor(self):
        assert f0(0.0) == 1.0

    def test_inverse_round_trip_forward(self):
        for i in range(81):
            x = 0.05 * i  # [0, 4]
            assert f0_inverse(f0(x)) == pytest.approx(x, rel=1e-11, abs=1e-12)

    def test_inverse_round_trip_backward(self):
        y = 1.0
        while y <= 50.0:
            assert f0(f0_inverse(y)) == pytest.approx(y, rel=1e-11)
            y *= 1.37

    def test_monotone_increasing(self):
        prev = f0(0.0)
        for i in range(1, 60):
            cur = f0(0.1 * i)
            assert cur > prev
            prev = cur

    def test_f0_satisfies_ode(self):
        # rounding in the second difference scales like eps * f^2 / h^2,
        # and f reaches ~7 at x = 2.9, so h must not be too small
        h = 5e-4
        for i in range(1, 30):
            x = 0.1 * i
            f2 = (f0(x + h) - 2.0 * f0(x) + f0(x - h)) / (h * h)
            assert f2 * f0(x) == pytest.approx(1.0, abs=1e-6)

    def test_f0_inverse_rejects_below_one(self):
        with pytest.raises(ValueError):
            f0_inverse(0.999)
