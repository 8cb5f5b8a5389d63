"""Critical arrival rates: Newton recovery, scaled limits, and the ratio
between the two load-flow models.
"""

import math

import pytest
from hypothesis import given, strategies as st

from linestab import stability
from linestab.powerflow import NetworkConfig, PowerModel, distflow_sensitivity, voltage_slack
from linestab.specfun import erfi, f0
from linestab.stability import (
    ConvergenceReport,
    NewtonFailure,
    NewtonTrace,
    convergence_report,
    lambda_dist,
    lambda_dist_critical,
    lambda_lin,
    lambda_lin_critical,
    newton_solve_a,
    ratio_P,
)
from oracles import continuum_voltage, threshold_root_mp


class TestLambdaLin:
    def test_uniform_allocation_at_threshold_is_critical(self, rng):
        for _ in range(20):
            n = rng.randint(1, 40)
            r = rng.uniform(0.1, 3.0)
            delta = rng.uniform(0.01, 0.5)
            cfg = NetworkConfig(n, r, delta)
            lam = lambda_lin(cfg)
            # at the exact threshold the slack is zero up to rounding (either
            # sign); a relative nudge flips feasibility cleanly
            slack = voltage_slack([lam] * n, cfg, PowerModel.LINDIST)
            assert abs(slack) <= 1e-12 * cfg.w_headroom
            assert voltage_slack([lam * (1.0 - 1e-9)] * n, cfg, PowerModel.LINDIST) >= 0.0
            assert voltage_slack([lam * (1.0 + 1e-9)] * n, cfg, PowerModel.LINDIST) < 0.0

    def test_monotone_in_parameters(self):
        base = NetworkConfig(10, 1.0, 0.1)
        assert lambda_lin(NetworkConfig(11, 1.0, 0.1)) < lambda_lin(base)
        assert lambda_lin(NetworkConfig(10, 2.0, 0.1)) < lambda_lin(base)
        assert lambda_lin(NetworkConfig(10, 1.0, 0.2)) > lambda_lin(base)

    def test_scaled_limit(self, rng):
        for _ in range(10):
            r = rng.uniform(0.1, 3.0)
            delta = rng.uniform(0.01, 0.5)
            crit = lambda_lin_critical(r, delta)
            # n (n + 1) lambda_n is exactly the limit; n^2 lambda_n approaches it
            for n in (10, 100, 1000):
                cfg = NetworkConfig(n, r, delta)
                assert n * (n + 1) * lambda_lin(cfg) == pytest.approx(crit, rel=1e-13)
                gap = abs(n * n * lambda_lin(cfg) - crit) / crit
                assert gap == pytest.approx(1.0 / (n + 1), rel=1e-9)

    def test_critical_validation(self):
        with pytest.raises(ValueError):
            lambda_lin_critical(0.0, 0.1)
        with pytest.raises(ValueError):
            lambda_lin_critical(1.0, 0.6)


class TestNewton:
    def test_recovers_forward_root(self, rng):
        # set the drop so that a known a is the exact root, then ask for it back
        for _ in range(15):
            n = rng.randint(2, 60)
            a_true = rng.uniform(0.05, 1.8)
            v_target, _ = distflow_sensitivity(a_true, n)
            delta = 1.0 - 1.0 / v_target
            trace = newton_solve_a(n, delta)
            assert trace.a_final == pytest.approx(a_true, rel=1e-9)

    def test_trace_is_internally_consistent(self):
        n, delta = 25, 0.3
        trace = newton_solve_a(n, delta)
        assert trace.iterates[0] == trace.a0
        assert trace.iterates[-1] == trace.a_final
        assert trace.iterations == len(trace.iterates) - 1
        assert len(trace.residuals) == len(trace.iterates)
        target = 1.0 / (1.0 - delta)
        for a, resid in zip(trace.iterates, trace.residuals):
            want = distflow_sensitivity(a, n)[0] - target
            assert resid == pytest.approx(want, rel=1e-12, abs=1e-15)
        assert abs(trace.residuals[-1]) <= 1e-8

    def test_continuum_start_lands_in_window(self, rng):
        for _ in range(10):
            n = rng.randint(2, 1000)
            delta = rng.uniform(0.001, 0.45)
            trace = newton_solve_a(n, delta)
            assert trace.iterates[0] == trace.a0
            assert 0.0 < trace.a0 < 2.0 * n / (n - 1.0)
            # the continuum start is good: a handful of steps regardless of n
            assert trace.iterations <= 8

    def test_start_clamped_when_continuum_root_pokes_past_window(self):
        # n = 10, delta = 0.5: a0 = 2.30 > 2n/(n-1) = 2.22, where the start
        # is capped; the root lies below the cap and must still be reached
        trace = newton_solve_a(10, 0.5)
        upper = 2.0 * 10 / 9.0
        assert trace.a0 > upper
        assert trace.iterates[0] < upper
        assert abs(trace.residuals[-1]) <= 1e-10

    def test_half_delta_long_feeder_lands_on_the_cap(self):
        # n = 400, delta = 1/2: the root 2.29 lies well past 2n/(n-1) =
        # 2.005, where the start is capped; nothing bounds the iterates there
        trace = newton_solve_a(400, 0.5)
        assert trace.a_final > 2.0 * 400 / 399.0
        assert abs(trace.residuals[-1]) <= 1e-12
        cfg = NetworkConfig(400, 1.0, 0.5)
        lam = lambda_dist(cfg)
        slack = voltage_slack([lam] * 400, cfg, PowerModel.DISTFLOW)
        assert abs(slack) <= 1e-10 * cfg.w_limit
        assert voltage_slack([lam * (1.0 + 1e-8)] * 400, cfg, PowerModel.DISTFLOW) < 0.0

    def test_failure_carries_partial_trace(self, monkeypatch):
        monkeypatch.setattr(stability, "ITERATION_CAP", 1)
        with pytest.raises(NewtonFailure) as err:
            newton_solve_a(10, 0.3)
        trace = err.value.trace
        assert isinstance(trace, NewtonTrace)
        assert trace.iterations == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0, delta=0.1),
            dict(n=10.0, delta=0.1),
            dict(n=10, delta=0.0),
            dict(n=10, delta=0.51),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            newton_solve_a(**kwargs)

    @pytest.mark.parametrize("delta", [0.01, 0.1, 0.3, 0.5])
    def test_one_station_lands_on_the_closed_form(self, delta):
        # V_1 = 1 + a is linear: the uncapped start's first step is the root
        trace = newton_solve_a(1, delta)
        assert trace.iterates[0] == trace.a0
        assert trace.a_final == pytest.approx(delta / (1.0 - delta), rel=2e-15)
        assert trace.iterations <= 2


class TestThresholdRoot:
    """newton_solve_a against the mpmath root, and on its whole domain."""

    def test_half_delta_matches_mpmath(self):
        a_true = threshold_root_mp(400, 0.5)
        assert a_true == pytest.approx(2.2948521361532439, rel=1e-15)
        assert newton_solve_a(400, 0.5).a_final == pytest.approx(a_true, rel=1e-11)

    def test_rounding_floor_is_reached_not_chattered_at(self):
        # the literal recursion's V_N is only good to ~5e-10 at N = 3e4, and
        # the root it gives to ~1.2e-7; the iteration must stop there
        trace = newton_solve_a(30_000, 0.01)
        assert trace.a_final == pytest.approx(threshold_root_mp(30_000, 0.01), rel=2e-7)

    def test_walks_a_flat_step_of_the_rounded_staircase(self):
        # at N = 1e4 the rounded V_N(a) is constant over ~5e-10 relative in
        # a around a = 0.01; Newton must walk that step to the exact root
        # of the rounded map rather than stop on its repeated residual
        v = distflow_sensitivity(0.01, 10_000)[0]
        trace = newton_solve_a(10_000, 1.0 - 1.0 / v)
        assert trace.residuals[-1] == 0.0
        assert trace.a_final == pytest.approx(0.01, rel=1e-10)

    def test_largest_feeder_converges(self):
        trace = newton_solve_a(100_000, 0.1)
        assert abs(trace.residuals[-1]) <= 1e-10

    @given(
        log_n=st.floats(math.log(2.0), math.log(3000.0)),
        delta=st.floats(0.005, 0.5),
    )
    def test_root_is_a_sign_change_on_the_cap(self, log_n, delta):
        n = max(2, min(3000, round(math.exp(log_n))))
        target = 1.0 / (1.0 - delta)
        trace = newton_solve_a(n, delta)
        a = trace.a_final
        assert abs(distflow_sensitivity(a, n)[0] - target) <= 1e-9
        assert distflow_sensitivity(a * (1.0 - 1e-8), n)[0] < target
        assert distflow_sensitivity(a * (1.0 + 1e-8), n)[0] > target


class TestSafeguards:
    """The bracket and the floor stop, on synthetic maps in place of V_N."""

    @staticmethod
    def _solve(monkeypatch, fake, n, delta):
        monkeypatch.setattr(stability, "distflow_sensitivity", fake)
        return newton_solve_a(n, delta)

    def test_bisects_where_plain_newton_diverges(self, monkeypatch):
        # V = 2 + atan(3 (a - 1)) / 10 hits the delta = 1/2 cap at a = 1;
        # from the capped start 2.22 a plain Newton step lands at a < 0
        def fake(a, n):
            x = 3.0 * (a - 1.0)
            return 2.0 + 0.1 * math.atan(x), n * n * 0.3 / (1.0 + x * x)

        trace = self._solve(monkeypatch, fake, 10, 0.5)
        assert trace.a_final == pytest.approx(1.0, rel=1e-12)
        assert all(0.0 < a <= trace.iterates[0] for a in trace.iterates)

    def test_floor_stop_accepts_the_smallest_residual(self, monkeypatch):
        # a staircase that steps over the cap: no a has a residual below
        # 3e-8, and bisection alone would run on to a 1e-10 relative step
        target = 1.0 / 0.9
        r0, width, height = 0.2, 1e-6, 1e-7

        def fake(a, n):
            k = math.floor((a - r0) / width)
            return target + (k + 0.3) * height, n * n * height / width

        trace = self._solve(monkeypatch, fake, 10, 0.1)
        assert trace.iterations <= 8
        best = min(trace.residuals[:-1], key=abs)
        assert trace.residuals[-1] == best
        assert trace.a_final == trace.iterates[trace.residuals.index(best)]


    def test_tolerance_below_the_floor_ends_on_the_best_residual(self, monkeypatch):
        # no step can fall below 1e-300 relative, so only the floor stop
        # (here the 4-ulp bracket) ends the run
        monkeypatch.setattr(stability, "STEP_TOL", 1e-300)
        trace = newton_solve_a(50, 0.2)
        assert abs(trace.residuals[-1]) == min(abs(r) for r in trace.residuals)


class TestLambdaDist:
    def test_uniform_allocation_at_threshold_is_critical(self, rng):
        # delta up to 0.45 keeps this test's draws; delta up to 0.5 is
        # covered by TestThresholdRoot
        for _ in range(10):
            n = rng.randint(2, 30)
            r = rng.uniform(0.1, 3.0)
            delta = rng.uniform(0.02, 0.45)
            cfg = NetworkConfig(n, r, delta)
            lam = lambda_dist(cfg)
            slack = voltage_slack([lam] * n, cfg, PowerModel.DISTFLOW)
            assert abs(slack) <= 1e-8 * cfg.w_limit
            assert voltage_slack([lam * 0.999] * n, cfg, PowerModel.DISTFLOW) >= 0.0
            assert voltage_slack([lam * 1.001] * n, cfg, PowerModel.DISTFLOW) < 0.0

    def test_below_linearized_threshold(self):
        cases = [
            (n, delta, r)
            for n in (2, 5, 10, 50)
            for delta in (0.05, 0.2, 0.45)
            for r in (0.5, 1.0)
        ]
        cases += [(2, 0.5, 1.0), (5, 0.5, 1.0)]
        for n, delta, r in cases:
            cfg = NetworkConfig(n, r, delta)
            assert lambda_dist(cfg) < lambda_lin(cfg)

    def test_scaled_limit_approached_from_finite_n(self):
        r, delta = 1.0, 0.2
        crit = lambda_dist_critical(r, delta)
        gaps = []
        for n in (25, 50, 100, 200, 400):
            cfg = NetworkConfig(n, r, delta)
            gaps.append(abs(n * n * lambda_dist(cfg) - crit))
        for wide, narrow in zip(gaps, gaps[1:]):
            assert narrow < wide
        assert gaps[-1] <= 1e-2 * crit

    def test_critical_is_continuum_root(self, rng):
        # f0 run forward at the critical scaled rate lands on the drop cap
        for _ in range(15):
            r = rng.uniform(0.1, 3.0)
            delta = rng.uniform(0.001, 0.5)
            a_c = r * lambda_dist_critical(r, delta)
            assert f0(math.sqrt(a_c)) == pytest.approx(1.0 / (1.0 - delta), rel=1e-12)

    def test_one_station_closed_form(self):
        # V_1 = 1 + r lambda meets the cap at lambda = delta / ((1 - delta) r)
        for r in (1.0, 0.3):
            for delta in (0.01, 0.1, 0.3, 0.5):
                want = delta / ((1.0 - delta) * r)
                assert lambda_dist(NetworkConfig(1, r, delta)) == pytest.approx(want, rel=2e-15)


class TestRatio:
    def test_matches_threshold_quotient(self, rng):
        for _ in range(15):
            r = rng.uniform(0.1, 3.0)
            delta = rng.uniform(0.001, 0.5)
            want = lambda_dist_critical(r, delta) / lambda_lin_critical(r, delta)
            assert ratio_P(delta) == pytest.approx(want, rel=1e-12)

    def test_strictly_decreasing(self):
        grid = [0.001 + 0.499 * i / 200 for i in range(201)]
        vals = [ratio_P(d) for d in grid]
        for hi, lo in zip(vals, vals[1:]):
            assert lo < hi

    def test_limits(self):
        assert ratio_P(1e-7) == pytest.approx(1.0, abs=1e-6)
        endpoint = math.pi / 6.0 * erfi(math.sqrt(math.log(2.0))) ** 2
        assert ratio_P(0.5) == pytest.approx(endpoint, rel=1e-13)
        assert 0.7 < endpoint < 0.8

    def test_validation(self):
        with pytest.raises(ValueError):
            ratio_P(0.0)
        with pytest.raises(ValueError):
            ratio_P(0.51)


class TestContinuumVoltage:
    def test_anchors_and_monotonicity(self):
        assert continuum_voltage(1.3, 0.0) == 1.0
        vals = [continuum_voltage(1.3, t / 20) for t in range(21)]
        for lo, hi in zip(vals, vals[1:]):
            assert hi > lo
        assert vals[-1] == pytest.approx(f0(math.sqrt(1.3)), rel=1e-15)

    def test_zero_load_is_flat(self):
        for t in (0.0, 0.4, 1.0):
            assert continuum_voltage(0.0, t) == 1.0

    @pytest.mark.parametrize("a,t", [(-0.1, 0.5), (1.0, -0.01), (1.0, 1.01), (math.nan, 0.5)])
    def test_validation(self, a, t):
        with pytest.raises(ValueError):
            continuum_voltage(a, t)


class TestConvergenceReport:
    def test_rows_and_decade_shrink(self):
        a = 1.0
        rows = convergence_report(a, [10, 100, 1000])
        assert [row.n for row in rows] == [10, 100, 1000]
        v_cont = f0(math.sqrt(a))
        for row in rows:
            assert isinstance(row, ConvergenceReport)
            assert row.v_continuum == v_cont
            assert row.v_discrete == distflow_sensitivity(a, row.n)[0]
            assert row.abs_err == abs(v_cont - row.v_discrete)
            assert row.rel_err == row.abs_err / row.v_discrete
        # gap closes like 1/n: one decade of n buys about one digit
        assert 8.0 <= rows[0].abs_err / rows[1].abs_err <= 12.0
        assert 8.0 <= rows[1].abs_err / rows[2].abs_err <= 12.0

    def test_discrete_majorizes_continuum(self):
        # the one-sided start V_1 = 1 + a/n^2 overshoots the continuum
        # profile's 1 + a/(2 n^2) and the gap never changes sign
        for a in (0.05, 0.8, 1.9):
            for row in convergence_report(a, [5, 20, 80]):
                assert row.v_discrete > row.v_continuum

    def test_validation(self):
        with pytest.raises(ValueError):
            convergence_report(-1.0, [10])
        with pytest.raises(ValueError):
            convergence_report(1.0, [0])
        with pytest.raises(ValueError):
            convergence_report(1.0, [10.0])
        # one station is a valid feeder: V_1 = 1 + a
        (row,) = convergence_report(0.5, [1])
        assert row.v_discrete == 1.5
