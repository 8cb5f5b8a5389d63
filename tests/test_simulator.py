"""Trajectory-level checks for the event-driven feeder simulation.

Most of these lean on exact counting identities (flow conservation,
deterministic replay) or on classical queueing facts the network reduces
to in corner cases: a single station under the linearized model is a plain
M/M/1 queue with service rate equal to the full boundary power, and an
overloaded station grows at its arrival surplus.  Statistical assertions
use horizons long enough that the noise floor sits orders of magnitude
below the tested effect.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import replace

import pytest
from hypothesis import example, given, strategies as st

import linestab.simulator as simulator
from linestab.allocator import AllocationError, FairnessSpec, alpha_fair_lindist
from linestab.powerflow import NetworkConfig, PowerModel, voltage_slack
from linestab.simulator import (
    QUEUE_CAP_PER_STATION,
    Classification,
    SimConfig,
    SimulationError,
    _make_allocator,
    simulate,
    stability_probe,
)
from linestab.stability import lambda_dist, lambda_lin
from oracles import _dual_solve

NET1 = NetworkConfig(n_stations=1, resistance=1.0, delta=0.2)
# with one occupied station the whole boundary budget goes to it
P_STAR = NET1.w_headroom / (2.0 * NET1.resistance)


def _cfg(**overrides) -> SimConfig:
    base = dict(
        network=NET1,
        fairness=FairnessSpec(1.0),
        model=PowerModel.LINDIST,
        arrival_rate=0.5 * P_STAR,
        horizon=4096.0,
        seed=11,
        sample_interval=8.0,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("arrival_rate", -0.1),
            ("arrival_rate", math.nan),
            ("arrival_rate", math.inf),
            ("horizon", 0.0),
            ("horizon", -3.0),
            ("horizon", math.nan),
            ("sample_interval", 0.0),
            ("sample_interval", -1.0),
            ("sample_interval", math.nan),
            ("seed", -1),
            ("seed", 1.5),
        ],
    )
    def test_rejects_bad_field(self, field, value):
        with pytest.raises(ValueError):
            _cfg(**{field: value})

    @pytest.mark.parametrize("field", ["arrival_rate", "horizon", "sample_interval"])
    def test_infinite_field_names_finite(self, field):
        with pytest.raises(ValueError, match=f"{field} must be .* and finite, got inf"):
            _cfg(**{field: math.inf})

    def test_sample_interval_must_fit_inside_horizon(self):
        with pytest.raises(ValueError):
            _cfg(horizon=10.0, sample_interval=10.5)

    def test_zero_arrival_rate_is_allowed(self):
        assert _cfg(arrival_rate=0.0).arrival_rate == 0.0


class TestFrozenFeeder:
    def test_no_arrivals_means_nothing_ever_happens(self):
        cfg = _cfg(
            network=NetworkConfig(3, 1.0, 0.2),
            arrival_rate=0.0,
            horizon=4096.0,
            sample_interval=8.0,
        )
        rep = simulate(cfg)
        assert rep.arrivals == 0 and rep.departures == 0
        assert set(rep.total_queue) == {0}
        assert rep.max_total_queue == 0
        assert rep.drift_estimate == 0.0
        assert rep.mean_total_queue == 0.0
        assert len(rep.time_grid) == 513
        assert rep.time_grid == tuple(8.0 * i for i in range(513))


class TestDeterminism:
    def test_identical_configs_give_identical_reports(self):
        net = NetworkConfig(3, 1.0, 0.2)
        cfg = _cfg(
            network=net,
            arrival_rate=0.8 * lambda_lin(net),
            horizon=2048.0,
            sample_interval=4.0,
            seed=123,
        )
        assert simulate(cfg) == simulate(cfg)

    def test_distflow_path_is_deterministic_too(self):
        net = NetworkConfig(2, 1.0, 0.2)
        cfg = _cfg(
            network=net,
            model=PowerModel.DISTFLOW,
            fairness=FairnessSpec(2.0),
            arrival_rate=0.8 * lambda_dist(net),
            horizon=2048.0,
            sample_interval=4.0,
            seed=77,
        )
        assert simulate(cfg) == simulate(cfg)

    def test_different_seeds_give_different_trajectories(self):
        cfg = _cfg(horizon=2048.0, sample_interval=4.0, seed=1)
        a = simulate(cfg)
        b = simulate(replace(cfg, seed=2))
        assert (a.arrivals, a.total_queue) != (b.arrivals, b.total_queue)


class TestFlowConservation:
    # horizon an exact binary multiple of the interval, so the last grid
    # point sits at the horizon itself and samples the final state
    @pytest.mark.parametrize("model", [PowerModel.LINDIST, PowerModel.DISTFLOW])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_counts_balance(self, model, seed):
        net = NetworkConfig(3, 1.0, 0.2)
        lam_star = lambda_lin(net) if model is PowerModel.LINDIST else lambda_dist(net)
        cfg = _cfg(
            network=net,
            model=model,
            arrival_rate=0.7 * lam_star,
            horizon=4096.0,
            sample_interval=8.0,
            seed=seed,
        )
        rep = simulate(cfg)
        assert rep.arrivals >= rep.departures >= 0
        assert rep.arrivals - rep.departures == rep.total_queue[-1]
        assert all(q >= 0 for q in rep.total_queue)
        assert rep.max_total_queue >= max(rep.total_queue)
        assert len(rep.time_grid) == len(rep.total_queue)
        assert 0.0 <= rep.mean_total_queue <= rep.max_total_queue


class TestEventFeasibility:
    @pytest.mark.parametrize("model", [PowerModel.LINDIST, PowerModel.DISTFLOW])
    def test_every_visited_state_gets_a_feasible_split(self, monkeypatch, model):
        net = NetworkConfig(3, 1.0, 0.2)
        lam_star = lambda_lin(net) if model is PowerModel.LINDIST else lambda_dist(net)
        seen: list[tuple[tuple[int, ...], tuple[float, ...]]] = []
        real = simulator._make_allocator

        def spying(model, spec, net):
            inner = real(model, spec, net)

            def wrapped(x):
                p, s = inner(x)
                seen.append((tuple(x), tuple(p)))
                return p, s

            return wrapped

        monkeypatch.setattr(simulator, "_make_allocator", spying)
        rep = simulate(
            _cfg(
                network=net,
                model=model,
                arrival_rate=0.9 * lam_star,
                horizon=2048.0,
                sample_interval=4.0,
                seed=3,
            )
        )
        # one solve up front, then one after every processed event
        assert len(seen) == rep.arrivals + rep.departures + 1
        assert any(any(x) for x, _ in seen)
        for x, p in seen:
            for xj, pj in zip(x, p):
                assert (pj > 0.0) == (xj > 0)
            if any(x):
                slack = voltage_slack(p, net, model)
                assert slack >= -1e-9


class TestAllocatorBridge:
    def test_lindist_bridge_matches_closed_form(self):
        net = NetworkConfig(4, 0.8, 0.15)
        spec = FairnessSpec(2.0)
        solve = _make_allocator(PowerModel.LINDIST, spec, net)
        for x in [(1, 0, 2, 5), (0, 0, 0, 1), (3, 3, 3, 3)]:
            p, total = solve(x)
            ref = alpha_fair_lindist(x, spec, net)
            for got, want in zip(p, ref.p):
                assert got == pytest.approx(want, rel=1e-12)
            assert total == pytest.approx(math.fsum(ref.p), rel=1e-12)

    def test_distflow_bridge_matches_dual_solver(self):
        net = NetworkConfig(3, 1.2, 0.25)
        spec = FairnessSpec(2.0)
        solve = _make_allocator(PowerModel.DISTFLOW, spec, net)
        for x in [(2, 1, 4), (1, 0, 1), (0, 5, 0)]:
            p, total = solve(x)
            ref, _ = _dual_solve(x, spec, net)
            for got, want in zip(p, ref):
                assert got == pytest.approx(want, rel=1e-6, abs=1e-12)
            slack = voltage_slack(p, net, PowerModel.DISTFLOW)
            assert slack >= -1e-9
            assert total == pytest.approx(math.fsum(p), rel=1e-15)

    def test_all_empty_draws_no_power(self):
        for model in (PowerModel.LINDIST, PowerModel.DISTFLOW):
            solve = _make_allocator(model, FairnessSpec(1.0), NetworkConfig(3, 1.0, 0.2))
            p, total = solve((0, 0, 0))
            assert p == [0.0, 0.0, 0.0]
            assert total == 0.0

    def test_tiny_alpha_fails_instead_of_drawing_no_power(self):
        # at alpha = 0.001 every occupied w_j^(1 - 1/alpha) of (1, 0, 0)
        # underflows; the empty feeder still draws nothing
        for model in (PowerModel.LINDIST, PowerModel.DISTFLOW):
            solve = _make_allocator(model, FairnessSpec(0.001), NetworkConfig(3, 1.0, 0.1))
            assert solve((0, 0, 0)) == ([0.0, 0.0, 0.0], 0.0)
            with pytest.raises(AllocationError, match="alpha = 0.001"):
                solve((1, 0, 0))

    def test_empty_feeder_leaves_the_warm_hint(self):
        # x -> empty -> x' must solve x' from x's hint, bit for bit as
        # x -> x'; a cold solve of x' lands on other bits
        config = (PowerModel.DISTFLOW, FairnessSpec(1.0), NetworkConfig(3, 1.0, 0.2))
        for x, x_next in [((1, 2, 0), (1, 2, 1)), ((2, 1, 3), (2, 1, 4))]:
            direct = _make_allocator(*config)
            direct(x)
            want = direct(x_next)
            via_empty = _make_allocator(*config)
            via_empty(x)
            assert via_empty((0, 0, 0)) == ([0.0, 0.0, 0.0], 0.0)
            assert via_empty(x_next) == want
            assert _make_allocator(*config)(x_next) != want

    def test_tiny_alpha_overflow_fails_naming_alpha(self):
        # the split runs on the unit weights 6, 4, 2 at any r, whose powers
        # never overflow, so the states that fail do not depend on r: every
        # power of (1, 0, 0) underflows, station 0 of (1, 1, 1) gets 0.0,
        # and (0, 0, 1) gets the closed form.  At r = 1e-10 the scale
        # headroom / (2^-999 r) overflows, and the split is redone as
        # alpha_fair_lindist does it
        spec = FairnessSpec(0.001)
        for r in (1.0, 0.1, 1e-10):
            net = NetworkConfig(3, r, 0.1)
            solve = _make_allocator(PowerModel.LINDIST, spec, net)
            with pytest.raises(AllocationError, match="alpha = 0.001 takes the weights"):
                solve((1, 0, 0))
            msg = f"station 0's power 0.0 at r = {r!r}, alpha = 0.001 is not a normal double"
            with pytest.raises(AllocationError, match=re.escape(msg)):
                solve((1, 1, 1))
            p, total = solve((0, 0, 1))
            assert tuple(p) == alpha_fair_lindist((0, 0, 1), spec, net).p
            assert p[2] == total == net.w_headroom / 2.0 / r

    @example(x=[0, 0, 1], alpha=0.001, r=0.1, delta=0.1)
    @example(x=[1, 0, 0], alpha=0.001, r=0.1, delta=0.1)
    @given(
        x=st.lists(st.integers(0, 3), min_size=1, max_size=8),
        alpha=st.floats(math.log(1e-3), math.log(4.0)).map(math.exp),
        r=st.floats(0.05, 5.0),
        delta=st.floats(0.01, 0.5),
    )
    def test_lindist_split_fails_exactly_where_the_closed_form_does(self, x, alpha, r, delta):
        # the simulator sums its denominator plainly, alpha_fair_lindist by
        # fsum: the two agree to 4N ulps wherever the closed form answers
        net = NetworkConfig(len(x), r, delta)
        spec = FairnessSpec(alpha)
        solve = _make_allocator(PowerModel.LINDIST, spec, net)
        try:
            want = alpha_fair_lindist(x, spec, net).p
        except AllocationError:
            with pytest.raises(AllocationError, match=f"alpha = {alpha!r}"):
                solve(x)
            return
        p, _ = solve(x)
        for got, ref in zip(p, want):
            assert abs(got - ref) <= 4 * len(x) * math.ulp(ref)

    @example(x=[0, 0, 1], alpha=0.001, log_r=-10.0, delta=0.1)
    @example(x=[1, 1, 1], alpha=0.001, log_r=-10.0, delta=0.1)
    @given(
        x=st.lists(st.integers(0, 3), min_size=1, max_size=8).filter(any),
        alpha=st.floats(math.log(1e-3), math.log(4.0)).map(math.exp),
        log_r=st.floats(-300.0, 300.0),
        delta=st.floats(0.01, 0.5),
    )
    def test_lindist_split_fails_as_the_closed_form_does_at_any_r(
        self, x, alpha, log_r, delta
    ):
        # the scale headroom / denom / r can leave the doubles where the
        # unit split over r does not; either way both answer, or both fail
        # with one message
        r = 10.0**log_r
        net = NetworkConfig(len(x), r, delta)
        spec = FairnessSpec(alpha)
        solve = _make_allocator(PowerModel.LINDIST, spec, net)
        try:
            want = alpha_fair_lindist(x, spec, net).p
        except AllocationError as exc:
            with pytest.raises(AllocationError) as got:
                solve(x)
            assert str(got.value) == str(exc)
            return
        p, _ = solve(x)
        for got, ref in zip(p, want):
            assert abs(got - ref) <= 4 * len(x) * math.ulp(ref)


class TestStateCache:
    def test_lindist_store_bound_never_changes_a_run(self, monkeypatch):
        # a Lindist split is a pure function of the occupancy, so a state
        # left out of the store splits afresh to the same bits.  Distflow is
        # left out: a revisit that is not stored re-solves from another warm
        # hint and may land on other bits, so its bound is part of the run.
        net = NetworkConfig(3, 1.0, 0.1)
        lam = 2.0 * lambda_lin(net)
        cfg = _cfg(network=net, arrival_rate=lam, horizon=2000.0 / (3.0 * lam),
                   sample_interval=2000.0 / (3.0 * lam) / 64.0, seed=4)
        seen: set[tuple[int, ...]] = set()
        real = simulator._make_allocator

        def spying(model, spec, net):
            inner = real(model, spec, net)

            def wrapped(x):
                seen.add(tuple(x))
                return inner(x)

            return wrapped

        monkeypatch.setattr(simulator, "_make_allocator", spying)
        default = simulate(cfg)
        # the default store holds every state the run visits
        assert 8 < len(seen) <= simulator._LINDIST_STATES
        monkeypatch.setattr(simulator, "_LINDIST_STATES", 8)
        assert simulate(cfg) == default


class TestAbort:
    def test_allocator_failure_raises_naming_time_and_state(self):
        # at alpha = 0.001 the first vehicle, at station 0, leaves the
        # Lindist split out of double range
        cfg = _cfg(network=NetworkConfig(3, 1.0, 0.1), fairness=FairnessSpec(0.001),
                   arrival_rate=0.01, horizon=16.0, sample_interval=1.0, seed=2)
        with pytest.raises(SimulationError, match=r"t = .*state \(1, 0, 0\)") as err:
            simulate(cfg)
        assert "alpha = 0.001" in str(err.value)
        assert isinstance(err.value.__cause__, AllocationError)


class TestSingleStationOracle:
    def test_occupied_station_always_gets_full_boundary_power(self):
        solve = _make_allocator(PowerModel.LINDIST, FairnessSpec(1.0), NET1)
        for k in (1, 2, 3, 5, 8):
            p, total = solve([k])
            assert p[0] == pytest.approx(P_STAR, rel=1e-12)
            assert total == pytest.approx(P_STAR, rel=1e-12)

    def test_mean_queue_matches_mm1_at_half_load(self):
        # rho = 1/2, so the stationary mean queue is rho/(1 - rho) = 1
        horizon = 1.0e5 / P_STAR
        rep = simulate(
            _cfg(
                arrival_rate=0.5 * P_STAR,
                horizon=horizon,
                sample_interval=horizon / 512.0,
                seed=2024,
            )
        )
        assert rep.mean_total_queue == pytest.approx(1.0, abs=0.25)

    def test_stable_station_has_negligible_drift(self):
        lam = 0.5 * P_STAR
        horizon = 2.0e4 / P_STAR
        rep = simulate(
            _cfg(arrival_rate=lam, horizon=horizon,
                 sample_interval=horizon / 512.0, seed=6)
        )
        assert abs(rep.drift_estimate) < 0.05 * lam

    def test_overloaded_station_grows_at_its_arrival_surplus(self):
        lam = 3.0 * P_STAR
        horizon = 2.0e4 / (lam + P_STAR)
        rep = simulate(
            _cfg(arrival_rate=lam, horizon=horizon,
                 sample_interval=horizon / 512.0, seed=5)
        )
        surplus = lam - P_STAR
        assert rep.drift_estimate == pytest.approx(surplus, rel=0.2)
        assert rep.total_queue[-1] > 0.5 * surplus * horizon


class TestStabilityProbe:
    def test_brackets_the_single_station_threshold(self):
        base = _cfg(arrival_rate=P_STAR, horizon=64.0, sample_interval=1.0, seed=42)
        rows = stability_probe(base, (0.5, 3.0), replications=3, min_events=20_000)
        assert [r.classification for r in rows] == [
            Classification.STABLE,
            Classification.UNSTABLE,
        ]
        low, high = rows
        assert low.multiplier == 0.5 and high.multiplier == 3.0
        assert low.arrival_rate == pytest.approx(0.5 * P_STAR, rel=1e-15)
        assert low.stable_votes == 3 and low.unstable_votes == 0
        assert high.unstable_votes == 3
        assert all(q < QUEUE_CAP_PER_STATION for q in low.max_queues)
        assert all(d > 0.05 * high.arrival_rate for d in high.drifts)
        assert len(low.reports) == 3

    def test_replication_seeds_step_from_the_base_seed(self):
        base = _cfg(arrival_rate=0.5 * P_STAR, horizon=64.0, sample_interval=1.0,
                    seed=900)
        rows = stability_probe(base, (1.0,), replications=2, min_events=4000)
        lam = base.arrival_rate
        horizon = 1.05 * 4000 / lam
        want = simulate(
            replace(
                base,
                arrival_rate=lam,
                horizon=horizon,
                seed=base.seed + 1,
                sample_interval=horizon / 512.0,
            )
        )
        assert rows[0].reports[1] == want

    def test_run_length_follows_min_events_alone(self):
        # base.horizon is unread: a run 1e5 times past the threshold still
        # stops near min_events, where a horizon of 1 would hold ~8000 events
        net = NetworkConfig(2, 1.0, 0.1)
        base = _cfg(network=net, arrival_rate=lambda_lin(net), horizon=1.0,
                    sample_interval=1.0 / 512.0, seed=1)
        (row,) = stability_probe(base, (1e5,), replications=1, min_events=10)
        (rep,) = row.reports
        assert rep.arrivals + rep.departures < 100

    def test_queue_cap_of_zero_forces_inconclusive(self, monkeypatch):
        monkeypatch.setattr(simulator, "QUEUE_CAP_PER_STATION", 0.0)
        base = _cfg(arrival_rate=0.5 * P_STAR, horizon=64.0, sample_interval=1.0,
                    seed=13)
        rows = stability_probe(base, (1.0,), replications=3, min_events=2000)
        assert rows[0].classification is Classification.INCONCLUSIVE
        assert rows[0].stable_votes == 0
        assert rows[0].unstable_votes == 0

    @pytest.mark.parametrize("model", [PowerModel.LINDIST, PowerModel.DISTFLOW])
    def test_frontier_brackets_theory_on_a_small_feeder(self, model):
        net = NetworkConfig(3, 1.0, 0.1)
        lam_star = lambda_lin(net) if model is PowerModel.LINDIST else lambda_dist(net)
        base = _cfg(network=net, model=model, arrival_rate=lam_star,
                    horizon=64.0, sample_interval=1.0, seed=9)
        rows = stability_probe(base, (0.5, 2.0), replications=3, min_events=8000)
        assert [r.classification for r in rows] == [
            Classification.STABLE,
            Classification.UNSTABLE,
        ]

    @pytest.mark.parametrize("model", [PowerModel.LINDIST, PowerModel.DISTFLOW])
    def test_power_of_two_resistance_scales_every_run_exactly(self, model):
        # rates and drifts scale by 1/r, bit for bit when r = 2^k; the drift
        # fit must not square times that leave the doubles at the extremes
        def probe(k):
            net = NetworkConfig(3, math.ldexp(1.0, k), 0.1)
            lam_star = lambda_lin(net) if model is PowerModel.LINDIST else lambda_dist(net)
            base = _cfg(network=net, model=model, arrival_rate=lam_star, seed=7)
            return stability_probe(base, (0.5, 2.0), replications=2, min_events=3000)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = probe(0)
            for k in (-560, -1000, 990):
                for got, ref in zip(probe(k), want, strict=True):
                    assert got.classification is ref.classification
                    assert (got.stable_votes, got.unstable_votes) == (
                        ref.stable_votes, ref.unstable_votes
                    )
                    assert got.max_queues == ref.max_queues
                    assert math.ldexp(got.arrival_rate, k) == ref.arrival_rate
                    assert [math.ldexp(d, k) for d in got.drifts] == list(ref.drifts)

    def test_rejects_bad_arguments(self, monkeypatch):
        def no_run(cfg):
            raise AssertionError("simulate ran before every argument was checked")

        monkeypatch.setattr(simulator, "simulate", no_run)
        base = _cfg(arrival_rate=0.5 * P_STAR)
        with pytest.raises(ValueError):
            stability_probe(base, (0.5,), replications=0, min_events=100)
        for bad in (0.0, -1.0, math.nan):
            for mults in ((bad,), (0.5, bad)):
                with pytest.raises(ValueError, match="multipliers must be positive"):
                    stability_probe(base, mults, replications=1, min_events=100)
        with pytest.raises(ValueError):
            stability_probe(_cfg(arrival_rate=0.0), (0.5,), replications=1, min_events=100)
        for bad in (0, -5):
            with pytest.raises(ValueError, match="min_events must be >= 1"):
                stability_probe(base, (0.5,), replications=1, min_events=bad)
        # 1.05 min_events / (N lambda) overflows at a rate this small
        with pytest.raises(ValueError, match=r"min_events = 100 at arrival rate 5e-309"):
            stability_probe(_cfg(arrival_rate=1e-308), (0.5,), replications=1, min_events=100)


class TestMonotoneLoadResponse:
    def test_mean_queue_grows_with_load(self):
        net = NetworkConfig(5, 1.0, 0.1)
        lam_star = lambda_lin(net)
        means = []
        for mult in (0.4, 0.8):
            lam = mult * lam_star
            horizon = 5000.0 / (net.n_stations * lam)  # ~5000 arrivals per run
            acc = 0.0
            for seed in range(5):
                rep = simulate(
                    _cfg(
                        network=net,
                        arrival_rate=lam,
                        horizon=horizon,
                        sample_interval=horizon / 256.0,
                        seed=seed,
                    )
                )
                acc += rep.mean_total_queue
            means.append(acc / 5.0)
        assert means[0] > 0.0
        assert means[1] >= means[0]
