"""Load-flow layer: route consistency, oracle agreement, and the
monotonicity / compactness facts the allocator and stability code rely on.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from linestab.powerflow import (
    NetworkConfig,
    PowerAllocation,
    PowerModel,
    _root_voltage,
    _root_voltage_and_gradient,
    _uniform_root_voltage,
    distflow_sensitivity,
    voltage_slack,
)
from oracles import (
    VoltageProfile,
    distflow_double_sum,
    distflow_from_root,
    distflow_gradient,
    distflow_gradient_forward,
    distflow_sensitivity_profile,
    distflow_voltages,
    distflow_w_recursion,
    lindist_squared_voltages,
    lindist_weighted_load,
    voltage_profile_mp,
)

powers_st = st.lists(st.floats(0.0, 0.05), min_size=1, max_size=10)
resistance_st = st.floats(0.05, 2.0)


def _random_case(rng, n_max=12, p_max=0.08):
    n = rng.randint(1, n_max)
    r = rng.uniform(0.05, 2.0)
    p = [rng.uniform(0.0, p_max) for _ in range(n)]
    return p, r


class TestNetworkConfig:
    def test_derived_limits(self):
        cfg = NetworkConfig(n_stations=4, resistance=1.0, delta=0.2)
        assert cfg.v_limit == pytest.approx(1.25, rel=1e-15)
        assert cfg.w_limit == pytest.approx(1.5625, rel=1e-15)
        assert cfg.w_headroom == pytest.approx(0.5625, rel=1e-15)

    @given(delta=st.floats(1e-6, 0.5))
    def test_headroom_is_cancellation_free_w_limit_minus_one(self, delta):
        cfg = NetworkConfig(n_stations=1, resistance=1.0, delta=delta)
        # the direct difference carries ~eps * w_limit of rounding; the
        # factored form must sit inside that band
        assert abs(cfg.w_headroom - (cfg.w_limit - 1.0)) <= 1e-14

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_stations=0, resistance=1.0, delta=0.1),
            dict(n_stations=2.0, resistance=1.0, delta=0.1),
            dict(n_stations=3, resistance=0.0, delta=0.1),
            dict(n_stations=3, resistance=-1.0, delta=0.1),
            dict(n_stations=3, resistance=math.inf, delta=0.1),
            dict(n_stations=3, resistance=1.0, delta=0.0),
            dict(n_stations=3, resistance=1.0, delta=0.50001),
            dict(n_stations=3, resistance=1.0, delta=math.nan),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            NetworkConfig(**kwargs)


class TestPowerAllocation:
    @pytest.mark.parametrize("bad", [-1e-9, math.nan, math.inf])
    def test_rejects_bad_entries(self, bad):
        with pytest.raises(ValueError):
            PowerAllocation(p=(0.1, bad))

    def test_coerces_to_float(self):
        alloc = PowerAllocation(p=(1, 2))
        assert all(isinstance(v, float) for v in alloc.p)


class TestVoltageProfile:
    def test_from_voltages_builds_products(self):
        prof = VoltageProfile.from_voltages([1.0, 1.1, 1.3])
        assert prof.n == 2
        assert prof.far_end == 1.0
        assert prof.root_end == 1.3
        assert prof.w_diag == (1.0, 1.1 * 1.1, 1.3 * 1.3)
        assert prof.w_off == (1.0 * 1.1, 1.1 * 1.3)


class TestDistflowRoutes:
    def test_matches_mpmath_oracle(self, rng):
        for _ in range(40):
            p, r = _random_case(rng)
            got = distflow_voltages(p, r).v
            want = voltage_profile_mp(p, r)
            for g, w in zip(got, want):
                assert g == pytest.approx(w, rel=1e-13)
            # the package keeps only V[N] of the same literal recursion
            assert _root_voltage_and_gradient([r * x for x in p])[0] == got[-1]

    def test_three_routes_agree(self, rng):
        for _ in range(40):
            p, r = _random_case(rng)
            a = distflow_voltages(p, r)
            b = distflow_double_sum(p, r)
            c = distflow_w_recursion(p, r)
            for x, y, z in zip(a.v, b.v, c.v):
                assert x == pytest.approx(y, rel=5e-13)
                assert x == pytest.approx(z, rel=5e-13)
            v_n = _root_voltage_and_gradient([r * x for x in p])[0]
            assert v_n == pytest.approx(b.root_end, rel=5e-13)
            assert v_n == pytest.approx(c.root_end, rel=5e-13)
            # the off-diagonal track of the squared form is the product of
            # neighbouring magnitudes
            for w_off, (u, v) in zip(c.w_off, zip(c.v, c.v[1:])):
                assert w_off == pytest.approx(u * v, rel=1e-12)

    def test_feasible_slack_is_literal_profile_exactly(self, rng):
        # voltage_slack takes V[N] from the value-only pass; it must be the literal
        # recursion's V[N] bit for bit, not merely close to it
        for _ in range(200):
            p, r = _random_case(rng, n_max=60)
            cfg = NetworkConfig(len(p), r, rng.uniform(0.01, 0.5))
            slack = voltage_slack(p, cfg, PowerModel.DISTFLOW)
            assert slack == cfg.w_limit - distflow_voltages(p, r).root_end ** 2

    def test_zero_load_profile_is_flat(self):
        prof = distflow_voltages([0.0] * 6, 1.7)
        assert prof.v == (1.0,) * 7

    def test_single_station_first_step_exact(self):
        prof = distflow_voltages([0.03], 2.0)
        assert prof.v == (1.0, 1.0 + 2.0 * 0.03)

    def test_allocation_and_sequence_inputs_agree(self):
        p = [0.04, 0.02, 0.01]
        assert distflow_voltages(PowerAllocation(p=p), 0.5).v == distflow_voltages(p, 0.5).v

    @given(p=powers_st, r=resistance_st)
    def test_profile_nondecreasing(self, p, r):
        v = distflow_voltages(p, r).v
        for lo, hi in zip(v, v[1:]):
            assert hi >= lo

    def test_increments_sum_station_terms(self, rng):
        # V[j+1] - V[j] telescopes to sum_{i<=j} r p[i] / V[i]
        for _ in range(20):
            p, r = _random_case(rng)
            v = distflow_voltages(p, r).v
            for j in range(len(p)):
                want = math.fsum(r * p[i] / v[i] for i in range(j + 1))
                assert v[j + 1] - v[j] == pytest.approx(want, abs=1e-12)

    def test_power_of_two_scaling_is_exact(self, rng):
        # V(s v0; s^2 p) = s V(v0; p), and with s = 2 every scaling in the
        # recursion commutes with IEEE rounding, so the match is bitwise
        for _ in range(20):
            p, r = _random_case(rng)
            base = distflow_from_root(1.0, p, r)
            scaled = distflow_from_root(2.0, [4.0 * q for q in p], r)
            assert scaled.v == tuple(2.0 * x for x in base.v)

    @pytest.mark.parametrize("v0", [0.0, -1.0, math.nan, math.inf])
    def test_from_root_rejects_bad_voltage(self, v0):
        with pytest.raises(ValueError):
            distflow_from_root(v0, [0.1], 1.0)

    @pytest.mark.parametrize(
        "route", [distflow_voltages, distflow_double_sum, distflow_w_recursion]
    )
    def test_routes_reject_bad_resistance(self, route):
        with pytest.raises(ValueError):
            route([0.1], 0.0)


class TestGradient:
    def test_matches_finite_differences(self, rng):
        for _ in range(15):
            p, r = _random_case(rng, n_max=8, p_max=0.05)
            grad = distflow_gradient(p, r)
            h = 1e-6
            for j in range(len(p)):
                hi = list(p)
                lo = list(p)
                hi[j] += h
                lo[j] = max(lo[j] - h, 0.0)
                fd = (
                    distflow_voltages(hi, r).root_end
                    - distflow_voltages(lo, r).root_end
                ) / (hi[j] - lo[j])
                assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-10)

    @given(p=powers_st, r=resistance_st)
    def test_entries_positive(self, p, r):
        assert all(g > 0.0 for g in distflow_gradient(p, r))

    @given(
        shares=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64),
        r=resistance_st,
        a=st.floats(0.0, 1.9),
    )
    def test_adjoint_matches_forward_mode(self, shares, r, a):
        # every load at most a / (r N^2) with a < 2
        n = len(shares)
        p = [u * a / (r * n * n) for u in shares]
        grad = distflow_gradient(p, r)
        assert grad == pytest.approx(distflow_gradient_forward(p, r), rel=1e-12, abs=0.0)

    def test_single_station_gradient_is_resistance(self):
        # V[1] = 1 + r p[0] whatever the load
        assert distflow_gradient([0.3], 0.7) == distflow_gradient_forward([0.3], 0.7) == (0.7,)

    def test_zero_load_gradient_counts_segments(self):
        # with no load the derivative of V[N] in p[j] is r (N - j)
        r = 0.7
        grad = distflow_gradient([0.0] * 5, r)
        assert grad == pytest.approx(tuple(r * (5 - j) for j in range(5)), rel=1e-15)
        assert grad == pytest.approx(distflow_gradient_forward([0.0] * 5, r), rel=1e-15)

    def test_empty_allocation(self):
        assert distflow_gradient((), 1.0) == ()


class TestShootingEquivalence:
    """Feasibility at far-end 1 matches existence of a root-anchored profile.

    The drop constraint pins the root at c = 1 / (1 - delta) relative to the
    far end.  When the far-end-normalized profile satisfies V[N] <= c there is
    a starting voltage x in [1, c] whose shot lands exactly on c, and when it
    does not, no shot from [1, c] reaches down to c.
    """

    def test_both_directions(self, rng):
        hits = misses = 0
        for _ in range(30):
            n = rng.randint(1, 10)
            delta = rng.uniform(0.05, 0.5)
            r = rng.uniform(0.1, 2.0)
            raw = [rng.uniform(0.05, 1.0) for _ in range(n)]
            t_crit = (
                NetworkConfig(n, r, delta).w_headroom
                / (2.0 * r * lindist_weighted_load(raw))
            )
            if rng.random() < 0.5:
                t = rng.uniform(0.15, 0.85) * t_crit
            else:
                t = rng.uniform(1.1, 1.8) * t_crit
            p = [t * q for q in raw]
            c = 1.0 / (1.0 - delta)

            def shot(x):
                return distflow_from_root(x, p, r).root_end

            if shot(1.0) <= c:
                hits += 1
                lo, hi = 1.0, c  # shot(c) >= c: every profile exceeds its start
                assert shot(c) >= c
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    if shot(mid) <= c:
                        lo = mid
                    else:
                        hi = mid
                assert 1.0 <= lo <= c
                assert shot(lo) == pytest.approx(c, abs=1e-9)
            else:
                misses += 1
                grid = [1.0 + (c - 1.0) * i / 63 for i in range(64)]
                assert all(shot(x) > c for x in grid)
        # fixed seed: both branches must actually get exercised
        assert hits >= 5 and misses >= 5

    def test_start_voltage_slope_in_unit_interval(self, rng):
        # d V[j] / d v0 lies in [0, 1] and decays along the feeder whenever
        # V[N] <= 2 v0 (always true at the drops this package admits)
        for _ in range(15):
            p, r = _random_case(rng, n_max=10, p_max=0.5)
            while distflow_voltages(p, r).root_end > 1.9:
                p = [0.5 * q for q in p]
            h = 1e-5
            up = distflow_from_root(1.0 + h, p, r).v
            dn = distflow_from_root(1.0 - h, p, r).v
            slopes = [(a - b) / (2.0 * h) for a, b in zip(up, dn)]
            assert slopes[0] == pytest.approx(1.0, abs=1e-9)
            for s in slopes:
                assert -1e-6 <= s <= 1.0 + 1e-6
            for a, b in zip(slopes, slopes[1:]):
                assert b <= a + 1e-7


class TestCompactnessBounds:
    @given(p=powers_st, r=resistance_st)
    def test_root_voltage_dominates_total_load(self, p, r):
        # V[N]^2 >= V[N] + r sum(p): squared drop pays for the whole feeder
        v_n = distflow_voltages(p, r).root_end
        total = r * math.fsum(p)
        assert v_n * v_n >= v_n + total - 1e-12 * (1.0 + total)

    def test_feasible_distflow_load_below_headroom(self, rng):
        for _ in range(20):
            n = rng.randint(1, 10)
            delta = rng.uniform(0.05, 0.5)
            r = rng.uniform(0.1, 2.0)
            cfg = NetworkConfig(n, r, delta)
            raw = [rng.uniform(0.05, 1.0) for _ in range(n)]
            # push the draw to the feasibility boundary, then step just inside
            lo, hi = 0.0, 1.0
            while voltage_slack([hi * q for q in raw], cfg, PowerModel.DISTFLOW) >= 0.0:
                hi *= 2.0
            for _ in range(48):
                mid = 0.5 * (lo + hi)
                if voltage_slack([mid * q for q in raw], cfg, PowerModel.DISTFLOW) >= 0.0:
                    lo = mid
                else:
                    hi = mid
            p = [lo * q for q in raw]
            assert voltage_slack(p, cfg, PowerModel.DISTFLOW) >= 0.0
            assert cfg.resistance * math.fsum(p) <= cfg.w_headroom + 1e-9

    def test_lindist_feasibility_is_weighted_load_cut(self, rng):
        for _ in range(30):
            n = rng.randint(1, 10)
            delta = rng.uniform(0.05, 0.5)
            r = rng.uniform(0.1, 2.0)
            cfg = NetworkConfig(n, r, delta)
            p = [rng.uniform(0.0, 0.4) for _ in range(n)]
            slack = voltage_slack(p, cfg, PowerModel.LINDIST)
            load = lindist_weighted_load(p)
            assert (slack >= 0.0) == (2.0 * r * load <= cfg.w_headroom)
            assert slack == pytest.approx(
                cfg.w_headroom - 2.0 * r * load, rel=1e-12, abs=1e-15
            )

    def test_feasible_rejects_length_mismatch(self):
        cfg = NetworkConfig(3, 1.0, 0.1)
        with pytest.raises(ValueError):
            voltage_slack([0.1, 0.1], cfg, PowerModel.DISTFLOW)

    def test_feasible_rejects_unknown_model(self):
        cfg = NetworkConfig(1, 1.0, 0.1)
        with pytest.raises(ValueError):
            voltage_slack([0.1], cfg, "distflow")


@st.composite
def _boundary_pair(draw):
    # two load directions on one feeder, zeros allowed, each scaled below
    # onto V_N = v_limit; r = 1 loses nothing, since V_N depends on r p alone
    n = draw(st.integers(2, 50))
    cfg = NetworkConfig(n, 1.0, draw(st.floats(0.01, 0.5)))
    entry = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    direction = st.lists(entry, min_size=n, max_size=n).filter(any)
    return cfg, _onto_boundary(draw(direction), cfg), _onto_boundary(draw(direction), cfg)


def _onto_boundary(d, cfg):
    """The last feasible load s d by bisection on s.

    At r sum(s d) = w_headroom, V_N^2 >= V_N + w_limit - 1 puts V_N past the
    cap, so that s brackets the boundary from above."""
    lo, hi = 0.0, cfg.w_headroom / math.fsum(d)
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if _root_voltage_and_gradient([mid * x for x in d])[0] <= cfg.v_limit:
            lo = mid
        else:
            hi = mid
    return [lo * x for x in d]


class TestFeasibleSetConvexity:
    # alpha-fair allocations stabilize every load inside a convex capacity
    # region, so lambda_dist is the stability boundary only if
    # {p >= 0 : V_N(p) <= v_limit} is convex; V_N itself is not convex
    # (about 44% of random pairs break midpoint convexity)
    @given(case=_boundary_pair())
    def test_chord_between_boundary_loads_stays_feasible(self, case):
        cfg, p, q = case
        # V_N in 50 digits: the literal recursion's rounding noise, up to 9
        # ulps here even on the chord from a point to itself, is no bulge
        top = max(voltage_profile_mp(p, 1.0)[-1], voltage_profile_mp(q, 1.0)[-1])
        assert top == pytest.approx(cfg.v_limit, rel=1e-12)
        for k in range(1, 16):
            t = k / 16
            chord = [t * a + (1.0 - t) * b for a, b in zip(p, q)]
            v_n = voltage_profile_mp(chord, 1.0)[-1]
            # rounding of the chord point and of the float conversion: at
            # most 1 ulp in 45k points of N 2 to 50
            assert v_n <= top + 4 * math.ulp(top), (t, v_n, top)


class TestSensitivity:
    @pytest.mark.parametrize("r", [1.0, 2.0])
    def test_voltage_track_matches_plain_recursion(self, r):
        # uniform load a / (r n^2) reproduces the joint recursion's V track
        # bit for bit (r = 1, 2 keep the scaling exact)
        for n in (1, 4, 9):
            for a in (0.3, 1.2, 1.9):
                v, _ = distflow_sensitivity_profile(a, n)
                prof = distflow_voltages([a / (r * n * n)] * n, r)
                assert tuple(v) == prof.v

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 40])
    @pytest.mark.parametrize("a", [0.05, 0.3, 0.9, 1.5, 1.95])
    def test_y_positive_increasing_convex(self, n, a):
        _, y = distflow_sensitivity_profile(a, n)
        assert y[0] == 0.0 and y[1] == 1.0
        for j in range(1, n):
            assert y[j + 1] > y[j] > 0.0
            assert y[j + 1] - 2.0 * y[j] + y[j - 1] >= -1e-12

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 40])
    @pytest.mark.parametrize("a", [0.05, 0.3, 0.9, 1.5, 1.95])
    def test_y_capped_by_zero_load_value(self, n, a):
        # at a = 0 the recursion gives y[j] = j (j + 1) / 2; load only damps
        _, y = distflow_sensitivity_profile(a, n)
        for j, val in enumerate(y):
            assert val <= j * (j + 1) / 2.0 + 1e-9

    @pytest.mark.parametrize("n", [3, 7, 20])
    @pytest.mark.parametrize("a", [0.2, 1.0, 1.8])
    def test_matches_finite_differences(self, n, a):
        _, y_n = distflow_sensitivity(a, n)
        h = 1e-6
        up, _ = distflow_sensitivity(a + h, n)
        dn, _ = distflow_sensitivity(a - h, n)
        assert y_n == pytest.approx(n * n * (up - dn) / (2.0 * h), rel=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 40, 1000, 100000])
    @pytest.mark.parametrize("a", [0.0, 0.01, 0.3, 1.2, 1.9, 1e3])
    def test_matches_oracle_profile_exactly(self, n, a):
        # V[n] is the literal recursion on the uniform load a / n^2 with
        # r = 1, and Y[n] = n^2 dV[n]/da is the sum of its gradient entries.
        # The tangent and adjoint recursions round apart by up to ~40 ulps per
        # station: 1.1e-12 at n = 1000, 8.8e-10 at n = 1e5
        v, y = distflow_sensitivity_profile(a, n)
        got = distflow_sensitivity(a, n)
        assert got == (v[n], y[n])
        v_n, grad = _root_voltage_and_gradient([a / (n * n)] * n)
        assert got[0] == v_n
        assert got[1] == pytest.approx(math.fsum(grad), rel=2e-14 * max(n, 50))

    @pytest.mark.parametrize("a,n", [(4.0, 2), (3.0, 3)])
    def test_past_2n_over_n_minus_1_matches_oracle_profile(self, a, n):
        # 2n/(n-1) bounds nothing: the recursion is defined for every a >= 0
        v, y = distflow_sensitivity_profile(a, n)
        assert distflow_sensitivity(a, n) == (v[n], y[n])

    @pytest.mark.parametrize("n", [2, 30, 1000])
    @pytest.mark.parametrize("a", [3.0, 1e3, 1e100, 1e300])
    def test_finite_with_positive_slope_for_any_load(self, n, a):
        v_n, y_n = distflow_sensitivity(a, n)
        assert math.isfinite(v_n) and v_n > 1.0
        assert math.isfinite(y_n) and y_n > 0.0

    def test_single_station_has_no_blow_up_bound(self):
        v, y = distflow_sensitivity_profile(5.0, 1)
        assert v == [1.0, 6.0]
        assert y == [0.0, 1.0]

    @pytest.mark.parametrize("a,n", [(-0.1, 4), (math.nan, 4)])
    def test_rejects_out_of_range(self, a, n):
        with pytest.raises(ValueError):
            distflow_sensitivity(a, n)

    def test_rejects_bad_station_count(self):
        with pytest.raises(ValueError):
            distflow_sensitivity(1.0, 0)


def _seeded_loads(n, seed, scale):
    # cubed uniforms with every fifth station empty: a spread of magnitudes
    rng = random.Random(seed)
    return [0.0 if j % 5 == 4 else scale * rng.random() ** 3 for j in range(n)]


class TestValueOnlyPass:
    """`_root_voltage` gives V[N] of the tangent and adjoint passes, bit for bit."""

    @given(a=st.floats(0.0, 1e3), n=st.integers(1, 1000))
    def test_uniform_loads_match_the_tangent_pass(self, a, n):
        want = distflow_sensitivity(a, n)[0]
        assert _root_voltage(itertools.repeat(a / (n * n), n)) == want
        assert _uniform_root_voltage(a, n) == want

    @given(n=st.integers(1, 1000), seed=st.integers(0, 2**32), scale=st.floats(0.0, 10.0))
    def test_arbitrary_loads_match_the_adjoint_pass(self, n, seed, scale):
        q = _seeded_loads(n, seed, scale)
        assert _root_voltage(q) == _root_voltage_and_gradient(q)[0]

    @given(q=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=40))
    def test_any_short_load_list_matches_the_adjoint_pass(self, q):
        assert _root_voltage(iter(q)) == _root_voltage_and_gradient(q)[0]

    @pytest.mark.parametrize("a", [0.01, 0.3, 2.3])
    def test_largest_feeder_matches_both_passes(self, a):
        n = 100_000
        assert _uniform_root_voltage(a, n) == distflow_sensitivity(a, n)[0]
        q = _seeded_loads(n, 7, 3.0 * a / (n * n))
        assert _root_voltage(q) == _root_voltage_and_gradient(q)[0]

    @pytest.mark.parametrize(
        "a,n", [(-0.1, 4), (math.nan, 4), (math.inf, 4), (1.0, 0), (1.0, -3), (1.0, 10.0), (math.nan, 0)]
    )
    def test_rejects_what_the_tangent_pass_rejects(self, a, n):
        with pytest.raises(ValueError) as want:
            distflow_sensitivity(a, n)
        with pytest.raises(ValueError) as got:
            _uniform_root_voltage(a, n)
        assert str(got.value) == str(want.value)


class TestLindistProfile:
    def test_root_pinned_at_cap(self, rng):
        for _ in range(10):
            n = rng.randint(1, 10)
            delta = rng.uniform(0.01, 0.5)
            p = [rng.uniform(0.0, 0.1) for _ in range(n)]
            w = lindist_squared_voltages(p, 1.0, delta)
            assert w[-1] == NetworkConfig(n, 1.0, delta).w_limit

    def test_squared_profile_nondecreasing_toward_root(self, rng):
        for _ in range(10):
            p, r = _random_case(rng)
            w = lindist_squared_voltages(p, r, 0.3)
            for lo, hi in zip(w, w[1:]):
                assert lo <= hi

    def test_far_end_matches_weighted_load_closed_form(self, rng):
        for _ in range(20):
            p, r = _random_case(rng)
            delta = rng.uniform(0.05, 0.5)
            w = lindist_squared_voltages(p, r, delta)
            want = (1.0 / (1.0 - delta)) ** 2 - 2.0 * r * lindist_weighted_load(p)
            assert w[0] == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_slack_agrees_with_profile(self, rng):
        for _ in range(20):
            n = rng.randint(1, 8)
            r = rng.uniform(0.1, 2.0)
            delta = rng.uniform(0.05, 0.5)
            cfg = NetworkConfig(n, r, delta)
            p = [rng.uniform(0.0, 0.2) for _ in range(n)]
            slack = voltage_slack(p, cfg, PowerModel.LINDIST)
            w = lindist_squared_voltages(p, r, delta)
            assert slack == pytest.approx(w[0] - 1.0, rel=1e-11, abs=1e-13)
