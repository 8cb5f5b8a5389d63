"""Fair allocation layer: closed form, binding solve, and their oracles."""

import math
import random
import re
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import optimize

from linestab import allocator
from linestab.allocator import (
    AllocationError,
    FairnessSpec,
    alpha_fair_distflow,
    alpha_fair_lindist,
    _binding_solve,
    _lin_split,
)
from linestab.powerflow import (
    NetworkConfig,
    PowerModel,
    _root_voltage,
    _root_voltage_and_gradient,
    voltage_slack,
)
from linestab.cli import main
from linestab.simulator import _make_allocator
from oracles import (
    _dual_solve,
    distflow_gradient,
    distflow_voltages,
    fairness_utility,
    grid_search_allocation,
    hard_allocation_cases,
    kkt_point_mp,
    scale_allocation_cases,
)

ALPHAS = (0.5, 1.0, 2.0, 4.0)


def _random_state(rng, n, allow_empty=True):
    lo = 0 if allow_empty else 1
    x = [rng.randint(lo, 6) for _ in range(n)]
    if allow_empty and all(v == 0 for v in x):
        x[rng.randrange(n)] = 1
    return x


class TestFairnessUtility:
    def test_log_branch(self):
        got = fairness_utility([2.0, 3.0], [1, 2], alpha=1.0)
        assert got == pytest.approx(math.log(2.0) + 2.0 * math.log(1.5), rel=1e-14)

    def test_power_branch(self):
        # alpha = 2: x * (p/x)^(-1) / (-1) = -x^2 / p
        got = fairness_utility([2.0, 5.0], [1, 2], alpha=2.0)
        assert got == pytest.approx(-1.0 / 2.0 - 4.0 / 5.0, rel=1e-14)

    def test_empty_station_skipped(self):
        assert fairness_utility([0.0, 1.0], [0, 1], alpha=1.0) == 0.0

    def test_zero_power_sign(self):
        assert fairness_utility([0.0], [1], alpha=1.0) == -math.inf
        assert fairness_utility([0.0], [1], alpha=2.0) == -math.inf
        assert fairness_utility([0.0], [1], alpha=0.5) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fairness_utility([1.0], [1, 2], alpha=1.0)


class TestFairnessSpec:
    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError):
            FairnessSpec(alpha=alpha)


class TestQueueInput:
    def test_rejects_negative_or_fractional(self):
        cfg = NetworkConfig(2, 1.0, 0.1)
        for allocate in (alpha_fair_lindist, alpha_fair_distflow):
            for bad in ((1, -1), (1, 1.5)):
                with pytest.raises(ValueError, match="nonnegative integers"):
                    allocate(bad, FairnessSpec(1.0), cfg)


class TestLindistAllocator:
    def test_all_empty_gives_zero(self):
        cfg = NetworkConfig(3, 1.0, 0.1)
        assert alpha_fair_lindist([0, 0, 0], FairnessSpec(1.0), cfg).p == (0.0,) * 3

    def test_two_station_proportional_fairness_closed_form(self, rng):
        # equal queues, alpha = 1: p = (B / (8 r), B / (4 r)) with B the
        # squared-voltage headroom; nearer station gets twice the power
        for _ in range(10):
            r = rng.uniform(0.1, 3.0)
            delta = rng.uniform(0.01, 0.5)
            cfg = NetworkConfig(2, r, delta)
            b = cfg.w_headroom
            p = alpha_fair_lindist([1, 1], FairnessSpec(1.0), cfg).p
            assert p[0] == pytest.approx(b / (8.0 * r), rel=1e-12)
            assert p[1] == pytest.approx(b / (4.0 * r), rel=1e-12)

    def test_constraint_binds(self, rng):
        for alpha in ALPHAS:
            for _ in range(10):
                n = rng.randint(1, 9)
                cfg = NetworkConfig(n, rng.uniform(0.1, 3.0), rng.uniform(0.01, 0.5))
                x = _random_state(rng, n)
                p = alpha_fair_lindist(x, FairnessSpec(alpha), cfg)
                slack = voltage_slack(p, cfg, PowerModel.LINDIST)
                assert abs(slack) <= 1e-10 * cfg.w_headroom

    def test_empty_stations_get_nothing(self, rng):
        cfg = NetworkConfig(5, 1.0, 0.2)
        p = alpha_fair_lindist([2, 0, 1, 0, 4], FairnessSpec(2.0), cfg).p
        assert p[1] == 0.0 and p[3] == 0.0
        assert all(v > 0.0 for j, v in enumerate(p) if j not in (1, 3))

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_common_integer_scaling_leaves_allocation_fixed(self, rng, alpha):
        for _ in range(10):
            n = rng.randint(1, 8)
            cfg = NetworkConfig(n, rng.uniform(0.1, 2.0), 0.3)
            x = _random_state(rng, n)
            scale = rng.randint(2, 9)
            base = alpha_fair_lindist(x, FairnessSpec(alpha), cfg).p
            scaled = alpha_fair_lindist([scale * v for v in x], FairnessSpec(alpha), cfg).p
            for a, b in zip(base, scaled):
                assert b == pytest.approx(a, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_station_near_root_never_worse_off(self, alpha):
        # equal queues: constraint weights shrink toward the root, power grows
        cfg = NetworkConfig(6, 0.8, 0.25)
        p = alpha_fair_lindist([3] * 6, FairnessSpec(alpha), cfg).p
        for lo, hi in zip(p, p[1:]):
            assert hi > lo

    @pytest.mark.filterwarnings("ignore:Values in x were outside bounds")
    def test_matches_slsqp(self, rng):
        # independent numerical maximizer on the half-space constraint
        for _ in range(6):
            n = 3
            cfg = NetworkConfig(n, rng.uniform(0.3, 2.0), rng.uniform(0.05, 0.4))
            x = _random_state(rng, n, allow_empty=False)
            want = alpha_fair_lindist(x, FairnessSpec(1.0), cfg).p
            weights = [2.0 * cfg.resistance * (n - j) for j in range(n)]
            # generic interior start: half the headroom spread evenly
            x0 = [cfg.w_headroom / (2.0 * n * w) for w in weights]

            def neg_utility(p):
                return -fairness_utility(p, x, 1.0)

            res = optimize.minimize(
                neg_utility,
                x0=x0,
                method="SLSQP",
                bounds=[(1e-12, None)] * n,
                constraints=[
                    {
                        "type": "ineq",
                        "fun": lambda p: cfg.w_headroom
                        - sum(w * v for w, v in zip(weights, p)),
                    }
                ],
                options={"ftol": 1e-12, "maxiter": 500},
            )
            # status 8 is the line search failing to improve on a point that
            # is already stationary; the coordinate check below is the oracle
            assert res.status in (0, 8)
            for a, b in zip(res.x, want):
                assert b == pytest.approx(a, abs=1e-6)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            alpha_fair_lindist([1, 1], FairnessSpec(1.0), NetworkConfig(3, 1.0, 0.1))


class TestDistflowAllocator:
    def test_all_empty_gives_zero(self):
        cfg = NetworkConfig(3, 1.0, 0.1)
        assert alpha_fair_distflow([0, 0, 0], FairnessSpec(1.0), cfg).p == (0.0,) * 3

    def test_constraint_binds(self, rng):
        for alpha in ALPHAS:
            for _ in range(8):
                n = rng.randint(1, 8)
                cfg = NetworkConfig(n, rng.uniform(0.1, 3.0), rng.uniform(0.02, 0.5))
                x = _random_state(rng, n)
                p = alpha_fair_distflow(x, FairnessSpec(alpha), cfg)
                slack = voltage_slack(p, cfg, PowerModel.DISTFLOW)
                assert abs(slack) <= 1e-9

    def test_kkt_stationarity(self, rng):
        # x_j^alpha p_j^-alpha / g_j must be one number (the multiplier)
        for alpha in (0.5, 1.0, 2.0):
            for _ in range(8):
                n = rng.randint(2, 7)
                cfg = NetworkConfig(n, rng.uniform(0.2, 2.0), rng.uniform(0.05, 0.45))
                x = _random_state(rng, n, allow_empty=False)
                p = alpha_fair_distflow(x, FairnessSpec(alpha), cfg).p
                prof = distflow_voltages(p, cfg.resistance)
                grad = distflow_gradient(p, cfg.resistance)
                ratios = [
                    (x[j] / p[j]) ** alpha / (2.0 * prof.root_end * grad[j])
                    for j in range(n)
                ]
                mu = ratios[0]
                for val in ratios[1:]:
                    assert val == pytest.approx(mu, rel=1e-6)

    def test_empty_stations_get_nothing(self):
        cfg = NetworkConfig(4, 1.5, 0.3)
        p = alpha_fair_distflow([0, 2, 0, 5], FairnessSpec(0.5), cfg).p
        assert p[0] == 0.0 and p[2] == 0.0
        assert p[1] > 0.0 and p[3] > 0.0

    def test_common_integer_scaling_leaves_allocation_fixed(self, rng):
        for _ in range(8):
            n = rng.randint(1, 6)
            cfg = NetworkConfig(n, rng.uniform(0.2, 2.0), 0.25)
            x = _random_state(rng, n)
            scale = rng.randint(2, 9)
            base = alpha_fair_distflow(x, FairnessSpec(1.0), cfg).p
            scaled = alpha_fair_distflow(
                [scale * v for v in x], FairnessSpec(1.0), cfg
            ).p
            for a, b in zip(base, scaled):
                assert b == pytest.approx(a, rel=1e-6, abs=1e-300)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_station_near_root_never_worse_off(self, alpha):
        cfg = NetworkConfig(6, 0.8, 0.25)
        p = alpha_fair_distflow([3] * 6, FairnessSpec(alpha), cfg).p
        for lo, hi in zip(p, p[1:]):
            assert hi > lo

    def test_close_to_lindist_at_small_drop(self):
        # losses vanish with the drop, so the two models nearly agree
        cfg = NetworkConfig(2, 1.0, 0.05)
        lin = alpha_fair_lindist([1, 1], FairnessSpec(1.0), cfg).p
        dist = alpha_fair_distflow([1, 1], FairnessSpec(1.0), cfg).p
        for a, b in zip(dist, lin):
            assert abs(a - b) <= 0.05 * b

    def test_total_power_within_global_bound(self, rng):
        for _ in range(10):
            n = rng.randint(1, 8)
            cfg = NetworkConfig(n, rng.uniform(0.1, 3.0), rng.uniform(0.02, 0.5))
            x = _random_state(rng, n)
            p = alpha_fair_distflow(x, FairnessSpec(rng.choice(ALPHAS)), cfg).p
            assert math.fsum(p) <= cfg.w_limit / cfg.resistance

    def test_warm_hints_do_not_change_the_answer(self):
        # the simulator warm-starts each solve from the previous state's
        # powers, one vehicle away
        cfg = NetworkConfig(5, 1.0, 0.2)
        spec = FairnessSpec(1.0)
        cold = _binding_solve((3, 1, 0, 2, 4), spec, cfg)
        warm = _binding_solve((3, 1, 0, 2, 5), spec, cfg, cold)[0]
        fresh = alpha_fair_distflow([3, 1, 0, 2, 5], spec, cfg).p
        for a, b in zip(warm, fresh):
            assert a == pytest.approx(b, rel=1e-6, abs=1e-300)

    def test_a_shot_that_gives_up_raises_with_its_last_residual(self, monkeypatch):
        _off_by_one_shots(monkeypatch)
        with pytest.raises(AllocationError) as info:
            alpha_fair_distflow([1, 2, 3], FairnessSpec(2.0), NetworkConfig(3, 1.0, 0.2))
        # the continuation never left zero load, and V_N stayed past the cap
        f1, f2 = _last_residual(str(info.value))
        assert f1 > 0.0 and math.isfinite(f2)

    def test_a_shot_that_gives_up_names_its_residual_on_stderr(self, monkeypatch, capsys):
        _off_by_one_shots(monkeypatch)
        argv = ["allocate", "--x", "1,2,3", "--delta", "0.2", "--alpha", "2", "--model", "distflow"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "solver failure" in err
        f1, f2 = _last_residual(err)
        assert f1 > 0.0 and math.isfinite(f2)

    @pytest.mark.parametrize("r,delta", [(1.0, 0.2), (0.3, 0.5), (2.5, 0.01)])
    def test_single_station_takes_the_whole_headroom(self, monkeypatch, r, delta):
        # V_1 = 1 + r p_0 = v_limit has a closed form; nothing is shot
        cfg = NetworkConfig(1, r, delta)
        shots = _spy_shooting(monkeypatch)
        for x in (1, 7, 300):
            p = alpha_fair_distflow([x], FairnessSpec(0.5 * x), cfg).p
            assert p == ((cfg.v_limit - 1.0) / r,)
            slack = voltage_slack(p, cfg, PowerModel.DISTFLOW)
            assert abs(slack) <= 1e-9
        assert shots == []

    def test_validation(self):
        cfg = NetworkConfig(2, 1.0, 0.1)
        with pytest.raises(ValueError):
            alpha_fair_distflow([1], FairnessSpec(1.0), cfg)
        with pytest.raises(ValueError):
            alpha_fair_distflow([1, -1], FairnessSpec(1.0), cfg)


def _off_by_one_shots(monkeypatch) -> None:
    # a sweep whose V_N reads one too high never meets any target
    shoot = allocator._shoot

    def off_by_one(*args):
        out = shoot(*args)
        return None if out is None else (out[0], out[1] + 1.0, *out[2:])

    monkeypatch.setattr(allocator, "_shoot", off_by_one)


def _last_residual(message: str) -> tuple[float, float]:
    """The (V_N - v_limit, costate ratio) pair of a failed shot at t = 0."""
    found = re.search(
        r"\(V_N - v_limit, costate ratio\) = \((\S+), (\S+)\), continuation at t = 0$",
        message.strip(),
    )
    assert found, message
    return float(found[1]), float(found[2])


def _hint(q):
    """A binding-solve hint made from bare loads, with no settled shot and no Jacobian."""
    return (tuple(q), tuple(int(v > 0.0) for v in q), _root_voltage(q), None, None)


def _assert_settled(solved, spec) -> None:
    """The returned V_N is the value-only pass on the loads, bit for bit, and
    the carried (b_2, log c, b_N) are the unknowns and b_N of the sweep that
    gives those loads; repr tells every bit of a double apart."""
    loads, counts, v_n, shot, _ = solved
    assert repr(v_n) == repr(_root_voltage(loads))
    if shot is not None:
        beta, ell, b_n = shot
        q, v, _, b = allocator._shoot_values(counts, 1.0 / spec.alpha, beta, ell)
        assert repr((tuple(q), v, b)) == repr((loads, v_n, b_n))


def _count_gradients(monkeypatch) -> list:
    """Record the loads of every adjoint gradient the allocator takes."""
    calls = []
    gradient = allocator._root_voltage_and_gradient

    def spy(q):
        calls.append(tuple(q))
        return gradient(q)

    monkeypatch.setattr(allocator, "_root_voltage_and_gradient", spy)
    return calls


def _count_tangent_sweeps(monkeypatch) -> list:
    """Record the unknowns of every two-tangent `_shoot` sweep."""
    calls = []
    shoot = allocator._shoot

    def spy(*args):
        calls.append(args[2:])
        return shoot(*args)

    monkeypatch.setattr(allocator, "_shoot", spy)
    return calls


def _one_vehicle_walk(n: int, alpha: float, delta: "float | None" = None) -> tuple:
    """A seeded feeder and 41 heavy states, each one vehicle from the last.

    delta, if given, replaces the feeder's drawn delta; the states stay.
    """
    rng = random.Random(1000 * n + int(4 * alpha))
    r, drawn = rng.uniform(0.1, 5.0), rng.uniform(0.05, 0.5)
    cfg = NetworkConfig(n, r, drawn if delta is None else delta)
    total = 10.0 ** rng.uniform(2.0, 3.5)
    x = [max(1, int(total / n * rng.uniform(0.2, 1.8))) for _ in range(n)]
    states = [tuple(x)]
    for _ in range(40):
        j = rng.randrange(n)
        x[j] += -1 if x[j] > 0 and rng.random() < 0.5 else 1
        states.append(tuple(x))
    return cfg, states


def _spy_shooting(monkeypatch) -> list:
    """Record every damped shot: what it returns if it settles, else None.

    A start that gives no shot records nothing, and a shot that does not
    settle records None, so the continuation's shots show up after the
    first one of a solve.
    """
    results = []
    shot = allocator._damped_shot

    def spy(*args):
        out = shot(*args)
        results.append(out if out is not None and out[0] else None)
        return out

    monkeypatch.setattr(allocator, "_damped_shot", spy)
    return results


def _check_walk(monkeypatch, n: int, alpha: float, delta: "float | None" = None) -> None:
    """Warm-solve a one-vehicle walk, each state from the last, against the oracles."""
    cfg, states = _one_vehicle_walk(n, alpha, delta)
    spec = FairnessSpec(alpha)
    solved = _binding_solve(states[0], spec, cfg)
    shots = _spy_shooting(monkeypatch)
    gradients = _count_gradients(monkeypatch)
    for prev, x in zip(states, states[1:]):
        before = len(gradients)
        solved = _binding_solve(x, spec, cfg, solved)
        _assert_settled(solved, spec)
        p = [q / cfg.resistance for q in solved[0]]
        if any(b and not a for a, b in zip(prev, x)):
            # a newly occupied station: the cold start, one adjoint pass on
            # the closed form, starts the shot
            assert gradients[before:] == [tuple(_lin_split(x, alpha, cfg.w_headroom))]
        else:
            # the hint's settled shot starts this one; no pass is taken
            assert len(gradients) == before
        slack = voltage_slack(p, cfg, PowerModel.DISTFLOW)
        assert abs(slack) <= 1e-9
        want, _ = _dual_solve(x, spec, cfg)
        for a, b in zip(p, want):
            assert a == pytest.approx(b, rel=1e-7, abs=1e-15)
    # every warm solve shoots, a newly occupied station included
    assert len(shots) == 40
    assert all(s is not None for s in shots)
    # after 40 warm solves the powers sit on the 40-digit KKT point
    want = kkt_point_mp(x, alpha, cfg.resistance, cfg.delta)
    for a, b in zip(p, want):
        assert a == pytest.approx(b, rel=1e-12 if n <= 20 else 3e-11, abs=0.0)


class TestWarmChain:
    """The simulator's path: every solve is warm-started from the powers of
    the state before it, one vehicle away, and must land where a cold
    route lands.
    """

    @pytest.mark.parametrize("n", [5, 20, 80])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_one_vehicle_walks_match_the_dual_oracle(self, monkeypatch, n, alpha):
        _check_walk(monkeypatch, n, alpha)

    @pytest.mark.parametrize("n", [5, 20])
    def test_small_delta_walks_match_the_kkt_point(self, monkeypatch, n):
        # the warm phase stops with V_N up to 1e-13 v_limit off the cap,
        # which moves the powers by about that over delta; at delta = 0.01
        # the last state must still land within the walks' 1e-12
        _check_walk(monkeypatch, n, 1.0, delta=0.01)

    def test_warm_solves_step_on_value_only_sweeps(self, monkeypatch):
        # each solve carries its Jacobian to the next, whose quasi-Newton
        # phase then needs no two-tangent sweep
        sweeps = _count_tangent_sweeps(monkeypatch)
        free = 0
        for n in (5, 20, 80):
            for alpha in (0.5, 1.0, 2.0):
                cfg, states = _one_vehicle_walk(n, alpha)
                spec = FairnessSpec(alpha)
                solved = _binding_solve(states[0], spec, cfg)
                for x in states[1:]:
                    before = len(sweeps)
                    solved = _binding_solve(x, spec, cfg, solved)
                    free += len(sweeps) == before
        assert free >= 0.9 * 9 * 40

    @pytest.mark.parametrize(
        "corrupt,passes",
        [
            (lambda j: tuple(1e3 * v for v in j), 0),
            (lambda j: (j[2], j[3], j[0], j[1]), 0),
            (lambda j: (0.0,) * 4, 1),
            (lambda j: (math.nan,) * 4, 1),
        ],
        ids=["scaled-1e3", "rows-swapped", "singular", "nan"],
    )
    def test_a_corrupted_jacobian_hands_over_to_newton(self, monkeypatch, corrupt, passes):
        cfg, states = _one_vehicle_walk(20, 1.0)
        spec = FairnessSpec(1.0)
        hint = _binding_solve(states[0], spec, cfg)
        sweeps = _count_tangent_sweeps(monkeypatch)
        gradients = _count_gradients(monkeypatch)
        solved = _binding_solve(states[1], spec, cfg, (*hint[:4], corrupt(hint[4])))
        q, _, v_n, _, jac = solved
        # the phase gives up, Newton settles, and its tangents give the
        # Jacobian carried on
        assert sweeps
        assert all(math.isfinite(v) for v in jac)
        # a finite J_12 moves the hint's log c; J_12 = 0 or nan leaves the
        # warm formula no start, and the cold start, one adjoint pass on the
        # closed form, gives it instead
        assert gradients == [tuple(_lin_split(states[1], spec.alpha, cfg.w_headroom))] * passes
        _assert_settled(solved, spec)
        assert abs(cfg.w_limit - v_n * v_n) <= 1e-9
        want, _ = _dual_solve(states[1], spec, cfg)
        for a, b in zip(q, want):
            assert a / cfg.resistance == pytest.approx(b, rel=1e-7, abs=1e-15)

    @pytest.mark.parametrize("shift", [1000.0, -1000.0], ids=["g-underflows", "g-overflows"])
    def test_g_out_of_the_floats_takes_the_cold_start(self, monkeypatch, shift):
        # e^(-log c) underflows to 0 or overflows, so no stationarity
        # gradient g_k of the warm formula is a double: the cold start, one
        # adjoint pass on the closed form, starts the shot instead
        cfg, states = _one_vehicle_walk(20, 1.0)
        spec = FairnessSpec(1.0)
        loads, was, v_n, (beta, ell, b_n), jac = _binding_solve(states[0], spec, cfg)
        hint = (loads, was, v_n, (beta, ell + shift, b_n), jac)
        assert allocator._warm_start(states[1], spec.alpha, hint) is None
        gradients = _count_gradients(monkeypatch)
        solved = _binding_solve(states[1], spec, cfg, hint)
        assert gradients == [tuple(_lin_split(states[1], spec.alpha, cfg.w_headroom))]
        _assert_settled(solved, spec)
        want, _ = _dual_solve(states[1], spec, cfg)
        for a, b in zip(solved[0], want):
            assert a / cfg.resistance == pytest.approx(b, rel=1e-7, abs=1e-15)

    def test_no_cold_solve_enters_the_phase(self, monkeypatch):
        # a cold solve's first shot and the continuation's first carry no
        # Jacobian in, so neither enters the quasi-Newton phase; every later
        # continuation shot starts from the unknowns and Jacobian the last
        # settled step returned, as a warm solve does
        phases = []
        phase = allocator._broyden_shot

        def phase_spy(*args):
            phases.append(args[5])
            return phase(*args)

        shots = []
        shot = allocator._damped_shot

        def shot_spy(*args):
            out = shot(*args)
            shots.append((args[3:5], args[5] if len(args) > 5 else None, out))
            return out

        monkeypatch.setattr(allocator, "_broyden_shot", phase_spy)
        monkeypatch.setattr(allocator, "_damped_shot", shot_spy)

        def check_continuation(steps):
            settled = None
            for start, jac, out in steps:
                if settled is None:
                    # still at t = 0: the zero-load gradient start
                    assert jac is None
                else:
                    assert (*start, jac) == settled
                if out[0]:
                    settled = out[5:]

        carried = []
        for x, alpha, cfg in hard_allocation_cases(5, 200):
            shots.clear()
            alpha_fair_distflow(x, FairnessSpec(alpha), cfg)
            if shots:
                assert shots[0][1] is None
                check_continuation(shots[1:])
                carried += [jac for _, jac, _ in shots if jac is not None]
        # case 194 (N = 27) continues, and its later steps enter the phase
        assert carried and phases == carried
        # a real hint that has lost station 0, so the solve takes the cold
        # start, whose shot gives up: that first shot carries the hint's
        # Jacobian in, and the continuation never does
        x = (3, 6, 11, 20, 36, 66, 119, 217, 395, 716)
        spec, cfg = FairnessSpec(0.3), NetworkConfig(10, 1.0, 0.45)
        hint = _binding_solve((0, *x[1:]), spec, cfg)
        phases.clear()
        shots.clear()
        _binding_solve(x, spec, cfg, hint)
        assert shots[0][1] is hint[4] and not shots[0][2][0]
        assert len(shots) > 1
        assert all(jac is not hint[4] for _, jac, _ in shots[1:])
        check_continuation(shots[1:])
        assert phases == [jac for _, jac, _ in shots if jac is not None]
        # a simulator run's first solve is cold, its next miss warm
        phases.clear()
        solve = _make_allocator(PowerModel.DISTFLOW, FairnessSpec(1.0), NetworkConfig(5, 1.0, 0.1))
        solve((1, 2, 3, 4, 5))
        assert phases == []
        solve((1, 2, 3, 4, 6))
        assert len(phases) == 1

    @pytest.mark.parametrize(
        "x,hint_from",
        [
            ((7,), (3,)),  # one station: the closed form, nothing to shoot
            ((900, 5, 5, 5, 700), (1, 800, 900, 800, 1)),  # distant occupancy
        ],
    )
    def test_fallback_gives_the_same_answer(self, monkeypatch, x, hint_from):
        # one station takes its closed form; a distant hint's shot needs
        # damped steps; both must land where the dual oracle does
        cfg = NetworkConfig(len(x), 2.0, 0.4)
        spec = FairnessSpec(1.0)
        hint = _binding_solve(hint_from, spec, cfg)
        shots = _spy_shooting(monkeypatch)
        solved = _binding_solve(x, spec, cfg, hint)
        assert len(shots) == (len(x) > 1)
        assert (solved[3] is None) == (len(x) == 1)
        _assert_settled(solved, spec)
        loads = solved[0]
        want, _ = _dual_solve(x, spec, cfg)
        for a, b in zip(loads, want):
            assert a / cfg.resistance == pytest.approx(b, rel=1e-7, abs=1e-15)

    @pytest.mark.parametrize(
        "x,alpha,loads",
        [((1, 2, 3), 1.0, [math.inf] * 3), ((1, 1, 1), 0.3, [1e150, 1e-10, 1e-10])],
        ids=["inf", "far"],
    )
    def test_a_hint_with_no_settled_shot_gives_the_cold_solve(self, x, alpha, loads):
        # the solve reads a hint only through its settled shot and its
        # Jacobian: with neither, whatever its loads (with an infinite V_N,
        # or 1e160 apart), the solve is the hint-less one, bit for bit
        cfg = NetworkConfig(3, 1.0, 0.1)
        spec = FairnessSpec(alpha)
        warm = _binding_solve(x, spec, cfg, _hint(loads))
        assert repr(warm) == repr(_binding_solve(x, spec, cfg))

    def test_newly_emptied_station_moves_the_carried_start(self, monkeypatch):
        # the emptied station's load leaves V_N through its own g_1 q_1, so
        # the shot starts at the hint's b_2 and log c + g_1 q_1 / J_12,
        # with g from stationarity, and no adjoint pass is taken
        cfg = NetworkConfig(6, 1.3, 0.2)
        spec = FairnessSpec(1.0)
        hint = _binding_solve((40, 1, 25, 60, 10, 30), spec, cfg)
        loads, was, _, (beta, ell, b_n), jac = hint
        grad = _root_voltage_and_gradient(list(loads))[1]
        for k, q in enumerate(loads):
            # stationarity: g_k = (x_k / q_k)^alpha e^(-log c) / b_N
            g = (was[k] / q) ** spec.alpha * math.exp(-ell) / b_n
            assert g == pytest.approx(grad[k], rel=1e-9)
        starts = []
        shot = allocator._damped_shot

        def spy(*args):
            starts.append(args[3:5])
            return shot(*args)

        monkeypatch.setattr(allocator, "_damped_shot", spy)
        gradients = _count_gradients(monkeypatch)
        x = (40, 0, 25, 60, 10, 30)
        solved = _binding_solve(x, spec, cfg, hint)
        assert gradients == []
        assert len(starts) == 1
        assert starts[0][0] == beta
        assert starts[0][1] == pytest.approx(ell + grad[1] * loads[1] / jac[1], rel=1e-12)
        _assert_settled(solved, spec)
        want, _ = _dual_solve(x, spec, cfg)
        for a, b in zip(solved[0], want):
            assert a / cfg.resistance == pytest.approx(b, rel=1e-7, abs=1e-15)

    def test_stale_hints_take_the_cold_start(self, monkeypatch):
        # a stable 20-station run revisits cached states between misses, and
        # a hit leaves the hint as it is, so a miss's hint may have gained one
        # station and emptied another.  Such a solve starts from the closed
        # form, and the run takes 888 two-tangent sweeps; a start from the
        # hint's loads, with the new station unpowered, took 3216
        sweeps = _count_tangent_sweeps(monkeypatch)
        argv = [
            "simulate", "--model", "distflow", "--n", "20", "--delta", "0.1",
            "--mult", "0.5", "--replications", "1", "--events", "2000", "--seed", "7",
        ]
        assert main(argv) == 0
        assert len(sweeps) <= 1500

    def _newly_occupied(self):
        # station 2 was empty in the hint's state, so the hint leaves it
        # unpowered; no station has emptied
        cfg = NetworkConfig(6, 1.3, 0.2)
        spec = FairnessSpec(1.0)
        hint = _binding_solve((40, 12, 0, 60, 10, 30), spec, cfg)
        assert hint[0][2] == 0.0
        return cfg, spec, hint, (40, 12, 1, 60, 10, 30)

    def test_newly_occupied_station_shoots_from_the_hint(self, monkeypatch):
        cfg, spec, hint, x = self._newly_occupied()
        carried = []
        shot = allocator._damped_shot

        def spy(*args):
            out = shot(*args)
            carried.append((args[5], out[0]))
            return out

        monkeypatch.setattr(allocator, "_damped_shot", spy)
        gradients = _count_gradients(monkeypatch)
        q = _binding_solve(x, spec, cfg, hint)[0]
        # the new station's g is not known from stationarity: the cold start,
        # one adjoint pass on the closed form, starts the one shot, which
        # steps with the hint's Jacobian; no pass closes it
        assert carried == [(hint[4], True)]
        assert gradients == [tuple(_lin_split(x, spec.alpha, cfg.w_headroom))]
        p = [v / cfg.resistance for v in q]
        slack = voltage_slack(p, cfg, PowerModel.DISTFLOW)
        assert abs(slack) <= 1e-9
        want, _ = _dual_solve(x, spec, cfg)
        for a, b in zip(p, want):
            assert a == pytest.approx(b, rel=1e-7, abs=1e-15)



class TestColdStart:
    """A hint-less solve starts its shot from the linearized closed form,
    with one adjoint gradient taken there; so does a warm solve whose hint
    gives no start from its settled shot, a gained station included."""

    CASES = [
        ((3, 0, 1, 2), 2.0, NetworkConfig(4, 1.0, 0.15)),
        ((40, 12, 0, 60, 10, 30), 1.0, NetworkConfig(6, 1.3, 0.2)),
        ((1, 7, 3, 0, 9, 2, 5, 8, 4, 6), 0.5, NetworkConfig(10, 0.4, 0.3)),
    ]

    @pytest.mark.parametrize("x,alpha,cfg", CASES)
    def test_shoots_once_on_one_gradient(self, monkeypatch, x, alpha, cfg):
        # the solve runs on unit resistance, where the loads are the powers
        spec = FairnessSpec(alpha)
        unit = replace(cfg, resistance=1.0)
        seed = alpha_fair_lindist(x, spec, unit).p
        shots = _spy_shooting(monkeypatch)
        gradients = _count_gradients(monkeypatch)
        alpha_fair_distflow(x, spec, cfg)
        assert len(shots) == 1 and shots[0] is not None
        # one gradient on the seed starts the shot; none ends it
        assert gradients == [seed]



def _assert_stationary(p, x, alpha) -> None:
    """Stationarity on unit resistance: (p_j / x_j)^(-alpha) / g_j is one
    multiplier over the occupied stations, to 1e-8."""
    grad = _root_voltage_and_gradient(list(p))[1]
    ratios = [(p[j] / x[j]) ** -alpha / grad[j] for j in range(len(x)) if x[j] > 0]
    assert max(ratios) / min(ratios) - 1.0 <= 1e-8


class TestHardMix:
    """The seeded stress mix of `oracles.hard_allocation_cases`: delta up to
    1/2, alpha 0.25 to 4, sparse, geometric and heavy occupancies."""

    @pytest.mark.parametrize("seed", [5, 7])
    def test_every_cold_solve_settles(self, monkeypatch, seed):
        shots = _spy_shooting(monkeypatch)
        gradients = _count_gradients(monkeypatch)
        solved = unsettled = 0
        for x, alpha, cfg in hard_allocation_cases(seed, 1700):
            first, passes = len(shots), len(gradients)
            p, _, v_n = _binding_solve(x, FairnessSpec(alpha), cfg)[:3]
            # one adjoint pass starts the first shot, and the continuation
            # takes none; one station takes its closed form unshot
            assert len(gradients) - passes == (cfg.n_stations > 1)
            if cfg.n_stations > 1:
                unsettled += shots[first] is None
            assert abs(cfg.w_limit - v_n * v_n) <= 1e-9
            _assert_stationary(p, x, alpha)
            solved += 1
        assert solved > 1300
        # the first shot gives up on a few solves, and the continuation
        # from zero load settles each of them
        assert 0 < unsettled <= 0.01 * solved

    def test_a_shot_stopped_at_the_rounding_floor_settles(self, monkeypatch):
        # N = 187, every station occupied: the one damped shot ends where a
        # halved step no longer moves the unknowns, short of its 1e-12
        # V_N tolerance, and the solve still lands on the constraint
        x, alpha, cfg = hard_allocation_cases(5, 950)[949]
        shots = _spy_shooting(monkeypatch)
        p, _, v_n = _binding_solve(x, FairnessSpec(alpha), cfg)[:3]
        assert len(shots) == 1 and shots[0] is not None
        assert abs(shots[0][2] - cfg.v_limit) >= 1e-12 * cfg.v_limit
        assert abs(cfg.w_limit - v_n * v_n) <= 1e-9
        _assert_stationary(p, x, alpha)


class TestScaleMix:
    """`oracles.scale_allocation_cases` at seed 2: N 10^3 to 3 10^3, delta up
    to 1/2.  Two of its twelve cold shots give up (N = 2858 and 1533), and
    the continuation settles them in 2952 and 915 sweeps, where one that
    restarted each step from a fresh adjoint gradient took 180606 and 7989."""

    SWEEPS = 5000  # `_shoot` plus `_shoot_values` sweeps a solve may take

    def test_every_solve_settles_in_bounded_sweeps(self, monkeypatch):
        count = [0]

        def spy(sweep):
            def counted(*args):
                count[0] += 1
                # stop a runaway solve here rather than let it run for minutes
                assert count[0] <= self.SWEEPS, "the solve exceeds its sweep bound"
                return sweep(*args)

            return counted

        for name in ("_shoot", "_shoot_values"):
            monkeypatch.setattr(allocator, name, spy(getattr(allocator, name)))
        shots = _spy_shooting(monkeypatch)
        gave_up = 0
        for x, alpha, cfg in scale_allocation_cases(2, 12):
            count[0] = 0
            first = len(shots)
            p, _, v_n = _binding_solve(x, FairnessSpec(alpha), cfg)[:3]
            gave_up += shots[first] is None
            assert abs(cfg.w_limit - v_n * v_n) <= 1e-9
            _assert_stationary(p, x, alpha)
        assert gave_up == 2


class TestTinyAlpha:
    """At alpha near 0 the weights' powers w^(-1/alpha) leave the doubles;
    that is a failure naming alpha, or the station whose power underflows,
    never a silent zero or a bare arithmetic error."""

    SPEC = FairnessSpec(0.001)

    def test_closed_form_with_every_power_underflowing(self):
        # unit weights w = 6, 4, 2 at any r: only the station next to the
        # root keeps representable powers, w^(-1/alpha) = 2^-1000, so the
        # same states fail at every r
        for r in (1.0, 0.1, 1e-10):
            cfg = NetworkConfig(3, r, 0.1)
            with pytest.raises(AllocationError, match="alpha = 0.001 takes the weights"):
                alpha_fair_lindist([1, 0, 0], self.SPEC, cfg)
            msg = f"station 0's power 0.0 at r = {r!r}, alpha = 0.001 is not a normal double"
            with pytest.raises(AllocationError, match=re.escape(msg)):
                alpha_fair_lindist([1, 1, 1], self.SPEC, cfg)
            # 2^-1000 times the scale headroom 2^999 halves the headroom exactly
            want = (0.0, 0.0, cfg.w_headroom / 2.0 / r)
            assert alpha_fair_lindist([0, 0, 1], self.SPEC, cfg).p == want
            assert alpha_fair_lindist([0, 0, 0], self.SPEC, cfg).p == (0.0,) * 3

    @pytest.mark.parametrize("r", [1.0, 0.1])
    def test_distflow(self, r):
        # the zero-load start's loads leave the doubles; the solve runs on
        # unit resistance, so r = 0.1 fails just as r = 1 does
        cfg = NetworkConfig(3, r, 0.1)
        with pytest.raises(AllocationError, match="alpha = 0.001"):
            alpha_fair_distflow([1, 1, 1], self.SPEC, cfg)
        assert alpha_fair_distflow([0, 0, 0], self.SPEC, cfg).p == (0.0,) * 3

    @pytest.mark.parametrize(
        "grad", [[1.0, 0.1], [1e300, 1e-300]], ids=["overflow", "zero-division"]
    )
    def test_gradient_start_out_of_the_floats_gives_none(self, grad):
        # (g_1 / g_0)^(-1000) overflows, or g_1 / g_0 underflows to 0
        args = ((1, 1), [0, 1], 1000.0, 1.1, [0.0, 0.0], 1.0, grad)
        assert allocator._gradient_start(*args) is None


class TestGradientStart:
    """`_gradient_start` gives no start, and shoots nothing, where the start's
    gradient or linearized V_N gives no multiplier."""

    @pytest.mark.parametrize("g1", [0.0, -1.0, math.nan])
    def test_active_station_without_a_positive_gradient_gives_none(self, monkeypatch, g1):
        shots = []
        monkeypatch.setattr(allocator, "_shoot", lambda *args: shots.append(args))
        args = ((1, 1), [0, 1], 1.0, 1.1, [0.0, 0.0], 1.0, [2.0, g1])
        assert allocator._gradient_start(*args) is None
        assert shots == []

    @pytest.mark.parametrize(
        "target,v_n,grad",
        [(1.1, 1.2, [2.0, 1.0]), (1e300, 1.0, [1e-300, 1e-300])],
        ids=["lift-not-positive", "slope-over-lift-underflows"],
    )
    def test_lift_or_slope_out_of_range_gives_none(self, monkeypatch, target, v_n, grad):
        # V_N already past the target leaves no lift; a lift of 1e300 over
        # a slope of 2e-300 leaves log c no double to take
        shots = []
        monkeypatch.setattr(allocator, "_shoot", lambda *args: shots.append(args))
        args = ((1, 1), [0, 1], 1.0, target, [0.0, 0.0], v_n, grad)
        assert allocator._gradient_start(*args) is None
        assert shots == []


class TestUnitResistance:
    """Both splits run on unit resistance; r only divides the loads they
    return."""

    @settings(max_examples=300)
    @given(
        x=st.lists(st.integers(0, 6), min_size=1, max_size=8).filter(any),
        alpha=st.floats(math.log(1e-3), math.log(4.0)).map(math.exp),
        delta=st.floats(0.01, 0.5),
        log_r=st.floats(-307.0, 308.0),
    )
    def test_lindist_powers_are_the_unit_powers_over_r(self, x, alpha, delta, log_r):
        r = 10.0**log_r
        spec = FairnessSpec(alpha)
        try:
            unit = alpha_fair_lindist(x, spec, NetworkConfig(len(x), 1.0, delta)).p
            got = alpha_fair_lindist(x, spec, NetworkConfig(len(x), r, delta)).p
        except AllocationError:
            return
        assert got == tuple(v / r for v in unit)

    @settings(max_examples=60)
    @given(
        x=st.lists(st.integers(0, 6), min_size=1, max_size=6).filter(any),
        alpha=st.sampled_from(ALPHAS),
        delta=st.floats(0.01, 0.5),
        log_r=st.floats(-307.0, 308.0),
    )
    def test_powers_are_the_unit_powers_over_r(self, x, alpha, delta, log_r):
        r = 10.0**log_r
        spec = FairnessSpec(alpha)
        unit = alpha_fair_distflow(x, spec, NetworkConfig(len(x), 1.0, delta)).p
        want = tuple(v / r for v in unit)
        cfg = NetworkConfig(len(x), r, delta)
        if all(2.2250738585072014e-308 <= v < math.inf for v, xj in zip(want, x) if xj):
            assert alpha_fair_distflow(x, spec, cfg).p == want
        else:
            with pytest.raises(AllocationError, match="is not a normal double"):
                alpha_fair_distflow(x, spec, cfg)


class TestShootValues:
    @settings(max_examples=1000)
    @given(
        counts=st.lists(st.sampled_from((0, 0, 1, 2, 5, 40, 300)), min_size=1, max_size=30),
        alpha=st.floats(0.25, 4.0),
        beta=st.floats(0.0, 1.2),
        ell=st.floats(-5.0, 30.0),
    )
    @example(counts=[0, 3, 0, 2], alpha=1.0, beta=-0.5, ell=0.0)  # both None
    @example(counts=[2, 0, 1, 1], alpha=0.25, beta=0.7, ell=3.0)
    def test_values_match_shoot_bit_for_bit(self, counts, alpha, beta, ell):
        # the tangents never feed the loads, V_N, the costate ratio or b_N;
        # repr tells every bit of a double apart
        args = (tuple(counts), 1.0 / alpha, beta, ell)
        try:
            shot = allocator._shoot(*args)
        except ArithmeticError as exc:
            with pytest.raises(type(exc)):
                allocator._shoot_values(*args)
            return
        values = allocator._shoot_values(*args)
        if shot is None:
            assert values is None
        else:
            assert repr(values) == repr(shot[:4])


class TestRouteConsistency:
    """The library's scale-direction solver and the oracle's dual search walk
    different paths to the same optimum; agreement is evidence both are right.
    """

    def test_solvers_agree(self, rng):
        cases = []
        for _ in range(25):
            n = rng.randint(1, 8)
            cfg = NetworkConfig(n, rng.uniform(0.05, 4.0), rng.uniform(0.01, 0.5))
            cases.append((_random_state(rng, n), rng.choice(ALPHAS), cfg))
        # the states an overloaded run visits: every station occupied,
        # hundreds to thousands of vehicles
        for alpha in (0.5, 1.0, 2.0):
            for _ in range(3):
                cfg = NetworkConfig(20, rng.uniform(0.05, 4.0), rng.uniform(0.01, 0.5))
                total = 10.0 ** rng.uniform(math.log10(300.0), math.log10(6000.0))
                x = [max(1, int(total / 20 * rng.uniform(0.2, 1.8))) for _ in range(20)]
                cases.append((x, alpha, cfg))
        for x, alpha, cfg in cases:
            spec = FairnessSpec(alpha)
            direct = alpha_fair_distflow(x, spec, cfg).p
            dual, _ = _dual_solve(x, spec, cfg)
            for a, b in zip(direct, dual):
                assert a == pytest.approx(b, rel=1e-7, abs=1e-15)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("model", ["lindist", "distflow"])
    def test_small_instances(self, rng, model):
        for _ in range(4):
            n = rng.randint(2, 4)
            cfg = NetworkConfig(n, rng.uniform(0.3, 1.5), rng.uniform(0.05, 0.4))
            alpha = rng.choice((0.5, 1.0, 2.0))
            x = _random_state(rng, n, allow_empty=False)
            if model == "lindist":
                got = alpha_fair_lindist(x, FairnessSpec(alpha), cfg).p
            else:
                got = alpha_fair_distflow(x, FairnessSpec(alpha), cfg).p
            want = grid_search_allocation(x, alpha, cfg, model)
            for a, b in zip(got, want):
                assert a == pytest.approx(b, abs=1e-4, rel=1e-3)
