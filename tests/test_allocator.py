"""Fair allocation layer: closed form, binding solve, and their oracles."""

import math
import random
import re

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
)
from linestab.powerflow import (
    NetworkConfig,
    PowerModel,
    _root_voltage_and_gradient,
    voltage_slack,
)
from linestab.cli import main
from oracles import (
    _dual_solve,
    distflow_gradient,
    distflow_voltages,
    fairness_utility,
    grid_search_allocation,
    hard_allocation_cases,
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
        warm, _, _ = _binding_solve((3, 1, 0, 2, 5), spec, cfg, cold)
        fresh = alpha_fair_distflow([3, 1, 0, 2, 5], spec, cfg).p
        for a, b in zip(warm, fresh):
            assert a == pytest.approx(b, rel=1e-6, abs=1e-300)

    def test_overflowing_hint_is_solved_from_zero_load(self):
        # the hint's V_N is infinite, so it gives no start; the continuation
        # from zero load solves the state
        cfg = NetworkConfig(3, 1.0, 0.1)
        spec = FairnessSpec(1.0)
        p, v_n, grad = _binding_solve((1, 2, 3), spec, cfg, _hint([math.inf] * 3, cfg))
        assert (v_n, grad) == _root_voltage_and_gradient(list(p), cfg.resistance)
        want, _ = _dual_solve((1, 2, 3), spec, cfg)
        for a, b in zip(p, want):
            assert a == pytest.approx(b, rel=1e-7, abs=1e-15)

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


def _hint(p, cfg):
    """A binding-solve hint made from bare powers, as the solve returns it."""
    return (tuple(p), *_root_voltage_and_gradient(p, cfg.resistance))


def _count_gradients(monkeypatch) -> list:
    """Record the powers of every adjoint gradient the allocator takes."""
    calls = []
    gradient = allocator._root_voltage_and_gradient

    def spy(p, r):
        calls.append(tuple(p))
        return gradient(p, r)

    monkeypatch.setattr(allocator, "_root_voltage_and_gradient", spy)
    return calls


def _spy_shooting(monkeypatch) -> list:
    """Record every damped shot: what it returns if it settles, else None.

    A shot that gives no start or does not settle records None, so the
    continuation's shots show up after the first one of a solve.
    """
    results = []
    shot = allocator._damped_shot

    def spy(*args):
        out = shot(*args)
        results.append(out if out is not None and out[0] else None)
        return out

    monkeypatch.setattr(allocator, "_damped_shot", spy)
    return results


def _spy_targets(monkeypatch) -> list:
    """Record the V_N target of every damped shot."""
    targets = []
    shot = allocator._damped_shot

    def spy(*args):
        targets.append(args[4])
        return shot(*args)

    monkeypatch.setattr(allocator, "_damped_shot", spy)
    return targets


class TestWarmChain:
    """The simulator's path: every solve is warm-started from the powers of
    the state before it, one vehicle away, and must land where a cold
    route lands.
    """

    @pytest.mark.parametrize("n", [5, 20, 80])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_one_vehicle_walks_match_the_dual_oracle(self, monkeypatch, n, alpha):
        rng = random.Random(1000 * n + int(4 * alpha))
        cfg = NetworkConfig(n, rng.uniform(0.1, 5.0), rng.uniform(0.05, 0.5))
        spec = FairnessSpec(alpha)
        total = 10.0 ** rng.uniform(2.0, 3.5)
        x = [max(1, int(total / n * rng.uniform(0.2, 1.8))) for _ in range(n)]
        solved = _binding_solve(tuple(x), spec, cfg)
        shots = _spy_shooting(monkeypatch)
        gradients = _count_gradients(monkeypatch)
        for _ in range(40):
            j = rng.randrange(n)
            x[j] += -1 if x[j] > 0 and rng.random() < 0.5 else 1
            before = (len(shots), len(gradients))
            solved = _binding_solve(tuple(x), spec, cfg, solved)
            p = solved[0]
            # the returned V_N and gradient are the adjoint pass on p itself
            assert solved[1:] == _root_voltage_and_gradient(list(p), cfg.resistance)
            if x[j] > 0 and len(shots) > before[0] and shots[before[0]] is not None:
                # no station emptied: the hint's gradient starts the shot,
                # and only the closing one is taken
                assert len(gradients) == before[1] + 1
            slack = voltage_slack(p, cfg, PowerModel.DISTFLOW)
            assert abs(slack) <= 1e-9
            want, _ = _dual_solve(x, spec, cfg)
            for a, b in zip(p, want):
                assert a == pytest.approx(b, rel=1e-7, abs=1e-15)
        # every warm solve shoots, a newly occupied station included
        assert len(shots) == 40
        assert all(s is not None for s in shots)

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
        warm, v_n, grad = _binding_solve(x, spec, cfg, hint)
        assert len(shots) == (len(x) > 1)
        assert (v_n, grad) == _root_voltage_and_gradient(list(warm), cfg.resistance)
        want, _ = _dual_solve(x, spec, cfg)
        for a, b in zip(warm, want):
            assert a == pytest.approx(b, rel=1e-7, abs=1e-15)

    def test_hint_whose_costate_overflows_pow_falls_back(self, monkeypatch):
        # gradient ratios near 1e-151 raised to 1/alpha = 3.3 overflow a
        # double, so the hint gives no start; the solve falls back to the
        # continuation from zero load, whose first target is v_1/8
        cfg = NetworkConfig(3, 1.0, 0.1)
        spec = FairnessSpec(0.3)
        targets = _spy_targets(monkeypatch)
        p = _binding_solve((1, 1, 1), spec, cfg, _hint([1e150, 1e-10, 1e-10], cfg))[0]
        assert targets[:2] == [cfg.v_limit, 1.0 + 0.125 * (cfg.v_limit - 1.0)]
        assert targets[-1] == cfg.v_limit
        want, _ = _dual_solve((1, 1, 1), spec, cfg)
        for a, b in zip(p, want):
            assert a == pytest.approx(b, rel=1e-7, abs=1e-15)

    def test_newly_emptied_station_recomputes_the_start(self, monkeypatch):
        # the hint's gradient was taken with the emptied station's power in
        # it, so the shot must start from a gradient on the powers it keeps
        cfg = NetworkConfig(6, 1.3, 0.2)
        spec = FairnessSpec(1.0)
        hint = _binding_solve((40, 1, 25, 60, 10, 30), spec, cfg)
        kept = list(hint[0])
        kept[1] = 0.0
        shots = _spy_shooting(monkeypatch)
        gradients = _count_gradients(monkeypatch)
        x = (40, 0, 25, 60, 10, 30)
        carried = _binding_solve(x, spec, cfg, hint)
        assert gradients[0] == tuple(kept)
        fresh = _binding_solve(x, spec, cfg, _hint(kept, cfg))
        assert None not in shots
        assert repr(carried) == repr(fresh)

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
        shots = _spy_shooting(monkeypatch)
        gradients = _count_gradients(monkeypatch)
        p = _binding_solve(x, spec, cfg, hint)[0]
        # the hint's own gradient starts the shot; only the closing one is taken
        assert len(shots) == 1 and shots[0] is not None
        assert gradients == [p]
        slack = voltage_slack(p, cfg, PowerModel.DISTFLOW)
        assert abs(slack) <= 1e-9
        want, _ = _dual_solve(x, spec, cfg)
        for a, b in zip(p, want):
            assert a == pytest.approx(b, rel=1e-7, abs=1e-15)



class TestColdStart:
    """A hint-less solve starts its shot from the linearized closed form,
    with one adjoint gradient taken there, just as a warm solve starts from
    its hint."""

    CASES = [
        ((3, 0, 1, 2), 2.0, NetworkConfig(4, 1.0, 0.15)),
        ((40, 12, 0, 60, 10, 30), 1.0, NetworkConfig(6, 1.3, 0.2)),
        ((1, 7, 3, 0, 9, 2, 5, 8, 4, 6), 0.5, NetworkConfig(10, 0.4, 0.3)),
    ]

    @pytest.mark.parametrize("x,alpha,cfg", CASES)
    def test_shoots_once_on_two_gradients(self, monkeypatch, x, alpha, cfg):
        spec = FairnessSpec(alpha)
        seed = alpha_fair_lindist(x, spec, cfg).p
        shots = _spy_shooting(monkeypatch)
        gradients = _count_gradients(monkeypatch)
        p = alpha_fair_distflow(x, spec, cfg).p
        assert len(shots) == 1 and shots[0] is not None
        # one gradient on the seed starts the shot, one on the answer ends it
        assert gradients == [seed, p]



class TestHardMix:
    """The seeded stress mix of `oracles.hard_allocation_cases`: delta up to
    1/2, alpha 0.25 to 4, sparse, geometric and heavy occupancies."""

    @pytest.mark.parametrize("seed", [5, 7])
    def test_every_cold_solve_settles(self, monkeypatch, seed):
        shots = _spy_shooting(monkeypatch)
        solved = unsettled = 0
        for x, alpha, cfg in hard_allocation_cases(seed, 1700):
            if cfg.n_stations > 80:
                continue
            first = len(shots)
            p, v_n, grad = _binding_solve(x, FairnessSpec(alpha), cfg)
            if cfg.n_stations > 1:  # one station takes its closed form unshot
                unsettled += shots[first] is None
            assert abs(cfg.w_limit - v_n * v_n) <= 1e-9
            # stationarity: (p_j / x_j)^(-alpha) / g_j is the one multiplier
            ratios = [(p[j] / x[j]) ** -alpha / grad[j] for j in range(len(x)) if x[j] > 0]
            assert max(ratios) / min(ratios) - 1.0 <= 1e-8
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
        p, v_n, grad = _binding_solve(x, FairnessSpec(alpha), cfg)
        assert len(shots) == 1 and shots[0] is not None
        assert abs(shots[0][2] - cfg.v_limit) >= 1e-12 * cfg.v_limit
        assert abs(cfg.w_limit - v_n * v_n) <= 1e-9
        ratios = [(p[j] / x[j]) ** -alpha / grad[j] for j in range(len(x)) if x[j] > 0]
        assert max(ratios) / min(ratios) - 1.0 <= 1e-8


class TestTinyAlpha:
    """At alpha near 0 the weights' powers w^(-1/alpha) leave the doubles;
    that is a failure naming alpha, never a silent zero or a bare
    arithmetic error."""

    SPEC = FairnessSpec(0.001)

    def test_closed_form_with_every_power_underflowing(self):
        # w = 6, 4, 2: only the station next to the root keeps a
        # representable w^(1 - 1/alpha)
        cfg = NetworkConfig(3, 1.0, 0.1)
        with pytest.raises(AllocationError, match="alpha = 0.001"):
            alpha_fair_lindist([1, 0, 0], self.SPEC, cfg)
        assert alpha_fair_lindist([1, 1, 1], self.SPEC, cfg).p == pytest.approx(
            (0.0, 0.0, cfg.w_headroom / 2.0), rel=1e-15
        )
        assert alpha_fair_lindist([0, 0, 0], self.SPEC, cfg).p == (0.0,) * 3

    @pytest.mark.parametrize("r", [1.0, 0.1])
    def test_distflow(self, r):
        # r = 1: the zero-load start's powers leave the doubles; r = 0.1:
        # w < 1, so the closed-form seed overflows
        cfg = NetworkConfig(3, r, 0.1)
        with pytest.raises(AllocationError, match="alpha = 0.001"):
            alpha_fair_distflow([1, 1, 1], self.SPEC, cfg)
        assert alpha_fair_distflow([0, 0, 0], self.SPEC, cfg).p == (0.0,) * 3

    @pytest.mark.parametrize(
        "grad", [[1.0, 0.1], [1e300, 1e-300]], ids=["overflow", "zero-division"]
    )
    def test_damped_shot_without_a_start_in_the_floats_gives_none(self, grad):
        # (g_1 / g_0)^(-1000) overflows, or g_1 / g_0 underflows to 0
        args = ((1, 1), [0, 1], 1000.0, 1.0, 1.1, [0.0, 0.0], 1.0, grad)
        assert allocator._damped_shot(*args) is None


class TestShootValues:
    @settings(max_examples=1000)
    @given(
        counts=st.lists(st.sampled_from((0, 0, 1, 2, 5, 40, 300)), min_size=1, max_size=30),
        alpha=st.floats(0.25, 4.0),
        r=st.floats(0.2, 3.0),
        beta=st.floats(0.0, 1.2),
        ell=st.floats(-5.0, 30.0),
    )
    @example(counts=[0, 3, 0, 2], alpha=1.0, r=1.0, beta=-0.5, ell=0.0)  # both None
    @example(counts=[2, 0, 1, 1], alpha=0.25, r=0.2, beta=0.7, ell=3.0)
    def test_values_match_shoot_bit_for_bit(self, counts, alpha, r, beta, ell):
        # the tangents never feed the powers, V_N or the costate ratio;
        # repr tells every bit of a double apart
        args = (tuple(counts), 1.0 / alpha, r, beta, ell)
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
            assert repr(values) == repr(shot[:3])


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
