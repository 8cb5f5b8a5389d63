"""Acceptance battery: the package's headline numbers, checked end to end.

Each test covers one gate, prints a single labeled PASS/FAIL line straight
to the real stdout (past pytest's capture), and then asserts — a red run
still shows exactly which gate broke and why.  Frozen table constants live
at module top; tolerances and runtime budgets sit next to each check.
"""

from __future__ import annotations

import math
import random
import time

import pytest

from linestab.allocator import FairnessSpec, alpha_fair_distflow, alpha_fair_lindist
from linestab.powerflow import (
    NetworkConfig,
    PowerModel,
    distflow_sensitivity,
    feasible,
)
from linestab.simulator import Classification, SimConfig, simulate, stability_probe
from linestab.specfun import erfi
from linestab.stability import (
    convergence_report,
    lambda_dist,
    lambda_lin,
    newton_solve_a,
    ratio_P,
)
from oracles import (
    distflow_double_sum,
    distflow_from_root,
    distflow_gradient,
    distflow_sensitivity_profile,
    distflow_voltages,
    distflow_w_recursion,
    grid_search_allocation,
)


@pytest.fixture
def report(capsys):
    """Print one labeled verdict line past pytest's capture."""

    def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
        line = f"ACCEPTANCE {num} [{label}]: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print(line, flush=True)

    return _report


# threshold-ratio anchors, four decimals as tabulated
RATIO_TABLE = [(0.01, 0.9966), (0.05, 0.9828), (0.1, 0.9647), (0.2, 0.9248)]

# Newton recovery tables: per uniform scaled load a, rows of
# (feeder size, drop cap 1/(1-delta) at 15 decimals, continuum start a0,
#  tabulated iteration count).
NEWTON_TABLES = {
    0.01: [
        (10, "1.005495062463669", "0.011000182805825", 3),
        (10**2, "1.005045760405502", "0.010100001678824", 3),
        (10**3, "1.005000834727210", "0.010010000022962", 3),
        (10**4, "1.004996342221457", "0.010001000055592", 8),
        (10**5, "1.004995909696177", "0.010000133565834", 9),
    ],
    0.05: [
        (10, "1.027377786724925", "0.055004518819866", 3),
        (10**2, "1.025144992180518", "0.050500041530882", 3),
        (10**3, "1.024921824633206", "0.050050000413244", 2),
        (10**4, "1.024899508844976", "0.050005000058683", 2),
        (10**5, "1.024897282801763", "0.050000511203957", 4),
    ],
    0.1: [
        (10, "1.054517088899833", "0.110017830743300", 3),
        (10**2, "1.050084740193820", "0.101000164022137", 3),
        (10**3, "1.049641947170216", "0.100100001626823", 3),
        (10**4, "1.049597671662610", "0.100010000152368", 4),
        (10**5, "1.049593246696348", "0.100001005329048", 4),
    ],
}

# discrete-vs-continuum table at a = 0.05, 8-decimal prints.  The error
# column switches meaning after the first row: the smallest feeder's entry
# is the plain gap to the continuum value, the larger feeders' entries are
# that gap taken relative to the discrete voltage.
CONTINUUM_V_AT_ONE = "1.02489702"
CONTINUUM_TABLE = [
    (10, "1.02737778", "0.00248075", "abs"),
    (10**2, "1.02514499", "0.00024188", "rel"),
    (10**3, "1.02492182", "0.00002419", "rel"),
    (10**4, "1.02489950", "0.00000241", "rel"),
    (10**5, "1.02489728", "0.00000024", "rel"),
]


class TestRatioTable:
    def test_tabulated_points(self, report):
        t0 = time.perf_counter()
        problems = []
        for delta, want in RATIO_TABLE:
            got = round(ratio_P(delta), 4)
            if abs(got - want) > 5e-5:
                problems.append(f"P({delta}) = {got} != {want}")
        elapsed = time.perf_counter() - t0
        ok = not problems and elapsed < 1.0
        report(1, "stability ratio table", ok, f"{elapsed:.3f}s")
        assert not problems, problems
        assert elapsed < 1.0

    def test_endpoints_and_monotonicity(self, report):
        t0 = time.perf_counter()
        problems = []
        lo, hi, count = 1e-6, 0.5, 500
        grid = [lo + i * (hi - lo) / (count - 1) for i in range(count)]
        values = [ratio_P(d) for d in grid]
        if not all(a > b for a, b in zip(values, values[1:])):
            problems.append("ratio not strictly decreasing on the 500-point grid")
        if abs(values[0] - 1.0) > 1e-4:
            problems.append(f"P(1e-6) = {values[0]} not within 1e-4 of 1")
        endpoint = (math.pi / 6.0) * erfi(math.sqrt(math.log(2.0))) ** 2
        if abs(values[-1] - endpoint) > 1e-4:
            problems.append(f"P(0.5) = {values[-1]} != {endpoint}")
        elapsed = time.perf_counter() - t0
        ok = not problems and elapsed < 1.0
        report(2, "ratio endpoints and monotonicity", ok, f"{elapsed:.3f}s")
        assert not problems, problems
        assert elapsed < 1.0


class TestNewtonTables:
    def test_forward_targets_and_recovered_loads(self, report):
        t0 = time.perf_counter()
        problems = []
        for a, rows in NEWTON_TABLES.items():
            for n, v_str, a0_str, iters in rows:
                v = distflow_sensitivity(a, n)[0]
                if f"{v:.15f}" != v_str:
                    problems.append(f"a={a} n={n}: cap {v:.15f} != {v_str}")
                trace = newton_solve_a(n, 1.0 - 1.0 / v)
                if abs(trace.a_final - a) > 1e-9 * a:
                    problems.append(f"a={a} n={n}: recovered {trace.a_final!r}")
                if abs(trace.a0 - float(a0_str)) > 1e-12:
                    problems.append(f"a={a} n={n}: start {trace.a0!r} != {a0_str}")
                if trace.iterations > iters + 3:
                    problems.append(
                        f"a={a} n={n}: {trace.iterations} steps > {iters} + 3"
                    )
        elapsed = time.perf_counter() - t0
        ok = not problems and elapsed < 30.0
        report(3, "newton recovery tables", ok, f"15 rows, {elapsed:.2f}s")
        assert not problems, problems
        assert elapsed < 30.0


class TestContinuumTable:
    def test_error_rows_and_decade_decay(self, report):
        t0 = time.perf_counter()
        problems = []
        sizes = [n for n, _, _, _ in CONTINUUM_TABLE]
        reports = convergence_report(0.05, sizes)
        for rep, (n, v_str, err_str, kind) in zip(reports, CONTINUUM_TABLE):
            if abs(rep.v_discrete - float(v_str)) > 1e-8:
                problems.append(f"n={n}: voltage {rep.v_discrete!r} != {v_str}")
            if abs(rep.v_continuum - float(CONTINUUM_V_AT_ONE)) > 1e-8:
                problems.append(f"n={n}: continuum {rep.v_continuum!r}")
            err = rep.abs_err if kind == "abs" else rep.rel_err
            if abs(err - float(err_str)) > 1e-8:
                problems.append(f"n={n}: {kind} error {err!r} != {err_str}")
        for prev, nxt in zip(reports, reports[1:]):
            factor = prev.abs_err / nxt.abs_err
            if not 8.0 <= factor <= 12.0:
                problems.append(
                    f"decade {prev.n}->{nxt.n}: error fell by {factor:.3f}"
                )
        elapsed = time.perf_counter() - t0
        ok = not problems and elapsed < 30.0
        report(4, "continuum error table", ok, f"{elapsed:.2f}s")
        assert not problems, problems
        assert elapsed < 30.0


class TestUniformBoundary:
    def test_thresholds_land_on_the_constraint(self, report):
        t0 = time.perf_counter()
        problems = []
        # the gate's draws stay at delta <= 0.45; delta up to 0.5 is
        # covered by test_stability.TestThresholdRoot
        rng = random.Random(0xACCE5)
        for _ in range(100):
            n = rng.randint(2, 100)
            r = rng.uniform(0.1, 4.0)
            delta = rng.uniform(0.02, 0.45)
            cfg = NetworkConfig(n, r, delta)
            uniform_lin = [lambda_lin(cfg)] * n
            _, slack = feasible(uniform_lin, cfg, PowerModel.LINDIST)
            if abs(slack) >= 1e-10:
                problems.append(f"lin n={n} r={r:.3f} d={delta:.3f}: {slack!r}")
            uniform_dist = [lambda_dist(cfg)] * n
            root = distflow_voltages(uniform_dist, r).root_end
            if abs(root - cfg.v_limit) >= 1e-9:
                problems.append(
                    f"dist n={n} r={r:.3f} d={delta:.3f}: {root - cfg.v_limit!r}"
                )
        elapsed = time.perf_counter() - t0
        ok = not problems
        report(5, "uniform boundary load slack", ok, f"100 draws, {elapsed:.2f}s")
        assert not problems, problems


class TestRecursionPropertyBattery:
    def test_thousand_instances_zero_violations(self, report):
        t0 = time.perf_counter()
        rng = random.Random(0xBA77E47)
        fails: dict[str, int] = {}

        def flag(name: str) -> None:
            fails[name] = fails.get(name, 0) + 1

        for _ in range(1000):
            n = rng.randint(1, 12)
            p = [rng.uniform(0.0, 0.08) for _ in range(n)]
            r = rng.uniform(0.05, 2.0)
            delta = rng.uniform(0.05, 0.45)
            cfg = NetworkConfig(n, r, delta)
            prof = distflow_voltages(p, r)
            root = prof.root_end

            if any(b < a for a, b in zip(prof.v, prof.v[1:])):
                flag("monotone voltages")

            alt = distflow_double_sum(p, r).root_end
            if abs(alt - root) > 5e-13 * root:
                flag("summed-form route")

            wprof = distflow_w_recursion(p, r)
            if abs(wprof.root_end - root) > 5e-13 * root:
                flag("squared-form route")
            for off, va, vb in zip(wprof.w_off, wprof.v, wprof.v[1:]):
                if abs(off - va * vb) > 1e-12 * va * vb:
                    flag("squared-form route")
                    break

            # start-voltage slope: damp the load until the profile is tame,
            # then difference the shot map around a unit start
            q = list(p)
            while distflow_voltages(q, r).root_end > 1.9:
                q = [0.5 * x for x in q]
            h = 1e-5
            up = distflow_from_root(1.0 + h, q, r).root_end
            dn = distflow_from_root(1.0 - h, q, r).root_end
            slope = (up - dn) / (2.0 * h)
            if not -1e-6 <= slope <= 1.0 + 1e-6:
                flag("start slope")

            # shooting equivalence: a feasible profile has a start in
            # [1, cap] that lands exactly on the cap; an infeasible one
            # overshoots from every start
            cap = cfg.v_limit
            if root <= cap:
                lo, hi = 1.0, cap
                for _ in range(70):
                    mid = 0.5 * (lo + hi)
                    if distflow_from_root(mid, p, r).root_end <= cap:
                        lo = mid
                    else:
                        hi = mid
                if abs(distflow_from_root(lo, p, r).root_end - cap) > 1e-9:
                    flag("shooting equivalence")
            else:
                xs = [1.0 + i * (cap - 1.0) / 15.0 for i in range(16)]
                if any(distflow_from_root(x, p, r).root_end <= cap for x in xs):
                    flag("shooting equivalence")

            load = r * math.fsum(p)
            if root * root < root + load - 1e-12 * (1.0 + load):
                flag("compactness bounds")
            _, slack = feasible(p, cfg, PowerModel.DISTFLOW)
            if slack >= 0.0 and load > cfg.w_headroom + 1e-9:
                flag("compactness bounds")

            n2 = rng.randint(1, 40)
            a2 = rng.uniform(0.01, 1.99)
            _, y = distflow_sensitivity_profile(a2, n2)
            diffs = [b - a for a, b in zip(y, y[1:])]
            if any(v <= 0.0 for v in y[1:]) or any(d <= 0.0 for d in diffs):
                flag("sensitivity shape")
            if any(b - a < -1e-12 for a, b in zip(diffs, diffs[1:])):
                flag("sensitivity shape")

            n3 = rng.randint(2, 20)
            a3 = rng.uniform(0.05, 1.9)
            y_n = distflow_sensitivity(a3, n3)[1]
            h3 = 1e-6
            grad_fd = (
                (distflow_sensitivity(a3 + h3, n3)[0]
                 - distflow_sensitivity(a3 - h3, n3)[0])
                / (2.0 * h3) * n3 * n3
            )
            if abs(grad_fd - y_n) > 1e-6 * max(1.0, abs(y_n)):
                flag("sensitivity derivative")

        elapsed = time.perf_counter() - t0
        ok = not fails and elapsed < 60.0
        detail = f"1000 instances, {elapsed:.2f}s"
        if fails:
            detail += f", violations {fails}"
        report(6, "recursion property battery", ok, detail)
        assert not fails, fails
        assert elapsed < 60.0


class TestAllocatorCorrectness:
    def test_closed_form_against_grid_and_kkt(self, report):
        t0 = time.perf_counter()
        problems = []
        rng = random.Random(0xA110C)
        worst_grid = 0.0
        for _ in range(200):
            n = rng.randint(2, 4)
            counts = [rng.randint(0, 5) for _ in range(n)]
            if not any(counts):
                counts[rng.randrange(n)] = rng.randint(1, 5)
            alpha = rng.choice((0.5, 1.0, 2.0, 4.0))
            cfg = NetworkConfig(n, rng.uniform(0.1, 3.0), rng.uniform(0.05, 0.45))
            closed = alpha_fair_lindist(counts, FairnessSpec(alpha), cfg)
            grid = grid_search_allocation(counts, alpha, cfg, "lindist")
            diff = max(abs(a - b) for a, b in zip(closed.p, grid))
            worst_grid = max(worst_grid, diff)
            if diff > 1e-4:
                problems.append(f"grid gap {diff:.2e} at x={counts} alpha={alpha}")
        worst_slack = worst_spread = 0.0
        for _ in range(100):
            n = rng.randint(2, 6)
            counts = [rng.randint(0, 5) for _ in range(n)]
            if not any(counts):
                counts[rng.randrange(n)] = rng.randint(1, 5)
            alpha = rng.choice((0.5, 1.0, 2.0, 4.0))
            cfg = NetworkConfig(n, rng.uniform(0.1, 3.0), rng.uniform(0.05, 0.45))
            alloc = alpha_fair_distflow(counts, FairnessSpec(alpha), cfg)
            _, slack = feasible(alloc, cfg, PowerModel.DISTFLOW)
            worst_slack = max(worst_slack, abs(slack))
            if abs(slack) > 1e-9:
                problems.append(f"slack {slack:.2e} at x={counts} alpha={alpha}")
            grads = distflow_gradient(alloc.p, cfg.resistance)
            root = distflow_voltages(alloc.p, cfg.resistance).root_end
            ratios = [
                (counts[j] / alloc.p[j]) ** alpha / (2.0 * root * grads[j])
                for j in range(n)
                if counts[j] > 0
            ]
            spread = max(ratios) / min(ratios) - 1.0
            worst_spread = max(worst_spread, spread)
            if spread > 1e-6:
                problems.append(f"kkt spread {spread:.2e} at x={counts} alpha={alpha}")
        elapsed = time.perf_counter() - t0
        ok = not problems
        report(
            7,
            "allocator correctness",
            ok,
            f"grid gap {worst_grid:.1e}, slack {worst_slack:.1e}, "
            f"kkt {worst_spread:.1e}, {elapsed:.1f}s",
        )
        assert not problems, problems


class TestStabilityBracketing:
    def test_half_and_double_rate_verdicts(self, report):
        t0 = time.perf_counter()
        problems = []
        for n in (3, 5):
            net = NetworkConfig(n, 1.0, 0.1)
            for model in (PowerModel.LINDIST, PowerModel.DISTFLOW):
                lam = lambda_lin(net) if model is PowerModel.LINDIST else lambda_dist(net)
                base = SimConfig(
                    network=net,
                    fairness=FairnessSpec(1.0),
                    model=model,
                    arrival_rate=lam,
                    horizon=1.0,
                    seed=2026,
                    sample_interval=1.0,
                )
                low, high = stability_probe(
                    base, (0.5, 2.0), replications=5, min_events=100_000
                )
                tag = f"n={n} {model.value}"
                if low.classification is not Classification.STABLE:
                    problems.append(f"{tag} m=0.5: {low.classification.value}")
                if low.stable_votes < 4:
                    problems.append(f"{tag} m=0.5: {low.stable_votes}/5 stable votes")
                if high.classification is not Classification.UNSTABLE:
                    problems.append(f"{tag} m=2.0: {high.classification.value}")
                if high.unstable_votes < 4:
                    problems.append(
                        f"{tag} m=2.0: {high.unstable_votes}/5 unstable votes"
                    )
        elapsed = time.perf_counter() - t0
        ok = not problems and elapsed < 300.0
        report(8, "stability bracketing by simulation", ok, f"{elapsed:.0f}s")
        assert not problems, problems
        assert elapsed < 300.0


class TestSingleStationQueue:
    def test_mean_queue_matches_mm1(self, report):
        t0 = time.perf_counter()
        net = NetworkConfig(1, 1.0, 0.2)
        p_star = net.w_headroom / (2.0 * net.resistance)
        horizon = 1.0e5 / p_star
        rep = simulate(
            SimConfig(
                network=net,
                fairness=FairnessSpec(1.0),
                model=PowerModel.LINDIST,
                arrival_rate=0.5 * p_star,
                horizon=horizon,
                seed=4242,
                sample_interval=horizon / 512.0,
            )
        )
        mean = rep.mean_total_queue
        elapsed = time.perf_counter() - t0
        ok = abs(mean - 1.0) <= 0.25
        report(9, "single station queue mean", ok, f"mean {mean:.3f}, {elapsed:.1f}s")
        assert abs(mean - 1.0) <= 0.25
