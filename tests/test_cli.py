"""End-to-end checks of the command line front end.

Commands run in-process through main(argv); stdout is parsed back as CSV
and compared against the library calls the commands wrap.  Flag validation
and an --out that cannot be written must exit 2, solver failures 3,
simulation aborts 4, and the --out path must produce a manifest sidecar
whose replay reproduces the CSV byte for byte.  Only `simulate` takes
--seed.  The parser is built once a process; a second pass over the same
commands prints the same bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import linestab.cli as cli
from linestab import __version__
from linestab.allocator import FairnessSpec, alpha_fair_distflow, alpha_fair_lindist
from linestab.cli import _build_parser, main
from linestab.powerflow import NetworkConfig
from linestab.simulator import SimulationError
from linestab.stability import (
    lambda_dist,
    lambda_dist_critical,
    lambda_lin,
    lambda_lin_critical,
    ratio_P,
)
from oracles import distflow_voltages


def _env_with_src() -> dict:
    """The environment, with this checkout's package first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def _run(capsys, *argv: str) -> list[list[str]]:
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    return [line.split(",") for line in out.strip().split("\n")]


def _exits_2(capsys, *argv: str) -> str:
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    return capsys.readouterr().err


class TestThresholds:
    HEADER = ["model", "n", "r", "delta", "lambda_n", "n2_lambda_n", "lambda_critical"]

    def test_lindist_point(self, capsys):
        rows = _run(
            capsys, "thresholds", "--n", "10", "--r", "1", "--delta", "0.05",
            "--model", "lindist",
        )
        assert rows[0] == self.HEADER
        assert len(rows) == 2
        model, n, r, delta, lam, scaled, crit = rows[1]
        assert (model, n, r, delta) == ("lindist", "10", "1", "0.05")
        cfg = NetworkConfig(10, 1.0, 0.05)
        assert float(lam) == pytest.approx(lambda_lin(cfg), rel=1e-14)
        assert float(lam) == pytest.approx(9.82120e-4, abs=1e-9)
        assert float(scaled) == pytest.approx(100.0 * lambda_lin(cfg), rel=1e-14)
        assert float(crit) == pytest.approx(lambda_lin_critical(1.0, 0.05), rel=1e-14)

    def test_both_emits_both_models(self, capsys):
        rows = _run(capsys, "thresholds", "--n", "10", "--delta", "0.05")
        assert [r[0] for r in rows[1:]] == ["lindist", "distflow"]
        lam_l, lam_d = float(rows[1][4]), float(rows[2][4])
        crit_l, crit_d = float(rows[1][6]), float(rows[2][6])
        cfg = NetworkConfig(10, 1.0, 0.05)
        assert lam_d == pytest.approx(lambda_dist(cfg), rel=1e-12)
        assert crit_d == pytest.approx(lambda_dist_critical(1.0, 0.05), rel=1e-12)
        assert lam_d < lam_l
        assert crit_d < crit_l

    def test_delta_past_half_exits_2_naming_the_domain(self, capsys):
        err = _exits_2(capsys, "thresholds", "--n", "10", "--delta", "0.6")
        assert "(0, 0.5]" in err

    def test_distflow_at_one_station(self, capsys):
        # V_1 = 1 + r lambda meets the cap at lambda = delta / ((1 - delta) r),
        # also when the Lindist row comes first; no station is no feeder
        for model in (["--model", "distflow"], []):
            rows = _run(capsys, "thresholds", "--n", "1", "--delta", "0.2", "--r", "0.3", *model)
            assert rows[-1][:4] == ["distflow", "1", "0.3", "0.2"]
            assert float(rows[-1][4]) == pytest.approx(0.2 / (0.8 * 0.3), rel=1e-14)
        err = _exits_2(capsys, "thresholds", "--n", "0", "--delta", "0.2")
        assert "n_stations must be an integer >= 1" in err

    def test_half_delta_long_feeder_lands_on_the_drop_cap(self, capsys):
        # at delta = 1/2 the N = 400 root lies past 2N/(N-1), where the
        # Newton start is capped; the row must still sit on the constraint
        rows = _run(capsys, "thresholds", "--n", "400", "--delta", "0.5",
                    "--model", "distflow")
        assert rows[0] == self.HEADER
        (row,) = rows[1:]
        assert row[0] == "distflow"
        v_n = distflow_voltages([float(row[4])] * 400, 1.0).root_end
        assert abs(v_n - NetworkConfig(400, 1.0, 0.5).v_limit) <= 1e-9

    @pytest.mark.parametrize(
        "n,delta", [("2", "1e-15"), ("10", "1e-14"), ("100", "1e-12"), ("1000", "1e-8")]
    )
    def test_headroom_below_the_rounding_floor_is_a_solver_failure(self, capsys, n, delta):
        # 1e-6 of the cap 1/(1 - delta) is more than the whole headroom
        # delta/(1 - delta), so a check scaled by the cap passes the
        # continuum start unmoved; V_N's rounding floor fails a check
        # scaled by the headroom, and no Distflow row prints
        assert main(["thresholds", "--n", n, "--delta", delta, "--model", "both"]) == 3
        captured = capsys.readouterr()
        assert "distflow" not in captured.out
        assert "1e-6 of the headroom" in captured.err

    @pytest.mark.parametrize("n,delta", [("1", "1e-300"), ("10", "1e-17")])
    def test_cap_that_rounds_to_one_is_a_solver_failure(self, capsys, n, delta):
        # 1/(1 - delta) is 1.0 in doubles, so V_N meets it with residual 0;
        # 2e-300 and 2e-17 used to print, the cap's rounding now fails them
        assert main(["thresholds", "--n", n, "--delta", delta, "--model", "distflow"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"accepted residual 0 plus the cap's rounding {delta}" in captured.err

    def test_subnormal_resistance_exits_2(self, capsys):
        # every rate would print as inf: 3/r leaves the doubles
        err = _exits_2(capsys, "thresholds", "--n", "3", "--delta", "0.5", "--r", "1e-320")
        assert "resistance must be a positive normal double, got 1e-320" in err


class TestNewtonCmd:
    def test_forward_backward_anchor_row(self, capsys):
        rows = _run(capsys, "newton", "--a", "0.01", "--n", "10")
        assert rows[0] == ["n", "v_limit", "a0", "a_final", "iterations"]
        n, v_limit, a0, a_final, iters = rows[1]
        assert n == "10"
        assert float(v_limit) == pytest.approx(1.0054950624636692, rel=1e-14)
        assert float(a0) == pytest.approx(0.011000182805825164, abs=1e-12)
        assert float(a_final) == pytest.approx(0.01, rel=1e-11)
        assert int(iters) <= 6

    def test_rows_follow_grid_order(self, capsys):
        rows = _run(capsys, "newton", "--a", "0.01,0.05", "--n", "10,100")
        # outer loop over loads, inner over sizes
        assert [r[0] for r in rows[1:]] == ["10", "100", "10", "100"]
        assert rows[1][1] != rows[3][1]

    def test_rejects_out_of_range_load_or_size(self, capsys):
        _exits_2(capsys, "newton", "--a", "2.5", "--n", "10")
        _exits_2(capsys, "newton", "--a", "-0.3", "--n", "10")
        err = _exits_2(capsys, "newton", "--a", "0.01", "--n", "0")
        assert "n must be an integer >= 1, got 0" in err
        err = _exits_2(capsys, "newton", "--a", "inf", "--n", "2")
        assert "a must be finite and nonnegative, got inf" in err

    def test_one_station_recovers_its_load(self, capsys):
        # V_1 = 1 + a: the cap is 1.01 and the recovered load 0.01
        rows = _run(capsys, "newton", "--a", "0.01", "--n", "1")
        assert rows[1][:2] == ["1", "1.01"]
        assert float(rows[1][3]) == pytest.approx(0.01, rel=1e-13)

    def test_load_past_two_is_recovered_on_a_long_feeder(self, capsys):
        # the N = 400 limit is a = 2.2949, so a = 2.2 has a cap below 2
        rows = _run(capsys, "newton", "--a", "2.2", "--n", "400")
        assert float(rows[1][3]) == pytest.approx(2.2, rel=1e-9)

    @pytest.mark.parametrize("a, n", [("1.8", "2"), ("2.5", "10")])
    def test_cap_past_half_delta_names_load_and_size(self, capsys, a, n):
        err = _exits_2(capsys, "newton", "--a", a, "--n", n)
        assert f"--a {a} at --n {n}" in err
        assert "delta must lie" not in err


class TestRatioCmd:
    def test_published_points(self, capsys):
        rows = _run(capsys, "ratio", "--delta", "0.01,0.1")
        assert rows[0] == ["delta", "ratio"]
        for row, delta, want in zip(rows[1:], (0.01, 0.1), (0.9966, 0.9647)):
            assert float(row[0]) == delta
            assert float(row[1]) == pytest.approx(want, abs=5e-5)
            assert float(row[1]) == pytest.approx(ratio_P(delta), rel=1e-14)

    def test_grid_endpoints_land_exactly(self, capsys):
        rows = _run(capsys, "ratio")
        # endpoints exact, no accumulated rounding
        assert float(rows[1][0]) == 0.01
        assert float(rows[-1][0]) == 0.5
        rows = _run(capsys, "ratio", "--delta", "0.05,0.3")
        assert [float(r[0]) for r in rows[1:]] == [0.05, 0.3]

    def test_default_grid_is_monotone(self, capsys):
        rows = _run(capsys, "ratio")
        assert len(rows) == 51
        ratios = [float(r[1]) for r in rows[1:]]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_rejects_bad_grids(self, capsys):
        _exits_2(capsys, "ratio", "--delta", "0.6")


class TestConvergeCmd:
    def test_large_feeder_error_anchor(self, capsys):
        rows = _run(capsys, "converge", "--a", "0.05", "--n", "10000")
        assert rows[0] == ["n", "v_discrete", "v_continuum", "abs_err", "rel_err"]
        n, v_d, v_c, abs_err, rel_err = rows[1]
        assert n == "10000"
        # frozen anchor: at this size the error against the continuum value,
        # taken relative to the discrete voltage, rounds to 2.41e-6
        assert float(rel_err) == pytest.approx(0.00000241, abs=1e-8)
        assert float(v_d) > float(v_c) > 1.0
        assert float(rel_err) == pytest.approx(float(abs_err) / float(v_d), rel=1e-12)

    def test_zero_load_rows_are_exact(self, capsys):
        rows = _run(capsys, "converge", "--a", "0", "--n", "10,100")
        for row in rows[1:]:
            assert row[1:] == ["1", "1", "0", "0"]

    def test_rejects_negative_load_and_tiny_feeder(self, capsys):
        _exits_2(capsys, "converge", "--a", "-1", "--n", "10")
        _exits_2(capsys, "converge", "--a", "0.05", "--n", "0")
        err = _exits_2(capsys, "converge", "--a", "inf", "--n", "10")
        assert "a must be finite and nonnegative, got inf" in err

    def test_one_station_row(self, capsys):
        # V_1 = 1 + a
        rows = _run(capsys, "converge", "--a", "0.05", "--n", "1")
        assert rows[1][:2] == ["1", "1.05"]


class TestAllocateCmd:
    def test_lindist_matches_library(self, capsys):
        rows = _run(capsys, "allocate", "--x", "2,3", "--delta", "0.2",
                    "--model", "lindist")
        assert rows[0] == ["station", "queue", "power"]
        ref = alpha_fair_lindist((2, 3), FairnessSpec(1.0), NetworkConfig(2, 1.0, 0.2))
        assert [r[0] for r in rows[1:]] == ["0", "1", "slack"]
        assert [r[1] for r in rows[1:3]] == ["2", "3"]
        for row, want in zip(rows[1:3], ref.p):
            assert float(row[2]) == pytest.approx(want, rel=1e-12)
        assert abs(float(rows[3][2])) < 1e-9

    def test_lindist_binding_split_has_zero_slack(self, capsys):
        # the split spends the headroom exactly; taking 1 off w_limit after
        # the drop would leave an ulp of cancellation
        rows = _run(capsys, "allocate", "--x", "3,0,1,2", "--delta", "0.01",
                    "--model", "lindist")
        assert rows[-1] == ["slack", "", "0"]

    def test_distflow_is_the_default_model(self, capsys):
        rows = _run(capsys, "allocate", "--x", "1,2,1", "--delta", "0.2",
                    "--alpha", "2.0")
        ref = alpha_fair_distflow(
            (1, 2, 1), FairnessSpec(2.0), NetworkConfig(3, 1.0, 0.2)
        )
        for row, want in zip(rows[1:4], ref.p):
            assert float(row[2]) == pytest.approx(want, rel=1e-6)
        assert abs(float(rows[4][2])) < 1e-8

    def test_rejects_empty_or_negative_queues(self, capsys):
        _exits_2(capsys, "allocate", "--x", ",", "--delta", "0.2")
        _exits_2(capsys, "allocate", "--x", "-1,2", "--delta", "0.2")

    @pytest.mark.parametrize("model", ["lindist", "distflow"])
    def test_subnormal_resistance_exits_2(self, capsys, model):
        # the split used to blame alpha = 1.0 with exit 3
        err = _exits_2(capsys, "allocate", "--x", "1,2", "--delta", "0.1",
                       "--r", "1e-320", "--model", model)
        assert "resistance must be a positive normal double" in err

    @pytest.mark.parametrize("r", ["1e-170", "1e-300", "1e300"])
    @pytest.mark.parametrize("alpha", ["2", "0.5"])
    def test_distflow_powers_at_extreme_resistance_are_the_unit_ones_over_r(
        self, capsys, r, alpha
    ):
        # the solve runs on unit resistance, so p(r) = p(1) / r bit for bit
        argv = ["allocate", "--x", "3,0,1,2", "--delta", "0.15", "--alpha", alpha]
        rows = _run(capsys, *argv, "--r", r)
        assert abs(float(rows[-1][2])) <= 1e-9
        spec = FairnessSpec(float(alpha))
        unit = alpha_fair_distflow((3, 0, 1, 2), spec, NetworkConfig(4, 1.0, 0.15)).p
        got = alpha_fair_distflow((3, 0, 1, 2), spec, NetworkConfig(4, float(r), 0.15)).p
        assert got == tuple(v / float(r) for v in unit)

    def test_subnormal_distflow_power_is_a_solver_failure_naming_it(self, capsys):
        # p(1) / 1e308 is 2.87e-310 at station 0, below the normal doubles
        code = main(["allocate", "--x", "3,0,1,2", "--delta", "0.15", "--alpha", "2",
                     "--r", "1e308", "--model", "distflow"])
        assert code == 3
        err = capsys.readouterr().err
        assert "station 0's power 2.8667265212506e-310 at r = 1e+308, alpha = 2.0" in err
        assert "is not a normal double" in err

    def test_lindist_split_at_tiny_resistance_is_the_unit_split_over_r(self, capsys):
        # the unit weights' powers stay in the doubles; 2 r (N - j) raised
        # to -1/alpha = -2 did not at r = 1e-170
        argv = ["allocate", "--model", "lindist", "--x", "1,2", "--delta", "0.1",
                "--alpha", "0.5"]
        rows = _run(capsys, *argv, "--r", "1e-170")
        spec = FairnessSpec(0.5)
        unit = alpha_fair_lindist((1, 2), spec, NetworkConfig(2, 1.0, 0.1)).p
        assert [float(row[2]) for row in rows[1:3]] == [
            float(format(v / 1e-170, ".15g")) for v in unit
        ]

    @pytest.mark.parametrize("model", ["lindist", "distflow"])
    def test_huge_resistance_is_a_solver_failure_naming_the_station(self, capsys, model):
        code = main(["allocate", "--x", "1,2", "--delta", "0.1", "--r", "1e308",
                     "--model", model])
        assert code == 3
        err = capsys.readouterr().err
        assert "station 0's power " in err and "at r = 1e+308" in err
        assert "takes the weights" not in err

    def test_underflowing_lindist_power_is_a_solver_failure_naming_it(self, capsys):
        # w^(-1/alpha) = 6^(-1000) underflows, where the split used to print 0
        code = main(["allocate", "--model", "lindist", "--x", "1,1,1", "--delta", "0.1",
                     "--alpha", "0.001"])
        assert code == 3
        err = capsys.readouterr().err
        assert "station 0's power 0.0 at r = 1.0, alpha = 0.001 is not a normal double" in err

    def test_infinite_alpha_exits_2_naming_finite(self, capsys):
        err = _exits_2(capsys, "allocate", "--x", "1,2", "--delta", "0.1", "--alpha", "inf")
        assert "alpha must be positive and finite, got inf" in err

    @pytest.mark.parametrize("model", ["lindist", "distflow"])
    def test_tiny_alpha_is_a_solver_failure_naming_alpha(self, capsys, model):
        code = main(["allocate", "--x", "1,0,0", "--alpha", "0.001",
                     "--delta", "0.1", "--model", model])
        assert code == 3
        assert "alpha = 0.001" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["newton", "--a", "0.1", "--n", ","],
        ["newton", "--a", ",", "--n", "10"],
        ["converge", "--a", "0.1", "--n", ","],
        ["ratio", "--delta", ","],
        ["simulate", "--n", "2", "--delta", "0.2", "--mult", ","],
        ["allocate", "--x", "3,,1", "--delta", "0.1"],
        ["newton", "--a", "0.01", "--n", ",10,,100"],
    ],
    ids=[
        "newton-n", "newton-a", "converge-n", "ratio-delta", "simulate-mult",
        "allocate-x-blank-item", "newton-n-blank-items",
    ],
)
def test_empty_list_flag_exits_2(capsys, argv):
    assert "empty" in _exits_2(capsys, *argv)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["newton", "--a", "0.1", "--n", "10,1.5"], "bad integer list '10,1.5'"),
        (["ratio", "--delta", "0.1,x"], "bad float list '0.1,x'"),
    ],
    ids=["integer", "float"],
)
def test_bad_list_element_exits_2_naming_the_type(capsys, argv, message):
    assert message in _exits_2(capsys, *argv)


class TestSimulateCmd:
    def test_frontier_classifications(self, capsys):
        rows = _run(
            capsys, "simulate", "--n", "5", "--delta", "0.1", "--model", "lindist",
            "--mult", "0.5,2.0", "--seed", "7",
        )
        assert rows[0] == [
            "multiplier", "arrival_rate", "classification",
            "stable_votes", "unstable_votes", "max_drift", "max_queue",
        ]
        low, high = rows[1], rows[2]
        lam_star = lambda_lin(NetworkConfig(5, 1.0, 0.1))
        assert low[2] == "stable" and high[2] == "unstable"
        assert float(low[0]) == 0.5 and float(high[0]) == 2.0
        assert float(low[1]) == pytest.approx(0.5 * lam_star, rel=1e-14)
        assert int(low[3]) >= 3
        assert int(high[4]) >= 3
        assert float(high[5]) > float(low[5])

    def test_distflow_at_one_station(self, capsys):
        # the one station takes the whole headroom, so it is the single-server
        # queue with threshold delta / ((1 - delta) r); no station is no feeder
        rows = _run(capsys, "simulate", "--n", "1", "--delta", "0.2", "--model", "distflow",
                    "--mult", "0.5,2.0", "--events", "20000", "--seed", "7")
        assert float(rows[1][1]) == pytest.approx(0.5 * 0.25, rel=1e-14)
        assert [row[2] for row in rows[1:]] == ["stable", "unstable"]
        _exits_2(capsys, "simulate", "--n", "0", "--delta", "0.2", "--model", "distflow")

    def test_rejects_nonpositive_events(self, capsys):
        for events in ("-5", "0"):
            err = _exits_2(capsys, "simulate", "--n", "2", "--delta", "0.2",
                           "--events", events, "--replications", "1")
            assert "min_events must be >= 1" in err

    def test_infinite_multiplier_exits_2_naming_finite(self, capsys):
        err = _exits_2(capsys, "simulate", "--n", "3", "--delta", "0.1", "--mult", "inf")
        assert "multipliers must be positive and finite, got inf" in err

    def test_overflowing_run_length_names_the_rate(self, capsys):
        # at r = 1e307 the rate is 1.95e-309 and 1.05 min_events / (N rate)
        # overflows; the user set no horizon
        err = _exits_2(capsys, "simulate", "--n", "3", "--delta", "0.1", "--r", "1e307",
                       "--events", "2000", "--replications", "1", "--mult", "0.5")
        assert "arrival rate" in err and "min_events = 2000" in err
        assert "horizon" not in err

    def test_horizon_is_not_a_flag(self, capsys):
        _exits_2(capsys, "simulate", "--n", "2", "--delta", "0.2", "--horizon", "1")

    def test_tiny_alpha_aborts_instead_of_voting(self, capsys):
        # every occupied w_j^(1 - 1/alpha) of state (1, 0, 0) underflows at
        # alpha = 0.001; a run that served nobody used to vote unstable
        code = main(["simulate", "--model", "lindist", "--n", "3", "--delta", "0.1",
                     "--alpha", "0.001", "--mult", "0.5", "--events", "5000",
                     "--replications", "3"])
        assert code == 4
        err = capsys.readouterr().err
        assert "simulation abort" in err and "alpha = 0.001" in err

    def test_overflowing_weight_aborts_naming_time_and_state(self, capsys):
        # at r = 0.1 the weights of stations 1 and 2 overflow w^(-1/alpha);
        # the run goes on until a vehicle reaches one of them
        code = main(["simulate", "--model", "lindist", "--n", "3", "--r", "0.1",
                     "--delta", "0.1", "--alpha", "0.001", "--mult", "0.5",
                     "--events", "500", "--replications", "1"])
        assert code == 4
        err = capsys.readouterr().err
        assert "state (" in err and "alpha = 0.001" in err

    def test_abort_maps_to_exit_4(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise SimulationError("allocator died mid-run")

        monkeypatch.setattr(cli, "stability_probe", boom)
        code = main(["simulate", "--n", "2", "--delta", "0.2", "--mult", "0.5"])
        assert code == 4
        assert "simulation abort" in capsys.readouterr().err


def _subcommand(name: str) -> argparse.ArgumentParser:
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[name]


def _recorded_flags(argv: list[str]) -> set[str]:
    """Flags of argv's subcommand, bar --out, that parse to a value."""
    args = _build_parser().parse_args(argv)
    return {
        action.option_strings[0][2:]
        for action in _subcommand(argv[0])._actions
        if action.option_strings
        and action.dest not in ("help", "out")
        and getattr(args, action.dest) is not None
    }


def _manifest(out) -> dict:
    return json.loads(out.with_name(f"{out.name}.manifest.json").read_text())


def _replay(out, new_out) -> int:
    """Run the command in out's manifest, each parameter as --key value, into new_out."""
    manifest = _manifest(out)
    argv = [manifest["command"]]
    for key, value in manifest["parameters"].items():
        argv.extend([f"--{key}", value])
    return main([*argv, "--out", str(new_out)])


class TestManifest:
    @pytest.mark.parametrize(
        "argv",
        [
            ["thresholds", "--n", "10", "--delta", "0.05", "--model", "distflow"],
            ["newton", "--a", "0.01,0.1", "--n", "10,100"],
            ["ratio", "--delta", "0.01,0.1"],
            ["ratio"],
            ["converge", "--a", "0.05", "--n", "10,100"],
            ["allocate", "--x", "3,0,1,2", "--alpha", "2", "--delta", "0.15"],
            ["simulate", "--n", "2", "--delta", "0.2", "--mult", "0.8",
             "--replications", "1", "--events", "500", "--seed", "3"],
        ],
        ids=["thresholds", "newton", "ratio-list", "ratio-grid", "converge",
             "allocate", "simulate"],
    )
    def test_replay_records_every_flag(self, tmp_path, capsys, argv):
        out1 = tmp_path / "run.csv"
        assert main([*argv, "--out", str(out1)]) == 0
        assert set(_manifest(out1)["parameters"]) == _recorded_flags(argv)
        out2 = tmp_path / "replay.csv"
        assert _replay(out1, out2) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_thresholds_replay_is_byte_identical(self, tmp_path, capsys):
        out1 = tmp_path / "thresholds.csv"
        assert main(["thresholds", "--n", "10", "--delta", "0.05",
                     "--out", str(out1)]) == 0
        assert capsys.readouterr().out == ""  # CSV went to the file
        manifest = _manifest(out1)
        assert set(manifest) == {"command", "parameters", "tool_version"}
        assert manifest["command"] == "thresholds"
        assert manifest["tool_version"] == __version__
        assert set(manifest["parameters"]) == {"n", "r", "delta", "model"}
        out2 = tmp_path / "replay.csv"
        assert _replay(out1, out2) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_simulate_replay_reproduces_csv_and_trajectory(self, tmp_path, capsys):
        out1 = tmp_path / "probe.csv"
        assert main([
            "simulate", "--n", "2", "--delta", "0.2", "--model", "lindist",
            "--mult", "0.8", "--replications", "2", "--events", "1500",
            "--seed", "3", "--out", str(out1),
        ]) == 0
        traj1 = tmp_path / "probe.csv.traj0.csv"
        assert traj1.exists()
        lines = traj1.read_text().strip().split("\n")
        assert lines[0] == "time,total_queue"
        assert len(lines) == 514  # header + 513 grid samples
        assert _manifest(out1)["parameters"]["seed"] == "3"
        out2 = tmp_path / "replay.csv"
        assert _replay(out1, out2) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert traj1.read_bytes() == (tmp_path / "replay.csv.traj0.csv").read_bytes()

    def test_simulate_seed_defaults_to_zero_and_replays(self, tmp_path, capsys):
        out1 = tmp_path / "probe.csv"
        assert main([
            "simulate", "--n", "2", "--delta", "0.2", "--mult", "0.8",
            "--replications", "1", "--events", "800", "--out", str(out1),
        ]) == 0
        assert _manifest(out1)["parameters"]["seed"] == "0"
        out2 = tmp_path / "replay.csv"
        assert _replay(out1, out2) == 0
        assert out1.read_bytes() == out2.read_bytes()
        traj1 = tmp_path / "probe.csv.traj0.csv"
        assert traj1.read_bytes() == (tmp_path / "replay.csv.traj0.csv").read_bytes()

    def test_manifest_bytes_do_not_depend_on_the_output_directory(self, tmp_path, capsys):
        argv = ["allocate", "--x", "3,0,1,2", "--alpha", "2", "--delta", "0.15"]
        texts = []
        for sub in ("a", "a_much_longer_directory_name"):
            (tmp_path / sub).mkdir()
            out = tmp_path / sub / "run.csv"
            assert main([*argv, "--out", str(out)]) == 0
            texts.append((tmp_path / sub / "run.csv.manifest.json").read_bytes())
        assert texts[0] == texts[1]

    def test_no_files_written_without_out(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["ratio", "--delta", "0.1"]) == 0
        assert capsys.readouterr().out.startswith("delta,ratio\n")
        assert list(tmp_path.iterdir()) == []


class TestUnwritableOut:
    """An --out file that cannot be written exits 2 naming --out, before the
    command runs, and leaves no file behind."""

    COMMANDS = {
        "thresholds": ["thresholds", "--n", "10", "--delta", "0.1"],
        "simulate": ["simulate", "--n", "2", "--delta", "0.2", "--mult", "0.8",
                     "--replications", "1", "--events", "200"],
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_missing_directory_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "no" / "such" / "run.csv"
        err = _exits_2(capsys, *self.COMMANDS[command], "--out", str(out))
        assert err == f"linestab: error: cannot write --out '{out}': No such file or directory\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_directory_path_exits_2(self, tmp_path, capsys, command):
        err = _exits_2(capsys, *self.COMMANDS[command], "--out", str(tmp_path))
        assert err == f"linestab: error: cannot write --out '{tmp_path}': Is a directory\n"
        assert list(tmp_path.iterdir()) == []

    def test_trailing_separator_writes_nothing(self, tmp_path, capsys):
        # the CSV, its manifest and the trajectories are all named from one
        # path, so "x.csv/" is refused before anything is written
        out = f"{tmp_path / 'x.csv'}{os.sep}"
        err = _exits_2(capsys, *self.COMMANDS["simulate"], "--out", out)
        assert err == f"linestab: error: cannot write --out '{out}': Is a directory\n"
        assert list(tmp_path.iterdir()) == []

    def test_missing_directory_is_refused_before_the_probe(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "stability_probe", lambda *args, **kwargs: calls.append(args))
        out = tmp_path / "no" / "such" / "run.csv"
        _exits_2(capsys, *self.COMMANDS["simulate"], "--out", str(out))
        assert calls == []

    @pytest.mark.parametrize(
        "command,taken",
        [("thresholds", "run.csv.manifest.json"), ("simulate", "run.csv.traj0.csv")],
    )
    def test_a_sidecar_that_is_a_directory_is_refused_first(
        self, tmp_path, capsys, command, taken
    ):
        (tmp_path / taken).mkdir()
        out = tmp_path / "run.csv"
        err = _exits_2(capsys, *self.COMMANDS[command], "--out", str(out))
        assert err == (
            f"linestab: error: cannot write --out '{out}': "
            f"Is a directory: '{tmp_path / taken}'\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == [taken]

    def test_prints_no_traceback(self, tmp_path):
        out = tmp_path / "no" / "run.csv"
        done = subprocess.run(
            [sys.executable, "-m", "linestab", *self.COMMANDS["thresholds"], "--out", str(out)],
            env=_env_with_src(), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == (
            f"linestab: error: cannot write --out '{out}': No such file or directory\n"
        )


@pytest.mark.parametrize(
    "argv",
    [
        ["thresholds", "--n", "10", "--delta", "0.05"],
        ["newton", "--a", "0.01", "--n", "10"],
        ["ratio", "--delta", "0.1"],
        ["converge", "--a", "0.05", "--n", "10"],
        ["allocate", "--x", "1,2", "--delta", "0.2"],
    ],
    ids=["thresholds", "newton", "ratio", "converge", "allocate"],
)
def test_seed_is_only_a_simulate_flag(capsys, argv):
    assert "--seed" in _exits_2(capsys, *argv, "--seed", "3")


class TestCsvFormat:
    def test_floats_print_at_fifteen_significant_digits(self, capsys):
        rows = _run(capsys, "thresholds", "--n", "10", "--delta", "0.05",
                    "--model", "lindist")
        cfg = NetworkConfig(10, 1.0, 0.05)
        assert rows[1][4] == format(lambda_lin(cfg), ".15g")
        assert rows[1][6] == format(lambda_lin_critical(1.0, 0.05), ".15g")

    def test_output_has_no_padding_or_locale_marks(self, capsys):
        assert main(["ratio", "--delta", "0.25"]) == 0
        out = capsys.readouterr().out
        assert " " not in out and ";" not in out
        assert "." in out.split("\n")[1]


class TestParserReuse:
    """main builds its parser on the first call and reuses it: a second pass
    over successes, usage errors, help and failures prints the same bytes and
    exits the same way, builds no parser and leaves the defaults alone."""

    SEQUENCE = [
        ["thresholds", "--n", "10", "--delta", "0.1"],
        ["newton", "--a", "0.05", "--n", "10,100"],
        ["ratio", "--delta", "0.1,0.5"],
        ["converge", "--a", "0.05", "--n", "10"],
        ["allocate", "--x", "3,0,1", "--delta", "0.15"],
        ["simulate", "--n", "2", "--delta", "0.2", "--replications", "1", "--events", "200"],
        ["thresholds", "--n", "10"],
        ["--help"],
        ["allocate", "--help"],
        ["allocate", "--x", "1,,2", "--delta", "0.1"],
        ["thresholds", "--n", "10", "--delta", "1e-17"],
    ]
    CODES = [0, 0, 0, 0, 0, 0, 2, 0, 0, 2, 3]

    @classmethod
    def _pass(cls, capsys) -> list[tuple]:
        outcomes = []
        for argv in cls.SEQUENCE:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            outcomes.append((code, captured.out, captured.err))
        return outcomes

    def test_second_pass_repeats_the_first_and_builds_no_parser(self, capsys, monkeypatch):
        first = self._pass(capsys)
        assert [code for code, _, _ in first] == self.CODES
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert self._pass(capsys) == first
        assert built == []
        # the shared parser hands its default list to every simulate run
        assert _subcommand("simulate").get_default("mult") == [1.0]


class TestNumpyLoad:
    """Only `simulate` loads numpy: the thresholds, allocations and error
    tables need the standard library alone.  Each check runs in a fresh
    interpreter, since this process already holds numpy through the oracles,
    hypothesis and scipy."""

    def _loads_numpy(self, *commands: list[str]) -> bool:
        script = (
            "import contextlib, io, sys\n"
            "import linestab, linestab.allocator, linestab.powerflow, linestab.simulator\n"
            "import linestab.specfun, linestab.stability\n"
            "from linestab import cli\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "print('numpy' in sys.modules)\n"
        )
        done = subprocess.run([sys.executable, "-c", script], env=_env_with_src(),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return {"True": True, "False": False}[done.stdout.strip()]

    def test_no_command_but_simulate_loads_it(self):
        assert not self._loads_numpy(
            ["thresholds", "--n", "10", "--delta", "0.1"],
            ["newton", "--a", "0.05", "--n", "10,100"],
            ["ratio", "--delta", "0.1,0.5"],
            ["converge", "--a", "0.05", "--n", "10"],
            ["allocate", "--x", "3,0,1", "--delta", "0.15", "--model", "lindist"],
            ["allocate", "--x", "3,0,1", "--delta", "0.15", "--model", "distflow"],
        )

    def test_simulate_loads_it(self, tmp_path):
        out = tmp_path / "probe.csv"
        assert self._loads_numpy(
            ["simulate", "--n", "2", "--delta", "0.2", "--model", "lindist",
             "--mult", "0.8", "--replications", "1", "--events", "200",
             "--out", str(out)],
        )
        assert (tmp_path / "probe.csv.traj0.csv").exists()
