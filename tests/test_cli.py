"""End-to-end checks of the command line front end.

Commands run in-process through main(argv); stdout is parsed back as CSV
and compared against the library calls the commands wrap.  Flag validation
must exit 2, solver failures 3, simulation aborts 4, and the --out path
must produce a manifest sidecar whose replay reproduces the CSV byte for
byte.
"""

from __future__ import annotations

import math

import pytest

import linestab.cli as cli
from linestab import __version__
from linestab.allocator import FairnessSpec, alpha_fair_distflow, alpha_fair_lindist
from linestab.cli import RunManifest, main, manifest_to_argv
from linestab.powerflow import NetworkConfig
from linestab.simulator import SimulationError
from linestab.stability import (
    lambda_dist,
    lambda_dist_critical,
    lambda_lin,
    lambda_lin_critical,
    ratio_P,
)


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

    def test_distflow_needs_two_stations(self, capsys):
        _exits_2(capsys, "thresholds", "--n", "1", "--delta", "0.2",
                 "--model", "distflow")

    def test_unreachable_drop_cap_exits_3(self, capsys):
        # delta = 1/2 on a long feeder puts the cap past the sensitivity
        # window, so the Newton threshold has no root to report
        code = main(["thresholds", "--n", "400", "--delta", "0.5",
                     "--model", "distflow"])
        assert code == 3
        assert "solver failure" in capsys.readouterr().err


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
        _exits_2(capsys, "newton", "--a", "0.01", "--n", "1")


class TestRatioCmd:
    def test_published_points(self, capsys):
        rows = _run(capsys, "ratio", "--delta", "0.01,0.1")
        assert rows[0] == ["delta", "ratio"]
        for row, delta, want in zip(rows[1:], (0.01, 0.1), (0.9966, 0.9647)):
            assert float(row[0]) == delta
            assert float(row[1]) == pytest.approx(want, abs=5e-5)
            assert float(row[1]) == pytest.approx(ratio_P(delta), rel=1e-14)

    def test_grid_endpoints_land_exactly(self, capsys):
        rows = _run(capsys, "ratio", "--delta-min", "0.05", "--delta-max", "0.3",
                    "--points", "6")
        assert len(rows) == 7
        assert float(rows[1][0]) == 0.05
        assert float(rows[-1][0]) == 0.3
        ratios = [float(r[1]) for r in rows[1:]]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_default_grid_is_monotone(self, capsys):
        rows = _run(capsys, "ratio")
        assert len(rows) == 51
        ratios = [float(r[1]) for r in rows[1:]]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_rejects_bad_grids(self, capsys):
        _exits_2(capsys, "ratio", "--delta", "0.6")
        _exits_2(capsys, "ratio", "--delta-min", "0.4", "--delta-max", "0.2")
        _exits_2(capsys, "ratio", "--points", "1")


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
        _exits_2(capsys, "converge", "--a", "0.05", "--n", "1")


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

    def test_distflow_needs_two_stations(self, capsys):
        _exits_2(capsys, "simulate", "--n", "1", "--delta", "0.2",
                 "--model", "distflow")

    def test_abort_maps_to_exit_4(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise SimulationError("allocator died mid-run")

        monkeypatch.setattr(cli, "stability_probe", boom)
        code = main(["simulate", "--n", "2", "--delta", "0.2", "--mult", "0.5"])
        assert code == 4
        assert "simulation abort" in capsys.readouterr().err


class TestManifest:
    def test_thresholds_replay_is_byte_identical(self, tmp_path, capsys):
        out1 = tmp_path / "thresholds.csv"
        assert main(["thresholds", "--n", "10", "--delta", "0.05",
                     "--out", str(out1)]) == 0
        assert capsys.readouterr().out == ""  # CSV went to the file
        manifest = RunManifest.from_json(
            (tmp_path / "thresholds.csv.manifest.json").read_text()
        )
        assert manifest.command == "thresholds"
        assert manifest.tool_version == __version__
        assert manifest.seed is None
        assert manifest.output_path == str(out1)
        assert set(manifest.parameters) == {"n", "r", "delta", "model"}
        out2 = tmp_path / "replay.csv"
        assert main(manifest_to_argv(manifest, out=str(out2))) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_newton_replay_preserves_float_grids(self, tmp_path, capsys):
        out1 = tmp_path / "newton.csv"
        assert main(["newton", "--a", "0.01,0.1", "--n", "10,100",
                     "--out", str(out1)]) == 0
        manifest = RunManifest.from_json(
            (tmp_path / "newton.csv.manifest.json").read_text()
        )
        out2 = tmp_path / "replay.csv"
        assert main(manifest_to_argv(manifest, out=str(out2))) == 0
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
        manifest = RunManifest.from_json(
            (tmp_path / "probe.csv.manifest.json").read_text()
        )
        assert manifest.seed == 3
        out2 = tmp_path / "replay.csv"
        assert main(manifest_to_argv(manifest, out=str(out2))) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert traj1.read_bytes() == (tmp_path / "replay.csv.traj0.csv").read_bytes()

    def test_no_files_written_without_out(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["ratio", "--delta", "0.1"]) == 0
        assert capsys.readouterr().out.startswith("delta,ratio\n")
        assert list(tmp_path.iterdir()) == []


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
