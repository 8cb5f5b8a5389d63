"""Golden corpus: CLI commands whose output bytes are pinned.

The expected files under tests/golden/ were written by the CLI itself.
A solver change that moves any byte fails here; such a change must say
which bytes moved and why rather than overwrite the files.
"""

import pathlib

import pytest

from linestab.cli import main
from oracles import kkt_point_mp

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

N20_OCCUPANCY = "28,23,21,25,24,28,28,4,8,21,20,27,28,3,27,10,18,28,5,0"

ALLOCATE_CASES = [
    # the README example
    ("allocate_readme.csv", ["--x", "3,0,1,2", "--alpha", "2", "--delta", "0.15"]),
    ("allocate_n20.csv", ["--x", N20_OCCUPANCY, "--alpha", "0.5", "--delta", "0.15"]),
]


@pytest.mark.parametrize("name,flags", ALLOCATE_CASES, ids=[c[0] for c in ALLOCATE_CASES])
def test_allocate_bytes(name, flags, capsysbinary):
    assert main(["allocate", *flags, "--model", "distflow"]) == 0
    assert capsysbinary.readouterr().out == (GOLDEN / name).read_bytes()


def test_allocate_lindist_bytes(capsysbinary):
    # the README example under the linearized model: alpha_fair_lindist's
    # closed form at the default resistance 1
    assert main(["allocate", *ALLOCATE_CASES[0][1], "--model", "lindist"]) == 0
    expected = (GOLDEN / "allocate_lindist_readme.csv").read_bytes()
    assert capsysbinary.readouterr().out == expected


@pytest.mark.parametrize("name,flags", ALLOCATE_CASES, ids=[c[0] for c in ALLOCATE_CASES])
def test_allocate_powers_are_the_kkt_point(name, flags):
    # every printed power lies within 5e-13 relative of the 40-digit KKT
    # point; the CLI's default resistance is 1
    opts = dict(zip(flags[::2], flags[1::2]))
    x = [int(v) for v in opts["--x"].split(",")]
    want = kkt_point_mp(x, float(opts["--alpha"]), 1.0, float(opts["--delta"]))
    rows = (GOLDEN / name).read_text().splitlines()[1:]
    assert rows.pop().startswith("slack,")
    assert len(rows) == len(x)
    for row in rows:
        station, _, power = row.split(",")
        assert float(power) == pytest.approx(want[int(station)], rel=5e-13, abs=0.0)


THRESHOLD_CASES = [
    # stops on the step, so the accepted iterate's residual is a pass of its own
    ("thresholds_n30000_d0.1.csv", ["--n", "30000", "--delta", "0.1"]),
    # stops at the rounding floor, on an iterate it has already evaluated
    ("thresholds_n100000_d0.01.csv", ["--n", "100000", "--delta", "0.01"]),
    ("thresholds_n100000_d0.5.csv", ["--n", "100000", "--delta", "0.5"]),
]


@pytest.mark.parametrize("name,flags", THRESHOLD_CASES, ids=[c[0] for c in THRESHOLD_CASES])
def test_threshold_bytes(name, flags, capsysbinary):
    assert main(["thresholds", *flags]) == 0
    assert capsysbinary.readouterr().out == (GOLDEN / name).read_bytes()


TABLE_CASES = [
    # the README's Newton recovery and continuum tables
    ("newton_readme.csv", ["newton", "--a", "0.01,0.05,0.1", "--n", "10,100,1000,10000,100000"]),
    ("converge_readme.csv", ["converge", "--a", "0.05", "--n", "10,100,1000,10000,100000"]),
]


@pytest.mark.parametrize("name,argv", TABLE_CASES, ids=[c[0] for c in TABLE_CASES])
def test_table_bytes(name, argv, capsysbinary):
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == (GOLDEN / name).read_bytes()


def _check_simulate_bytes(tmp_path, name, mult, model="distflow", n="5", events="3000"):
    out = tmp_path / name
    argv = [
        "simulate", "--model", model, "--n", n, "--delta", "0.1",
        "--mult", mult, "--replications", "1", "--events", events,
        "--seed", "7", "--out", str(out),
    ]
    assert main(argv) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
    traj = tmp_path / f"{name}.traj0.csv"
    assert traj.read_bytes() == (GOLDEN / f"{name}.traj0.csv").read_bytes()


def test_overloaded_simulate_bytes(tmp_path):
    _check_simulate_bytes(tmp_path, "simulate.csv", "2.0")


def test_overloaded_simulate_bytes_n20(tmp_path):
    # the warm solves of an overloaded 20-station feeder, where a solve's
    # quasi-Newton phase hands over to Newton most often
    _check_simulate_bytes(tmp_path, "simulate_n20.csv", "2.0", n="20", events="2000")


def test_stable_simulate_bytes(tmp_path):
    # at half the threshold stations empty and refill: 124 of the 266 warm
    # solves start from a hint that leaves a newly occupied station unpowered
    _check_simulate_bytes(tmp_path, "simulate_stable.csv", "0.5")


def test_lindist_simulate_bytes(tmp_path):
    # the simulator's own Lindist split, overloaded
    _check_simulate_bytes(tmp_path, "simulate_lindist.csv", "2.0", model="lindist")


def test_stable_lindist_simulate_bytes(tmp_path):
    # the simulator's own Lindist split at half the threshold, where the run
    # keeps returning to states it has split before
    _check_simulate_bytes(tmp_path, "simulate_lindist_stable.csv", "0.5", model="lindist")
