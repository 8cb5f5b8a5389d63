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


def _check_simulate_bytes(tmp_path, name, mult, model="distflow"):
    out = tmp_path / name
    argv = [
        "simulate", "--model", model, "--n", "5", "--delta", "0.1",
        "--mult", mult, "--replications", "1", "--events", "3000",
        "--seed", "7", "--out", str(out),
    ]
    assert main(argv) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
    traj = tmp_path / f"{name}.traj0.csv"
    assert traj.read_bytes() == (GOLDEN / f"{name}.traj0.csv").read_bytes()


def test_overloaded_simulate_bytes(tmp_path):
    _check_simulate_bytes(tmp_path, "simulate.csv", "2.0")


def test_stable_simulate_bytes(tmp_path):
    # at half the threshold stations empty and refill: 124 of the 266 warm
    # solves start from a hint that leaves a newly occupied station unpowered
    _check_simulate_bytes(tmp_path, "simulate_stable.csv", "0.5")


def test_lindist_simulate_bytes(tmp_path):
    # the simulator's own Lindist split, overloaded
    _check_simulate_bytes(tmp_path, "simulate_lindist.csv", "2.0", model="lindist")
