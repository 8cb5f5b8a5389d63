"""Command line front end: tables, thresholds, allocations, simulations.

Each subcommand evaluates one family of quantities and emits CSV: a header
row, comma separators, '.' decimal point, floats at 15 significant digits,
independent of locale.  With --out the CSV goes to a file and a JSON run
manifest is written next to it (<out>.manifest.json) with three keys:
the command, its parameters (every flag the command parsed bar --out,
defaults included, unset optional ones left out) and the tool version.
Running the command with `--key value` for each parameter, and a new
--out, reproduces the CSV byte for byte.  Only `simulate` is random; it
takes --seed (default 0).  Input checks live in the library, whose
ValueError maps to exit 2.  Without --out the CSV goes to stdout and no
manifest is written.

Exit codes: 0 success, 2 flag validation or an --out file that cannot be
written, 3 solver failure, 4 simulation abort.  Every file --out names is
checked before the command runs: a path in no directory, or one that is
or ends as a directory, exits 2 having done no work and written nothing.
Exit 4 covers every allocator failure during `simulate`: the message names
the replication, the multiplier, the time and the state.

The parser is built on the first `main` call and reused by every later one
in the process.  The handlers look the library functions up as module
globals at call time, so a wrapper or test double set on this module is the
one they run.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
from pathlib import Path
from typing import Iterable, Sequence

from . import __version__
from .allocator import AllocationError, FairnessSpec, alpha_fair_distflow, alpha_fair_lindist
from .powerflow import NetworkConfig, PowerModel, _uniform_root_voltage, voltage_slack
from .simulator import SimConfig, SimulationError, stability_probe
from .stability import (
    NewtonFailure,
    convergence_report,
    lambda_dist,
    lambda_dist_critical,
    lambda_lin,
    lambda_lin_critical,
    newton_solve_a,
    ratio_P,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_SIMULATION = 4


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".15g")
    return str(value)


def _param(value) -> str:
    if isinstance(value, list):
        return ",".join(_param(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def _csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _save(path: Path, text: str, out: str) -> None:
    """Write text to path, one of the files of --out ``out``; a failure exits 2."""
    try:
        path.write_text(text, encoding="ascii", newline="")
    except OSError as exc:
        raise ValueError(f"cannot write --out {out!r}: {exc.strerror or exc}") from exc


def _out_files(args: argparse.Namespace) -> list[Path]:
    """Every file --out names, in write order: the CSV, its manifest, then
    `simulate`'s trajectories, one per multiplier."""
    out = Path(args.out)
    files = [out, Path(f"{out}.manifest.json")]
    if args.command == "simulate":
        files += [Path(f"{out}.traj{i}.csv") for i in range(len(args.mult))]
    return files


def _check_out(args: argparse.Namespace) -> None:
    """Raise ValueError, before any work, where --out cannot take the command's files.

    The path must not end in a separator or name a directory, its directory
    must exist, and no other file the command writes may be a directory.
    A write can still fail later, and `_save` reports that.
    """
    out, *sidecars = _out_files(args)
    if args.out.endswith((os.sep, os.altsep or os.sep)) or out.is_dir():
        reason = os.strerror(errno.EISDIR)
    elif not out.parent.is_dir():
        reason = os.strerror(errno.ENOTDIR if out.parent.exists() else errno.ENOENT)
    else:
        taken = [str(path) for path in sidecars if path.is_dir()]
        if not taken:
            return
        reason = f"{os.strerror(errno.EISDIR)}: {taken[0]!r}"
    raise ValueError(f"cannot write --out {args.out!r}: {reason}")


def _write_output(
    args: argparse.Namespace, header: Sequence[str], rows: Iterable[Sequence]
) -> None:
    text = _csv(header, rows)
    if args.out is None:
        sys.stdout.write(text)
        return
    out, manifest_file = _out_files(args)[:2]
    _save(out, text, args.out)
    parameters = {
        key.replace("_", "-"): _param(value)
        for key, value in vars(args).items()
        if key not in ("command", "func", "out") and value is not None
    }
    manifest = {"command": args.command, "parameters": parameters, "tool_version": __version__}
    _save(manifest_file, json.dumps(manifest, indent=2, sort_keys=True) + "\n", args.out)


def _list_of(kind: type, name: str):
    """Parser of a comma-separated list of ``kind``, named ``name`` in errors."""

    def parse(text: str) -> list:
        tokens = text.split(",")
        if not all(tok.strip() for tok in tokens):
            raise argparse.ArgumentTypeError(f"empty item in {name} list {text!r}")
        try:
            return [kind(tok) for tok in tokens]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad {name} list {text!r}") from exc

    return parse


# ---------------------------------------------------------------- commands


def _cmd_thresholds(args: argparse.Namespace) -> None:
    models = (
        [PowerModel.LINDIST, PowerModel.DISTFLOW]
        if args.model == "both"
        else [PowerModel(args.model)]
    )
    cfg = NetworkConfig(n_stations=args.n, resistance=args.r, delta=args.delta)
    header = ["model", "n", "r", "delta", "lambda_n", "n2_lambda_n", "lambda_critical"]
    rows = []
    for model in models:
        if model is PowerModel.LINDIST:
            lam = lambda_lin(cfg)
            crit = lambda_lin_critical(args.r, args.delta)
        else:
            lam = lambda_dist(cfg)
            crit = lambda_dist_critical(args.r, args.delta)
        rows.append(
            [model.value, args.n, args.r, args.delta, lam, args.n * args.n * lam, crit]
        )
    _write_output(args, header, rows)


def _cmd_newton(args: argparse.Namespace) -> None:
    rows = []
    for a in args.a:
        for n in args.n:
            # a load is recoverable when its forward cap V_N(a) is a drop
            # tolerance in (0, 1/2]: a > 0 and V_N(a) <= 2
            v_target = _uniform_root_voltage(a, n) if a > 0.0 else 1.0
            delta = 1.0 - 1.0 / v_target
            if not 0.0 < delta <= 0.5:
                raise ValueError(
                    f"--a {a:g} at --n {n} gives drop tolerance {delta:.6g}; "
                    "--a must be > 0 with V_N(a) <= 2, a tolerance in (0, 0.5]"
                )
            trace = newton_solve_a(n, delta)
            rows.append([n, v_target, trace.a0, trace.a_final, trace.iterations])
    _write_output(args, ["n", "v_limit", "a0", "a_final", "iterations"], rows)


def _cmd_ratio(args: argparse.Namespace) -> None:
    if args.delta is not None:
        grid = args.delta
    else:
        lo, hi, count = 0.01, 0.5, 50
        step = (hi - lo) / (count - 1)
        grid = [lo + i * step for i in range(count - 1)]
        grid.append(hi)  # endpoint exact, no accumulated rounding
    _write_output(args, ["delta", "ratio"], [[d, ratio_P(d)] for d in grid])


def _cmd_converge(args: argparse.Namespace) -> None:
    rows = [
        [rep.n, rep.v_discrete, rep.v_continuum, rep.abs_err, rep.rel_err]
        for rep in convergence_report(args.a, args.n)
    ]
    _write_output(args, ["n", "v_discrete", "v_continuum", "abs_err", "rel_err"], rows)


def _cmd_allocate(args: argparse.Namespace) -> None:
    counts = args.x
    cfg = NetworkConfig(n_stations=len(counts), resistance=args.r, delta=args.delta)
    spec = FairnessSpec(alpha=args.alpha)
    model = PowerModel(args.model)
    if model is PowerModel.LINDIST:
        alloc = alpha_fair_lindist(counts, spec, cfg)
    else:
        alloc = alpha_fair_distflow(counts, spec, cfg)
    slack = voltage_slack(alloc, cfg, model)
    rows = [[j, counts[j], alloc.p[j]] for j in range(len(counts))]
    rows.append(["slack", "", slack])
    _write_output(args, ["station", "queue", "power"], rows)


def _cmd_simulate(args: argparse.Namespace) -> None:
    cfg = NetworkConfig(n_stations=args.n, resistance=args.r, delta=args.delta)
    model = PowerModel(args.model)
    lam_base = lambda_lin(cfg) if model is PowerModel.LINDIST else lambda_dist(cfg)
    base = SimConfig(
        network=cfg,
        fairness=FairnessSpec(alpha=args.alpha),
        model=model,
        arrival_rate=lam_base,
        horizon=1.0,  # unread: the probe sizes each run by --events
        seed=args.seed,
        sample_interval=1.0 / 512.0,
    )
    probe = stability_probe(
        base,
        args.mult,
        replications=args.replications,
        min_events=args.events,
    )
    rows_out = [
        [
            row.multiplier,
            row.arrival_rate,
            row.classification.value,
            row.stable_votes,
            row.unstable_votes,
            max(row.drifts),
            max(row.max_queues),
        ]
        for row in probe
    ]
    _write_output(
        args,
        [
            "multiplier",
            "arrival_rate",
            "classification",
            "stable_votes",
            "unstable_votes",
            "max_drift",
            "max_queue",
        ],
        rows_out,
    )
    if args.out is not None:
        # first replication of each multiplier, for plotting queue paths
        for row, path in zip(probe, _out_files(args)[2:]):
            rep = row.reports[0]
            text = _csv(["time", "total_queue"], zip(rep.time_grid, rep.total_queue))
            _save(path, text, args.out)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linestab",
        description="Stability thresholds, fair allocations and queueing "
        "simulations for charging on a line feeder.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write CSV here (plus <out>.manifest.json)")
    line = argparse.ArgumentParser(add_help=False)
    line.add_argument("--r", type=float, default=1.0, help="per-line resistance")
    line.add_argument("--delta", type=float, required=True, help="drop tolerance in (0, 0.5]")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("thresholds", parents=[common, line], help="critical arrival rates")
    p.add_argument("--n", type=int, required=True, help="number of stations")
    p.add_argument(
        "--model", choices=["lindist", "distflow", "both"], default="both"
    )
    p.set_defaults(func=_cmd_thresholds)

    p = sub.add_parser(
        "newton", parents=[common], help="recover scaled loads from forward targets"
    )
    p.add_argument(
        "--a", type=_list_of(float, "float"), required=True, help="scaled loads, e.g. 0.01,0.05"
    )
    p.add_argument(
        "--n", type=_list_of(int, "integer"), required=True, help="feeder sizes, e.g. 10,100"
    )
    p.set_defaults(func=_cmd_newton)

    p = sub.add_parser("ratio", parents=[common], help="Distflow/linearized threshold ratio")
    p.add_argument(
        "--delta",
        type=_list_of(float, "float"),
        help="explicit delta list (default: 50 points from 0.01 to 0.5)",
    )
    p.set_defaults(func=_cmd_ratio)

    p = sub.add_parser("converge", parents=[common], help="discrete vs continuum voltage")
    p.add_argument("--a", type=float, required=True, help="scaled uniform load")
    p.add_argument("--n", type=_list_of(int, "integer"), required=True, help="feeder sizes")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("allocate", parents=[common, line], help="one fair allocation")
    p.add_argument(
        "--x", type=_list_of(int, "integer"), required=True, help="queue lengths, far end first"
    )
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--model", choices=["lindist", "distflow"], default="distflow")
    p.set_defaults(func=_cmd_allocate)

    p = sub.add_parser("simulate", parents=[common, line], help="stability probe by simulation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--model", choices=["lindist", "distflow"], default="lindist")
    p.add_argument(
        "--mult",
        type=_list_of(float, "float"),
        default=[1.0],
        help="arrival-rate multipliers relative to the model threshold",
    )
    p.add_argument("--replications", type=int, default=5)
    p.add_argument("--events", type=int, default=20_000, help="expected events per run")
    p.add_argument("--seed", type=int, default=0, help="RNG seed, seed + k for replication k")
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out is not None:
            _check_out(args)
        args.func(args)
    except ValueError as exc:
        parser.exit(EXIT_USAGE, f"{parser.prog}: error: {exc}\n")
    except (NewtonFailure, AllocationError, ArithmeticError) as exc:
        print(f"{parser.prog}: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except SimulationError as exc:
        print(f"{parser.prog}: simulation abort: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    return EXIT_OK
