"""Command line front end: tables, thresholds, allocations, simulations.

Each subcommand evaluates one family of quantities and emits CSV: a header
row, comma separators, '.' decimal point, floats at 15 significant digits,
independent of locale.  With --out the CSV goes to a file and a JSON run
manifest is written next to it (<out>.manifest.json) recording the command,
all parameter values, the seed and the tool version; re-running a manifest
(`manifest_to_argv`) reproduces the CSV byte for byte.  Without --out the
CSV goes to stdout and no manifest is written.

Exit codes: 0 success, 2 flag validation, 3 solver failure, 4 simulation
abort.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from . import __version__
from .allocator import AllocationError, FairnessSpec, alpha_fair_distflow, alpha_fair_lindist
from .powerflow import NetworkConfig, PowerModel, distflow_sensitivity, feasible
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

__all__ = ["RunManifest", "build_parser", "main", "manifest_to_argv"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_SIMULATION = 4


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility sidecar: enough to re-run a command exactly."""

    command: str
    parameters: dict[str, str]
    output_path: str
    tool_version: str
    seed: "int | None"

    def to_json(self) -> str:
        return json.dumps(
            {
                "command": self.command,
                "parameters": self.parameters,
                "output_path": self.output_path,
                "tool_version": self.tool_version,
                "seed": self.seed,
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        raw = json.loads(text)
        return cls(
            command=raw["command"],
            parameters=dict(raw["parameters"]),
            output_path=raw["output_path"],
            tool_version=raw["tool_version"],
            seed=raw["seed"],
        )


def manifest_to_argv(manifest: RunManifest, out: "str | None" = None) -> list[str]:
    """Rebuild the argv that reproduces a manifest's output.

    ``out`` overrides the recorded output path (pass a scratch location to
    compare bytes without clobbering the original).
    """
    argv = [manifest.command]
    for key, value in manifest.parameters.items():
        argv.extend([f"--{key}", value])
    target = manifest.output_path if out is None else out
    if target:
        argv.extend(["--out", target])
    if manifest.seed is not None:
        argv.extend(["--seed", str(manifest.seed)])
    return argv


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".15g")
    return str(value)


def _write_output(
    args: argparse.Namespace,
    header: Sequence[str],
    rows: Iterable[Sequence],
    parameters: dict[str, str],
) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
        return
    out = Path(args.out)
    out.write_text(text, encoding="ascii", newline="")
    manifest = RunManifest(
        command=args.command,
        parameters=parameters,
        output_path=str(out),
        tool_version=__version__,
        seed=args.seed,
    )
    Path(str(out) + ".manifest.json").write_text(
        manifest.to_json() + "\n", encoding="ascii", newline=""
    )


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc


def _canon_floats(values: Sequence[float]) -> str:
    return ",".join(repr(v) for v in values)


def _canon_ints(values: Sequence[int]) -> str:
    return ",".join(str(v) for v in values)


# ---------------------------------------------------------------- commands


def _cmd_thresholds(args: argparse.Namespace) -> int:
    models = (
        [PowerModel.LINDIST, PowerModel.DISTFLOW]
        if args.model == "both"
        else [PowerModel(args.model)]
    )
    cfg = NetworkConfig(n_stations=args.n, resistance=args.r, delta=args.delta)
    if PowerModel.DISTFLOW in models and args.n < 2:
        raise _Usage("--model distflow needs --n >= 2")
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
    _write_output(
        args,
        header,
        rows,
        {
            "n": str(args.n),
            "r": repr(args.r),
            "delta": repr(args.delta),
            "model": args.model,
        },
    )
    return EXIT_OK


def _cmd_newton(args: argparse.Namespace) -> int:
    for a in args.a:
        if not 0.0 < a < 2.0:
            raise _Usage(f"--a values must lie in (0, 2), got {a:g}")
    for n in args.n:
        if n < 2:
            raise _Usage(f"--n values must be >= 2, got {n}")
    rows = []
    for a in args.a:
        for n in args.n:
            v_target = distflow_sensitivity(a, n)[0]
            delta = 1.0 - 1.0 / v_target
            trace = newton_solve_a(n, delta, stop_tol=args.stop_tol)
            rows.append([n, v_target, trace.a0, trace.a_final, trace.iterations])
    _write_output(
        args,
        ["n", "v_limit", "a0", "a_final", "iterations"],
        rows,
        {
            "a": _canon_floats(args.a),
            "n": _canon_ints(args.n),
            "stop-tol": repr(args.stop_tol),
        },
    )
    return EXIT_OK


def _cmd_ratio(args: argparse.Namespace) -> int:
    if args.delta is not None:
        grid = list(args.delta)
    else:
        lo, hi, count = args.delta_min, args.delta_max, args.points
        if not 0.0 < lo <= hi <= 0.5:
            raise _Usage("grid bounds must satisfy 0 < min <= max <= 0.5")
        if count < 2:
            raise _Usage("--points must be >= 2")
        step = (hi - lo) / (count - 1)
        grid = [lo + i * step for i in range(count - 1)]
        grid.append(hi)  # endpoint exact, no accumulated rounding
    for d in grid:
        if not 0.0 < d <= 0.5:
            raise _Usage(f"delta values must lie in (0, 0.5], got {d:g}")
    rows = [[d, ratio_P(d)] for d in grid]
    if args.delta is not None:
        params = {"delta": _canon_floats(args.delta)}
    else:
        params = {
            "delta-min": repr(args.delta_min),
            "delta-max": repr(args.delta_max),
            "points": str(args.points),
        }
    _write_output(args, ["delta", "ratio"], rows, params)
    return EXIT_OK


def _cmd_converge(args: argparse.Namespace) -> int:
    if args.a < 0.0:
        raise _Usage(f"--a must be nonnegative, got {args.a:g}")
    for n in args.n:
        if n < 2:
            raise _Usage(f"--n values must be >= 2, got {n}")
    rows = [
        [rep.n, rep.v_discrete, rep.v_continuum, rep.abs_err, rep.rel_err]
        for rep in convergence_report(args.a, args.n)
    ]
    _write_output(
        args,
        ["n", "v_discrete", "v_continuum", "abs_err", "rel_err"],
        rows,
        {
            "a": repr(args.a),
            "n": _canon_ints(args.n),
        },
    )
    return EXIT_OK


def _cmd_allocate(args: argparse.Namespace) -> int:
    counts = args.x
    if not counts:
        raise _Usage("--x must contain at least one station")
    cfg = NetworkConfig(n_stations=len(counts), resistance=args.r, delta=args.delta)
    spec = FairnessSpec(alpha=args.alpha)
    model = PowerModel(args.model)
    if model is PowerModel.LINDIST:
        alloc = alpha_fair_lindist(counts, spec, cfg)
    else:
        alloc = alpha_fair_distflow(counts, spec, cfg)
    _, slack = feasible(alloc, cfg, model)
    rows = [[j, counts[j], alloc.p[j]] for j in range(len(counts))]
    rows.append(["slack", "", slack])
    _write_output(
        args,
        ["station", "queue", "power"],
        rows,
        {
            "x": _canon_ints(counts),
            "alpha": repr(args.alpha),
            "r": repr(args.r),
            "delta": repr(args.delta),
            "model": args.model,
        },
    )
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = NetworkConfig(n_stations=args.n, resistance=args.r, delta=args.delta)
    model = PowerModel(args.model)
    if model is PowerModel.LINDIST:
        lam_base = lambda_lin(cfg)
    else:
        if args.n < 2:
            raise _Usage("--model distflow needs --n >= 2")
        lam_base = lambda_dist(cfg)
    horizon = args.horizon if args.horizon is not None else 1.0  # probe raises it
    base = SimConfig(
        network=cfg,
        fairness=FairnessSpec(alpha=args.alpha),
        model=model,
        arrival_rate=lam_base,
        horizon=horizon,
        seed=args.seed if args.seed is not None else 0,
        sample_interval=horizon / 512.0,
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
    params = {
        "n": str(args.n),
        "r": repr(args.r),
        "delta": repr(args.delta),
        "alpha": repr(args.alpha),
        "model": args.model,
        "mult": _canon_floats(args.mult),
        "replications": str(args.replications),
        "events": str(args.events),
    }
    if args.horizon is not None:
        params["horizon"] = repr(args.horizon)
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
        params,
    )
    if args.out is not None:
        # first replication of each multiplier, for plotting queue paths
        for i, row in enumerate(probe):
            rep = row.reports[0]
            lines = ["time,total_queue"]
            lines.extend(
                f"{_fmt(t)},{q}" for t, q in zip(rep.time_grid, rep.total_queue)
            )
            Path(f"{args.out}.traj{i}.csv").write_text(
                "\n".join(lines) + "\n", encoding="ascii", newline=""
            )
    return EXIT_OK


class _Usage(Exception):
    """Flag validation failure past argparse's own checks."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linestab",
        description="Stability thresholds, fair allocations and queueing "
        "simulations for charging on a line feeder.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write CSV here (plus <out>.manifest.json)")
    common.add_argument("--seed", type=int, help="RNG seed for stochastic commands")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("thresholds", parents=[common], help="critical arrival rates")
    p.add_argument("--n", type=int, required=True, help="number of stations")
    p.add_argument("--r", type=float, default=1.0, help="per-line resistance")
    p.add_argument("--delta", type=float, required=True, help="drop tolerance in (0, 0.5]")
    p.add_argument(
        "--model", choices=["lindist", "distflow", "both"], default="both"
    )
    p.set_defaults(func=_cmd_thresholds)

    p = sub.add_parser(
        "newton", parents=[common], help="recover scaled loads from forward targets"
    )
    p.add_argument("--a", type=_float_list, required=True, help="scaled loads, e.g. 0.01,0.05")
    p.add_argument("--n", type=_int_list, required=True, help="feeder sizes, e.g. 10,100")
    p.add_argument("--stop-tol", type=float, default=1e-10, dest="stop_tol")
    p.set_defaults(func=_cmd_newton)

    p = sub.add_parser("ratio", parents=[common], help="Distflow/linearized threshold ratio")
    p.add_argument("--delta", type=_float_list, help="explicit delta list")
    p.add_argument("--delta-min", type=float, default=0.01)
    p.add_argument("--delta-max", type=float, default=0.5)
    p.add_argument("--points", type=int, default=50)
    p.set_defaults(func=_cmd_ratio)

    p = sub.add_parser("converge", parents=[common], help="discrete vs continuum voltage")
    p.add_argument("--a", type=float, required=True, help="scaled uniform load")
    p.add_argument("--n", type=_int_list, required=True, help="feeder sizes")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("allocate", parents=[common], help="one fair allocation")
    p.add_argument("--x", type=_int_list, required=True, help="queue lengths, far end first")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--model", choices=["lindist", "distflow"], default="distflow")
    p.set_defaults(func=_cmd_allocate)

    p = sub.add_parser("simulate", parents=[common], help="stability probe by simulation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--model", choices=["lindist", "distflow"], default="lindist")
    p.add_argument(
        "--mult",
        type=_float_list,
        default=[1.0],
        help="arrival-rate multipliers relative to the model threshold",
    )
    p.add_argument("--replications", type=int, default=5)
    p.add_argument("--events", type=int, default=20_000, help="expected events per run")
    p.add_argument("--horizon", type=float, help="floor for the automatic horizon")
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _Usage as exc:
        parser.exit(EXIT_USAGE, f"{parser.prog}: error: {exc}\n")
    except ValueError as exc:
        parser.exit(EXIT_USAGE, f"{parser.prog}: error: {exc}\n")
    except (NewtonFailure, AllocationError, ArithmeticError) as exc:
        print(f"{parser.prog}: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except SimulationError as exc:
        print(f"{parser.prog}: simulation abort: {exc}", file=sys.stderr)
        return EXIT_SIMULATION


if __name__ == "__main__":
    sys.exit(main())
