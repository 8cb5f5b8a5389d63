"""Per-layer tracing for the benchmark, installed from outside the program.

The tracer replaces module attributes that each caller looks up at call
time (for example `linestab.simulator._binding_solve`, which the
simulator's allocation closure resolves on every cache miss) with timing
wrappers, and puts the originals back on `uninstall`.  Calls at the cli,
simulator, allocator and stability boundaries become spans kept in memory
and written out once at the end.  The innermost powerflow and specfun
calls, millions in a long run, only feed counters and busy time.

A wrap point that no longer exists is listed in `absent` and skipped, so a
later rename in the program cannot crash a traced run; the metrics fed by
it then read zero.
"""

from __future__ import annotations

import csv
import importlib
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable

SPAN_LAYERS = frozenset({"cli", "simulator", "allocator", "stability"})

# (module, attribute, layer, counter kind); see Tracer._observe for the kinds.
WRAP_POINTS = (
    ("linestab.cli", "lambda_lin", "stability", "threshold"),
    ("linestab.cli", "lambda_dist", "stability", "threshold"),
    ("linestab.cli", "newton_solve_a", "stability", "newton_root"),
    ("linestab.cli", "lambda_lin_critical", "stability", None),
    ("linestab.cli", "lambda_dist_critical", "stability", None),
    ("linestab.cli", "distflow_sensitivity", "powerflow", "sensitivity"),
    ("linestab.stability", "newton_solve_a", "stability", "newton"),
    ("linestab.stability", "distflow_sensitivity", "powerflow", "sensitivity"),
    ("linestab.stability", "erfi", "specfun", "erfi"),
    ("linestab.simulator", "simulate", "simulator", "run"),
    ("linestab.simulator", "_binding_solve", "allocator", "solve"),
    ("linestab.simulator", "_dual_solve", "allocator", "fallback"),
    ("linestab.allocator", "_root_voltage_and_gradient", "powerflow", "gradient"),
    ("linestab.allocator", "_root_voltage", "powerflow", "root_voltage"),
)


class Tracer:
    """Spans, self time per layer and counters for the calls it wraps.

    `call` is also the harness's own entry into the program, so the
    outermost span of every operation is the public call the harness made.
    Self time of a call is its duration minus that of the wrapped calls it
    made; busy time of a layer counts only its outermost calls.
    """

    def __init__(self, wrap_points=WRAP_POINTS):
        self.wrap_points = wrap_points
        self.absent: list[str] = []
        self.spans: list[tuple] = []
        self.self_s: "defaultdict[str, float]" = defaultdict(float)
        self.busy_s: "defaultdict[str, float]" = defaultdict(float)
        self.counts: Counter = Counter()
        self.times: "defaultdict[str, float]" = defaultdict(float)
        self.peak_queue = 0
        self.op_id = 0
        self._stack: list[list] = []  # open calls: [child seconds, span id]
        self._depth: Counter = Counter()
        self._next_span = 0
        self._installed: list[tuple[object, str, Callable]] = []
        self._origin = perf_counter()

    # ------------------------------------------------------------ wrapping

    def install(self) -> None:
        for module_name, attr, layer, kind in self.wrap_points:
            name = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if not callable(original):
                if name not in self.absent:
                    self.absent.append(name)
                continue
            setattr(module, attr, self._wrap(original, layer, kind, name))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def _wrap(self, fn: Callable, layer: str, kind: "str | None", name: str) -> Callable:
        def wrapped(*args, **kwargs):
            return self.call(layer, kind, name, fn, *args, **kwargs)

        wrapped.__wrapped__ = fn
        return wrapped

    # ------------------------------------------------------------- calls

    def call(self, layer: str, kind: "str | None", name: str, fn: Callable, *args, **kwargs):
        stack = self._stack
        parent_span = stack[-1][1] if stack else None
        span_id = parent_span
        if layer in SPAN_LAYERS:
            span_id = self._next_span
            self._next_span += 1
        frame = [0.0, span_id]
        stack.append(frame)
        self._depth[layer] += 1
        result = None
        error: "BaseException | None" = None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][0] += duration
            self.self_s[layer] += duration - frame[0]
            self._depth[layer] -= 1
            if self._depth[layer] == 0:
                self.busy_s[layer] += duration
                if isinstance(error, Exception):
                    self.counts[f"{layer}.failures"] += 1
            if layer in SPAN_LAYERS:
                self.spans.append(
                    (span_id, parent_span, self.op_id, name, start - self._origin, end - self._origin,
                     error is not None)
                )
            if kind is not None:
                self._observe(kind, args, result, error, duration)

    def _observe(self, kind: str, args: tuple, result, error, duration: float) -> None:
        counts = self.counts
        if kind == "gradient":
            n = len(args[0])
            counts["powerflow.gradient_calls"] += 1
            counts["powerflow.gradient_terms"] += n * n
            counts[f"powerflow.gradient_calls.n{n}"] += 1
            self.times[f"powerflow.gradient.n{n}"] += duration
        elif kind == "root_voltage":
            counts["powerflow.root_voltage_calls"] += 1
        elif kind == "sensitivity":
            counts["powerflow.sensitivity_calls"] += 1
            counts["powerflow.recursion_steps"] += int(args[1])
            self.times["powerflow.sensitivity"] += duration
        elif kind == "erfi":
            counts["specfun.erfi_calls"] += 1
            self.times["specfun.erfi"] += duration
        elif kind in ("newton", "newton_root", "threshold"):
            if kind != "newton":
                counts["stability.threshold_calls"] += 1
            if kind != "threshold":
                trace = result if error is None else getattr(error, "trace", None)
                counts["stability.newton_iterations"] += getattr(trace, "iterations", 0)
        elif kind == "run":
            if result is not None:
                counts["simulator.runs"] += 1
                counts["simulator.events"] += result.arrivals + result.departures
                self.peak_queue = max(self.peak_queue, result.max_total_queue)
        elif kind in ("solve", "fallback", "public_solve"):
            counts["allocator.solves"] += 1
            counts[f"allocator.{kind}_calls"] += 1
        elif kind == "cli":
            counts["cli.calls"] += 1
        else:
            raise ValueError(f"unknown counter kind {kind!r}")

    # ------------------------------------------------------------ output

    def write_spans(self, path: Path) -> None:
        """Spans as CSV, times in microseconds from the tracer's creation."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "parent", "op", "name", "start_us", "end_us", "error"])
            for span, parent, op, name, start, end, err in self.spans:
                out.writerow(
                    [span, "" if parent is None else parent, op, name,
                     f"{start * 1e6:.1f}", f"{end * 1e6:.1f}", int(err)]
                )
