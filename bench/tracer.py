"""Span tracer for the benchmark's traced runs.

The tracer wraps xbarsim's public functions where the consuming module
imported them (for example ``montecarlo.solve_dc`` and
``network.sar_calibrate``), so it sees every call one layer makes into
another without any change to the package. ``Tracer.installed`` patches the
module attributes and always puts the originals back.

A span's self time is its duration minus the time covered by the spans it
caused. Counters are taken from the values the wrapped functions return.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from xbarsim import config, crossbar, experiments, montecarlo, network, neuron, reports
from xbarsim.crossbar import ExcitationMode
from xbarsim.network import Fidelity

# groups of nodal calls with their own latency p50: tiles with wire
# resistance by shape (the nodal_tiles mix and the two layer tiles of the
# infer_nonideal network), and all tiles with zero-ohm wires, whose nodes merge
NODAL_GROUPS = ("16x16", "32x32", "48x48", "16x8", "8x4", "zero_wire")


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list = field(default_factory=list)
    # calls of tracked spans made anywhere beneath this span
    descendants: dict = field(default_factory=lambda: defaultdict(int))


def nodal_unknowns(G, x, spec) -> int:
    """Unknowns of the nodal system ``output_currents_nonideal`` assembles,
    computed from the tile shape, drive mode and spec (zero-ohm segments
    merge nodes; driven and ideally grounded nodes are known)."""
    rows, cols = G.n_rows, G.n_cols
    current = x.mode is ExcitationMode.CURRENT
    grounded = spec.neuron_resistances(cols) == 0.0
    if spec.r_wire_row > 0.0:
        row_side = rows * cols + (rows if current else 0)
    else:
        row_side = rows if current else 0
    if spec.r_wire_col > 0.0:
        col_side = rows * cols + int((~grounded).sum())
    else:
        col_side = int((~grounded).sum())
    return row_side + col_side


def _on_solve_dc(tr, args, kwargs, result, dt):
    tr.counters["neuron.newton_iters"] += result.iterations


def _on_solve_dc_error(tr, exc):
    if isinstance(exc, neuron.SolverError):
        tr.counters["neuron.failures"] += 1


def _on_sar(tr, args, kwargs, result, dt):
    tr.counters["sar.comparisons"] += result.comparisons


def _on_run_mc(tr, args, kwargs, result, dt):
    tr.counters["montecarlo.runs"] += result.n_runs


def _on_nodal(tr, args, kwargs, result, dt):
    G, x, spec = args
    wired = spec.r_wire_row > 0.0 or spec.r_wire_col > 0.0
    tr.nodal_s[f"{G.n_rows}x{G.n_cols}" if wired else "zero_wire"].append(dt)
    unknowns = nodal_unknowns(G, x, spec)
    tr.counters["crossbar.nodal.unknowns"] = max(tr.counters["crossbar.nodal.unknowns"],
                                                 unknowns)


def _on_infer(tr, args, kwargs, result, dt):
    fidelity = args[2] if len(args) > 2 else kwargs["fidelity"]
    if fidelity is not Fidelity.IDEAL_MATH:
        tr.counters["network.inputs"] += 1
    tr.counters["network.failures"] += len(result.failures)


def _on_emit(tr, args, kwargs, result, dt):
    tr.counters["reports.bytes"] += len(result)


# (module, attribute, span name, on_result, on_error, counted beneath ancestors)
TARGETS = [
    (neuron, "mos_current_signed", "devices", None, None, False),
    (neuron, "mos_eval", "devices", None, None, False),
    (neuron, "solve_dc", "neuron.solve_dc", _on_solve_dc, _on_solve_dc_error, True),
    (montecarlo, "solve_dc", "neuron.solve_dc", _on_solve_dc, _on_solve_dc_error, True),
    (network, "solve_dc", "neuron.solve_dc", _on_solve_dc, _on_solve_dc_error, True),
    (experiments, "solve_dc", "neuron.solve_dc", _on_solve_dc, _on_solve_dc_error, True),
    (network, "transfer_curve", "neuron.transfer_curve", None, None, False),
    (montecarlo, "sar_calibrate", "sar.calibrate", _on_sar, None, False),
    (network, "sar_calibrate", "sar.calibrate", _on_sar, None, False),
    (experiments, "run_mc", "montecarlo.run_mc", _on_run_mc, None, False),
    (montecarlo, "sample_params", "montecarlo.sample_params", None, None, False),
    (network, "sample_params", "montecarlo.sample_params", None, None, False),
    (crossbar, "output_currents_nonideal", "crossbar.nodal", _on_nodal, None, False),
    (network, "output_currents_nonideal", "crossbar.nodal", _on_nodal, None, False),
    (crossbar, "output_currents_ideal", "crossbar.ideal", None, None, False),
    (network, "output_currents_ideal", "crossbar.ideal", None, None, False),
    (network, "infer", "network.infer", _on_infer, None, False),
    (experiments, "infer", "network.infer", _on_infer, None, False),
    (network, "map_weights", "network.map_weights", None, None, False),
    (experiments, "map_weights", "network.map_weights", None, None, False),
    (config, "parse_config", "config.parse_config", None, None, False),
    (experiments, "run_experiment", "experiments.run_experiment", None, None, False),
    (reports, "emit_report", "reports.emit_report", _on_emit, None, False),
]


class Tracer:
    """Aggregates spans and counters of the calls made while installed."""

    def __init__(self):
        self.spans: dict[str, SpanStats] = defaultdict(SpanStats)
        self.counters: dict[str, float] = defaultdict(int)
        self.nodal_s: dict[str, list] = defaultdict(list)  # by NODAL_GROUPS key
        self._stack: list[list] = []  # [span name, time covered by child spans]

    def wrap(self, name, fn, on_result, on_error, tracked):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if tracked:
                for frame in stack:
                    spans[frame[0]].descendants[name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                s = spans[name]
                s.calls += 1
                s.total_s += dt
                s.self_s += dt - frame[1]
                if tracked:
                    s.durations.append(dt)
            if on_result is not None:
                on_result(self, args, kwargs, result, dt)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore
        the original attributes, also when the block raises."""
        saved = []
        try:
            for module, attr, name, on_result, on_error, tracked in TARGETS:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, on_result, on_error, tracked))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(setup: Tracer, passes: list[Tracer], untraced_s: float,
                  traced_s: float) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    Counts come from the first traced pass; every pass repeats the inputs
    the seed fixes, so they repeat exactly. Times are means over the traced
    passes; setup-phase times (parse_config, map_weights) come from the
    traced set-up.
    """
    first = passes[0]
    n = len(passes)

    def per_pass(name, attr="self_s"):
        return sum(getattr(t.spans[name], attr) for t in passes) / n

    def durations(name):
        return [d for t in passes for d in t.spans[name].durations]

    def solves_beneath(ancestor):
        return first.spans[ancestor].descendants["neuron.solve_dc"]

    sar_calls = first.spans["sar.calibrate"].calls
    comparisons = first.counters["sar.comparisons"]
    runs = first.counters["montecarlo.runs"]
    inputs = first.counters["network.inputs"]
    unknowns = first.counters["crossbar.nodal.unknowns"]
    m = {
        "devices.calls": first.spans["devices"].calls,
        "devices.self_s": per_pass("devices"),
        "neuron.solve_dc.calls": first.spans["neuron.solve_dc"].calls,
        "neuron.solve_dc.self_s": per_pass("neuron.solve_dc"),
        "neuron.solve_dc.p50_us": _median(durations("neuron.solve_dc")) * 1e6,
        "neuron.newton_iters": first.counters["neuron.newton_iters"],
        "neuron.failures": first.counters["neuron.failures"],
        "neuron.transfer_curve.self_s": per_pass("neuron.transfer_curve"),
        "sar.calibrate.calls": sar_calls,
        "sar.self_s": per_pass("sar.calibrate"),
        "sar.comparisons": comparisons,
        "sar.evals_per_comparison":
            solves_beneath("sar.calibrate") / comparisons if comparisons else 0.0,
        "montecarlo.run_mc.self_s": per_pass("montecarlo.run_mc"),
        "montecarlo.sample_params.s": per_pass("montecarlo.sample_params", "total_s"),
        "montecarlo.solves_per_run":
            solves_beneath("montecarlo.run_mc") / runs if runs else 0.0,
        "crossbar.nodal.calls": first.spans["crossbar.nodal"].calls,
    }
    for group in NODAL_GROUPS:
        m[f"crossbar.nodal.p50_ms.{group}"] = _median([d for t in passes
                                                       for d in t.nodal_s[group]]) * 1e3
    m.update({
        "crossbar.ideal.s": per_pass("crossbar.ideal", "total_s"),
        "crossbar.nodal.unknowns": unknowns,
        "crossbar.nodal.dense_bytes": 8 * unknowns * unknowns,
        "network.infer.self_s": per_pass("network.infer"),
        "network.solves_per_input":
            solves_beneath("network.infer") / inputs if inputs else 0.0,
        "network.failures": first.counters["network.failures"],
        "network.map_weights.s": setup.spans["network.map_weights"].total_s,
        "config.parse_config.s": setup.spans["config.parse_config"].total_s,
        "experiments.run_experiment.self_s": per_pass("experiments.run_experiment"),
        "reports.emit_report.s": per_pass("reports.emit_report", "total_s"),
        "reports.bytes": first.counters["reports.bytes"],
        "trace.overhead_share": traced_s / untraced_s - 1.0,
    })
    return m


# metric name -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "devices.calls": "count", "devices.self_s": "s",
    "neuron.solve_dc.calls": "count", "neuron.solve_dc.self_s": "s",
    "neuron.solve_dc.p50_us": "us", "neuron.newton_iters": "count",
    "neuron.failures": "count", "neuron.transfer_curve.self_s": "s",
    "sar.calibrate.calls": "count", "sar.self_s": "s", "sar.comparisons": "count",
    "sar.evals_per_comparison": "ratio",
    "montecarlo.run_mc.self_s": "s", "montecarlo.sample_params.s": "s",
    "montecarlo.solves_per_run": "count/run",
    "crossbar.nodal.calls": "count",
    **{f"crossbar.nodal.p50_ms.{group}": "ms" for group in NODAL_GROUPS},
    "crossbar.ideal.s": "s", "crossbar.nodal.unknowns": "count",
    "crossbar.nodal.dense_bytes": "B",
    "network.infer.self_s": "s", "network.solves_per_input": "count/input",
    "network.failures": "count", "network.map_weights.s": "s",
    "config.parse_config.s": "s", "experiments.run_experiment.self_s": "s",
    "reports.emit_report.s": "s", "reports.bytes": "B",
    "trace.overhead_share": "ratio",
}
