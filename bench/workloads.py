"""The benchmark's three workloads and their output checks.

Each workload builds its inputs from the seed when it is constructed (the
set-up) and then runs passes: a pass is a fixed list of items, and each item
slot's inputs come from the seed and the slot alone, so every pass repeats
the same items and a run can repeat passes until its time is up. The
workloads call xbarsim through module attributes (``crossbar.output_...``,
``network.infer``), so the tracer can wrap those calls.

A failed operation is a raised solver error or a failure the program reports
(an excluded MC run, an ``InferenceResult.failures`` entry). Output checks do
not depend on the code path that produced the output; a failed check makes
the run incorrect and counts its items as failed. Every slot records one
latency per pass, or None when its item failed, so slot positions line up
across passes and a fast failure never counts as a fast item.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from xbarsim import config, crossbar, experiments, network, reports
from xbarsim.crossbar import (ConductanceMatrix, NonIdealSpec, SingularNetworkError,
                              current_excitation, voltage_excitation)
from xbarsim.montecarlo import MismatchSpec
from xbarsim.network import CircuitContext, Fidelity, LayerSpec
from xbarsim.neuron import SolverError, reference_params


def sub_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed derived from the run seed and integer keys."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


@dataclass
class PassResult:
    latencies_s: list = field(default_factory=list)  # per slot: seconds, None if failed
    items: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)  # failed operations, with reasons
    errors: list = field(default_factory=list)  # failed output checks, with reasons
    outputs: list = field(default_factory=list)  # canonical simulated outputs
    agree: int = 0     # infer_nonideal: output bits equal to IDEAL_MATH
    compared: int = 0

    def digest(self) -> str:
        blob = reports.canonical_json(self.outputs).encode("ascii")
        return hashlib.sha256(blob).hexdigest()


# ---- mc_sweep ------------------------------------------------------------

MC_CONFIG = '{"mc": {"calibration": true}, "sar": {"nbits": 6}, "neuron": {"dac": {"nbits": 6}}}'


def check_mc(payload: dict, rows: list, nbits: int) -> list[str]:
    """Calibration tightens the spread and every code is a DAC code."""
    errors = []
    if not payload["std_post"] < payload["std_pre"]:
        errors.append(f"std_post {payload['std_post']!r} >= std_pre {payload['std_pre']!r}")
    full = (1 << nbits) - 1
    bad = [row[3] for row in rows if not 0 <= row[3] <= full]
    if bad:
        errors.append(f"codes outside 0..{full}: {bad[:4]}")
    if len(rows) != payload["n_runs"] - payload["excluded"]:
        errors.append(f"{len(rows)} sample rows for {payload['n_runs']} runs")
    return errors


class McSweep:
    """The CLI ``mc`` kind: parse_config -> run_experiment(MC) -> emit_report
    as JSON and CSV. An item is one MC run; a call is one report of
    ``runs`` runs, and its per-item latency is the call time over ``runs``."""

    name = "mc_sweep"

    def __init__(self, seed: int, calls: int = 4, runs: int = 25):
        self.seed, self.calls, self.runs = seed, calls, runs
        self.cfg = config.parse_config(MC_CONFIG)
        self.nbits = self.cfg["sar"]["nbits"]

    def run_pass(self) -> PassResult:
        out = PassResult()
        for c in range(self.calls):
            seed = sub_seed(self.seed, c)
            out.items += self.runs
            t0 = time.perf_counter()
            try:
                rec = experiments.run_experiment(self.cfg, experiments.ExperimentKind.MC,
                                                 seed=seed, runs=self.runs)
                blob_json = reports.emit_report(rec, reports.ReportFormat.JSON)
                blob_csv = reports.emit_report(rec, reports.ReportFormat.CSV)
            except SolverError as e:
                out.failed += self.runs
                out.failures.append(f"mc seed {seed}: {e}")
                out.latencies_s.append(None)
                continue
            dt = (time.perf_counter() - t0) / self.runs
            excluded = rec.payload["excluded"]
            if excluded:
                out.failures.append(f"mc seed {seed}: {excluded} runs excluded")
            errors = check_mc(rec.payload, rec.tables["samples"][1], self.nbits)
            out.failed += self.runs if errors else excluded
            out.errors += errors
            out.latencies_s.append(None if errors or excluded else dt)
            out.outputs.append([blob_json.decode("ascii"), blob_csv.decode("ascii")])
        return out


# ---- nodal_tiles ---------------------------------------------------------

RESISTIVE = NonIdealSpec(r_wire_row=1.0, r_wire_col=1.0, r_neuron_in=100.0)
IDEAL = NonIdealSpec(0.0, 0.0, 0.0)

# (size, drive, spec, count) per pass. By latency the 24 tiles sort into
# zero-spec 16 (17%), resistive 16 (46%), zero-spec 32/48 (13%), resistive 32
# (21%) and resistive 48 (4%), so p50 and p90 each fall inside one group.
NODAL_MIX = (
    (16, "voltage", RESISTIVE, 7), (16, "current", RESISTIVE, 4),
    (16, "voltage", IDEAL, 2), (16, "current", IDEAL, 2),
    (32, "voltage", RESISTIVE, 3), (32, "current", RESISTIVE, 2),
    (32, "voltage", IDEAL, 1), (32, "current", IDEAL, 1),
    (48, "voltage", RESISTIVE, 1), (48, "voltage", IDEAL, 1),
)
G_MIN, G_MAX = 1e-6, 1e-3
V_MAX, I_MAX = 0.2, 20e-6  # drive ranges: volts / amps per row


def check_tile(sol, ideal: np.ndarray | None) -> list[str]:
    """Tellegen balance, and the ideal dot product for zero-spec tiles."""
    errors = []
    if not np.all(np.isfinite(sol.neuron_currents)):
        errors.append("non-finite neuron currents")
    p_src, p_diss = sol.p_source, sol.p_dissipated
    if not abs(p_src - p_diss) <= 1e-9 * max(abs(p_src), abs(p_diss)):
        errors.append(f"Tellegen: p_source {p_src!r} != p_dissipated {p_diss!r}")
    if ideal is not None and not np.allclose(sol.neuron_currents, ideal, rtol=1e-9, atol=0.0):
        errors.append("zero-spec tile differs from output_currents_ideal")
    return errors


class NodalTiles:
    """output_currents_nonideal over a fixed mix of tiles. An item is one
    tile solve; the conductances and excitations are built at set-up."""

    name = "nodal_tiles"

    def __init__(self, seed: int, mix=NODAL_MIX):
        self.tiles = []
        for idx, (n, drive, spec, _) in enumerate(
                (entry for entry in mix for _ in range(entry[3]))):
            rng = np.random.default_rng(sub_seed(seed, idx))
            G = ConductanceMatrix(rng.uniform(G_MIN, G_MAX, (n, n)), g_min=G_MIN, g_max=G_MAX)
            if drive == "voltage":
                x = voltage_excitation(rng.uniform(0.0, V_MAX, n))
            else:
                x = current_excitation(rng.uniform(0.0, I_MAX, n))
            self.tiles.append((G, x, spec))

    def run_pass(self) -> PassResult:
        out = PassResult()
        for idx, (G, x, spec) in enumerate(self.tiles):
            out.items += 1
            t0 = time.perf_counter()
            try:
                sol = crossbar.output_currents_nonideal(G, x, spec)
            except SingularNetworkError as e:
                out.failed += 1
                out.failures.append(f"tile {idx}: {e}")
                out.latencies_s.append(None)
                continue
            dt = time.perf_counter() - t0
            ideal = crossbar.output_currents_ideal(G, x) if spec is IDEAL else None
            errors = check_tile(sol, ideal)
            out.failed += bool(errors)
            out.errors += [f"tile {idx}: {e}" for e in errors]
            out.latencies_s.append(None if errors else dt)
            out.outputs.append([sol.neuron_currents, sol.p_source, sol.p_dissipated])
        return out


# ---- infer_nonideal ------------------------------------------------------

NET_SHAPE = (16, 8, 4)
NET_BITS, NET_G_MIN, NET_G_MAX = 8, 1e-7, 1e-5
NET_SPEC = NonIdealSpec(r_wire_row=5.0, r_wire_col=5.0, r_neuron_in=1e3)
# read voltage per unit input: 16 rows * 0.025 V * (G_MAX - G_MIN) bounds a
# column's differential current below 4 uA, inside the neuron's 5 uA bias
NET_V_READ = 0.025


def check_infer(result) -> list[str]:
    """One bit vector per layer, of the layer's width, and finite outputs."""
    widths = list(NET_SHAPE[1:])
    got = [np.shape(b) for b in result.bits]
    errors = []
    if got != [(w,) for w in widths]:
        errors.append(f"output bit shapes {got}, expected {[(w,) for w in widths]}")
    if not np.all(np.isfinite(result.outputs)):
        errors.append("non-finite outputs")
    return errors


class InferNonideal:
    """infer at CIRCUIT_NONIDEAL on a 16-8-4 net with mismatch, SAR
    calibration and wire/neuron resistance; each input is also run at
    IDEAL_MATH for bit agreement. An item is one network input."""

    name = "infer_nonideal"

    def __init__(self, seed: int, inputs: int = 8):
        rng = np.random.default_rng(sub_seed(seed, 0))
        self.layers = [LayerSpec(rng.uniform(-1.0, 1.0, (n_out, n_in)))
                       for n_in, n_out in zip(NET_SHAPE, NET_SHAPE[1:])]
        self.mapped = [network.map_weights(layer.weights, NET_BITS, NET_G_MIN, NET_G_MAX,
                                           activation=layer.activation)
                       for layer in self.layers]
        self.ctx = CircuitContext(neuron=reference_params(), v_read=NET_V_READ,
                                  nonideal=NET_SPEC, mismatch=MismatchSpec(),
                                  mismatch_seed=sub_seed(seed, 1))
        self.xs = np.random.default_rng(sub_seed(seed, 2)).uniform(
            -1.0, 1.0, (inputs, NET_SHAPE[0]))

    def run_pass(self) -> PassResult:
        out = PassResult()
        for x in self.xs:
            out.items += 1
            t0 = time.perf_counter()
            try:
                got = network.infer(self.mapped, x, Fidelity.CIRCUIT_NONIDEAL, self.ctx)
            except (SolverError, SingularNetworkError) as e:
                out.failed += 1
                out.failures.append(str(e))
                out.latencies_s.append(None)
                continue
            dt = time.perf_counter() - t0
            ref = network.infer(self.layers, x, Fidelity.IDEAL_MATH)
            errors = check_infer(got)
            failed = bool(errors or got.failures)
            out.failed += failed
            out.errors += errors
            out.failures += [f"neuron failure: {f}" for f in got.failures]
            out.latencies_s.append(None if failed else dt)
            out.agree += int(np.sum(got.bits[-1] == ref.bits[-1]))
            out.compared += len(ref.bits[-1])
            out.outputs.append([[b.astype(int) for b in got.bits], got.outputs,
                                got.crossbar_power])
        return out


WORKLOADS = {w.name: w for w in (McSweep, NodalTiles, InferNonideal)}

