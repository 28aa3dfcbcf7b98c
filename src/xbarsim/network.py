"""Feed-forward networks on crossbar tiles: weight-to-conductance mapping,
tiered-fidelity inference, and energy accounting against a parameterized
digital baseline.

Signed weights use the standard differential-column idiom: two physical
columns per logical output, positive magnitudes on one side, negative on
the other, unused side parked at g_min; the neuron subtracts the pair.
The circuit tiers read each comparator as i_diff >= 0: by KCL a solved neuron
has v_out = vdd - r_load*(ib - i_in - i_dac_out), free of device parameters,
so no neuron is solved per input. Every circuit tier reports an input
current at or above the main bias as a failure. Mismatched neurons are still
sampled and SAR-trimmed once per CircuitContext, to report calibration
failures. All three tiers run through one forward loop in infer, and
CIRCUIT_NONIDEAL solves each layer's pair as one stack of two tiles, in one
nodal call per layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .crossbar import (ConductanceMatrix, NonIdealSpec, output_currents_ideal,
                       output_currents_nonideal, voltage_excitation)
from .montecarlo import MismatchSpec, run_rng, sample_params
# transfer_curve is unused here; the benchmark tracer patches it by this name
from .neuron import (RgcParams, SolverError, check_input_current,  # noqa: F401
                     solve_dc, transfer_curve)
from .sar import sar_calibrate


class Activation(Enum):
    LINEAR = "linear"
    THRESHOLD = "threshold"


class Fidelity(Enum):
    IDEAL_MATH = "ideal_math"
    CIRCUIT_IDEAL = "circuit_ideal"
    CIRCUIT_NONIDEAL = "circuit_nonideal"


@dataclass
class LayerSpec:
    """weights has shape (n_out, n_in)."""

    weights: np.ndarray
    activation: Activation = Activation.THRESHOLD

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 2:
            raise ValueError("layer weights must be 2-D")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("layer weights must be finite")


@dataclass
class MappedLayer:
    """Differential conductance pair realizing one layer's weights. pair
    stacks the two tiles once, when the layer is made, for the nodal solve."""

    g_plus: ConductanceMatrix     # shape (n_in, n_out)
    g_minus: ConductanceMatrix
    scale: float                  # Siemens per unit weight
    activation: Activation = Activation.THRESHOLD
    pair: ConductanceMatrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.pair = ConductanceMatrix(np.stack([self.g_plus.g, self.g_minus.g]),
                                      min(self.g_plus.g_min, self.g_minus.g_min),
                                      max(self.g_plus.g_max, self.g_minus.g_max))

    @property
    def n_out(self) -> int:
        return self.g_plus.n_cols


def map_weights(w: np.ndarray, bits: int, g_min: float, g_max: float,
                w_ref: float | None = None,
                activation: Activation = Activation.THRESHOLD) -> MappedLayer:
    """Quantize signed weights onto a differential conductance pair.

    Magnitudes are uniformly quantized to 2^bits levels across
    [g_min, g_max], round-to-nearest with ties away from zero. An all-zero
    matrix is allowed (both sides parked at g_min).
    """
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    w = np.asarray(w, dtype=float)
    if w_ref is None:
        w_ref = float(np.max(np.abs(w)))
    if w_ref == 0.0:
        w_ref = 1.0  # arbitrary: all weights are zero anyway
    levels = (1 << bits) - 1
    q = np.abs(w) / w_ref * levels
    k = np.floor(q + 0.5)  # ties away from zero (magnitudes are >= 0)
    k = np.minimum(k, levels)
    step = (g_max - g_min) / levels
    g_mag = g_min + k * step
    g_plus = np.where(w > 0.0, g_mag, g_min)
    g_minus = np.where(w < 0.0, g_mag, g_min)
    scale = (g_max - g_min) / w_ref
    # crossbar orientation: rows = inputs, columns = outputs
    return MappedLayer(
        g_plus=ConductanceMatrix(g_plus.T, g_min=g_min, g_max=g_max),
        g_minus=ConductanceMatrix(g_minus.T, g_min=g_min, g_max=g_max),
        scale=scale, activation=activation,
    )


@dataclass
class InferenceResult:
    fidelity: Fidelity
    outputs: np.ndarray               # final-layer analog outputs (pre-activation units)
    bits: list                        # per-layer digital comparator bits
    pre_activations: list             # per-layer pre-activation vectors
    crossbar_power: float = 0.0       # total dissipated crossbar power during eval (W)
    failures: list = field(default_factory=list)


@dataclass(frozen=True)
class CircuitContext:
    """Shared circuit-level settings for crossbar-backed inference. With a
    mismatch spec the context is one chip: each neuron is a seeded mismatched
    instance, sampled and SAR-trimmed to vref_in once, on first use, and its
    calibration failures are reported on every input. Bits are i_diff >= 0."""

    neuron: RgcParams
    v_read: float = 0.1           # volts per unit input
    nonideal: NonIdealSpec | None = None
    mismatch: MismatchSpec | None = None
    mismatch_seed: int = 0
    vref_in: float = 0.65
    _cal_failures: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def _calibration_failures(ctx: CircuitContext, li: int, j: int) -> tuple:
    """Reasons the SAR trim of layer li's neuron j failed (empty if it did
    not); the neuron is sampled and trimmed on first use only."""
    if (li, j) not in ctx._cal_failures:
        pj = sample_params(ctx.neuron, ctx.mismatch, run_rng(ctx.mismatch_seed, li, j))
        try:
            sar_calibrate(lambda c: solve_dc(pj, 0.0, c).v_in, ctx.vref_in, pj.dac.nbits)
            ctx._cal_failures[li, j] = ()
        except SolverError as e:
            ctx._cal_failures[li, j] = (str(e),)
    return ctx._cal_failures[li, j]


def infer(layers, x, fidelity: Fidelity,
          ctx: CircuitContext | None = None) -> InferenceResult:
    """Run one input through the network at the requested fidelity tier.

    layers: LayerSpec at IDEAL_MATH, MappedLayer at the circuit tiers; either
    at the other tier raises ValueError. Every circuit tier lists an input
    current at or above the main bias as a failure; CIRCUIT_NONIDEAL with a
    mismatch spec also lists calibration failures.
    """
    ideal = fidelity is Fidelity.IDEAL_MATH
    nonideal = fidelity is Fidelity.CIRCUIT_NONIDEAL
    if any(isinstance(l, LayerSpec) != ideal for l in layers):
        need = "LayerSpec" if ideal else "MappedLayer"
        raise ValueError(f"{fidelity.value} fidelity needs {need} inputs")
    if not ideal and ctx is None:
        raise ValueError("circuit fidelities need a CircuitContext")
    mismatched = nonideal and ctx.mismatch is not None
    pres, bits, failures = [], [], []
    p_crossbar = 0.0
    v = np.asarray(x, dtype=float)
    for li, layer in enumerate(layers):
        if ideal:
            pre = layer.weights @ v
            b = pre >= 0.0
        else:
            exc = voltage_excitation(v * ctx.v_read)
            if nonideal and ctx.nonideal is not None:
                sol = output_currents_nonideal(layer.pair, exc, ctx.nonideal)
                (i_plus, i_minus), (p_plus, p_minus) = sol.neuron_currents, sol.p_dissipated
                p_crossbar += float(p_plus) + float(p_minus)
            else:
                # a branch of its own: the zero-spec nodal solve gives the same
                # bits, up to a flipped exact tie, but costs 26 -> 218 us per input
                # at 16-8-4 and 100 us -> 1.42 ms at 256-128-10 (no mismatch;
                # one BLAS thread, 2 shared vCPUs)
                i_plus = output_currents_ideal(layer.g_plus, exc)
                i_minus = output_currents_ideal(layer.g_minus, exc)
                p_crossbar += (crossbar_power_ideal(layer.g_plus, exc.values)
                               + crossbar_power_ideal(layer.g_minus, exc.values))
            i_diff = i_plus - i_minus
            pre = i_diff / (layer.scale * ctx.v_read)
            # Newton leaves v_out within 3*r_load*KCL_TOL of the closed form, so a solved
            # v_out(i_diff) >= v_out(0) differs from this only at |i_diff| <= 6 pA
            b = i_diff >= 0.0
            for j in range(layer.n_out):
                if mismatched:
                    failures += [(li, j, r) for r in _calibration_failures(ctx, li, j)]
                # sample_params never perturbs ib, so the nominal neuron decides
                try:
                    check_input_current(ctx.neuron, float(i_diff[j]))
                except SolverError as e:
                    failures.append((li, j, str(e)))
        pres.append(pre)
        bits.append(b)
        v = b.astype(float) if layer.activation is Activation.THRESHOLD else pre
    return InferenceResult(fidelity, outputs=pres[-1], bits=bits, pre_activations=pres,
                           crossbar_power=p_crossbar, failures=failures)


@dataclass
class EnergyReport:
    """Per-component energy/latency record. e_total is the exact sum of the
    reported components."""

    e_crossbar: float
    e_neurons: float
    e_sar: float
    t_eval: float
    e_digital_baseline: float | None = None

    @property
    def e_total(self) -> float:
        return self.e_crossbar + self.e_neurons + self.e_sar

    @property
    def ratio(self) -> float | None:
        if self.e_digital_baseline is None:
            return None
        return math.inf if self.e_total == 0.0 else self.e_digital_baseline / self.e_total

    def as_dict(self) -> dict:
        return {
            "e_crossbar_j": self.e_crossbar,
            "e_neurons_j": self.e_neurons,
            "e_sar_j": self.e_sar,
            "e_total_j": self.e_total,
            "t_eval_s": self.t_eval,
            "baseline_j": self.e_digital_baseline,
            "ratio": self.ratio,
        }


def crossbar_power_ideal(G: ConductanceMatrix, voltages) -> float:
    """Sum_ij V_i^2 * G_ij, the power of a voltage-mode run on ideal wires."""
    v = np.asarray(voltages, dtype=float)
    return float(v * v @ G.g.sum(axis=1))


def energy_estimate(n_neurons: int, t_eval: float,
                    p_crossbar: float = 0.0,
                    p_neuron: float = 43e-6,
                    sar_nodes: int = 0, sar_nbits: int = 0,
                    t_sar_step: float = 0.0, p_sar: float = 0.0,
                    amortize_over: int = 1,
                    baseline: float | None = None) -> EnergyReport:
    """Assemble the per-inference energy record.

    p_neuron defaults to the measured prototype's 43 uW at 1 V. p_crossbar
    is the total dissipated crossbar power during the evaluation
    (crossbar_power_ideal for ideal runs, the Tellegen-summed dissipation
    for nodal runs). The one-time SAR calibration energy is amortized over a
    configurable inference count.
    """
    if t_eval < 0:
        raise ValueError("t_eval must be >= 0")
    if amortize_over < 1:
        raise ValueError(f"amortize_over must be >= 1, got {amortize_over}")
    e_neurons = n_neurons * p_neuron * t_eval
    e_crossbar = p_crossbar * t_eval
    e_sar = sar_nodes * sar_nbits * t_sar_step * p_sar / amortize_over
    return EnergyReport(e_crossbar=e_crossbar, e_neurons=e_neurons, e_sar=e_sar,
                        t_eval=t_eval, e_digital_baseline=baseline)


def digital_baseline(n_mac: int, e_mac: float, n_activation: int,
                     e_act: float) -> float:
    """Parameterized digital ASIC energy: the comparand is a model, not a
    published figure."""
    if min(n_mac, n_activation) < 0 or e_mac < 0 or e_act < 0:
        raise ValueError("baseline inputs must be >= 0")
    return n_mac * e_mac + n_activation * e_act
