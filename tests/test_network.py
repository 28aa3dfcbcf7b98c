import json

import numpy as np
import pytest

from xbarsim import network
from xbarsim.config import parse_config
from xbarsim.crossbar import NonIdealSpec
from xbarsim.experiments import ExperimentKind, run_experiment
from xbarsim.montecarlo import MismatchSpec, run_rng, sample_params
from xbarsim.network import (Activation, CircuitContext, Fidelity, LayerSpec,
                             crossbar_energy_ideal, dequantize,
                             digital_baseline, energy_estimate, infer,
                             map_weights)
from xbarsim.neuron import SolverError, reference_params, solve_dc

G_MIN, G_MAX = 1e-7, 1e-5


def mapped(w, bits=8, **kw):
    return map_weights(np.asarray(w, float), bits, G_MIN, G_MAX, **kw)


class TestMapping:
    def test_zero_weight_parks_both_columns(self):
        m = mapped([[0.0, 1.0]])
        assert m.g_plus.g[0, 0] == G_MIN
        assert m.g_minus.g[0, 0] == G_MIN

    def test_full_scale_positive(self):
        m = mapped([[1.0]])
        assert m.g_plus.g[0, 0] == G_MAX
        assert m.g_minus.g[0, 0] == G_MIN

    def test_full_scale_negative(self):
        m = mapped([[-1.0]])
        assert m.g_minus.g[0, 0] == G_MAX
        assert m.g_plus.g[0, 0] == G_MIN

    @pytest.mark.parametrize("bits", range(1, 13))
    def test_roundtrip_within_half_lsb(self, bits):
        rng = np.random.default_rng(bits)
        w = rng.uniform(-1, 1, size=(6, 5))
        m = mapped(w, bits=bits, w_ref=1.0)
        half_lsb = 0.5 / ((1 << bits) - 1)
        assert np.max(np.abs(dequantize(m) - w)) <= half_lsb + 1e-12

    def test_tie_rounds_away_from_zero(self):
        # with 1 bit there are 2 levels; |w| = 0.5 exactly at the midpoint
        m = mapped([[0.5]], bits=1, w_ref=1.0)
        assert m.g_plus.g[0, 0] == G_MAX

    def test_orientation_transposed(self):
        m = mapped(np.zeros((3, 7)))
        assert m.g_plus.g.shape == (7, 3)
        assert m.n_in == 7 and m.n_out == 3

    def test_bits_validation(self):
        with pytest.raises(ValueError):
            mapped([[1.0]], bits=0)


class TestInference:
    def _net(self, rng, bits=8):
        w1 = rng.uniform(-1, 1, size=(4, 8))
        w2 = rng.uniform(-1, 1, size=(2, 4))
        return [LayerSpec(w1), LayerSpec(w2)]

    def test_ideal_math_identity(self):
        layers = [LayerSpec(np.array([[1.0, -1.0], [0.5, 0.5]]))]
        res = infer(layers, np.array([1.0, 1.0]), Fidelity.IDEAL_MATH)
        assert res.pre_activations[0] == pytest.approx([0.0, 1.0])
        assert list(res.bits[0]) == [True, True]

    def test_ideal_math_threshold_feeds_next_layer(self):
        layers = [LayerSpec(np.array([[1.0], [-1.0]])),
                  LayerSpec(np.array([[1.0, -2.0]]))]
        res = infer(layers, np.array([1.0]), Fidelity.IDEAL_MATH)
        # layer 1 bits: [1, 0]; layer 2 pre: 1*1 - 2*0 = 1
        assert res.pre_activations[1] == pytest.approx([1.0])

    def test_linear_activation_passthrough(self):
        layers = [LayerSpec(np.array([[2.0]]), activation=Activation.LINEAR),
                  LayerSpec(np.array([[3.0]]))]
        res = infer(layers, np.array([1.0]), Fidelity.IDEAL_MATH)
        assert res.pre_activations[1] == pytest.approx([6.0])

    def test_circuit_needs_context_and_mapped_layers(self):
        layers = [LayerSpec(np.ones((2, 2)))]
        with pytest.raises(ValueError):
            infer(layers, np.zeros(2), Fidelity.CIRCUIT_IDEAL)
        with pytest.raises(ValueError):
            infer(layers, np.zeros(2), Fidelity.CIRCUIT_IDEAL,
                  CircuitContext(neuron=reference_params()))

    def test_circuit_ideal_matches_ideal_math_high_bits(self):
        rng = np.random.default_rng(0)
        specs = self._net(rng)
        layers = [map_weights(s.weights, 16, G_MIN, G_MAX, w_ref=1.0)
                  for s in specs]
        ctx = CircuitContext(neuron=reference_params())
        agree = total = 0
        for _ in range(25):
            x = rng.uniform(0, 1, 8)
            ref = infer(specs, x, Fidelity.IDEAL_MATH)
            # only score inputs with comfortable decision margin everywhere
            if min(np.min(np.abs(p)) for p in ref.pre_activations) < 0.02:
                continue
            got = infer(layers, x, Fidelity.CIRCUIT_IDEAL, ctx)
            total += 1
            agree += all(np.array_equal(a, b) for a, b in zip(ref.bits, got.bits))
        assert total >= 10
        assert agree == total

    def test_circuit_ideal_pre_activation_tracks_math(self):
        rng = np.random.default_rng(1)
        w = rng.uniform(-1, 1, size=(3, 5))
        layers = [map_weights(w, 16, G_MIN, G_MAX, w_ref=1.0)]
        ctx = CircuitContext(neuron=reference_params())
        x = rng.uniform(0, 1, 5)
        got = infer(layers, x, Fidelity.CIRCUIT_IDEAL, ctx)
        assert got.pre_activations[0] == pytest.approx(w @ x, abs=1e-3)

    def test_nonideal_degrades_gracefully(self):
        rng = np.random.default_rng(2)
        specs = self._net(rng)
        layers = [map_weights(s.weights, 12, G_MIN, G_MAX, w_ref=1.0)
                  for s in specs]
        ctx = CircuitContext(neuron=reference_params(),
                             nonideal=NonIdealSpec(1.0, 1.0, 100.0),
                             mismatch=MismatchSpec(), mismatch_seed=3)
        ideal_agree = nonideal_agree = 0
        xs = [rng.uniform(0, 1, 8) for _ in range(8)]
        for x in xs:
            ref = infer(specs, x, Fidelity.IDEAL_MATH)
            gi = infer(layers, x, Fidelity.CIRCUIT_IDEAL, ctx)
            gn = infer(layers, x, Fidelity.CIRCUIT_NONIDEAL, ctx)
            ideal_agree += all(np.array_equal(a, b)
                               for a, b in zip(ref.bits, gi.bits))
            nonideal_agree += all(np.array_equal(a, b)
                                  for a, b in zip(ref.bits, gn.bits))
            assert gn.crossbar_power >= 0.0
        assert nonideal_agree <= ideal_agree

    def test_nonideal_deterministic(self):
        rng = np.random.default_rng(4)
        w = rng.uniform(-1, 1, size=(2, 3))
        layers = [map_weights(w, 8, G_MIN, G_MAX, w_ref=1.0)]
        ctx = CircuitContext(neuron=reference_params(),
                             nonideal=NonIdealSpec(1.0, 1.0, 100.0),
                             mismatch=MismatchSpec(), mismatch_seed=5)
        x = rng.uniform(0, 1, 3)
        a = infer(layers, x, Fidelity.CIRCUIT_NONIDEAL, ctx)
        b = infer(layers, x, Fidelity.CIRCUIT_NONIDEAL, ctx)
        assert np.array_equal(a.outputs, b.outputs)
        assert all(np.array_equal(p, q) for p, q in zip(a.bits, b.bits))

    def test_failed_neuron_reported_and_keeps_sign_bit(self, monkeypatch, tmp_path):
        w = [[1.0, -0.5, 0.25], [-0.75, 0.5, 1.0]]
        xs = np.random.default_rng(6).uniform(-1, 1, (4, 3))
        np.savetxt(tmp_path / "x.csv", xs, delimiter=",")
        cfg = parse_config(json.dumps({"network": {
            "layers": [{"values": w}], "inputs_csv": "x.csv",
            "fidelity": "circuit_nonideal"}}), base_dir=tmp_path)
        # the mismatched instance of layer 0, neuron 1
        failing = sample_params(cfg.neuron_params(), cfg.mismatch_spec(), run_rng(9, 1))

        def solve_dc_failing_neuron_1(p, *args):
            if p == failing:
                raise SolverError("forced failure")
            return solve_dc(p, *args)

        monkeypatch.setattr(network, "solve_dc", solve_dc_failing_neuron_1)
        payload = run_experiment(cfg, ExperimentKind.INFER, seed=9).payload
        assert {tuple(f[:3]) for f in payload["failures"]} == {(k, 0, 1) for k in range(4)}
        assert {f[3] for f in payload["failures"]} == {"forced failure"}
        net = cfg["network"]
        layer = map_weights(np.array(w), net["bits"], net["g_min"], net["g_max"])
        for x, out in zip(xs, payload["output_bits"]):
            v = x * net["v_read"]
            pre = layer.g_plus.g.T @ v - layer.g_minus.g.T @ v
            assert out[1] == int(pre[1] >= 0.0)


class TestEnergy:
    def test_single_neuron_example(self):
        # 43 uW for 10 ns -> 0.43 pJ, exactly
        rep = energy_estimate(n_neurons=1, t_eval=10e-9)
        assert rep.e_neurons == 43e-6 * 10e-9
        assert rep.e_total == rep.e_neurons

    def test_crossbar_example_2x2(self):
        from xbarsim.crossbar import ConductanceMatrix
        G = ConductanceMatrix(np.array([[1e-3, 2e-3], [3e-3, 4e-3]]),
                              g_min=1e-6, g_max=5e-3)
        # sum V^2 G = 0.01*3e-3 + 0.04*7e-3 = 3.1e-4 W; 10 ns -> 3.1 pJ
        e = crossbar_energy_ideal(G, [0.1, 0.2], 10e-9)
        assert e == pytest.approx(3.1e-12, rel=1e-12)

    def test_additivity_exact(self):
        rep = energy_estimate(n_neurons=4, t_eval=10e-9, p_crossbar=3.1e-4,
                              sar_nodes=4, sar_nbits=6, t_sar_step=100e-9,
                              p_sar=10e-6, amortize_over=1000)
        assert rep.e_total == rep.e_crossbar + rep.e_neurons + rep.e_sar

    def test_sar_amortization(self):
        full = energy_estimate(1, 1e-9, sar_nodes=1, sar_nbits=6,
                               t_sar_step=100e-9, p_sar=10e-6, amortize_over=1)
        amort = energy_estimate(1, 1e-9, sar_nodes=1, sar_nbits=6,
                                t_sar_step=100e-9, p_sar=10e-6,
                                amortize_over=1000)
        assert amort.e_sar == pytest.approx(full.e_sar / 1000, rel=1e-12)

    def test_ideal_vs_tellegen_crossbar_power(self):
        from xbarsim.crossbar import (ConductanceMatrix, NonIdealSpec,
                                      output_currents_nonideal,
                                      voltage_excitation)
        rng = np.random.default_rng(6)
        g = rng.uniform(1e-6, 1e-3, size=(4, 3))
        G = ConductanceMatrix(g, g_min=1e-6, g_max=1e-3)
        v = rng.uniform(0, 1, 4)
        e_formula = crossbar_energy_ideal(G, v, 1.0)
        sol = output_currents_nonideal(G, voltage_excitation(v),
                                       NonIdealSpec(0, 0, 0))
        assert sol.p_dissipated == pytest.approx(e_formula, rel=1e-9)

    def test_digital_baseline_example(self):
        # 64 MACs at 1 pJ + 8 activations at 0.5 pJ = 68 pJ
        assert digital_baseline(64, 1e-12, 8, 0.5e-12) == pytest.approx(68e-12, rel=1e-12)

    def test_digital_baseline_zero(self):
        assert digital_baseline(0, 1e-12, 0, 1e-12) == 0.0

    def test_ratio(self):
        rep = energy_estimate(1, 10e-9, baseline=68e-12)
        assert rep.ratio == pytest.approx(68e-12 / (43e-6 * 10e-9), rel=1e-12)

    def test_ratio_none_without_baseline(self):
        assert energy_estimate(1, 10e-9).ratio is None

    def test_validation(self):
        with pytest.raises(ValueError):
            energy_estimate(1, -1.0)
        with pytest.raises(ValueError):
            digital_baseline(-1, 1e-12, 0, 0)
