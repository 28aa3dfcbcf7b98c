import json
from collections import Counter
from dataclasses import FrozenInstanceError
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xbarsim import crossbar, network
from xbarsim.config import parse_config
from xbarsim.crossbar import (ConductanceMatrix, NodalSolution, NonIdealSpec,
                              output_currents_ideal, output_currents_nonideal,
                              voltage_excitation)
from xbarsim.experiments import ExperimentKind, run_experiment
from xbarsim.montecarlo import MismatchSpec, run_rng, sample_params
from xbarsim.network import (Activation, CircuitContext, Fidelity, LayerSpec,
                             crossbar_power_ideal, digital_baseline,
                             energy_estimate, infer, map_weights)
from xbarsim.neuron import KCL_TOL, SolverError, reference_params, solve_dc

from oracles import solved_readout

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
        w_q = ((m.g_plus.g - m.g_minus.g) / m.scale).T
        assert np.max(np.abs(w_q - w)) <= half_lsb + 1e-12

    def test_tie_rounds_away_from_zero(self):
        # with 1 bit there are 2 levels; |w| = 0.5 exactly at the midpoint
        m = mapped([[0.5]], bits=1, w_ref=1.0)
        assert m.g_plus.g[0, 0] == G_MAX

    def test_orientation_transposed(self):
        m = mapped(np.zeros((3, 7)))
        assert m.g_plus.g.shape == (7, 3)
        assert m.n_out == 3

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
        with pytest.raises(ValueError, match="circuit_ideal fidelity needs MappedLayer"):
            infer(layers, np.zeros(2), Fidelity.CIRCUIT_IDEAL,
                  CircuitContext(neuron=reference_params()))
        with pytest.raises(ValueError, match="CircuitContext"):
            infer([mapped(np.ones((2, 2)))], np.zeros(2), Fidelity.CIRCUIT_IDEAL)

    def test_ideal_math_needs_layer_specs(self):
        layers = [LayerSpec(np.ones((2, 2))), mapped(np.ones((1, 2)))]
        with pytest.raises(ValueError, match="ideal_math fidelity needs LayerSpec"):
            infer(layers, np.zeros(2), Fidelity.IDEAL_MATH)

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

    @settings(max_examples=60, deadline=None)
    @given(net_seed=st.integers(0, 2**32 - 1),
           widths=st.tuples(st.integers(1, 12), st.integers(1, 6), st.integers(1, 4)),
           bits=st.integers(1, 8), v_read=st.floats(0.01, 0.3),
           activation=st.sampled_from(Activation), n_inputs=st.integers(1, 3))
    def test_circuit_ideal_is_zero_spec_nodal(self, net_seed, widths, bits, v_read,
                                              activation, n_inputs):
        # the ideal crossbar is the nodal crossbar with no wire or neuron resistance;
        # rows leaning to one sign drive some columns past the 5 uA main bias
        rng = np.random.default_rng(net_seed)
        layers = [mapped(rng.uniform(-1, 1, (n_out, n_in)) + rng.uniform(-1, 1, (n_out, 1)),
                         bits, activation=act)
                  for (n_in, n_out), act in zip(zip(widths, widths[1:]),
                                                (activation, Activation.THRESHOLD))]
        ideal = CircuitContext(neuron=reference_params(), v_read=v_read)
        nodal = CircuitContext(neuron=reference_params(), v_read=v_read,
                               nonideal=NonIdealSpec(0.0, 0.0, 0.0))
        for x in rng.uniform(-1, 1, (n_inputs, widths[0])):
            a = infer(layers, x, Fidelity.CIRCUIT_IDEAL, ideal)
            b = infer(layers, x, Fidelity.CIRCUIT_NONIDEAL, nodal)
            v = x
            for li, layer in enumerate(layers):
                # the sum of the column currents' magnitudes, in pre-activation units
                mag = (layer.g_plus.g + layer.g_minus.g).T @ np.abs(v) / layer.scale
                pa, pb = a.pre_activations[li], b.pre_activations[li]
                assert np.all(np.abs(pa - pb) <= 1e-12 * mag)
                clear = np.abs(pa) > 1e-9 * mag
                assert np.array_equal(a.bits[li][clear], b.bits[li][clear])
                if not np.array_equal(a.bits[li], b.bits[li]):
                    break  # the next layer sees other inputs
                v = a.bits[li].astype(float) if layer.activation is Activation.THRESHOLD else pa
            else:
                # every failure here is an over-bias; its reason prints the input
                # current to 6 digits, where the two sums agree
                assert all("exceeds main bias" in r for f in (a, b) for _, _, r in f.failures)
                assert b.failures == a.failures
                assert b.crossbar_power == pytest.approx(a.crossbar_power, rel=1e-12)

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

    def test_pair_stack_equals_two_single_tile_calls(self, monkeypatch):
        # 16-8-4 as the benchmark's network: the 16 x 8 pair is swept, the
        # 8 x 4 pair one group; rows leaning to one sign at 0.2 V drive some
        # neurons past their bias
        rng = np.random.default_rng(12)
        layers = [mapped(rng.uniform(-1, 1, (n_out, n_in)) + rng.uniform(-1, 1, (n_out, 1)))
                  for n_in, n_out in [(16, 8), (8, 4)]]
        ctx = CircuitContext(neuron=reference_params(), v_read=0.2,
                             nonideal=NonIdealSpec(5.0, 5.0, 1e3),
                             mismatch=MismatchSpec(), mismatch_seed=7)
        xs = rng.uniform(-1, 1, (6, 16))
        with mock.patch.object(crossbar, "_two_layer", wraps=crossbar._two_layer) as swept, \
                mock.patch.object(network, "output_currents_nonideal",
                                  wraps=output_currents_nonideal) as solve:
            stacked = [infer(layers, x, Fidelity.CIRCUIT_NONIDEAL, ctx) for x in xs]
        assert (solve.call_count, swept.call_count) == (2 * len(xs), len(xs))

        def tile_by_tile(G, x, spec):
            sols = [output_currents_nonideal(ConductanceMatrix(g, G.g_min, G.g_max), x, spec)
                    for g in G.g]
            return NodalSolution(np.array([s.neuron_currents for s in sols]),
                                 np.array([s.p_source for s in sols]),
                                 np.array([s.p_dissipated for s in sols]))

        monkeypatch.setattr(network, "output_currents_nonideal", tile_by_tile)
        assert any(r.failures for r in stacked)
        for got, x in zip(stacked, xs):
            want = infer(layers, x, Fidelity.CIRCUIT_NONIDEAL, ctx)
            assert all(np.array_equal(a, b) for a, b in zip(got.bits, want.bits))
            assert np.array_equal(got.outputs, want.outputs)
            assert got.crossbar_power == want.crossbar_power
            assert got.failures == want.failures

    def test_failed_neuron_reported_and_keeps_sign_bit(self, monkeypatch, tmp_path):
        w = [[1.0, -0.5, 0.25], [-0.75, 0.5, 1.0]]
        xs = np.random.default_rng(6).uniform(-1, 1, (4, 3))
        np.savetxt(tmp_path / "x.csv", xs, delimiter=",")
        cfg = parse_config(json.dumps({"network": {
            "layers": [{"values": w}], "inputs_csv": "x.csv",
            "fidelity": "circuit_nonideal"}}), base_dir=tmp_path)
        # the mismatched instance of layer 0, neuron 1
        failing = sample_params(cfg.neuron_params(), cfg.mismatch_spec(), run_rng(9, 0, 1))

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


class TestCalibrateOnce:
    """A mismatched CircuitContext samples and SAR-trims each neuron once and
    reports its calibration failures on every input."""

    @staticmethod
    def _ctx(mismatch_seed, nonideal=NonIdealSpec(1.0, 1.0, 100.0)):
        return CircuitContext(neuron=reference_params(), v_read=0.025,
                              nonideal=nonideal, mismatch=MismatchSpec(),
                              mismatch_seed=mismatch_seed)

    @staticmethod
    def _count_calls(monkeypatch, *names):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(network, name, counted(name, getattr(network, name)))
        return calls

    @settings(max_examples=25, deadline=None)
    @given(net_seed=st.integers(0, 2**32 - 1), mismatch_seed=st.integers(0, 2**32 - 1),
           widths=st.tuples(*[st.integers(1, 4)] * 3), n_inputs=st.integers(1, 4),
           failing_neuron=st.tuples(st.integers(0, 1), st.integers(0, 3)),
           fail_when=st.sampled_from([None, "at zero", "off zero", "positive"]))
    def test_reused_context_matches_fresh_context_per_input(
            self, net_seed, mismatch_seed, widths, n_inputs, failing_neuron, fail_when):
        # a fresh context per input recalibrates every neuron for every input
        rng = np.random.default_rng(net_seed)
        layers = [mapped(rng.uniform(-1, 1, (n_out, n_in)))
                  for n_in, n_out in zip(widths, widths[1:])]
        xs = rng.uniform(-1, 1, (n_inputs, widths[0]))
        li, j = failing_neuron
        failing = sample_params(reference_params(), MismatchSpec(),
                                run_rng(mismatch_seed, li, j))
        # each rule fails a different set of the neuron's solves: the SAR
        # trials and the quiescent point, the readout, or one readout sign
        fails = {None: lambda i_in: False, "at zero": lambda i_in: i_in == 0.0,
                 "off zero": lambda i_in: i_in != 0.0,
                 "positive": lambda i_in: i_in > 0.0}[fail_when]

        def solve_dc_failing(p, i_in=0.0, code=0):
            if p == failing and fails(i_in):
                raise SolverError(f"forced failure at i_in {i_in!r}, code {code}")
            return solve_dc(p, i_in, code)

        ctx = self._ctx(mismatch_seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(network, "solve_dc", solve_dc_failing)
            for x in xs:
                got = infer(layers, x, Fidelity.CIRCUIT_NONIDEAL, ctx)
                ref = infer(layers, x, Fidelity.CIRCUIT_NONIDEAL, self._ctx(mismatch_seed))
                assert [b.tolist() for b in got.bits] == [b.tolist() for b in ref.bits]
                assert np.array_equal(got.outputs, ref.outputs)
                assert got.crossbar_power == ref.crossbar_power
                assert got.failures == ref.failures

    @pytest.mark.parametrize("fail_when, expected", [
        (lambda i_in: True, ["zero-input failure at code 32"]),
        (lambda i_in: i_in == 0.0, ["zero-input failure at code 32"]),
        (lambda i_in: i_in != 0.0, []),
    ])
    def test_failures_listed_on_every_input_in_order(self, monkeypatch, fail_when, expected):
        # a failed SAR (its first trial is the MSB, code 32) is listed on
        # every input; no neuron is solved per input, so nothing else fails
        layers = [mapped([[1.0, -0.5], [-0.75, 0.25]])]
        failing = sample_params(reference_params(), MismatchSpec(), run_rng(3, 0, 1))

        def solve_dc_failing(p, i_in=0.0, code=0):
            if p == failing and fail_when(i_in):
                kind = "zero-input" if i_in == 0.0 else "readout"
                raise SolverError(f"{kind} failure at code {code}")
            return solve_dc(p, i_in, code)

        monkeypatch.setattr(network, "solve_dc", solve_dc_failing)
        ctx = self._ctx(3)
        for x in ([1.0, 0.5], [-1.0, 0.5], [1.0, 0.5]):
            got = infer(layers, np.array(x), Fidelity.CIRCUIT_NONIDEAL, ctx)
            assert got.failures == [(0, 1, r) for r in expected]
            assert got.bits[0][1] == (got.pre_activations[0][1] >= 0.0)

    def test_second_input_solves_no_neuron(self, monkeypatch):
        rng = np.random.default_rng(7)
        layers = [mapped(rng.uniform(-1, 1, (4, 6))), mapped(rng.uniform(-1, 1, (3, 4)))]
        calls = self._count_calls(monkeypatch, "solve_dc", "sar_calibrate", "sample_params")
        ctx = self._ctx(11)
        infer(layers, rng.uniform(-1, 1, 6), Fidelity.CIRCUIT_NONIDEAL, ctx)
        # one solve per SAR comparison, none for the readout
        assert calls == {"sar_calibrate": 4 + 3, "sample_params": 4 + 3,
                         "solve_dc": (4 + 3) * 6}
        calls.clear()
        infer(layers, rng.uniform(-1, 1, 6), Fidelity.CIRCUIT_NONIDEAL, ctx)
        assert not calls

    def test_context_is_frozen(self):
        ctx = self._ctx(0)
        with pytest.raises(FrozenInstanceError):
            ctx.mismatch_seed = 1

    def test_wide_layers_draw_distinct_neurons(self, monkeypatch):
        # on the retired stream li * 4096 + j, neuron 4096 of layer 0 drew
        # the parameters of neuron 0 of layer 1
        drawn = []

        def sample_recorded(nominal, spec, rng):
            drawn.append(sample_params(nominal, spec, rng))
            return drawn[-1]

        monkeypatch.setattr(network, "sample_params", sample_recorded)
        ctx = self._ctx(0)
        network._calibration_failures(ctx, 0, 4096)
        network._calibration_failures(ctx, 1, 0)
        assert drawn[0] != drawn[1]
        assert drawn[0] == sample_params(reference_params(), MismatchSpec(), run_rng(0, 0, 4096))


class TestComparatorReadout:
    """Circuit-tier bits are i_diff >= 0 in place of the solved comparator
    readout that oracles.solved_readout keeps as the reference."""

    @settings(max_examples=30, deadline=None)
    @given(net_seed=st.integers(0, 2**32 - 1), mismatch_seed=st.integers(0, 2**32 - 1),
           widths=st.tuples(st.integers(1, 24), st.integers(1, 6), st.integers(1, 4)),
           n_inputs=st.integers(1, 3),
           v_read=st.floats(0.01, 0.2), sigma_scale=st.floats(0.0, 3.0),
           wires=st.booleans(), failing_neuron=st.tuples(st.integers(0, 1),
                                                         st.integers(0, 5)))
    # over-biased neurons on both sides, the failing one among them
    @example(net_seed=0, mismatch_seed=1, widths=(24, 4, 2), n_inputs=3, v_read=0.2,
             sigma_scale=1.0, wires=True, failing_neuron=(0, 1))
    def test_bits_and_failures_match_solved_readout(
            self, net_seed, mismatch_seed, widths, n_inputs, v_read, sigma_scale,
            wires, failing_neuron):
        # rows leaning to one sign, up to 24 inputs and v_read up to 0.2 V
        # drive i_diff past both -ib and +ib
        rng = np.random.default_rng(net_seed)
        layers = [mapped(rng.uniform(-1, 1, (n_out, n_in))
                         + rng.uniform(-1, 1, (n_out, 1)))
                  for n_in, n_out in zip(widths, widths[1:])]
        spec = MismatchSpec(10e-3 * sigma_scale, 0.02 * sigma_scale)
        ctx = CircuitContext(neuron=reference_params(), v_read=v_read,
                             nonideal=NonIdealSpec(1.0, 1.0, 100.0) if wires else None,
                             mismatch=spec, mismatch_seed=mismatch_seed)
        # the zero-input solves of one neuron fail, so its SAR fails
        li_fail, j_fail = failing_neuron
        failing = sample_params(reference_params(), spec,
                                run_rng(mismatch_seed, li_fail, j_fail))

        def solve_dc_failing(p, i_in=0.0, code=0):
            if p == failing and i_in == 0.0:
                raise SolverError(f"forced failure at code {code}")
            return solve_dc(p, i_in, code)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(network, "solve_dc", solve_dc_failing)
            for x in rng.uniform(0, 1, (n_inputs, widths[0])):
                got = infer(layers, x, Fidelity.CIRCUIT_NONIDEAL, ctx)
                v = x
                for li, layer in enumerate(layers):
                    i_diff = self._i_diff(layer, v, ctx)
                    assert np.array_equal(got.pre_activations[li],
                                          i_diff / (layer.scale * v_read))
                    bits, failures = solved_readout(ctx.neuron, spec, mismatch_seed,
                                                    ctx.vref_in, li, i_diff,
                                                    solve_dc_failing)
                    decided = np.abs(i_diff) > 6 * KCL_TOL  # 6 pA
                    assert np.array_equal(got.bits[li][decided], bits[decided])
                    # readout Newton stalls and quiescent repeats are not listed
                    kept = [(li, j, reason) for j, stage, reason in failures
                            if stage == "calibration" or "exceeds main bias" in reason]
                    assert [f for f in got.failures if f[0] == li] == kept
                    v = got.bits[li].astype(float)

    def test_over_bias_listed_at_every_circuit_tier(self):
        # 24 full-scale positive weights at 0.2 V drive about 48 uA into
        # output 0, far above the 5 uA main bias; output 1 stays near zero
        layers = [mapped(np.vstack([np.ones(24), np.tile([1.0, -1.0], 12)]))]
        ctx = CircuitContext(neuron=reference_params(), v_read=0.2)
        for fidelity in (Fidelity.CIRCUIT_IDEAL, Fidelity.CIRCUIT_NONIDEAL):
            got = infer(layers, np.ones(24), fidelity, ctx)
            assert [f[:2] for f in got.failures] == [(0, 0)]
            assert "exceeds main bias" in got.failures[0][2]
            assert got.bits[0][0]

    @staticmethod
    def _i_diff(layer, v, ctx):
        """A layer's differential column currents, computed as infer does."""
        exc = voltage_excitation(v * ctx.v_read)
        if ctx.nonideal is None:
            return (output_currents_ideal(layer.g_plus, exc)
                    - output_currents_ideal(layer.g_minus, exc))
        plus, minus = (output_currents_nonideal(g, exc, ctx.nonideal).neuron_currents
                       for g in (layer.g_plus, layer.g_minus))
        return plus - minus


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
        e = crossbar_power_ideal(G, [0.1, 0.2]) * 10e-9
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

    @pytest.mark.parametrize("amortize_over", [0, -5])
    def test_amortize_over_below_one_rejected(self, amortize_over):
        with pytest.raises(ValueError, match=f"amortize_over must be >= 1, got {amortize_over}"):
            energy_estimate(1, 1e-9, sar_nodes=1, sar_nbits=6, t_sar_step=100e-9,
                            p_sar=10e-6, amortize_over=amortize_over)

    def test_ideal_vs_tellegen_crossbar_power(self):
        from xbarsim.crossbar import (ConductanceMatrix, NonIdealSpec,
                                      output_currents_nonideal,
                                      voltage_excitation)
        rng = np.random.default_rng(6)
        g = rng.uniform(1e-6, 1e-3, size=(4, 3))
        G = ConductanceMatrix(g, g_min=1e-6, g_max=1e-3)
        v = rng.uniform(0, 1, 4)
        p_formula = crossbar_power_ideal(G, v)
        sol = output_currents_nonideal(G, voltage_excitation(v),
                                       NonIdealSpec(0, 0, 0))
        assert sol.p_dissipated == pytest.approx(p_formula, rel=1e-9)

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
