import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbarsim.crossbar import (ConductanceMatrix, NonIdealSpec,
                              SingularNetworkError, current_excitation,
                              dot_product_error, output_currents_ideal,
                              output_currents_nonideal, voltage_excitation)

from oracles import nodal_oracle_currents, nodal_oracle_zero_wire


def gmat(values, g_min=1e-6, g_max=5e-3):
    return ConductanceMatrix(np.asarray(values, float), g_min=g_min, g_max=g_max)


def random_gmat(rng, rows, cols, g_min=1e-6, g_max=1e-3):
    g = rng.uniform(g_min, g_max, size=(rows, cols))
    return ConductanceMatrix(g, g_min=g_min, g_max=g_max)


class TestIdeal:
    def test_2x2_hand_example(self):
        G = gmat([[1e-3, 2e-3], [3e-3, 4e-3]])
        i = output_currents_ideal(G, voltage_excitation([0.1, 0.2]))
        assert i == pytest.approx([0.7e-3, 1.0e-3], rel=1e-12)

    def test_zero_input(self):
        G = gmat([[1e-3, 2e-3], [3e-3, 4e-3]])
        assert np.all(output_currents_ideal(G, voltage_excitation([0, 0])) == 0)

    def test_one_hot_diagonal(self):
        G = gmat(np.diag([2e-3, 2e-3, 2e-3]) + 1e-6)
        i = output_currents_ideal(G, voltage_excitation([0, 1.0, 0]))
        assert i[1] == pytest.approx(2e-3 + 1e-6, rel=1e-12)

    def test_dimension_mismatch(self):
        G = gmat([[1e-3, 2e-3], [3e-3, 4e-3]])
        with pytest.raises(ValueError):
            output_currents_ideal(G, voltage_excitation([0.1, 0.2, 0.3]))

    def test_linearity(self):
        rng = np.random.default_rng(0)
        G = random_gmat(rng, 8, 6)
        v1 = rng.uniform(-1, 1, 8)
        v2 = rng.uniform(-1, 1, 8)
        lhs = output_currents_ideal(G, voltage_excitation(2.0 * v1 + 3.0 * v2))
        rhs = (2.0 * output_currents_ideal(G, voltage_excitation(v1))
               + 3.0 * output_currents_ideal(G, voltage_excitation(v2)))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_matrix_oracle(self):
        rng = np.random.default_rng(1)
        G = random_gmat(rng, 32, 16)
        v = rng.uniform(0, 0.5, 32)
        assert output_currents_ideal(G, voltage_excitation(v)) == pytest.approx(
            G.g.T @ v, rel=1e-12)

    def test_current_mode_split(self):
        G = gmat([[1e-3, 3e-3]])
        i = output_currents_ideal(G, current_excitation([4e-6]))
        assert i == pytest.approx([1e-6, 3e-6], rel=1e-12)
        assert i.sum() == pytest.approx(4e-6, rel=1e-12)


class TestNonIdeal:
    def test_zero_spec_equals_ideal(self):
        rng = np.random.default_rng(2)
        G = random_gmat(rng, 5, 4)
        v = rng.uniform(0, 1, 5)
        sol = output_currents_nonideal(G, voltage_excitation(v), NonIdealSpec(0, 0, 0))
        assert sol.neuron_currents == pytest.approx(G.g.T @ v, rel=1e-12)

    def test_1x1_series_divider(self):
        G = gmat([[1e-3]], g_min=1e-6, g_max=1e-3)
        sol = output_currents_nonideal(G, voltage_excitation([1.0]),
                                       NonIdealSpec(0, 0, 1e3))
        assert sol.neuron_currents[0] == pytest.approx(0.5e-3, rel=1e-12)
        err = dot_product_error(G, voltage_excitation([1.0]), NonIdealSpec(0, 0, 1e3))
        assert err[0] == pytest.approx(0.5, rel=1e-12)

    def test_2x2_zero_wire_oracle(self):
        rng = np.random.default_rng(3)
        G = random_gmat(rng, 2, 2)
        v = np.array([0.3, 0.7])
        sol = output_currents_nonideal(G, voltage_excitation(v), NonIdealSpec(0, 0, 1e3))
        ref = nodal_oracle_zero_wire(G.g, v, 1e3)
        assert sol.neuron_currents == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("rows,cols", [(2, 2), (4, 4), (8, 3)])
    def test_dense_oracle(self, rows, cols):
        rng = np.random.default_rng(rows * 10 + cols)
        G = random_gmat(rng, rows, cols)
        v = rng.uniform(0, 1, rows)
        r_n = rng.uniform(100, 5e3, cols)
        sol = output_currents_nonideal(G, voltage_excitation(v),
                                       NonIdealSpec(1.0, 1.0, r_n))
        ref = nodal_oracle_currents(G.g, v, 1.0, 1.0, r_n)
        assert sol.neuron_currents == pytest.approx(ref, rel=1e-9)

    def test_superposition(self):
        rng = np.random.default_rng(5)
        G = random_gmat(rng, 4, 4)
        spec = NonIdealSpec(2.0, 1.0, 500.0)
        v1 = rng.uniform(0, 1, 4)
        v2 = rng.uniform(0, 1, 4)
        i1 = output_currents_nonideal(G, voltage_excitation(v1), spec).neuron_currents
        i2 = output_currents_nonideal(G, voltage_excitation(v2), spec).neuron_currents
        i12 = output_currents_nonideal(G, voltage_excitation(v1 + v2), spec).neuron_currents
        assert i12 == pytest.approx(i1 + i2, rel=1e-10)

    def test_converges_to_ideal_as_spec_vanishes(self):
        rng = np.random.default_rng(6)
        G = random_gmat(rng, 4, 4)
        v = rng.uniform(0, 1, 4)
        ideal = output_currents_ideal(G, voltage_excitation(v))
        tiny = output_currents_nonideal(G, voltage_excitation(v),
                                        NonIdealSpec(1e-6, 1e-6, 1e-3)).neuron_currents
        assert tiny == pytest.approx(ideal, rel=1e-5)

    def test_tellegen_power_balance(self):
        rng = np.random.default_rng(7)
        G = random_gmat(rng, 6, 5)
        v = rng.uniform(0, 1, 6)
        sol = output_currents_nonideal(G, voltage_excitation(v),
                                       NonIdealSpec(1.5, 0.8, 700.0))
        assert sol.p_source == pytest.approx(sol.p_dissipated, rel=1e-9)

    def test_tellegen_zero_spec(self):
        rng = np.random.default_rng(8)
        G = random_gmat(rng, 3, 3)
        v = rng.uniform(0, 1, 3)
        sol = output_currents_nonideal(G, voltage_excitation(v), NonIdealSpec(0, 0, 0))
        assert sol.p_source == pytest.approx(sol.p_dissipated, rel=1e-9)
        assert sol.p_source == pytest.approx(float(v @ (G.g.sum(axis=1) * v)), rel=1e-9)

    def test_current_mode_nodal(self):
        # all source current must arrive at the neuron terminals
        rng = np.random.default_rng(9)
        G = random_gmat(rng, 3, 3)
        i_src = rng.uniform(1e-6, 1e-5, 3)
        sol = output_currents_nonideal(G, current_excitation(i_src),
                                       NonIdealSpec(1.0, 1.0, 100.0))
        assert sol.neuron_currents.sum() == pytest.approx(i_src.sum(), rel=1e-9)
        assert sol.p_source == pytest.approx(sol.p_dissipated, rel=1e-9)


dims = st.integers(1, 6)
seeds = st.integers(0, 2**32 - 1)
wires = st.floats(0.1, 10.0)
wires_or_zero = st.one_of(st.just(0.0), wires)


def random_terminations(rng, cols, zeros):
    """Per-column neuron resistances; with zeros, some columns are grounded."""
    r_n = rng.uniform(10.0, 1e4, cols)
    if zeros:
        r_n[rng.random(cols) < 0.5] = 0.0
    return r_n


class TestNodalProperties:
    @settings(max_examples=60, deadline=None)
    @given(dims, dims, seeds, wires, wires, st.booleans())
    def test_wired_matches_dense_oracle(self, rows, cols, seed, r_row, r_col, zeros):
        rng = np.random.default_rng(seed)
        G = random_gmat(rng, rows, cols)
        v = rng.uniform(0, 1, rows)
        r_n = random_terminations(rng, cols, zeros)
        sol = output_currents_nonideal(G, voltage_excitation(v),
                                       NonIdealSpec(r_row, r_col, r_n))
        ref = nodal_oracle_currents(G.g, v, r_row, r_col, r_n)
        assert sol.neuron_currents == pytest.approx(ref, rel=1e-9)
        assert sol.p_source == pytest.approx(sol.p_dissipated, rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(dims, dims, seeds)
    def test_zero_wire_matches_closed_form(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        G = random_gmat(rng, rows, cols)
        v = rng.uniform(0, 1, rows)
        r_n = random_terminations(rng, cols, False)
        sol = output_currents_nonideal(G, voltage_excitation(v), NonIdealSpec(0, 0, r_n))
        assert sol.neuron_currents == pytest.approx(
            nodal_oracle_zero_wire(G.g, v, r_n), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(dims, dims, seeds, st.sampled_from([voltage_excitation, current_excitation]))
    def test_zero_spec_matches_ideal(self, rows, cols, seed, excite):
        rng = np.random.default_rng(seed)
        G = random_gmat(rng, rows, cols)
        x = excite(rng.uniform(1e-6, 1e-5, rows))
        sol = output_currents_nonideal(G, x, NonIdealSpec(0, 0, 0))
        assert sol.neuron_currents == pytest.approx(output_currents_ideal(G, x), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(dims, dims, seeds, wires_or_zero, wires_or_zero, st.booleans())
    def test_current_mode_conserves_charge_and_power(self, rows, cols, seed, r_row, r_col,
                                                     zeros):
        rng = np.random.default_rng(seed)
        G = random_gmat(rng, rows, cols)
        i_src = rng.uniform(1e-6, 1e-5, rows)
        r_n = random_terminations(rng, cols, zeros)
        sol = output_currents_nonideal(G, current_excitation(i_src),
                                       NonIdealSpec(r_row, r_col, r_n))
        assert sol.neuron_currents.sum() == pytest.approx(i_src.sum(), rel=1e-9)
        assert sol.p_source == pytest.approx(sol.p_dissipated, rel=1e-9)

    def test_floating_node_reported(self):
        G = gmat([[1e-3, 2e-3], [3e-3, 4e-3]])
        with pytest.raises(SingularNetworkError, match="floating node") as e:
            output_currents_nonideal(G, voltage_excitation([0.1, 0.2]),
                                     NonIdealSpec(1.0, math.inf, math.inf))
        assert isinstance(e.value.node, int)

    @pytest.mark.parametrize("spec", [
        NonIdealSpec(5.0, 5.0, math.inf), NonIdealSpec(5.0, 0.0, math.inf),
        NonIdealSpec(0.0, 0.0, math.inf), NonIdealSpec(5.0, math.inf, 1e3),
    ])
    def test_current_mode_without_ground_path_reported(self, spec):
        G = gmat([[1e-3, 1e-3], [1e-3, 1e-3]])
        with pytest.raises(SingularNetworkError, match="no path to ground"):
            output_currents_nonideal(G, current_excitation([1e-6, 2e-6]), spec)


class TestErrorMetric:
    def test_zero_spec_zero_error(self):
        rng = np.random.default_rng(10)
        G = random_gmat(rng, 3, 3)
        err = dot_product_error(G, voltage_excitation(rng.uniform(0.1, 1, 3)),
                                NonIdealSpec(0, 0, 0))
        assert np.all(err < 1e-12)

    def test_error_monotone_in_neuron_resistance(self):
        rng = np.random.default_rng(11)
        G = random_gmat(rng, 4, 4)
        x = voltage_excitation(rng.uniform(0.1, 1, 4))
        prev = -1.0
        for r in [0.0, 100.0, 1e3, 1e4]:
            e = dot_product_error(G, x, NonIdealSpec(0, 0, r)).max()
            assert e >= prev
            prev = e


class TestValidation:
    def test_bounds_enforced(self):
        for g in [2e-3, float("nan")]:
            with pytest.raises(ValueError):
                ConductanceMatrix(np.array([[g, 1e-3]]), g_min=1e-6, g_max=1e-3)

    def test_negative_resistance_rejected(self):
        G = gmat([[1e-3]])
        nan = float("nan")
        for spec in [NonIdealSpec(-1.0, 0, 0), NonIdealSpec(nan, 1, 100),
                     NonIdealSpec(1, nan, 100), NonIdealSpec(1, 1, nan),
                     NonIdealSpec(1, 1, [nan])]:
            with pytest.raises(ValueError):
                output_currents_nonideal(G, voltage_excitation([1.0]), spec)
        # +inf is an open circuit, not an error
        NonIdealSpec(1, 1, math.inf).neuron_resistances(1)
