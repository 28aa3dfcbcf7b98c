import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbarsim.neuron import RgcParams, reference_params, solve_dc
from xbarsim.sar import (calibrate_array, calibration_latency, sar_calibrate,
                         sar_normalized_converge, sar_normalized_step, sign_plus)

from oracles import Direction, reference_sar_calibrate


def exhaustive_best(plant, vref, nbits):
    """Independent oracle: evaluate every code, return the argmin |plant-vref|."""
    codes = range(1 << nbits)
    return min(codes, key=lambda c: (abs(plant(c) - vref), c))


class TestNormalizedRecurrence:
    def test_first_step_from_zero(self):
        # x_0 = 0, target 0.8 -> x_1 = 0 - (-1)/2 = 0.5
        assert sar_normalized_step(0.0, 0.8, 1) == 0.5

    def test_second_step(self):
        assert sar_normalized_step(0.5, 0.8, 2) == 0.75

    def test_sign_convention_at_zero(self):
        # s(0) = +1: when x_{i-1} == x the step still subtracts 1/2^i
        assert sign_plus(0.0) == 1.0
        assert sar_normalized_step(0.3, 0.3, 3) == pytest.approx(0.3 - 1 / 8)

    def test_example_4_steps(self):
        xn, traj = sar_normalized_converge(0.3, 4)
        assert traj == pytest.approx([0.0, 0.5, 0.25, 0.375, 0.3125])
        assert xn == pytest.approx(0.3125)
        assert abs(xn - 0.3) <= 1 / 16

    def test_error_bound_on_grid(self):
        xs = np.linspace(-1.0, 1.0, 401)
        for n in range(1, 13):
            bound = 1.0 / 2 ** n
            worst = max(abs(sar_normalized_converge(float(x), n)[0] - float(x))
                        for x in xs)
            assert worst <= bound + 1e-15

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sar_normalized_converge(1.5, 4)
        with pytest.raises(ValueError):
            sar_normalized_converge(0.5, 0)
        with pytest.raises(ValueError):
            sar_normalized_step(0.0, 0.0, 0)


class TestCalibrate:
    def test_linear_plant_example(self):
        res = sar_calibrate(lambda c: c / 16.0, vref=0.3, nbits=4)
        assert res.code == 4
        assert [t[1] for t in res.transcript] == [8, 4, 6, 5]
        assert res.comparisons == 4
        assert res.in_range

    def test_exact_hit(self):
        res = sar_calibrate(lambda c: c / 16.0, vref=0.5, nbits=4)
        assert res.code == 8
        assert res.value == 0.5

    def test_decreasing_plant(self):
        # a decreasing plant is the negated plant searched toward -vref
        def plant(c):
            return 1.0 - c / 16.0

        res = sar_calibrate(lambda c: -plant(c), vref=-0.3, nbits=4)
        assert res.code == 11  # the largest code with plant(c) >= 0.3
        best = exhaustive_best(plant, 0.3, 4)
        assert abs(plant(res.code) - 0.3) <= abs(plant(best) - 0.3) + 1 / 16

    def test_out_of_range_low_and_high(self):
        lo = sar_calibrate(lambda c: 0.5 + c / 64.0, vref=0.1, nbits=4)
        assert lo.code == 0 and not lo.in_range
        hi = sar_calibrate(lambda c: c / 64.0, vref=0.9, nbits=4)
        assert hi.code == 15 and not hi.in_range

    def test_comparator_offset_shifts_target(self):
        # a comparator offset is the same search toward vref + offset
        plain = sar_calibrate(lambda c: c / 16.0, vref=0.3, nbits=4)
        shifted = sar_calibrate(lambda c: c / 16.0, vref=0.3 + 0.125, nbits=4)
        assert (plain.code, shifted.code) == (4, 6)

    def test_neuron_plant_matches_exhaustive(self):
        p = reference_params()

        def plant(c):
            return solve_dc(p, 0.0, c).v_in

        vref = 0.65
        res = sar_calibrate(plant, vref, p.dac.nbits)
        best = exhaustive_best(plant, vref, p.dac.nbits)
        lsb = abs(plant(min(best + 1, 63)) - plant(max(best - 1, 0)))
        assert abs(plant(res.code) - vref) <= abs(plant(best) - vref) + lsb
        assert res.comparisons == p.dac.nbits

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 8), st.floats(0.0, 1.0), st.data())
    def test_random_monotone_plants_one_lsb(self, nbits, vref, data):
        n = 1 << nbits
        incs = data.draw(st.lists(st.floats(1e-4, 0.2), min_size=n, max_size=n))
        vals = np.concatenate([[0.0], np.cumsum(incs)[:-1]])
        vals = vals / max(vals[-1], 1e-9)  # strictly increasing in [0, 1]
        evals = [0]

        def plant(c):
            evals[0] += 1
            return float(vals[c])

        res = sar_calibrate(plant, vref, nbits)
        assert res.comparisons == nbits
        best = exhaustive_best(lambda c: float(vals[c]), vref, nbits)
        if res.in_range:
            neighbors = [b for b in (best - 1, best, best + 1) if 0 <= b < n]
            slack = max(abs(float(vals[b]) - float(vals[best])) for b in neighbors)
            assert abs(float(vals[res.code]) - vref) <= \
                abs(float(vals[best]) - vref) + slack + 1e-12


class TestMatchesRegisterReference:
    """The MSB-first loop against the register-driven search it replaced.

    The loop searches an increasing plant toward one reference, so a
    decreasing plant is negated and searched toward the negated reference,
    and a comparator offset is added to the reference; both are exact.
    """

    @staticmethod
    def _plant(nbits, shape, decreasing, seed):
        rng = np.random.default_rng(seed)
        n = 1 << nbits
        if shape == "monotone":
            vals = np.cumsum(rng.uniform(1e-3, 1.0, n))
            vals = vals / vals[-1]
        elif shape == "stepped":  # non-monotone, with many exact repeats
            vals = np.round(rng.uniform(0.0, 1.0, n) * 8) / 8
        elif shape == "plateau":  # monotone but not strictly
            vals = np.sort(np.round(rng.uniform(0.0, 1.0, n) * 8) / 8)
        else:  # non-monotone, with NaN and infinite outputs
            vals = rng.uniform(0.0, 1.0, n)
            vals[rng.integers(0, n, 3)] = [np.nan, np.inf, -np.inf]
        return [float(v) for v in (-vals if decreasing else vals)]

    @settings(max_examples=300, deadline=None)
    @given(nbits=st.integers(1, 10),
           shape=st.sampled_from(["monotone", "plateau", "stepped", "special"]),
           decreasing=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
           vref=st.floats(-1.2, 1.2), offset=st.sampled_from([0.0, 1e-3, -0.25]),
           tie=st.none() | st.integers(0, 1023))
    def test_same_result_and_plant_calls(self, nbits, shape, decreasing, seed,
                                         vref, offset, tie):
        vals = self._plant(nbits, shape, decreasing, seed)
        if tie is not None and tie < len(vals) and math.isfinite(vals[tie]):
            vref, offset = vals[tie], 0.0  # the comparator sees an exact tie
        direction = Direction.DECREASING if decreasing else Direction.INCREASING
        sign = -1.0 if decreasing else 1.0

        def run(search, sign, *args):
            calls = []

            def plant(c):
                calls.append(c)
                return sign * vals[c]

            res = search(plant, *args)
            return calls, (res.code, repr(sign * res.value), res.comparisons,
                           res.in_range,
                           [(b, t, repr(sign * v), k) for b, t, v, k in res.transcript])

        new_calls, new = run(sar_calibrate, sign, sign * (vref + offset), nbits)
        ref_calls, ref = run(reference_sar_calibrate, 1.0, vref, nbits, direction, offset)
        assert new_calls == ref_calls
        assert new == ref
        if shape == "monotone":
            target = vref + offset
            sign = -1.0 if decreasing else 1.0
            below = [c for c, v in enumerate(vals) if sign * v <= sign * target]
            assert new[0] == max(below, default=0)
            assert new[2] == nbits

    def test_nbits_must_be_positive(self):
        with pytest.raises(ValueError):
            sar_calibrate(lambda c: c / 16.0, vref=0.3, nbits=0)


class TestArrayCalibration:
    VREF_IN, VREF_OUT = 0.65, 0.95

    def _calibrate(self, neurons, calibrate_output=True):
        return calibrate_array(neurons, self.VREF_IN, self.VREF_OUT, calibrate_output)

    def test_single_neuron_matches_direct_sar(self):
        p = reference_params()
        [rec] = self._calibrate([p], calibrate_output=False)
        direct = sar_calibrate(lambda c: solve_dc(p, 0.0, c).v_in, 0.65, p.dac.nbits)
        assert rec.code_in == direct.code
        assert rec.v_in == pytest.approx(direct.value, abs=1e-12)
        assert rec.code_out is None
        assert rec.comparisons == p.dac.nbits

    def test_output_trim_matches_direct_sar(self):
        p = reference_params()
        [rec] = self._calibrate([p])
        ci = sar_calibrate(lambda c: solve_dc(p, 0.0, c).v_in, 0.65, p.dac.nbits).code
        out = sar_calibrate(lambda c: solve_dc(p, 0.0, ci, out_code=c).v_out, 0.95,
                            p.dac_out.nbits)
        assert (rec.code_in, rec.code_out, rec.v_out) == (ci, out.code, out.value)
        # v_in is the input point re-solved after the output trim
        assert rec.v_in == solve_dc(p, 0.0, ci, out_code=out.code).v_in

    def test_identical_neurons_identical_codes(self):
        p = reference_params()
        recs = self._calibrate([p] * 8)
        assert len(recs) == 8
        assert len({(r.code_in, r.code_out) for r in recs}) == 1
        assert all(r.error is None and r.code_out is not None for r in recs)

    def test_mismatched_array_vs_exhaustive(self):
        base = reference_params()
        rng = np.random.default_rng(42)
        neurons = []
        for _ in range(8):
            m2 = base.m2.perturbed(dvt=float(rng.normal(0, 10e-3)),
                                   dbeta_rel=float(rng.normal(0, 0.02)))
            neurons.append(base.with_devices(m2=m2))
        recs = self._calibrate(neurons, calibrate_output=False)
        for rec, p in zip(recs, neurons):

            def plant(c, p=p):
                return solve_dc(p, 0.0, c).v_in

            best = exhaustive_best(plant, 0.65, p.dac.nbits)
            lsb = abs(plant(min(best + 1, 63)) - plant(max(best - 1, 0)))
            assert abs(plant(rec.code_in) - 0.65) <= abs(plant(best) - 0.65) + lsb

    def test_order_independence(self):
        base = reference_params()
        rng = np.random.default_rng(7)
        neurons = [base.with_devices(m2=base.m2.perturbed(
            dvt=float(rng.normal(0, 10e-3)), dbeta_rel=0.0)) for _ in range(4)]
        fwd = self._calibrate(neurons)
        rev = self._calibrate(list(reversed(neurons)))
        assert fwd == rev[::-1]

    def test_comparator_eval_budget(self):
        p = reference_params()
        recs = self._calibrate([p] * 5)
        assert [r.comparisons for r in recs] == [p.dac.nbits + p.dac_out.nbits] * 5

    def test_failed_neuron_recorded_others_proceed(self):
        good = reference_params()
        bad = RgcParams(**{**good.__dict__, "vb3": 0.0})
        recs = self._calibrate([good, bad, good])
        assert recs[1].error is not None
        assert recs[0].code_in is not None and recs[0].error is None
        assert recs[2] == recs[0]


class TestLatency:
    def test_example_single_neuron(self):
        assert calibration_latency(1, 4, 1e-6) == pytest.approx(4e-6)

    def test_example_array(self):
        # 16 neurons x 6 bits x 200 ns
        assert calibration_latency(16, 6, 200e-9) == pytest.approx(19.2e-6)

    def test_two_nodes_per_neuron(self):
        assert calibration_latency(16, 6, 200e-9, nodes_per_neuron=2) == \
            pytest.approx(38.4e-6)

    def test_zero_neurons(self):
        assert calibration_latency(0, 6, 1e-6) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            calibration_latency(4, 0, 1e-6)
        with pytest.raises(ValueError):
            calibration_latency(4, 6, 0.0)
