import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbarsim.neuron import RgcParams, reference_params, solve_dc
from xbarsim.sar import (CalibrationSchedule, Direction, NonMonotonePlantError,
                         SarResult, calibrate_array, calibration_latency,
                         sar_calibrate, sar_normalized_converge,
                         sar_normalized_step, sign_plus, transcript_csv)

from oracles import reference_sar_calibrate


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
        res = sar_calibrate(lambda c: 1.0 - c / 16.0, vref=0.3, nbits=4,
                            direction=Direction.DECREASING)
        best = exhaustive_best(lambda c: 1.0 - c / 16.0, 0.3, 4)
        assert abs((1.0 - res.code / 16.0) - 0.3) <= abs((1.0 - best / 16.0) - 0.3) + 1 / 16

    def test_out_of_range_low_and_high(self):
        lo = sar_calibrate(lambda c: 0.5 + c / 64.0, vref=0.1, nbits=4)
        assert lo.code == 0 and not lo.in_range
        hi = sar_calibrate(lambda c: c / 64.0, vref=0.9, nbits=4)
        assert hi.code == 15 and not hi.in_range

    def test_comparator_offset_shifts_target(self):
        plain = sar_calibrate(lambda c: c / 16.0, vref=0.3, nbits=4)
        shifted = sar_calibrate(lambda c: c / 16.0, vref=0.3, nbits=4,
                                comparator_offset=0.125)
        assert shifted.code > plain.code

    def test_monotone_check(self):
        with pytest.raises(NonMonotonePlantError):
            sar_calibrate(lambda c: abs(c - 8), vref=3.0, nbits=4,
                          check_monotone=True)
        # a valid plant passes the check and gives the same answer
        a = sar_calibrate(lambda c: c / 16.0, 0.3, 4, check_monotone=True)
        b = sar_calibrate(lambda c: c / 16.0, 0.3, 4)
        assert a.code == b.code

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

    def test_transcript_csv_shape(self):
        res = sar_calibrate(lambda c: c / 16.0, vref=0.3, nbits=4)
        lines = transcript_csv(res).strip().split("\n")
        assert lines[0] == "bit_index,trial_code,plant_value,kept"
        assert len(lines) == 5

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
    """The MSB-first loop against the register-driven search it replaced."""

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
           tie=st.none() | st.integers(0, 1023), check_monotone=st.booleans())
    def test_same_result_and_plant_calls(self, nbits, shape, decreasing, seed,
                                         vref, offset, tie, check_monotone):
        vals = self._plant(nbits, shape, decreasing, seed)
        if tie is not None and tie < len(vals) and math.isfinite(vals[tie]):
            vref, offset = vals[tie], 0.0  # the comparator sees an exact tie
        direction = Direction.DECREASING if decreasing else Direction.INCREASING

        def run(search):
            calls = []

            def plant(c):
                calls.append(c)
                return vals[c]

            try:
                res = search(plant, vref, nbits, direction, offset, check_monotone)
            except NonMonotonePlantError as e:
                return calls, str(e)
            return calls, (res.code, repr(res.value), res.comparisons, res.in_range,
                           [(b, t, repr(v), k) for b, t, v, k in res.transcript])

        new_calls, new = run(sar_calibrate)
        ref_calls, ref = run(reference_sar_calibrate)
        assert new_calls == ref_calls
        assert new == ref
        if shape == "monotone" and isinstance(new, tuple):
            target = vref + offset
            sign = -1.0 if decreasing else 1.0
            below = [c for c, v in enumerate(vals) if sign * v <= sign * target]
            assert new[0] == max(below, default=0)
            assert new[2] == nbits

    def test_nbits_must_be_positive(self):
        with pytest.raises(ValueError):
            sar_calibrate(lambda c: c / 16.0, vref=0.3, nbits=0)


class TestArrayCalibration:
    def _schedule(self, ids):
        return CalibrationSchedule(neuron_ids=list(ids), vref_in=0.65, vref_out=0.95)

    def test_single_neuron_matches_direct_sar(self):
        p = reference_params()
        sched = calibrate_array([p], self._schedule([0]), calibrate_output=False)
        direct = sar_calibrate(lambda c: solve_dc(p, 0.0, c).v_in, 0.65, p.dac.nbits)
        rec = sched.results[0]
        assert rec.code_in == direct.code
        assert rec.v_in == pytest.approx(direct.value, abs=1e-12)
        assert sched.comparator_evals == p.dac.nbits

    def test_identical_neurons_identical_codes(self):
        p = reference_params()
        sched = calibrate_array([p] * 8, self._schedule(range(8)))
        codes = {(r.code_in, r.code_out) for r in sched.results.values()}
        assert len(codes) == 1
        assert sched.completed()

    def test_mismatched_array_vs_exhaustive(self):
        base = reference_params()
        rng = np.random.default_rng(42)
        neurons = []
        for _ in range(8):
            m2 = base.m2.perturbed(dvt=float(rng.normal(0, 10e-3)),
                                   dbeta_rel=float(rng.normal(0, 0.02)))
            neurons.append(base.with_devices(m2=m2))
        sched = calibrate_array(neurons, self._schedule(range(8)),
                                calibrate_output=False)
        for nid, p in zip(range(8), neurons):
            rec = sched.results[nid]

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
        fwd = calibrate_array(neurons, self._schedule([0, 1, 2, 3]))
        rev = calibrate_array(list(reversed(neurons)),
                              self._schedule([3, 2, 1, 0]))
        for nid in range(4):
            assert fwd.results[nid].code_in == rev.results[nid].code_in
            assert fwd.results[nid].code_out == rev.results[nid].code_out

    def test_comparator_eval_budget(self):
        p = reference_params()
        sched = calibrate_array([p] * 5, self._schedule(range(5)))
        assert sched.comparator_evals == 5 * (p.dac.nbits + p.dac_out.nbits)

    def test_failed_neuron_recorded_others_proceed(self):
        good = reference_params()
        bad = RgcParams(**{**good.__dict__, "vb3": 0.0})
        sched = calibrate_array([good, bad, good], self._schedule([0, 1, 2]))
        assert sched.results[1].error is not None
        assert sched.results[0].code_in is not None
        assert sched.results[2].code_in == sched.results[0].code_in


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
