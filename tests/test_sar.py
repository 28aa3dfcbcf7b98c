import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbarsim.neuron import reference_params, solve_dc
from xbarsim.sar import sar_calibrate, sar_normalized_converge

from oracles import Direction, reference_sar_calibrate


def exhaustive_best(plant, vref, nbits):
    """Independent oracle: evaluate every code, return the argmin |plant-vref|."""
    codes = range(1 << nbits)
    return min(codes, key=lambda c: (abs(plant(c) - vref), c))


class TestNormalizedRecurrence:
    def test_first_step_from_zero(self):
        # x_0 = 0, target 0.8 -> x_1 = 0 - (-1)/2 = 0.5
        assert sar_normalized_converge(0.8, 1) == (0.5, [0.0, 0.5])

    def test_second_step(self):
        assert sar_normalized_converge(0.8, 2)[1] == [0.0, 0.5, 0.75]

    def test_sign_convention_at_zero(self):
        # s(0) = +1: x_1 = 0.5 equals x, and the second step still subtracts 1/4
        assert sar_normalized_converge(0.5, 2)[1] == [0.0, 0.5, 0.25]

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
