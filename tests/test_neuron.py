import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from xbarsim.devices import MosEval, MosParams, Region
from xbarsim.montecarlo import MismatchSpec, run_mc, run_rng, sample_params
from xbarsim.neuron import (KCL_TOL, DacSpec, OperatingPoint, RgcParams,
                            SolverError, dac_current, gain_numeric, gm_tuned,
                            reference_params, rout_numeric, small_signal,
                            solve_dc, transfer_curve, zin_numeric)
from xbarsim.sar import sar_calibrate

from oracles import bisect, reference_rout_numeric, reference_solve_dc


def lam0_params(**overrides) -> RgcParams:
    """Reference topology with lambda = 0 everywhere and an ideal I_B2 source,
    where the input node has an exact closed form."""
    base = dict(
        m1=MosParams(beta=1e-3, vt=0.3, lam=0.0),
        m2=MosParams(beta=200e-6, vt=0.4, lam=0.0),
        m3=MosParams(beta=1e-3, vt=0.3, lam=0.0),
        m5=MosParams(beta=200e-6, vt=0.4, lam=0.0),
        ib=5e-6, ib2=4e-6, ro_b2=math.inf, vc=0.2, vdd=1.0,
        vb3=1.15, r_load=20e3,
    )
    base.update(overrides)
    return RgcParams(**base)


class TestDac:
    def test_zero_code(self):
        assert dac_current(DacSpec(0.125e-6, 6), 0) == 0.0

    def test_full_scale(self):
        assert dac_current(DacSpec(0.125e-6, 6), 63) == pytest.approx(7.875e-6, rel=1e-12)

    def test_msb_only(self):
        assert dac_current(DacSpec(0.125e-6, 6), 32) == pytest.approx(4e-6, rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            dac_current(DacSpec(0.125e-6, 6), 64)
        with pytest.raises(ValueError):
            dac_current(DacSpec(0.125e-6, 6), -1)

    def test_strictly_monotone(self):
        dac = DacSpec(0.125e-6, 6)
        vals = [dac_current(dac, c) for c in range(64)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestDcClosedForm:
    def test_code_zero(self):
        op = solve_dc(lam0_params())
        assert op.v_in == pytest.approx(0.6, abs=1e-12)

    def test_doubled_branch_current(self):
        # i_dac = 4 uA -> branch 8 uA -> v_in = 0.4 + sqrt(0.08)
        p = lam0_params(dac=DacSpec(i_unit=4e-6 / 32, nbits=6))
        op = solve_dc(p, code=32)
        assert op.v_in == pytest.approx(0.4 + math.sqrt(0.08), abs=1e-12)

    def test_closed_form_over_codes(self):
        p = lam0_params()
        for code in [0, 1, 17, 63]:
            op = solve_dc(p, code=code)
            expect = p.m2.vt + math.sqrt(2 * (p.ib2 + code * p.dac.i_unit) / p.m2.beta)
            assert op.v_in == pytest.approx(expect, abs=1e-12)

    def test_kcl_residual_below_1pA(self):
        for code in [0, 10, 40]:
            op = solve_dc(reference_params(), 0.5e-6, code)
            assert op.residual <= 1e-12

    # network inference reads each comparator as i_diff >= 0 on this identity:
    # KCL at X, Y and O fixes v_out whatever the mismatched device parameters
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sigma_scale=st.floats(0.0, 3.0),
           code=st.integers(0, 63), out_code=st.integers(0, 63),
           frac=st.floats(0.0, 1.0, exclude_max=True))
    def test_v_out_closed_form_under_mismatch(self, seed, sigma_scale, code, out_code,
                                              frac):
        p = sample_params(reference_params(),
                          MismatchSpec(10e-3 * sigma_scale, 0.02 * sigma_scale),
                          run_rng(seed, 0))
        i_in = -4e-6 + frac * (0.98 * p.ib + 4e-6)  # in [-4 uA, 0.98 ib)
        try:
            op = solve_dc(p, i_in, code, out_code)
        except SolverError:
            reject()
        closed = p.vdd - p.r_load * (p.ib - i_in - out_code * p.dac_out.i_unit)
        # each of the three residuals is within KCL_TOL at Newton's exit
        assert abs(op.v_out - closed) <= 3 * p.r_load * KCL_TOL

    def test_bisection_oracle_lambda2(self):
        # only M2 has channel-length modulation; the gate node then tracks
        # v_in + const and the G-node KCL becomes a 1-D residual in v_in
        p = lam0_params(m2=MosParams(beta=200e-6, vt=0.4, lam=0.1))
        op = solve_dc(p)
        c = p.m1.vt + math.sqrt(2 * p.ib / p.m1.beta)

        def residual(v_in):
            vov = v_in - p.m2.vt
            if vov <= 0:
                return -p.ib2
            return 0.5 * p.m2.beta * vov**2 * (1 + p.m2.lam * (v_in + c)) - p.ib2

        v_ref = bisect(residual, p.m2.vt + 1e-9, p.vdd)
        assert op.v_in == pytest.approx(v_ref, abs=1e-9)

    def test_infeasible_input_current(self):
        with pytest.raises(SolverError):
            solve_dc(lam0_params(), i_in=6e-6)

    def test_cutoff_bias_reported(self):
        with pytest.raises(SolverError):
            solve_dc(lam0_params(vb3=0.0))

    def test_monotone_v_in_in_code(self):
        p = reference_params()
        vals = [solve_dc(p, code=c).v_in for c in range(0, 64, 4)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_monotone_v_out_in_out_code(self):
        p = reference_params()
        vals = [solve_dc(p, out_code=c).v_out for c in range(0, 64, 8)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestArrayReferenceSolve:
    """solve_dc and rout_numeric against the numpy-array solves they
    replaced (tests/oracles.py): the same OperatingPoint, iterations and
    residual included, or the same SolverError text."""

    @staticmethod
    def _outcomes(p, i_in, code, out_code):
        out = []
        for solve in (solve_dc, reference_solve_dc):
            try:
                out.append(solve(p, i_in, code, out_code))
            except SolverError as e:
                out.append(f"SolverError: {e}")
        return out

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), run=st.integers(0, 10_000),
           sigma_scale=st.floats(0.0, 3.0), code=st.integers(0, 63),
           out_code=st.integers(0, 63), i_in=st.floats(-12e-6, 6e-6))
    @example(seed=1793829076, run=23, sigma_scale=1.0, code=32, out_code=0, i_in=0.0)
    @example(seed=0, run=0, sigma_scale=0.0, code=20, out_code=0, i_in=-10.7e-6)
    def test_solve_dc_matches_reference(self, seed, run, sigma_scale, code, out_code, i_in):
        p = sample_params(reference_params(),
                          MismatchSpec(10e-3 * sigma_scale, 0.02 * sigma_scale),
                          run_rng(seed, run))
        new, ref = self._outcomes(p, i_in, code, out_code)
        assert new == ref

    def test_known_stall_pinned(self):
        # run 23 stalls at the SAR's first trial code, at M1's
        # triode/saturation edge
        msg = "Newton stalled at iteration 12: residual 1.173e-08 A"
        p = sample_params(reference_params(), MismatchSpec(), run_rng(1793829076, 23))
        assert self._outcomes(p, 0.0, 32, 0) == [f"SolverError: {msg}"] * 2
        res = run_mc(reference_params(), MismatchSpec(), 25, 1793829076, True, 0.65, 6)
        assert res.failures == [(23, msg)]

    def test_known_singular_jacobian_pinned(self):
        # no rail on the feedback node: v_gate1 runs far above vdd here
        msg = "SolverError: singular Jacobian at iteration 3"
        assert self._outcomes(reference_params(), -10.7e-6, 20, 0) == [msg, msg]

    @pytest.mark.parametrize("state", [{}, {"all": "print"}], ids=["default", "print"])
    def test_fp_state_does_not_leak(self, state):
        # the Newton step raises on an invalid LAPACK result inside its own
        # errstate scope; the caller's FP-error policy is what it was
        p = reference_params()
        with np.errstate(**state):
            before = np.geterr()
            op = solve_dc(p)
            assert np.geterr() == before
            with pytest.raises(SolverError, match="singular Jacobian at iteration 3"):
                solve_dc(p, -10.7e-6, 20)
            assert np.geterr() == before
            rout_numeric(p, op)
            assert np.geterr() == before

    @pytest.mark.parametrize("run,code,i_in", [(None, 0, 0.0), (None, 20, -2e-6),
                                               (None, 63, 1e-6), (5, 31, 0.0),
                                               (17, 12, -4e-6)])
    def test_rout_numeric_matches_reference(self, run, code, i_in):
        p = reference_params()
        if run is not None:
            p = sample_params(p, MismatchSpec(), run_rng(3, run))
        op = solve_dc(p, i_in, code)
        assert op == reference_solve_dc(p, i_in, code)
        assert rout_numeric(p, op) == reference_rout_numeric(p, op)

    def test_with_devices_keeps_every_other_field(self):
        p = RgcParams(m1=MosParams(1e-3, 0.3, 0.05), m2=MosParams(2e-4, 0.4, 0.05),
                      m3=MosParams(1e-3, 0.3, 0.05), m5=MosParams(2e-4, 0.4),
                      ib=6e-6, ib2=3e-6, ro_b2=1e6, vc=0.3, vdd=1.2, vb3=1.1,
                      r_load=10e3, dac=DacSpec(0.25e-6, 5), dac_out=DacSpec(0.5e-6, 4))
        m2 = MosParams(3e-4, 0.45, 0.02)
        assert p.with_devices(m2=m2) == dataclasses.replace(p, m2=m2)
        assert p.with_devices() == p


class TestSmallSignalFormulas:
    def _op(self, gm1, gm2, ro2, gm3, ro3, ro1):
        sat = Region.SATURATION
        return OperatingPoint(
            v_in=0.6, v_gate1=1.0, v_mid=0.75, v_out=0.9,
            i_stack=5e-6, i_fb=4e-6, i_dac_out=0.0,
            m1=MosEval(5e-6, sat, gm1, 1.0 / ro1),
            m2=MosEval(4e-6, sat, gm2, 1.0 / ro2),
            m3=MosEval(5e-6, sat, gm3, 1.0 / ro3),
            iterations=1, residual=0.0)

    def test_gain_and_zin_arithmetic(self):
        p = lam0_params(ro_b2=500e3)
        op = self._op(gm1=100e-6, gm2=100e-6, ro2=500e3, gm3=100e-6, ro3=500e3, ro1=500e3)
        ss = small_signal(p, op)
        assert ss.a == pytest.approx(25.0, rel=1e-12)
        assert ss.zin == pytest.approx(400.0, rel=1e-12)

    def test_rout_arithmetic(self):
        p = lam0_params(ro_b2=500e3)
        op = self._op(gm1=100e-6, gm2=100e-6, ro2=500e3, gm3=100e-6, ro3=500e3, ro1=500e3)
        assert small_signal(p, op).rout == pytest.approx(100e-6 * 500e3**2, rel=1e-12)

    def test_gm_tuned_reconstruction(self):
        p = lam0_params(vc=0.2, m5=MosParams(beta=200e-6, vt=0.4),
                        m1=MosParams(beta=1e-3, vt=0.3))
        # v_ds1 = 0.2 + sqrt(2*4u/200u) + 0.4 = 0.8
        assert gm_tuned(p, 4e-6) == pytest.approx(1e-3 * 0.8, rel=1e-12)

    def test_gm_tuned_monotone_in_vc_and_ic(self):
        p = reference_params()
        g = [gm_tuned(RgcParams(**{**p.__dict__, "vc": vc}), 4e-6)
             for vc in np.linspace(0.0, 0.5, 6)]
        assert all(b > a for a, b in zip(g, g[1:]))
        g = [gm_tuned(p, ic) for ic in np.linspace(1e-6, 10e-6, 6)]
        assert all(b > a for a, b in zip(g, g[1:]))

    def test_precondition_checked(self):
        p = lam0_params()
        op = self._op(100e-6, 100e-6, 500e3, 100e-6, 500e3, 500e3)
        bad = OperatingPoint(**{**op.__dict__,
                                "m2": MosEval(4e-6, Region.TRIODE, 1e-4, 1e-5)})
        with pytest.raises(ValueError):
            small_signal(p, bad)


class TestNumericValidation:
    def test_zin_matches_formula_within_15pct(self):
        p = reference_params()
        op = solve_dc(p)
        ss = small_signal(p, op)
        assert ss.a >= 20
        z = zin_numeric(p)
        assert abs(z - ss.zin) / ss.zin < 0.15

    def test_zin_shrinks_with_larger_gain(self):
        p = reference_params()
        z1 = zin_numeric(p)
        p_hi = RgcParams(**{**p.__dict__, "ro_b2": p.ro_b2 * 10})
        z2 = zin_numeric(p_hi)
        assert z2 < z1
        ss1 = small_signal(p, solve_dc(p))
        ss2 = small_signal(p_hi, solve_dc(p_hi))
        dev1 = abs(z1 - ss1.zin) / ss1.zin
        dev2 = abs(z2 - ss2.zin) / ss2.zin
        assert dev2 <= dev1 + 0.02

    def test_zin_step_size_robust(self):
        p = reference_params()
        z1 = zin_numeric(p, delta_i=1e-9)
        z2 = zin_numeric(p, delta_i=0.5e-9)
        assert abs(z2 - z1) / z1 < 1e-3

    def test_gain_matches_formula(self):
        p = reference_params()
        ss = small_signal(p, solve_dc(p))
        assert gain_numeric(p) == pytest.approx(ss.a, rel=0.05)

    def test_rout_matches_formula_within_25pct(self):
        p = reference_params()
        op = solve_dc(p)
        ss = small_signal(p, op)
        r = rout_numeric(p, op)
        assert abs(r - ss.rout) / ss.rout < 0.25


class TestTransferCurve:
    def test_quiescent_point(self):
        p = lam0_params()
        tc = transfer_curve(p, 0, [0.0])
        assert tc.v_out[0] == pytest.approx(p.vdd - p.r_load * p.ib, abs=1e-9)

    def test_linearity_lambda0(self):
        p = lam0_params()
        sweep = np.linspace(-2e-6, 2e-6, 11)
        tc = transfer_curve(p, 0, sweep)
        assert len(tc.i_in) == len(sweep) and not tc.infeasible
        # KCL: v_out = vdd - r_load*(ib - i_in - i_dac_out), and i_dac_out = 0 here
        kcl = p.vdd - p.r_load * (p.ib - tc.i_in)
        assert tc.v_out == pytest.approx(kcl, rel=0, abs=1e-9)

    def test_sweep_direction_invariant(self):
        p = reference_params()
        sweep = np.linspace(-1e-6, 1e-6, 7)
        a = transfer_curve(p, 0, sweep)
        b = transfer_curve(p, 0, sweep[::-1])
        assert sorted(a.v_out) == pytest.approx(sorted(b.v_out), abs=0)

    def test_infeasible_points_flagged_not_fatal(self):
        p = lam0_params()
        tc = transfer_curve(p, 0, [0.0, 1e-6, 10e-6])  # 10 uA exceeds ib
        assert len(tc.infeasible) == 1
        assert len(tc.v_out) == 2

    # the comparator's sign bit rests on v_out rising with i_in at every code
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), run=st.integers(0, 10_000))
    @example(seed=11, run=191)  # Newton stalls at code 0, i_in = -4 uA
    def test_v_out_increasing_in_i_in_under_mismatch(self, seed, run):
        p = sample_params(reference_params(), MismatchSpec(), run_rng(seed, run))
        codes = [0, (1 << p.dac.nbits) - 1]
        try:
            codes.append(sar_calibrate(lambda c: solve_dc(p, 0.0, c).v_in, 0.65,
                                       p.dac.nbits).code)
        except SolverError:
            pass  # a stalled SAR search leaves the two fixed codes to check
        for code in codes:
            tc = transfer_curve(p, code, np.linspace(-4e-6, 4e-6, 17))
            assert np.all(np.diff(tc.v_out) > 0.0), (code, tc.infeasible)
