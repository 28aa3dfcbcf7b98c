import math

import numpy as np
import pytest

from xbarsim import montecarlo
from xbarsim.config import parse_config
from xbarsim.experiments import ExperimentKind, run_experiment
from xbarsim.montecarlo import MismatchSpec, run_mc, run_rng, sample_params
from xbarsim.neuron import SolverError, dac_current, reference_params, solve_dc
from xbarsim.reports import ReportFormat, emit_report

from oracles import reference_solve_dc, two_pass_std

NOM = reference_params()


class TestSampling:
    def test_zero_spec_is_identity(self):
        p = sample_params(NOM, MismatchSpec(0.0, 0.0), run_rng(0, 0))
        for name in ("m1", "m2", "m3", "m5"):
            assert getattr(p, name).vt == getattr(NOM, name).vt
            assert getattr(p, name).beta == getattr(NOM, name).beta

    def test_rng_split_deterministic(self):
        a = run_rng(123, 7).normal(size=4)
        b = run_rng(123, 7).normal(size=4)
        assert np.array_equal(a, b)
        c = run_rng(123, 8).normal(size=4)
        assert not np.array_equal(a, c)

    def test_vt_mean_law_of_large_numbers(self):
        spec = MismatchSpec(sigma_vt=10e-3, sigma_beta_rel=0.0)
        n = 10_000
        dvt = [sample_params(NOM, spec, run_rng(1, r)).m1.vt - NOM.m1.vt
               for r in range(n)]
        # sample mean of N(0, sigma) stays within 3 sigma/sqrt(n)
        assert abs(np.mean(dvt)) < 3 * 10e-3 / math.sqrt(n)
        assert np.std(dvt, ddof=1) == pytest.approx(10e-3, rel=0.05)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            MismatchSpec(sigma_vt=-1e-3)


class TestRunMc:
    def test_min_runs_enforced(self):
        with pytest.raises(ValueError):
            run_mc(NOM, MismatchSpec(), n_runs=1, seed=0)

    def test_zero_spec_reproduces_nominal(self):
        res = run_mc(NOM, MismatchSpec(0.0, 0.0), n_runs=3, seed=0,
                     calibrate=False)
        nominal_v = solve_dc(NOM).v_in
        assert np.all(res.v_in_pre == nominal_v)
        assert res.std_pre == 0.0

    def test_zero_spec_calibrated_identical_codes(self):
        res = run_mc(NOM, MismatchSpec(0.0, 0.0), n_runs=4, seed=0,
                     calibrate=True)
        assert res.std_post == 0.0
        assert len(set(res.codes.tolist())) == 1

    def test_seed_determinism_bit_identical(self):
        a = run_mc(NOM, MismatchSpec(), n_runs=40, seed=99)
        b = run_mc(NOM, MismatchSpec(), n_runs=40, seed=99)
        assert np.array_equal(a.v_in_pre, b.v_in_pre)
        assert np.array_equal(a.v_in_post, b.v_in_post)
        assert np.array_equal(a.codes, b.codes)
        assert a.as_dict() == b.as_dict()

    def test_different_seed_differs(self):
        a = run_mc(NOM, MismatchSpec(), n_runs=20, seed=1, calibrate=False)
        b = run_mc(NOM, MismatchSpec(), n_runs=20, seed=2, calibrate=False)
        assert not np.array_equal(a.v_in_pre, b.v_in_pre)

    def test_std_matches_two_pass_oracle(self):
        res = run_mc(NOM, MismatchSpec(), n_runs=60, seed=5)
        assert res.std_pre == pytest.approx(two_pass_std(res.v_in_pre), rel=1e-12)
        assert res.std_post == pytest.approx(two_pass_std(res.v_in_post), rel=1e-12)

    def test_calibration_tightens_spread(self):
        res = run_mc(NOM, MismatchSpec(), n_runs=100, seed=3)
        assert res.std_post <= res.std_pre + 1e-6
        assert res.std_post < 0.5 * res.std_pre

    def test_each_run_lands_within_local_lsb(self):
        res = run_mc(NOM, MismatchSpec(), n_runs=30, seed=11)
        # local LSB step of v_in at the chosen branch current; the DAC unit
        # shifts the branch current by i_unit per code, so bound the local
        # slope dv/di = 1/sqrt(2*beta2*i) conservatively at the smallest
        # plausible branch current
        i_min = NOM.ib2 * 0.5
        beta_min = NOM.m2.beta * 0.8
        lsb = dac_current(NOM.dac, 1) / math.sqrt(2 * beta_min * i_min)
        for i in range(len(res.v_in_post)):
            if res.out_of_range:
                break
            assert abs(res.v_in_post[i] - res.vref) <= lsb

    @pytest.mark.parametrize("seed,n_runs,failures", [
        (42, 200, []),
        (1793829076, 25, [(23, "Newton stalled at iteration 12: residual 1.173e-08 A")]),
    ])
    def test_matches_reference_solve(self, monkeypatch, seed, n_runs, failures):
        # the whole SAR composition, every solve of every run replaced by the
        # numpy-array oracle: the same bits and the same failure text
        res = run_mc(NOM, MismatchSpec(), n_runs, seed)
        monkeypatch.setattr(montecarlo, "solve_dc", reference_solve_dc)
        ref = run_mc(NOM, MismatchSpec(), n_runs, seed)
        for name in ("v_in_pre", "v_in_post", "codes", "run_index"):
            new, old = getattr(res, name), getattr(ref, name)
            assert new.dtype == old.dtype and new.tobytes() == old.tobytes(), name
        assert res.failures == ref.failures == failures

    def test_uncalibrated_spread_scale(self):
        res = run_mc(NOM, MismatchSpec(), n_runs=200, seed=17, calibrate=False)
        # defaults are tuned for roughly 10 mV of input-referred spread
        assert 5e-3 < res.std_pre < 20e-3


class TestReporting:
    def test_report_csv_layout(self):
        cfg = parse_config("{}")
        rec = run_experiment(cfg, ExperimentKind.MC, seed=8, runs=5)
        lines = emit_report(rec, ReportFormat.CSV).decode("ascii").strip().split("\n")
        assert lines[0] == "run_index,v_in_pre,v_in_post,code"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert int(first[0]) == 0
        p = sample_params(cfg.neuron_params(), cfg.mismatch_spec(), run_rng(8, 0))
        assert float(first[1]) == solve_dc(p).v_in

    def test_report_rows_keep_run_index_after_exclusion(self, monkeypatch):
        cfg = parse_config("{}")
        nominal, spec = cfg.neuron_params(), cfg.mismatch_spec()
        failing = sample_params(nominal, spec, run_rng(8, 2))

        def solve_dc_failing_run_2(p, *args):
            if p == failing:
                raise SolverError("forced failure")
            return solve_dc(p, *args)

        monkeypatch.setattr(montecarlo, "solve_dc", solve_dc_failing_run_2)
        rec = run_experiment(cfg, ExperimentKind.MC, seed=8, runs=5)
        lines = emit_report(rec, ReportFormat.CSV).decode("ascii").strip().split("\n")
        assert rec.payload["excluded"] == 1
        assert rec.payload["failures"] == [[2, "forced failure"]]
        rows = [line.split(",") for line in lines[1:]]
        assert [int(row[0]) for row in rows] == [0, 1, 3, 4]
        for row in rows:
            p = sample_params(nominal, spec, run_rng(8, int(row[0])))
            assert float(row[1]) == solve_dc(p).v_in
