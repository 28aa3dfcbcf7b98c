"""Acceptance suite: one test per shipped guarantee, each printing a
single PASS/FAIL line (run with -s to see them). The whole file must stay
well under five minutes on a laptop.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from xbarsim.cli import main as cli_main
from xbarsim.config import load_config, parse_config, parse_engineering
from xbarsim.crossbar import (ConductanceMatrix, NonIdealSpec,
                              output_currents_ideal, output_currents_nonideal,
                              voltage_excitation)
from xbarsim.devices import MosParams, Region
from xbarsim.experiments import ExperimentKind, run_experiment
from xbarsim.montecarlo import MismatchSpec, run_mc
from xbarsim.network import (CircuitContext, Fidelity, LayerSpec,
                             digital_baseline, energy_estimate, infer,
                             map_weights)
from xbarsim.neuron import (DacSpec, RgcParams, SolverError, reference_params,
                            small_signal, solve_dc)
from xbarsim.reports import canonical_json, emit_report
from xbarsim.sar import sar_calibrate, sar_normalized_converge

from oracles import (bisect, gain_numeric, nodal_oracle_currents,
                     reference_rout_numeric, zin_numeric)

DATA = Path(__file__).parent / "data"


def report(n, label, ok):
    print(f"ACCEPTANCE {n} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {n} ({label}) failed"


def test_acceptance_1_sar_bound():
    """Normalized SAR error bound |x_n - x| <= 1/2^n on a dense grid."""
    t0 = time.time()
    grid = np.linspace(-1.0, 1.0, 2001)
    ok = True
    for n in range(1, 17):
        bound = 0.5 ** n
        for x in grid:
            xn, _ = sar_normalized_converge(float(x), n)
            if abs(xn - float(x)) > bound:
                ok = False
                break
        if not ok:
            break
    ok = ok and (time.time() - t0) < 60
    report(1, "SAR convergence bound", ok)


def test_acceptance_2_sar_circuit_calibration():
    """Code within one local LSB of the exhaustive optimum; exactly nbits
    comparisons; 200 random monotone plants plus the reference neuron."""
    rng = np.random.default_rng(2024)
    ok = True

    def check(plant_vals, vref, nbits):
        n = 1 << nbits
        res = sar_calibrate(lambda c: plant_vals[c], vref, nbits)
        if res.comparisons != nbits:
            return False
        best = min(range(n), key=lambda c: abs(plant_vals[c] - vref))
        nb = [b for b in (best - 1, best, best + 1) if 0 <= b < n]
        lsb = max(abs(plant_vals[b] - plant_vals[best]) for b in nb)
        if res.in_range:
            return abs(plant_vals[res.code] - vref) <= \
                abs(plant_vals[best] - vref) + lsb + 1e-12
        return res.code in (0, n - 1)

    for _ in range(200):
        nbits = int(rng.integers(2, 9))
        n = 1 << nbits
        vals = np.cumsum(rng.uniform(1e-4, 1.0, n))
        vals = (vals - vals[0]) / (vals[-1] - vals[0])
        vref = float(rng.uniform(-0.1, 1.1))
        if not check(vals, vref, nbits):
            ok = False
            break

    p = reference_params()
    neuron_vals = [solve_dc(p, 0.0, c).v_in for c in range(1 << p.dac.nbits)]
    ok = ok and check(neuron_vals, 0.65, p.dac.nbits)
    report(2, "SAR circuit calibration one-LSB optimality", ok)


def _random_rgc(rng) -> RgcParams:
    return RgcParams(
        m1=MosParams(beta=float(rng.uniform(0.5e-3, 2e-3)),
                     vt=float(rng.uniform(0.25, 0.35)),
                     lam=float(rng.uniform(0.02, 0.08))),
        m2=MosParams(beta=float(rng.uniform(100e-6, 400e-6)),
                     vt=float(rng.uniform(0.35, 0.45)),
                     lam=float(rng.uniform(0.02, 0.08))),
        m3=MosParams(beta=float(rng.uniform(0.5e-3, 2e-3)),
                     vt=float(rng.uniform(0.25, 0.35)),
                     lam=float(rng.uniform(0.02, 0.08))),
        m5=MosParams(beta=200e-6, vt=0.4, lam=0.0),
        ib=float(rng.uniform(3e-6, 7e-6)),
        ib2=float(rng.uniform(3e-6, 6e-6)),
        ro_b2=float(rng.uniform(1e6, 4e6)),
        vc=0.2, vdd=1.0,
        vb3=float(rng.uniform(1.1, 1.2)),
        r_load=float(rng.uniform(10e3, 30e3)),
    )


def test_acceptance_3_rgc_formula_validation():
    """Small-signal formulas vs finite differences on the nonlinear solver:
    gain 5%, input impedance 15%, output resistance 25%, at 50 randomized
    all-saturated operating points with loop gain >= 20."""
    rng = np.random.default_rng(99)
    checked = 0
    ok = True
    attempts = 0
    while checked < 50 and attempts < 2000:
        attempts += 1
        p = _random_rgc(rng)
        try:
            op = solve_dc(p)
        except SolverError:
            continue
        if any(getattr(op, m).region is not Region.SATURATION
               for m in ("m1", "m2", "m3")):
            continue
        # the formulas assume solid saturation; skip points sitting within
        # 10 mV of the triode boundary where a probe crosses regions
        margins = [
            (op.v_mid - op.v_in) - (op.v_gate1 - op.v_in - p.m1.vt),
            op.v_gate1 - (op.v_in - p.m2.vt),
            (op.v_out - op.v_mid) - (p.vb3 - op.v_mid - p.m3.vt),
        ]
        if min(margins) < 10e-3:
            continue
        ss = small_signal(p, op)
        if ss.a < 20:
            continue
        checked += 1
        try:
            a_fd = gain_numeric(p)
            z_fd = zin_numeric(p)
            r_fd = reference_rout_numeric(p, op)
        except SolverError:
            ok = False
            break
        if abs(a_fd - ss.a) / abs(a_fd) > 0.05:
            ok = False
        if abs(z_fd - ss.zin) / abs(z_fd) > 0.15:
            ok = False
        if abs(r_fd - ss.rout) / abs(r_fd) > 0.25:
            ok = False
        if not ok:
            break
    ok = ok and checked == 50
    report(3, "RGC small-signal formulas vs finite differences", ok)


def test_acceptance_4_dc_solver_correctness():
    """Closed form (no channel-length modulation) to 1e-12 V; bisection
    oracle (with modulation) to 1e-9 V; KCL residual <= 1 pA everywhere."""
    ok = True
    base = dict(
        m1=MosParams(1e-3, 0.3, 0.0), m3=MosParams(1e-3, 0.3, 0.0),
        m5=MosParams(200e-6, 0.4, 0.0), ib=5e-6, ib2=4e-6,
        ro_b2=math.inf, vc=0.2, vdd=1.0, vb3=1.15, r_load=20e3,
    )
    p0 = RgcParams(m2=MosParams(200e-6, 0.4, 0.0), **base)
    for code in range(0, 64, 7):
        op = solve_dc(p0, 0.0, code)
        expect = 0.4 + math.sqrt(2 * (4e-6 + code * p0.dac.i_unit) / 200e-6)
        ok = ok and abs(op.v_in - expect) <= 1e-12
        ok = ok and op.residual <= 1e-12

    p1 = RgcParams(m2=MosParams(200e-6, 0.4, 0.1), **base)
    op = solve_dc(p1)
    c = 0.3 + math.sqrt(2 * 5e-6 / 1e-3)

    def residual(v_in):
        vov = v_in - 0.4
        if vov <= 0:
            return -4e-6
        return 0.5 * 200e-6 * vov**2 * (1 + 0.1 * (v_in + c)) - 4e-6

    v_ref = bisect(residual, 0.4 + 1e-9, 1.0)
    ok = ok and abs(op.v_in - v_ref) <= 1e-9

    rng = np.random.default_rng(4)
    for _ in range(20):
        p = _random_rgc(rng)
        try:
            op = solve_dc(p, float(rng.uniform(-1e-6, 1e-6)),
                          int(rng.integers(0, 64)))
        except SolverError:
            continue
        ok = ok and op.residual <= 1e-12
    report(4, "DC solver vs closed form and bisection oracle", ok)


def test_acceptance_5_crossbar_correctness():
    """Ideal dot products vs the matrix oracle to 1e-12; nodal solve vs the
    independent dense assembly to 1e-9; Tellegen balance to 1e-9."""
    ok = True
    rng = np.random.default_rng(5)
    g = rng.uniform(1e-6, 1e-3, size=(64, 64))
    G = ConductanceMatrix(g, g_min=1e-6, g_max=1e-3)
    v = rng.uniform(0, 1, 64)
    i = output_currents_ideal(G, voltage_excitation(v))
    ok = ok and np.allclose(i, g.T @ v, rtol=1e-12, atol=0)

    for rows, cols in [(2, 2), (8, 8), (16, 16)]:
        g = rng.uniform(1e-6, 1e-3, size=(rows, cols))
        G = ConductanceMatrix(g, g_min=1e-6, g_max=1e-3)
        v = rng.uniform(0, 1, rows)
        r_n = rng.uniform(100, 2e3, cols)
        sol = output_currents_nonideal(G, voltage_excitation(v),
                                       NonIdealSpec(1.0, 1.0, r_n))
        ref = nodal_oracle_currents(g, v, 1.0, 1.0, r_n)
        ok = ok and np.allclose(sol.neuron_currents, ref, rtol=1e-9, atol=0)
        ok = ok and abs(sol.p_source - sol.p_dissipated) <= 1e-9 * sol.p_source
    report(5, "crossbar vs independent nodal oracle", ok)


def test_acceptance_6_monte_carlo_phenomenon():
    """500 seeded runs: uncalibrated spread within 20% of the 10 mV target,
    calibration tightens it by at least 2x (the measured prototype showed
    about 3.94x), bit-identical rerun."""
    nom = reference_params()
    spec = MismatchSpec()  # fitted defaults: sigma_vt = 10 mV
    uncal = run_mc(nom, spec, n_runs=500, seed=7, calibrate=False)
    cal = run_mc(nom, spec, n_runs=500, seed=7, calibrate=True)
    cal2 = run_mc(nom, spec, n_runs=500, seed=7, calibrate=True)
    ok = abs(uncal.std_pre - 10e-3) <= 0.2 * 10e-3
    ok = ok and cal.std_post <= 0.5 * uncal.std_pre
    ok = ok and np.array_equal(cal.v_in_post, cal2.v_in_post)
    ok = ok and np.array_equal(cal.codes, cal2.codes)
    print(f"    uncalibrated std {uncal.std_pre * 1e3:.4f} mV, "
          f"calibrated {cal.std_post * 1e3:.4f} mV "
          f"(reference measurement: 10.3519 -> 2.63019 mV)")
    report(6, "Monte Carlo calibration tightens mismatch spread", ok)


def test_acceptance_7_network_oracle_equivalence():
    """CircuitIdeal comparator bits match IdealMath on margin-filtered
    inputs for an 8x8 -> 4 threshold network over 100 random inputs."""
    rng = np.random.default_rng(77)
    w1 = rng.uniform(-1, 1, size=(8, 8))
    w2 = rng.uniform(-1, 1, size=(4, 8))
    specs = [LayerSpec(w1), LayerSpec(w2)]
    mapped = [map_weights(s.weights, 16, 1e-7, 1e-5, w_ref=1.0) for s in specs]
    ctx = CircuitContext(neuron=reference_params())
    scored = 0
    ok = True
    # full scale per layer: n_in with unit-bounded weights and inputs
    full_scale = [8.0, 8.0]
    for _ in range(100):
        x = rng.uniform(0, 1, 8)
        ref = infer(specs, x, Fidelity.IDEAL_MATH)
        got = infer(mapped, x, Fidelity.CIRCUIT_IDEAL, ctx)
        for li, (pre, rb, gb) in enumerate(zip(ref.pre_activations,
                                               ref.bits, got.bits)):
            # margin filter: score a comparator bit only when its own
            # pre-activation clears 2% of the layer's full scale
            margin = np.abs(pre) > 0.02 * full_scale[li]
            scored += int(np.sum(margin))
            if not np.array_equal(rb[margin], gb[margin]):
                ok = False
            if not np.array_equal(rb, gb):
                break  # upstream flip: downstream comparison is unfair
        if not ok:
            break
    ok = ok and scored >= 500
    report(7, f"network bit equivalence on {scored} margin-filtered inputs", ok)


def test_acceptance_8_energy_arithmetic():
    """Exact additivity; 1 neuron at 10 ns is exactly 0.43 pJ; the
    two-orders-of-magnitude ratio appears only under the documented default
    baseline and is labeled assumption-dependent."""
    rep = energy_estimate(n_neurons=1, t_eval=10e-9)
    ok = rep.e_neurons == 43e-6 * 10e-9
    ok = ok and rep.e_total == rep.e_crossbar + rep.e_neurons + rep.e_sar

    # documented demo: 64x64 tile, conductances in [0.1, 10] uS, 0.1 V reads,
    # digital baseline at 1 pJ/MAC -- the ratio claim holds only under these
    rng = np.random.default_rng(8)
    g = rng.uniform(1e-7, 1e-5, size=(64, 64))
    p_xbar = float(0.01 * g.sum())
    demo = energy_estimate(
        n_neurons=64, t_eval=10e-9, p_crossbar=p_xbar,
        sar_nodes=128, sar_nbits=6, t_sar_step=100e-9, p_sar=10e-6,
        amortize_over=1_000_000,
        baseline=digital_baseline(64 * 64, 1e-12, 64, 0.5e-12))
    ok = ok and demo.e_total == demo.e_crossbar + demo.e_neurons + demo.e_sar
    ok = ok and demo.ratio >= 100

    cfg = parse_config(json.dumps({
        "crossbar": {"g_min": "0.1u", "g_max": "10u",
                     "values": [[f"{x:.6g}" for x in row] for row in g]},
        "network": {"g_min": "0.1u", "g_max": "10u"},
    }))
    rec = run_experiment(cfg, ExperimentKind.ENERGY)
    prov = rec.payload["baseline_provenance"]
    ok = ok and prov["assumption_dependent"] is True
    ok = ok and "provenance" in prov["e_mac_j"]
    ok = ok and rec.payload["ratio"] >= 100
    print(f"    demo analog/digital ratio {demo.ratio:.1f} "
          f"(assumption-dependent: 1 pJ/MAC baseline)")
    report(8, "energy additivity and baseline provenance", ok)


def test_acceptance_9_frontend(tmp_path, capsys):
    """Config round-trip idempotence, suffix parsing, deterministic
    serialization against golden files, documented exit codes."""
    ok = parse_engineering("5u") == 5e-6

    ref = DATA / "config_ref.json"
    cfg1 = load_config(ref)
    cfg2 = parse_config(canonical_json(cfg1.data), base_dir=ref.parent)
    ok = ok and canonical_json(cfg1.data) == canonical_json(cfg2.data)

    a = emit_report(run_experiment(cfg1, ExperimentKind.MC))
    b = emit_report(run_experiment(cfg1, ExperimentKind.MC))
    ok = ok and a == b

    for kind, fmt, golden in [("op", "json", "golden_op.json"),
                              ("sar", "json", "golden_sar.json"),
                              ("energy", "text", "golden_energy.txt"),
                              ("mc", "csv", "golden_mc.csv")]:
        out = tmp_path / golden
        rc = cli_main(["--config", str(ref), "--format", fmt, kind,
                       "--out", str(out)])
        ok = ok and rc == 0 and out.read_bytes() == (DATA / golden).read_bytes()

    bad = tmp_path / "bad.json"
    bad.write_text('{"neuron": {"ib": "5 potato"}}')
    solver = tmp_path / "solver.json"
    solver.write_text('{"neuron": {"vb3": 0.0}}')
    ok = ok and cli_main(["--config", str(ref), "op",
                          "--out", str(tmp_path / "x.json")]) == 0
    ok = ok and cli_main(["--config", str(bad), "op"]) == 2
    ok = ok and cli_main(["--config", str(solver), "op"]) == 3
    ok = ok and cli_main(["--config", "/no/such/file.json", "op"]) == 4
    ok = ok and cli_main(["op", "--out", "/no/such/dir/x.json"]) == 4
    capsys.readouterr()  # swallow CLI stdout/stderr from the exit-code probes
    report(9, "frontend round-trip, golden files, exit codes", ok)
