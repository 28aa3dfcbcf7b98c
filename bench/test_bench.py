"""Self-tests of the benchmark: every workload runs at a tiny size, every
output check rejects a corrupted output, the tracer's counts repeat and its
wrappers are restored, and the runner honours its output contract.

Run from the root of a checkout: ``python3 -m pytest bench``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.use_checkout_source()

import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import IDEAL, RESISTIVE  # noqa: E402

TINY_MIX = ((4, "voltage", RESISTIVE, 1), (4, "current", RESISTIVE, 1),
            (4, "voltage", IDEAL, 1), (4, "current", IDEAL, 1))
TINY = {
    "mc_sweep": lambda seed: workloads.McSweep(seed, calls=2, runs=5),
    "nodal_tiles": lambda seed: workloads.NodalTiles(seed, mix=TINY_MIX),
    "infer_nonideal": lambda seed: workloads.InferNonideal(seed, inputs=1),
}
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_tiny_and_repeats(name):
    wl = TINY[name](3)
    first = wl.run_pass()
    assert first.items > 0 and first.failed == 0 and first.errors == []
    assert len(first.latencies_s) > 0 and None not in first.latencies_s
    assert wl.run_pass().digest() == first.digest()
    assert TINY[name](3).run_pass().digest() == first.digest()
    assert TINY[name](4).run_pass().digest() != first.digest()


def test_mc_check_rejects_corrupted_output():
    wl = TINY["mc_sweep"](1)
    rec = workloads.experiments.run_experiment(
        wl.cfg, workloads.experiments.ExperimentKind.MC, seed=5, runs=5)
    rows = rec.tables["samples"][1]
    assert workloads.check_mc(rec.payload, rows, wl.nbits) == []
    flat = dict(rec.payload, std_post=rec.payload["std_pre"])
    assert workloads.check_mc(flat, rows, wl.nbits)
    for code in (-1, 1 << wl.nbits):
        bad = [list(r) for r in rows]
        bad[0][3] = code
        assert workloads.check_mc(rec.payload, bad, wl.nbits)
    assert workloads.check_mc(rec.payload, rows[:-1], wl.nbits)


def test_tile_check_rejects_corrupted_output():
    wl = TINY["nodal_tiles"](1)
    G = wl.tiles[0][0]
    x = workloads.voltage_excitation(np.linspace(0.05, 0.2, G.n_rows))
    sol = workloads.crossbar.output_currents_nonideal(G, x, RESISTIVE)
    assert workloads.check_tile(sol, None) == []
    assert workloads.check_tile(dataclasses.replace(sol, p_source=sol.p_source * 1.001), None)
    assert workloads.check_tile(
        dataclasses.replace(sol, neuron_currents=np.full(G.n_cols, np.nan)), None)

    zero = workloads.crossbar.output_currents_nonideal(G, x, IDEAL)
    ideal = workloads.crossbar.output_currents_ideal(G, x)
    assert workloads.check_tile(zero, ideal) == []
    assert workloads.check_tile(zero, ideal * (1.0 + 1e-6))


def test_infer_check_rejects_corrupted_output():
    wl = TINY["infer_nonideal"](1)
    x = np.linspace(-1.0, 1.0, workloads.NET_SHAPE[0])
    got = workloads.network.infer(wl.mapped, x, workloads.Fidelity.CIRCUIT_NONIDEAL, wl.ctx)
    assert workloads.check_infer(got) == []
    assert workloads.check_infer(dataclasses.replace(got, bits=got.bits[:1]))
    assert workloads.check_infer(dataclasses.replace(got, bits=[got.bits[0], got.bits[1][:-1]]))
    assert workloads.check_infer(dataclasses.replace(got, outputs=got.outputs * np.nan))


def test_failed_check_counts_as_failed_operation(monkeypatch):
    real = workloads.crossbar.output_currents_nonideal

    def corrupted(G, x, spec):
        sol = real(G, x, spec)
        return dataclasses.replace(sol, p_dissipated=2.0 * sol.p_dissipated)

    monkeypatch.setattr(workloads.crossbar, "output_currents_nonideal", corrupted)
    res = TINY["nodal_tiles"](1).run_pass()
    assert res.failed == res.items and len(res.errors) == res.items
    assert res.latencies_s == [None] * res.items


def test_fastest_per_slot_skips_items_that_failed():
    passes = [workloads.PassResult(latencies_s=[0.1 * (3 - k), None if k < 2 else 1e-9, None])
              for k in range(3)]
    assert run.fastest_per_slot(passes) == [0.1, 1e-9]


def _originals():
    return [getattr(module, attr) for module, attr, *_ in tracer.TARGETS]


def test_tracer_restores_wrappers_also_on_error():
    before = _originals()
    tr = tracer.Tracer()
    with tr.installed():
        assert all(getattr(m, a) is not o
                   for (m, a, *_), o in zip(tracer.TARGETS, before))
        TINY["mc_sweep"](1).run_pass()
    assert all(a is b for a, b in zip(_originals(), before))
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer().installed():
            1 / 0
    assert all(a is b for a, b in zip(_originals(), before))


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_counts_repeat_and_outputs_match_untraced(name):
    untraced = TINY[name](2).run_pass()
    runs = []
    for _ in range(2):
        wl = TINY[name](2)
        tr = tracer.Tracer()
        with tr.installed():
            res = wl.run_pass()
        assert res.digest() == untraced.digest()
        m = tracer.layer_metrics(tracer.Tracer(), [tr], 1.0, 1.0)
        runs.append({k: v for k, v in m.items()
                     if tracer.LAYER_UNITS[k] not in ("s", "ms", "us")
                     and k != "trace.overhead_share"})
    assert runs[0] == runs[1]


def test_mc_counts_match_the_sar_budget():
    wl = TINY["mc_sweep"](1)
    tr = tracer.Tracer()
    with tr.installed():
        wl.run_pass()
    m = tracer.layer_metrics(tracer.Tracer(), [tr], 1.0, 1.0)
    runs = wl.calls * wl.runs
    assert m["sar.calibrate.calls"] == runs
    assert m["sar.comparisons"] == runs * wl.nbits
    assert m["montecarlo.solves_per_run"] == wl.nbits + 2


@pytest.mark.parametrize("spec", [RESISTIVE, IDEAL, workloads.NET_SPEC,
                                  workloads.NonIdealSpec(0.0, 2.0, 0.0),
                                  workloads.NonIdealSpec(3.0, 0.0, 50.0)])
@pytest.mark.parametrize("drive", [workloads.voltage_excitation,
                                   workloads.current_excitation])
def test_computed_unknowns_match_the_assembled_system(monkeypatch, spec, drive):
    G = workloads.ConductanceMatrix(np.full((3, 5), 1e-4))
    shapes = []
    real_solve = np.linalg.solve

    def recording_solve(A, b):
        shapes.append(A.shape[0])
        return real_solve(A, b)

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    x = drive(np.linspace(1e-6, 3e-6, 3))
    workloads.crossbar.output_currents_nonideal(G, x, spec)
    assert tracer.nodal_unknowns(G, x, spec) == (shapes[0] if shapes else 0)


def test_benchmark_json_lists_the_runner_metrics():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracer.LAYER_UNITS
    assert set(workloads.WORKLOADS) == {w["name"] for w in BENCHMARK["workloads"]}


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_runner_prints_every_metric(trace, section):
    done = _run(run.ROOT, "--workload", "mc_sweep", "--seed", "1", "--seconds", "0.2",
                "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_runner_fails_without_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "mc_sweep", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
