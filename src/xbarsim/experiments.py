"""Experiment orchestration: dispatch a parsed configuration to the owning
module and wrap the result in a replayable report record.
"""

from __future__ import annotations

import math
from enum import Enum
from pathlib import Path

import numpy as np

from .config import MAX_COUNT, NUMBER, ConfigError, SimConfig
from .crossbar import (ConductanceMatrix, NonIdealSpec, output_currents_nonideal,
                       voltage_excitation)
from .montecarlo import run_mc
from .network import (Activation, CircuitContext, Fidelity, LayerSpec,
                      digital_baseline, energy_estimate, infer, map_weights)
from .neuron import small_signal, solve_dc
from .reports import ReportRecord, config_digest
from .sar import sar_normalized_converge


class ExperimentKind(Enum):
    OP = "op"
    SMALL_SIGNAL = "smallsignal"
    SAR = "sar"
    MC = "mc"
    INFER = "infer"
    ENERGY = "energy"


def _number(cell: str, key: str, line: int, column: int) -> float:
    s = cell.strip()
    v = float(s) if NUMBER.fullmatch(s) else math.nan
    if not math.isfinite(v):
        raise ConfigError(f"{key}: could not read {cell!r} as a finite number at "
                          f"line {line}, column {column}")
    return v


def _load_csv(cfg: SimConfig, path: str, key: str) -> np.ndarray:
    """A CSV of finite numbers as a 2-D array: comma-separated rows of equal
    width, no header line. '#' starts a comment that runs to the end of its
    line, and a line that is blank without its comment is skipped. A fault
    names the key and the file line, and for a cell its column, both
    counted from 1."""
    lines = (Path(cfg.base_dir) / path).read_text(encoding="utf-8").splitlines()
    rows, first = [], 0
    for n, line in enumerate(lines, 1):
        data = line.split("#", 1)[0]
        if not data.strip():
            continue
        cells = data.split(",")
        if rows and len(cells) != len(rows[0]):
            raise ConfigError(f"{key}: line {n} has {len(cells)} values, but line "
                              f"{first} has {len(rows[0])}")
        first = first or n
        rows.append([_number(c, key, n, k) for k, c in enumerate(cells, 1)])
    if not rows:
        raise ConfigError(f"{key}: file holds no data rows")
    return np.array(rows)


def _load_layers(cfg: SimConfig) -> list[LayerSpec]:
    net = cfg["network"]
    if net["layers"] is None:
        raise ConfigError("network.layers: required for this experiment kind")
    layers = []
    for i, entry in enumerate(net["layers"]):
        key = f"network.layers[{i}]"
        if entry["values"] is not None:
            w = np.array(entry["values"], dtype=float)
        else:
            w = _load_csv(cfg, entry["csv"], f"{key}.csv")
        if layers and w.shape[1] != layers[-1].weights.shape[0]:
            raise ConfigError(f"{key}: takes {w.shape[1]} inputs, but network.layers"
                              f"[{i - 1}] has {layers[-1].weights.shape[0]} outputs")
        layers.append(LayerSpec(w, Activation(entry["activation"])))
    return layers


def _crossbar(cfg: SimConfig) -> ConductanceMatrix:
    c = cfg["crossbar"]
    if c["values"] is not None:
        key, g = "crossbar.values", np.array(c["values"], dtype=float)
    elif c["csv"] is not None:
        key, g = "crossbar.csv", _load_csv(cfg, c["csv"], "crossbar.csv")
    else:
        raise ConfigError("crossbar.values: required (or crossbar.csv) for this kind")
    try:
        return ConductanceMatrix(g, g_min=c["g_min"], g_max=c["g_max"])
    except ValueError as e:
        raise ConfigError(f"{key}: {e}") from None


def run_experiment(cfg: SimConfig, kind: ExperimentKind,
                   seed: int | None = None,
                   runs: int | None = None) -> ReportRecord:
    """Run one experiment; the record embeds the seed and config digest so
    every run is replayable."""
    digest = config_digest(cfg.data)
    seed = seed if seed is not None else cfg["mc"]["seed"]
    p = cfg.neuron_params()

    if kind is ExperimentKind.OP:
        op = solve_dc(p, 0.0, 0)
        return ReportRecord("op", digest, seed, op.as_dict())

    if kind is ExperimentKind.SMALL_SIGNAL:
        op = solve_dc(p, 0.0, 0)
        ss = small_signal(p, op)
        payload = op.as_dict()
        payload.update({"a": ss.a, "zin": ss.zin, "rout": ss.rout,
                        "gm_tuned": ss.gm_tuned})
        return ReportRecord("smallsignal", digest, seed, payload)

    if kind is ExperimentKind.SAR:
        pts = cfg["sar"]["grid_points"]
        n = cfg["sar"]["grid_n"]
        grid = np.linspace(-1.0, 1.0, pts)
        errs = np.array([abs(sar_normalized_converge(float(x), n)[0] - x) for x in grid])
        payload = {"grid_points": pts, "n": n,
                   "max_abs_error": float(np.max(errs)),
                   "bound": 0.5 ** n,
                   "bound_holds": bool(np.all(errs <= 0.5 ** n))}
        return ReportRecord("sar", digest, seed, payload)

    if kind is ExperimentKind.MC:
        # the config's mc.runs met this bound when it was parsed
        if runs is not None and not 2 <= runs <= MAX_COUNT:
            raise ConfigError(f"runs: must be in [2, {MAX_COUNT}], got {runs!r}")
        n_runs = runs if runs is not None else cfg["mc"]["runs"]
        res = run_mc(p, cfg.mismatch_spec(), n_runs, seed,
                     calibrate=cfg["mc"]["calibration"],
                     vref=cfg["sar"]["vref_in"], nbits=cfg["sar"]["nbits"])
        rec = ReportRecord("mc", digest, seed, res.as_dict())
        rec.tables["samples"] = res.samples_table()
        return rec

    if kind is ExperimentKind.INFER:
        layers = _load_layers(cfg)
        net = cfg["network"]
        fidelity = Fidelity(net["fidelity"])
        rng = np.random.default_rng(seed)
        if net["inputs_csv"] is not None:
            inputs = _load_csv(cfg, net["inputs_csv"], "network.inputs_csv")
            if inputs.shape[1] != layers[0].weights.shape[1]:
                raise ConfigError(f"network.inputs_csv: rows have {inputs.shape[1]} "
                                  f"values, but network.layers[0] takes "
                                  f"{layers[0].weights.shape[1]} inputs")
        else:
            inputs = rng.uniform(-1.0, 1.0, size=(net["n_inputs"],
                                                  layers[0].weights.shape[1]))
        mapped = [map_weights(l.weights, net["bits"], net["g_min"], net["g_max"],
                              activation=l.activation) for l in layers]
        ctx = CircuitContext(neuron=p, v_read=net["v_read"],
                             mismatch=cfg.mismatch_spec()
                             if fidelity is Fidelity.CIRCUIT_NONIDEAL else None,
                             mismatch_seed=seed, vref_in=cfg["sar"]["vref_in"])
        agree = 0
        total = 0
        out_bits, failures = [], []
        for k, x in enumerate(inputs):
            ref = infer(layers, x, Fidelity.IDEAL_MATH)
            if fidelity is Fidelity.IDEAL_MATH:
                got = ref
            else:
                got = infer(mapped, x, fidelity, ctx)
            agree += int(np.sum(got.bits[-1] == ref.bits[-1]))
            total += len(ref.bits[-1])
            out_bits.append([int(b) for b in got.bits[-1]])
            failures += [[k, li, j, reason] for li, j, reason in got.failures]
        payload = {"fidelity": fidelity.value, "n_inputs": len(inputs),
                   "bit_agreement_with_ideal": agree / total,
                   "output_bits": out_bits, "failures": failures}
        return ReportRecord("infer", digest, seed, payload)

    if kind is ExperimentKind.ENERGY:
        G = _crossbar(cfg)
        e = cfg["energy"]
        v = np.full(G.n_rows, cfg["network"]["v_read"])
        p_xbar = output_currents_nonideal(G, voltage_excitation(v), NonIdealSpec()).p_dissipated
        n_neurons = G.n_cols
        n_mac = G.n_rows * G.n_cols
        baseline = digital_baseline(n_mac, e["e_mac"], n_neurons, e["e_act"])
        rep = energy_estimate(
            n_neurons=n_neurons, t_eval=e["t_eval"], p_crossbar=p_xbar,
            p_neuron=e["p_neuron"], sar_nodes=2 * n_neurons,
            sar_nbits=cfg["sar"]["nbits"], t_sar_step=e["t_sar_step"],
            p_sar=e["p_sar"], amortize_over=e["amortize_over"], baseline=baseline)
        payload = rep.as_dict()
        payload["baseline_provenance"] = {
            "e_mac_j": {"value": e["e_mac"],
                        "provenance": cfg.provenance.get("energy.e_mac", "default")},
            "e_act_j": {"value": e["e_act"],
                        "provenance": cfg.provenance.get("energy.e_act", "default")},
            "assumption_dependent": True,
        }
        return ReportRecord("energy", digest, seed, payload)

    raise ConfigError(f"unknown experiment kind {kind!r}")
