"""Successive-approximation binary search: normalized form, circuit-facing
calibration of a monotone code->voltage plant, and the shared-SAR scheduler
that walks an array of neurons one at a time.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

from .neuron import RgcParams, SolverError, solve_dc


def sign_plus(t: float) -> float:
    """Signum with s(0) = +1."""
    return 1.0 if t >= 0.0 else -1.0


def sar_normalized_step(x_prev: float, x: float, i: int) -> float:
    """One step of the normalized recurrence x_i = x_{i-1} - s(x_{i-1}-x)/2^i."""
    if i < 1:
        raise ValueError(f"step index must be >= 1, got {i}")
    return x_prev - sign_plus(x_prev - x) / (2.0 ** i)


def sar_normalized_converge(x: float, n: int) -> tuple[float, list[float]]:
    """Iterate from x_0 = 0 for n steps; |x_n - x| <= 1/2^n is guaranteed.

    Returns (x_n, [x_0 .. x_n]).
    """
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"normalized value must lie in [-1, 1], got {x}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    xi = 0.0
    traj = [xi]
    for i in range(1, n + 1):
        xi = sar_normalized_step(xi, x, i)
        traj.append(xi)
    return xi, traj


class Direction(Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"


@dataclass
class SarResult:
    code: int
    value: float            # plant output at the returned code
    comparisons: int
    in_range: bool
    transcript: list = field(default_factory=list)  # (bit, trial_code, plant_value, kept)


class NonMonotonePlantError(RuntimeError):
    pass


def sar_calibrate(plant: Callable[[int], float], vref: float, nbits: int,
                  direction: Direction = Direction.INCREASING,
                  comparator_offset: float = 0.0,
                  check_monotone: bool = False) -> SarResult:
    """Binary-search a monotone code->voltage plant toward vref.

    MSB-first: each trial bit is kept iff the plant output has not crossed
    vref in the overshoot direction (for an increasing plant: cleared when
    plant > vref). Exactly nbits comparator decisions are made; whenever
    vref lies inside the plant's range the returned code is within one local
    LSB step of the exhaustive-search optimum.

    comparator_offset models a non-ideal comparator (added to the reference).
    check_monotone sweeps all codes first (extra plant evaluations) and
    raises NonMonotonePlantError on a violation.
    """
    if not math.isfinite(vref):
        raise ValueError("vref must be finite")
    if nbits < 1:
        raise ValueError(f"need nbits >= 1, got {nbits}")
    # +1 or -1, so that sign * (v - vref) > 0 means v overshot vref
    sign = 1.0 if direction is Direction.INCREASING else -1.0
    if check_monotone:
        vals = [plant(c) for c in range(1 << nbits)]
        if not all(sign * (b - a) > 0 for a, b in zip(vals, vals[1:])):
            raise NonMonotonePlantError(
                f"plant is not strictly {direction.value} over codes 0..{(1 << nbits) - 1}")

    vref_eff = vref + comparator_offset
    code = 0
    transcript = []
    for bit in range(nbits):
        trial = code | (1 << (nbits - 1 - bit))
        v = plant(trial)
        keep = not (sign * (v - vref_eff) > 0)
        transcript.append((bit, trial, v, keep))
        if keep:
            code, value = trial, v
    if code == 0:
        # every bit was cleared, so code 0 itself was never probed
        value = plant(0)
    full = (1 << nbits) - 1
    over = sign * (value - vref_eff)
    in_range = not (code == 0 and over > 0) and not (code == full and over < 0)
    return SarResult(code=code, value=value, comparisons=nbits,
                     in_range=in_range, transcript=transcript)


@dataclass
class NeuronCalibration:
    neuron_id: int
    code_in: int | None = None
    code_out: int | None = None
    v_in: float | None = None
    v_out: float | None = None
    in_range: bool = True
    error: str | None = None


@dataclass
class CalibrationSchedule:
    """One-active-neuron sequencing of a shared SAR over an array."""

    neuron_ids: list[int]
    vref_in: float
    vref_out: float
    results: dict[int, NeuronCalibration] = field(default_factory=dict)
    comparator_evals: int = 0

    def completed(self) -> bool:
        return all(nid in self.results for nid in self.neuron_ids)


def calibrate_array(neurons: Sequence[RgcParams], schedule: CalibrationSchedule,
                    nbits: int | None = None,
                    calibrate_output: bool = True) -> CalibrationSchedule:
    """Run the shared SAR over every neuron, strictly one at a time.

    The full input-DC pass completes across all neurons before the output
    pass begins. Per-neuron failures are recorded and the remaining neurons
    are still processed. The input point is re-solved after the output trim
    so any residual drift shows up in the recorded v_in.
    """
    by_id = dict(zip(schedule.neuron_ids, neurons))
    if len(by_id) != len(schedule.neuron_ids):
        raise ValueError("neuron_ids and neurons must pair one-to-one")

    for nid in schedule.neuron_ids:
        p = by_id[nid]
        n = nbits if nbits is not None else p.dac.nbits
        rec = NeuronCalibration(neuron_id=nid)
        try:
            res = sar_calibrate(lambda c: solve_dc(p, 0.0, c).v_in,
                                schedule.vref_in, n)
            schedule.comparator_evals += res.comparisons
            rec.code_in, rec.v_in, rec.in_range = res.code, res.value, res.in_range
        except SolverError as e:
            rec.error = str(e)
        schedule.results[nid] = rec

    if calibrate_output:
        for nid in schedule.neuron_ids:
            rec = schedule.results[nid]
            if rec.error is not None or rec.code_in is None:
                continue
            p = by_id[nid]
            n = nbits if nbits is not None else p.dac_out.nbits
            ci = rec.code_in
            try:
                res = sar_calibrate(lambda c: solve_dc(p, 0.0, ci, out_code=c).v_out,
                                    schedule.vref_out, n)
                schedule.comparator_evals += res.comparisons
                rec.code_out, rec.v_out = res.code, res.value
                rec.in_range = rec.in_range and res.in_range
                # input point after the output trim (residual drift, if any)
                rec.v_in = solve_dc(p, 0.0, ci, out_code=res.code).v_in
            except SolverError as e:
                rec.error = str(e)

    return schedule


def calibration_latency(n_neurons: int, nbits: int, t_step: float,
                        nodes_per_neuron: int = 1) -> float:
    """Total stabilization time: one comparison period per decided bit."""
    if n_neurons < 0 or nbits <= 0 or t_step <= 0 or nodes_per_neuron <= 0:
        if n_neurons == 0:
            return 0.0
        raise ValueError("arguments must be positive (n_neurons may be 0)")
    return n_neurons * nodes_per_neuron * nbits * t_step


def transcript_csv(result: SarResult) -> str:
    """Per-step bit decisions as CSV, for debugging and plots."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["bit_index", "trial_code", "plant_value", "kept"])
    for bit, trial, v, kept in result.transcript:
        w.writerow([bit, trial, repr(float(v)), int(kept)])
    return buf.getvalue()
