"""Independent reference computations used by the test suite.

These deliberately share no assembly code with the package: the nodal
oracle enumerates every physical node explicitly and stamps a dense
conductance matrix, with driver rows eliminated by substitution. The one
exception is ``solved_readout``: it solves each comparator decision with the
package's own neuron solver and SAR, which network inference replaces with
the KCL closed form, so the two can be compared. ``reference_sar_calibrate``
is the bit-register SAR search that ``sar.sar_calibrate`` replaced with a
plain MSB-first loop, kept with its direction, comparator offset and
monotone sweep to check that the two agree call for call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from xbarsim.montecarlo import run_rng, sample_params
from xbarsim.neuron import SolverError, solve_dc
from xbarsim.sar import SarResult, sar_calibrate


def nodal_oracle_currents(g, v_in, r_wire_row, r_wire_col, r_neuron):
    """Brute-force dense solve of the crossbar network, voltage-mode.

    g: (rows, cols) cross-point conductances; v_in: per-row driver volts;
    r_neuron: per-column termination to ground. Wire resistances must be > 0
    (the oracle does no structural merging). A zero r_neuron ties that
    terminal to ground: its node is pinned at 0 V by an identity row, and its
    current is the one arriving through the column's feed segment.
    """
    g = np.asarray(g, float)
    rows, cols = g.shape
    r_neuron = np.broadcast_to(np.asarray(r_neuron, float), (cols,))
    assert r_wire_row > 0 and r_wire_col > 0 and np.all(r_neuron >= 0)

    # unknown nodes: row-side crosspoints, column-side crosspoints, neuron terminals
    def rn(i, j):
        return i * cols + j

    def cn(i, j):
        return rows * cols + i * cols + j

    def nn(j):
        return 2 * rows * cols + j

    n = 2 * rows * cols + cols
    A = np.zeros((n, n))
    b = np.zeros(n)
    gr = 1.0 / r_wire_row
    gc = 1.0 / r_wire_col

    def stamp(a, c, gcond):
        A[a, a] += gcond
        A[c, c] += gcond
        A[a, c] -= gcond
        A[c, a] -= gcond

    def stamp_to_known(a, gcond, v):
        A[a, a] += gcond
        b[a] += gcond * v

    for i in range(rows):
        stamp_to_known(rn(i, 0), gr, v_in[i])          # driver feed
        for j in range(1, cols):
            stamp(rn(i, j - 1), rn(i, j), gr)
        for j in range(cols):
            stamp(rn(i, j), cn(i, j), g[i, j])          # cross-point
    for j in range(cols):
        for i in range(1, rows):
            stamp(cn(i - 1, j), cn(i, j), gc)
        if r_neuron[j] > 0:
            stamp(cn(rows - 1, j), nn(j), gc)               # feed to neuron terminal
            stamp_to_known(nn(j), 1.0 / r_neuron[j], 0.0)   # termination to ground
        else:
            stamp_to_known(cn(rows - 1, j), gc, 0.0)        # feed to grounded terminal
            A[nn(j), nn(j)] = 1.0

    v = np.linalg.solve(A, b)
    return np.array([v[nn(j)] / r_neuron[j] if r_neuron[j] > 0
                     else gc * v[cn(rows - 1, j)] for j in range(cols)])


def nodal_oracle_zero_wire(g, v_in, r_neuron):
    """Closed-form solve for ideal wires but finite neuron resistance:
    each column is a single node v_c with sum_i g_ij (V_i - v_c) = v_c / r_j."""
    g = np.asarray(g, float)
    cols = g.shape[1]
    r_neuron = np.broadcast_to(np.asarray(r_neuron, float), (cols,))
    out = np.zeros(cols)
    for j in range(cols):
        gsum = g[:, j].sum()
        v_c = (g[:, j] @ v_in) / (gsum + 1.0 / r_neuron[j])
        out[j] = v_c / r_neuron[j]
    return out


def bisect(f, lo, hi, tol=1e-15, max_iter=200):
    """Plain bisection on a sign change; independent of any Newton path."""
    flo, fhi = f(lo), f(hi)
    assert flo * fhi <= 0.0, "no sign change on the bracket"
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or (hi - lo) < tol:
            return mid
        if flo * fm <= 0.0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def two_pass_std(samples, ddof=1):
    """Reference standard deviation: explicit two-pass formula."""
    samples = list(samples)
    n = len(samples)
    mean = sum(samples) / n
    var = sum((s - mean) ** 2 for s in samples) / (n - ddof)
    return var ** 0.5


def solved_readout(nominal, mismatch, mismatch_seed, vref_in, li, i_diff,
                   solve=solve_dc):
    """Comparator bits of mismatched layer li, each solved as
    v_out(i_diff[j]) >= v_out(0).

    Neuron j is sampled on stream li * 4096 + j and SAR-trimmed to vref_in
    (code 0 if the SAR fails); both points are solved at that code. A neuron
    whose readout or quiescent solve fails keeps the sign bit. Returns the
    bits and the failures as (neuron, stage, reason), stage being
    "calibration", "readout" or "quiescent", calibration first per neuron.
    """
    bits = np.asarray(i_diff) >= 0.0
    failures = []
    for j, i in enumerate(i_diff):
        p = sample_params(nominal, mismatch, run_rng(mismatch_seed, li * 4096 + j))
        code = 0
        try:
            code = sar_calibrate(lambda c: solve(p, 0.0, c).v_in, vref_in,
                                 p.dac.nbits).code
        except SolverError as e:
            failures.append((j, "calibration", str(e)))
        try:
            v = solve(p, float(i), code).v_out
        except SolverError as e:
            failures.append((j, "readout", str(e)))
            continue
        try:
            bits[j] = v >= solve(p, 0.0, code).v_out
        except SolverError as e:
            failures.append((j, "quiescent", str(e)))
    return bits, failures


class Direction(Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"


class NonMonotonePlantError(RuntimeError):
    pass


class _Phase(Enum):
    IDLE = "idle"
    CONVERGING = "converging"
    DONE = "done"


@dataclass
class _SarRegister:
    """Bit register of the MSB-first search. bit_index counts trial bits from
    the MSB (0) down; phase flips to DONE once the LSB has been decided."""

    nbits: int
    bit_index: int = 0
    code: int = 0
    phase: _Phase = _Phase.IDLE

    def start(self) -> int:
        self.bit_index = 0
        self.code = 0
        self.phase = _Phase.CONVERGING
        return self.trial_code()

    def trial_code(self) -> int:
        return self.code | (1 << (self.nbits - 1 - self.bit_index))

    def decide(self, keep: bool) -> None:
        if self.phase is not _Phase.CONVERGING:
            raise RuntimeError("SAR register is not converging")
        if keep:
            self.code = self.trial_code()
        self.bit_index += 1
        if self.bit_index >= self.nbits:
            self.phase = _Phase.DONE


def reference_sar_calibrate(plant, vref, nbits, direction=Direction.INCREASING,
                            comparator_offset=0.0, check_monotone=False):
    """The register-driven SAR search: a state machine steps the trial bit,
    a cache remembers each probed value, and each direction has its own
    comparisons. For an increasing plant with no offset and no monotone
    sweep this is the contract of ``sar.sar_calibrate``."""
    if not math.isfinite(vref):
        raise ValueError("vref must be finite")
    if check_monotone:
        vals = [plant(c) for c in range(1 << nbits)]
        diffs = [b - a for a, b in zip(vals, vals[1:])]
        ok = all(d > 0 for d in diffs) if direction is Direction.INCREASING \
            else all(d < 0 for d in diffs)
        if not ok:
            raise NonMonotonePlantError(
                f"plant is not strictly {direction.value} over codes 0..{(1 << nbits) - 1}")

    vref_eff = vref + comparator_offset
    state = _SarRegister(nbits=nbits)
    state.start()
    cache = {}
    transcript = []
    comparisons = 0
    while state.phase is _Phase.CONVERGING:
        trial = state.trial_code()
        v = plant(trial)
        cache[trial] = v
        comparisons += 1
        if direction is Direction.INCREASING:
            keep = not (v > vref_eff)
        else:
            keep = not (v < vref_eff)
        transcript.append((state.bit_index, trial, v, keep))
        state.decide(keep)

    code = state.code
    value = cache[code] if code in cache else plant(code)
    full = (1 << nbits) - 1
    if direction is Direction.INCREASING:
        in_range = not (code == 0 and value > vref_eff) and not (code == full and value < vref_eff)
    else:
        in_range = not (code == 0 and value < vref_eff) and not (code == full and value > vref_eff)
    return SarResult(code=code, value=value, comparisons=comparisons,
                     in_range=in_range, transcript=transcript)
