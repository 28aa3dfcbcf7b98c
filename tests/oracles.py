"""Independent reference computations used by the test suite.

These deliberately share no assembly code with the package: the nodal
oracle enumerates every physical node explicitly and stamps a dense
conductance matrix, with driver rows eliminated by substitution. The one
exception is ``solved_readout``: it solves each comparator decision with the
package's own neuron solver and SAR, which network inference replaces with
the KCL closed form, so the two can be compared.
"""

from __future__ import annotations

import numpy as np

from xbarsim.montecarlo import run_rng, sample_params
from xbarsim.neuron import SolverError, solve_dc
from xbarsim.sar import Direction, sar_calibrate


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
                                 p.dac.nbits, Direction.INCREASING).code
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
