"""Independent reference computations used by the test suite.

These deliberately share no assembly code with the package: the nodal
oracle enumerates every physical node explicitly and stamps a dense
conductance matrix, with driver rows eliminated by substitution. The
exceptions are measurements made with the package's own neuron solver:
``solved_readout`` solves each comparator decision with it and the SAR,
which network inference replaces with the KCL closed form, so the two can be
compared; ``zin_numeric`` and ``gain_numeric`` take finite differences of
its operating points, to check the small-signal formulas.
``reference_sar_calibrate`` is the bit-register SAR search that
``sar.sar_calibrate`` replaced with a plain MSB-first loop, kept with its
direction, comparator offset and monotone sweep to check that the two agree
call for call. ``reference_solve_dc`` is the numpy-array Newton solve that
the neuron's Python-float solve replaced, kept to check that the two agree
bit for bit. ``reference_rout_numeric``, the cascode output impedance by
finite differences, runs the same array Newton on the probe network; it is
the only copy of that measurement. ``reference_solve_network`` is the dense
nodal solve that the crossbar's row-group block elimination replaced;
``exact_solve_network`` refines its solution against the circuit's branch
currents, summed in extended precision, so that the float64 solves can be
measured against an exact answer.
``chain_solve_dc`` solves the neuron in KCL order, one bracketed scalar
root at a time, and finds every operating point, so a converged
``solve_dc`` can be checked against it; ``kcl_residual`` measures a
point's KCL residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from xbarsim.crossbar import (ConductanceMatrix, Excitation, ExcitationMode,
                              NodalSolution, NonIdealSpec, SingularNetworkError)
from xbarsim.devices import MosEval, MosParams, Region
from xbarsim.montecarlo import run_rng, sample_params
from xbarsim.neuron import (KCL_TOL, MAX_HALVINGS, MAX_ITER, OperatingPoint, RgcParams,
                            SolverError, check_input_current, dac_current, solve_dc)
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


def reference_solve_network(G: ConductanceMatrix, x: Excitation,
                            spec: NonIdealSpec, refine: int = 0) -> NodalSolution:
    """The dense nodal solve that the row-group block elimination in
    ``crossbar.output_currents_nonideal`` replaced: it assembles the whole
    n x n system in node-id order and factors it in one ``np.linalg.solve``
    call. Its errors, with their ``.node``, are the ones the package must
    raise; its answer is exact_solve_network's first step, which with
    ``refine`` > 0 that function's refinement follows."""
    rows, cols = G.n_rows, G.n_cols
    r_neuron = spec.neuron_resistances(cols)
    voltage_mode = x.mode is ExcitationMode.VOLTAGE
    # current sources fix no potential: only a termination at the end of a
    # column wire ties the array to ground
    if not voltage_mode and (np.isinf(spec.r_wire_col) or np.all(np.isinf(r_neuron))):
        raise SingularNetworkError("current-mode network has no path to ground: the "
                                   "column wires or all neuron terminations are open")

    # node numbering: ground 0, per-row driver nodes, row-side cross-point
    # nodes, column-side cross-point nodes, neuron terminal nodes
    src = 1 + np.arange(rows)
    rnode = (1 + rows + np.arange(rows * cols)).reshape(rows, cols)
    cnode = rnode + rows * cols
    term = 1 + rows + 2 * rows * cols + np.arange(cols)
    n_nodes = term[-1] + 1

    # zero-ohm wires merge a whole row into its driver or a whole column
    # into its neuron terminal; no other merge is possible with scalar wires
    rep = np.arange(n_nodes)
    if spec.r_wire_row == 0.0:
        rep[rnode] = src[:, None]
    if spec.r_wire_col == 0.0:
        rep[cnode] = term[None, :]

    # branch groups (a, c, g); zero-ohm branches are never created, so no
    # branch lies inside one supernode
    terminated = r_neuron > 0.0
    ends = term[terminated]
    groups = [(rnode, cnode, G.g), (ends, np.zeros_like(ends), 1.0 / r_neuron[terminated])]
    if spec.r_wire_row > 0.0:  # driver feed, then between adjacent cross-points
        groups.append((np.column_stack([src, rnode[:, :-1]]), rnode, 1.0 / spec.r_wire_row))
    if spec.r_wire_col > 0.0:  # between adjacent cross-points, then terminal feed
        groups.append((cnode, np.vstack([cnode[1:], term]), 1.0 / spec.r_wire_col))
    a = rep[np.concatenate([np.ravel(ga) for ga, _, _ in groups])]
    c = rep[np.concatenate([np.ravel(gc) for _, gc, _ in groups])]
    g = np.concatenate([np.broadcast_to(gg, np.shape(ga)).ravel() for ga, _, gg in groups])

    # fixed potentials: ground, voltage-mode drivers and zero-resistance
    # neuron terminals (ideal virtual ground); other supernodes are unknown
    v = np.zeros(n_nodes)
    is_unknown = rep == np.arange(n_nodes)
    is_unknown[0] = False
    is_unknown[term[~terminated]] = False
    if voltage_mode:
        is_unknown[src] = False
        v[src] = x.values
    unknown = np.flatnonzero(is_unknown)
    k = np.full(n_nodes, -1)
    k[unknown] = np.arange(unknown.size)

    # stamp each branch from its near end p; v so far holds only fixed potentials
    p, q, gpq = np.concatenate([a, c]), np.concatenate([c, a]), np.concatenate([g, g])
    near, both = k[p] >= 0, (k[p] >= 0) & (k[q] >= 0)
    A = np.zeros((unknown.size, unknown.size))
    np.add.at(A, (k[p[near]], k[p[near]]), gpq[near])
    np.add.at(A, (k[p[both]], k[q[both]]), -gpq[both])
    b = np.bincount(k[p[near]], gpq[near] * v[q[near]], minlength=unknown.size)
    inject = np.zeros(n_nodes)  # each node's source current
    if not voltage_mode:
        b[k[src]] += x.values
        inject[src] = x.values

    bad = np.flatnonzero(np.diag(A) == 0.0)
    if bad.size:
        node = int(unknown[bad[0]])
        raise SingularNetworkError(
            f"floating node (supernode {node}) has no conductance to the rest "
            "of the network", node=node)
    try:
        v[unknown] = np.linalg.solve(A, b)
        for _ in range(refine):
            step = v[unknown] + np.linalg.solve(A, _branch_residual(v, a, c, g, inject)[unknown])
            # a round that moves no voltage leaves every later round the same residual
            if np.array_equal(step, v[unknown]):
                break
            v[unknown] = step
    except np.linalg.LinAlgError as e:
        raise SingularNetworkError(f"nodal system is singular: {e}") from e

    # branch currents a -> c and each node's net inflow; a neuron's current
    # flows through its termination, or into its virtual-ground terminal
    dv = v[a] - v[c]
    i_b = g * dv
    inflow = np.bincount(np.concatenate([c, a]), np.concatenate([i_b, -i_b]),
                         minlength=n_nodes)
    currents = inflow[term]
    currents[terminated] = v[ends] / r_neuron[terminated]

    # power bookkeeping (Tellegen): source power vs sum over resistive branches.
    # By KCL a voltage driver sends its row's cross-point currents (the first
    # rows*cols branches)
    row_currents = i_b[:rows * cols].reshape(rows, cols).sum(1)
    p_src = x.values @ row_currents if voltage_mode else x.values @ v[src]
    return NodalSolution(neuron_currents=currents, p_source=float(p_src),
                         p_dissipated=float(i_b @ dv))


def _branch_residual(v, a, c, g, inject) -> np.ndarray:
    """Each node's net inflow through the branches a -> c of conductance g at
    node voltages v, plus its injected current inject, summed in
    np.longdouble: the circuit's own KCL residual, free of the rounding in a
    stamped diagonal."""
    v, g = v.astype(np.longdouble), np.asarray(g, np.longdouble)
    i_b = g * (v[a] - v[c])
    r = inject.astype(np.longdouble)
    np.add.at(r, c, i_b)
    np.subtract.at(r, a, i_b)
    return r.astype(float)


def exact_solve_network(G: ConductanceMatrix, x: Excitation,
                        spec: NonIdealSpec) -> NodalSolution:
    """reference_solve_network with its dense solve iteratively refined: each
    of up to 4 rounds solves the assembled matrix for a correction from
    _branch_residual, and the first round that moves no node voltage ends
    it. The residual comes from the branch list, not from the
    float64-assembled matrix, whose diagonals fl(g + w + w) each leak up to
    half an ulp of a wire's conductance to ground; so the node voltages
    solve the circuit itself to float64 rounding, and charge is conserved to
    rounding. While cond(A) is well below 1/eps each round shrinks the error
    by about cond(A)*eps (Golub and Van Loan, Matrix Computations, section
    3.5). The float64 solves are checked against this answer instead of
    against each other."""
    return reference_solve_network(G, x, spec, refine=4)


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

    Neuron j is sampled on stream (li, j) and SAR-trimmed to vref_in
    (code 0 if the SAR fails); both points are solved at that code. A neuron
    whose readout or quiescent solve fails keeps the sign bit. Returns the
    bits and the failures as (neuron, stage, reason), stage being
    "calibration", "readout" or "quiescent", calibration first per neuron.
    """
    bits = np.asarray(i_diff) >= 0.0
    failures = []
    for j, i in enumerate(i_diff):
        p = sample_params(nominal, mismatch, run_rng(mismatch_seed, li, j))
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


def zin_numeric(p: RgcParams, code: int = 0, i_in: float = 0.0,
                delta_i: float = 1e-9) -> float:
    """Input impedance by central finite differences on the package's solver."""
    hi = solve_dc(p, i_in + delta_i, code)
    lo = solve_dc(p, i_in - delta_i, code)
    return (hi.v_in - lo.v_in) / (2.0 * delta_i)


def gain_numeric(p: RgcParams, code: int = 0, i_in: float = 0.0,
                 delta_i: float = 1e-9) -> float:
    """Feedback-amplifier gain |dv_gate1/dv_in| measured on the package's solver."""
    hi = solve_dc(p, i_in + delta_i, code)
    lo = solve_dc(p, i_in - delta_i, code)
    dvin = hi.v_in - lo.v_in
    if dvin == 0.0:
        raise SolverError("input node does not move; gain is unmeasurable "
                          "(ideal feedback branch)")
    return abs((hi.v_gate1 - lo.v_gate1) / dvin)


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


# ---- the array-based neuron solve ---------------------------------------
# The numpy-array Newton solve that ``neuron.solve_dc`` replaced with
# Python-float residuals, with the MosEval-building device evaluation it
# called. Kept unchanged so that the tests can check the two bit for bit:
# same operating point, iterations and residual, or the same SolverError
# text. ``reference_rout_numeric`` runs it on the output probe.


def reference_mos_eval(p: MosParams, vgs: float, vds: float) -> MosEval:
    """Evaluate drain current and its analytic partial derivatives.

    Requires vds >= 0. Subthreshold conduction is zero. The (1+lam*vds)
    factor applies in saturation only, so with lam > 0 there is a small
    documented discontinuity at the triode/saturation boundary.
    """
    if vds < 0.0:
        raise ValueError(f"vds must be >= 0, got {vds}")
    vov = vgs - p.vt
    if vov <= 0.0:
        return MosEval(0.0, Region.CUTOFF, 0.0, 0.0)
    if vds < vov:
        i = p.beta * (vov * vds - 0.5 * vds * vds)
        gm = p.beta * vds
        gds = p.beta * (vov - vds)
        return MosEval(i, Region.TRIODE, gm, gds)
    i = 0.5 * p.beta * vov * vov * (1.0 + p.lam * vds)
    gm = p.beta * vov * (1.0 + p.lam * vds)
    gds = 0.5 * p.beta * vov * vov * p.lam
    return MosEval(i, Region.SATURATION, gm, gds)


def reference_mos_current_signed(p: MosParams, vgs: float, vds: float) -> tuple[float, float, float]:
    """Drain current and partials (di/dvgs, di/dvds) valid for either vds sign.

    Used by nonlinear solvers whose Newton iterates may transiently reverse a
    drain-source pair. Negative vds is handled by the usual source/drain
    swap: i(vgs, vds) = -i(vgs - vds, -vds).
    """
    if vds >= 0.0:
        e = reference_mos_eval(p, vgs, vds)
        return e.current, e.gm, e.gds
    e = reference_mos_eval(p, vgs - vds, -vds)
    # chain rule through the swap
    return -e.current, -e.gm, e.gm + e.gds


def _reference_newton(residual_jac, v0: np.ndarray) -> tuple[np.ndarray, int, float]:
    """Damped Newton: step halving on residual-norm increase."""
    v = np.asarray(v0, dtype=float)
    f, jac = residual_jac(v)
    norm = float(np.max(np.abs(f)))
    for it in range(1, MAX_ITER + 1):
        if norm <= KCL_TOL * 1e-3:
            return v, it - 1, norm
        try:
            dv = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError as e:
            raise SolverError(f"singular Jacobian at iteration {it}") from e
        t = 1.0
        for _ in range(MAX_HALVINGS + 1):
            v_new = v + t * dv
            f_new, jac_new = residual_jac(v_new)
            norm_new = float(np.max(np.abs(f_new)))
            if norm_new < norm or norm_new <= KCL_TOL * 1e-3:
                break
            t *= 0.5
        if norm_new >= norm:
            if norm <= KCL_TOL:
                return v, it, norm  # converged; damping makes no further progress
            raise SolverError(f"Newton stalled at iteration {it}: residual {norm:.3e} A")
        v, f, jac, norm = v_new, f_new, jac_new, norm_new
    if norm <= KCL_TOL:
        return v, MAX_ITER, norm
    raise SolverError(f"Newton did not converge: last residual {norm:.3e} A")


def reference_solve_dc(p: RgcParams, i_in: float = 0.0, code: int = 0,
             out_code: int = 0) -> OperatingPoint:
    """Solve the neuron's DC operating point by damped Newton iteration.

    Unknowns are (v_in, v_gate1, v_mid, v_out). With lambda = 0 and an
    ideal I_B2 source the input node has the closed form
    v_in = vt2 + sqrt(2*(ib2 + i_dac)/beta2), which external oracles use.
    """
    i_dac = dac_current(p.dac, code)
    i_daco = dac_current(p.dac_out, out_code)
    i_fb = p.ib2 + i_dac
    if i_fb <= 0.0:
        raise SolverError("feedback branch current must be > 0")
    check_input_current(p, i_in)
    g_b2 = 0.0 if math.isinf(p.ro_b2) else 1.0 / p.ro_b2
    g_l = 1.0 / p.r_load

    def residual_jac(v):
        vin, vg, vy, vo = v
        i1, d1g, d1d = reference_mos_current_signed(p.m1, vg - vin, vy - vin)
        i2, d2g, d2d = reference_mos_current_signed(p.m2, vin, vg)
        i3, d3g, d3d = reference_mos_current_signed(p.m3, p.vb3 - vy, vo - vy)
        f = np.array([
            i_in + i1 - p.ib,
            i_fb + (p.vdd - vg) * g_b2 - i2,
            i3 - i1,
            (p.vdd - vo) * g_l + i_daco - i3,
        ])
        jac = np.array([
            [-(d1g + d1d), d1g, d1d, 0.0],
            [-d2g, -g_b2 - d2d, 0.0, 0.0],
            [d1g + d1d, -d1g, -(d3g + d3d) - d1d, d3d],
            [0.0, 0.0, d3g + d3d, -g_l - d3d],
        ])
        return f, jac

    # closed-form-flavored initial guess
    vin0 = p.m2.vt + math.sqrt(2.0 * i_fb / p.m2.beta)
    vg0 = vin0 + p.m1.vt + math.sqrt(2.0 * max(p.ib - i_in, 1e-12) / p.m1.beta)
    vy0 = max(p.vb3 - p.m3.vt - math.sqrt(2.0 * max(p.ib - i_in, 1e-12) / p.m3.beta),
              vin0 + 0.05)
    vo0 = p.vdd - p.r_load * (p.ib - i_in - i_daco)
    v, iters, norm = _reference_newton(residual_jac, np.array([vin0, vg0, vy0, vo0]))

    vin, vg, vy, vo = (float(x) for x in v)
    e1 = reference_mos_eval(p.m1, vg - vin, vy - vin) if vy >= vin else None
    e2 = reference_mos_eval(p.m2, vin, vg) if vg >= 0 else None
    e3 = reference_mos_eval(p.m3, p.vb3 - vy, vo - vy) if vo >= vy else None
    if e1 is None or e2 is None or e3 is None:
        raise SolverError("converged to a reversed drain-source pair; bias infeasible")
    for name, e in (("m1", e1), ("m2", e2), ("m3", e3)):
        if e.region is Region.CUTOFF:
            raise SolverError(f"{name} is in cutoff at the solution (infeasible bias)")
    return OperatingPoint(
        v_in=vin, v_gate1=vg, v_mid=vy, v_out=vo,
        i_stack=e1.current, i_fb=i_fb, i_dac_out=i_daco,
        m1=e1, m2=e2, m3=e3, iterations=iters, residual=norm,
        code=code, out_code=out_code,
    )


def reference_rout_numeric(p: RgcParams, op: OperatingPoint,
                           delta_i: float = 1e-12) -> float:
    """Cascode output impedance by finite differences.

    The input and feedback nodes are pinned at the solved operating point
    (the column driver standing in as an ideal source) and a probe current
    is injected at M3's drain with the resistive load removed, which is the
    standard way of measuring the impedance looking into the cascode.
    """
    vin, vg = op.v_in, op.v_gate1
    i_src = op.i_stack

    def solve_probe(di):
        def residual_jac(v):
            vy, vo = v
            i1, d1g, d1d = reference_mos_current_signed(p.m1, vg - vin, vy - vin)
            i3, d3g, d3d = reference_mos_current_signed(p.m3, p.vb3 - vy, vo - vy)
            f = np.array([i3 - i1, i_src + di - i3])
            jac = np.array([
                [-(d3g + d3d) - d1d, d3d],
                [d3g + d3d, -d3d],
            ])
            return f, jac
        v, _, _ = _reference_newton(residual_jac, np.array([op.v_mid, op.v_out]))
        return float(v[1])

    return (solve_probe(delta_i) - solve_probe(-delta_i)) / (2.0 * delta_i)


# The neuron's DC system solved in KCL order, as a chain of monotone scalar
# roots. M1 and M3 carry ib - i_in, so the load fixes v_out in closed form
# and M3 alone fixes v_mid; M2, whose drain is the gate node G, gives
# v_in = h(v_gate1); M1's current is then one equation in v_gate1, rising on
# each side of M1's triode/saturation edge, where (1 + lam*vds) makes it
# jump down. Each root is bracketed and solved by rtsafe. The square law is
# written out here and shares no code with the package.


def _saturation(m: MosParams, vov: float, vds: float) -> tuple[float, float, float]:
    """Current and its partials by vov and vds."""
    return (0.5 * m.beta * vov * vov * (1.0 + m.lam * vds),
            m.beta * vov * (1.0 + m.lam * vds), 0.5 * m.beta * vov * vov * m.lam)


def _triode(m: MosParams, vov: float, vds: float) -> tuple[float, float, float]:
    return m.beta * (vov * vds - 0.5 * vds * vds), m.beta * vds, m.beta * (vov - vds)


def rtsafe(f, lo: float, hi: float, max_iter: int = 200) -> float:
    """Root of an increasing f on [lo, hi] with f(lo) <= 0 <= f(hi); f returns
    (value, derivative). Newton steps that stay inside the bracket and halve
    the step, else bisection (Press et al., Numerical Recipes, section 9.4)."""
    assert f(lo)[0] <= 0.0 <= f(hi)[0], "no sign change on the bracket"
    x = 0.5 * (lo + hi)
    step = hi - lo
    for _ in range(max_iter):
        fx, dfx = f(x)
        if fx == 0.0:
            return x
        if fx < 0.0:
            lo = x
        else:
            hi = x
        newton = x - fx / dfx if dfx > 0.0 else math.nan
        last, step = step, abs(x - newton)
        if not (lo < newton < hi and 2.0 * step <= last):
            newton, step = 0.5 * (lo + hi), 0.5 * (hi - lo)
        if step <= 1e-15 * max(1.0, abs(x)):
            return newton
        x = newton
    return x


def chain_solve_dc(p: RgcParams, i_in: float = 0.0, code: int = 0,
                   out_code: int = 0) -> list[tuple[float, float, float, float]]:
    """Every DC operating point (v_in, v_gate1, v_mid, v_out) at which no
    device is cut off or reversed, in rising v_gate1: none, one, or one on
    each side of M1's triode edge.

    M2 saturates at every such point: M1 conducts, so
    v_in - vt2 < v_gate1 - vt1 - vt2 < v_gate1 whenever vt1 + vt2 > 0. So
    h is M2's saturation law solved for v_in, and a v_gate1 at which that
    law has no saturated solution, or M1 is off or reversed, leaves M1
    carrying nothing.
    """
    m1, m2, m3 = p.m1, p.m2, p.m3
    assert m1.vt + m2.vt > 0.0
    i_s = p.ib - i_in  # through M1 and M3
    if i_s <= 0.0:
        return []
    i_fb = p.ib2 + code * p.dac.i_unit
    g_b2 = 0.0 if math.isinf(p.ro_b2) else 1.0 / p.ro_b2
    v_out = p.vdd - p.r_load * (i_s - out_code * p.dac_out.i_unit)

    # M3: its gate is fixed, and vds - vov = v_out - (vb3 - vt3) does not
    # depend on v_mid, so one law holds on the whole bracket
    von3 = p.vb3 - m3.vt
    law3 = _saturation if v_out >= von3 else _triode

    def m3_excess(vy):  # i_s - i3, increasing in v_mid
        i, d_vov, d_vds = law3(m3, von3 - vy, v_out - vy)
        return i_s - i, d_vov + d_vds

    y_hi = min(von3, v_out)  # M3 carries nothing at and above it
    y_lo = y_hi - 1.0
    while m3_excess(y_lo)[0] > 0.0:
        y_lo = y_hi - 2.0 * (y_hi - y_lo)
    vy = rtsafe(m3_excess, y_lo, y_hi)

    def h(vg):  # v_in and dv_in/dv_gate1, or None off M2's saturated range
        rhs = i_fb + (p.vdd - vg) * g_b2
        if vg <= 0.0 or rhs <= 0.0:
            return None
        u = 1.0 + m2.lam * vg
        vov = math.sqrt(2.0 * rhs / (m2.beta * u))
        if vov > vg:
            return None
        return m2.vt + vov, (-g_b2 * u - rhs * m2.lam) / (m2.beta * u * u * vov)

    def m1_excess(law):  # i1 - i_s with M1 held in one region
        def f(vg):
            vin_dh = h(vg)
            if vin_dh is None:
                return -i_s, 0.0
            vin, dh = vin_dh
            vov, vds = vg - vin - m1.vt, vy - vin
            if vov <= 0.0 or vds < 0.0:
                return -i_s, 0.0
            i, d_vov, d_vds = law(m1, vov, vds)
            return i - i_s, d_vov * (1.0 - dh) - d_vds * dh
        return f

    # M1 saturates for v_gate1 <= vy + vt1; below vt1 + vt2 it is off
    lo, edge = m1.vt + m2.vt, vy + m1.vt
    vg_max = math.inf if g_b2 == 0.0 else p.vdd + i_fb / g_b2
    roots = []
    sat, tri = m1_excess(_saturation), m1_excess(_triode)
    if lo < edge < vg_max and sat(edge)[0] >= 0.0:
        roots.append(rtsafe(sat, lo, edge))
    start = max(lo, edge)
    if start < vg_max and tri(start)[0] < 0.0:
        hi = start + 1.0
        while tri(hi)[0] < 0.0 and hi < vg_max:
            hi = start + 2.0 * (hi - start)
        hi = min(hi, math.nextafter(vg_max, 0.0))
        if tri(hi)[0] >= 0.0:
            roots.append(rtsafe(tri, start, hi))
    return [(h(vg)[0], vg, vy, v_out) for vg in roots]


def kcl_residual(p: RgcParams, i_in: float, code: int, out_code: int,
                 v_in: float, v_gate1: float, v_mid: float, v_out: float) -> float:
    """Largest KCL residual (A) over the nodes X, G, Y and O."""
    g_b2 = 0.0 if math.isinf(p.ro_b2) else 1.0 / p.ro_b2
    i1 = reference_mos_current_signed(p.m1, v_gate1 - v_in, v_mid - v_in)[0]
    i2 = reference_mos_current_signed(p.m2, v_in, v_gate1)[0]
    i3 = reference_mos_current_signed(p.m3, p.vb3 - v_mid, v_out - v_mid)[0]
    return max(abs(i_in + i1 - p.ib),
               abs(p.ib2 + code * p.dac.i_unit + (p.vdd - v_gate1) * g_b2 - i2),
               abs(i3 - i1),
               abs((p.vdd - v_out) / p.r_load + out_code * p.dac_out.i_unit - i3))
