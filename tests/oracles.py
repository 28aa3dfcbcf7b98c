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
``reference_solve_dc`` and ``reference_rout_numeric`` are the numpy-array
Newton solves that the neuron's Python-float solves replaced, kept to check
that the two agree bit for bit. ``reference_solve_network`` is the dense
nodal solve that the crossbar's row-group block elimination replaced, and
``reference_block_solve`` is that elimination as it first landed, with
every group's block and coupling stamped before the sweep, kept to check
that the streamed sweep agrees with it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from xbarsim.crossbar import (MIN_GROUP_UNKNOWNS, ConductanceMatrix, Excitation,
                              ExcitationMode, NodalSolution, NonIdealSpec,
                              SingularNetworkError)
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
                            spec: NonIdealSpec) -> NodalSolution:
    """The dense nodal solve that the row-group block elimination in
    ``crossbar._solve_network`` replaced, kept verbatim: it assembles the
    whole n x n system in node-id order and factors it in one
    ``np.linalg.solve`` call."""
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
    if not voltage_mode:
        b[k[src]] += x.values

    bad = np.flatnonzero(np.diag(A) == 0.0)
    if bad.size:
        node = int(unknown[bad[0]])
        raise SingularNetworkError(
            f"floating node (supernode {node}) has no conductance to the rest "
            "of the network", node=node)
    try:
        v[unknown] = np.linalg.solve(A, b)
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

    # power bookkeeping (Tellegen): source power vs sum over resistive branches
    p_src = -x.values @ inflow[src] if voltage_mode else x.values @ v[src]
    return NodalSolution(neuron_currents=currents, p_source=float(p_src),
                         p_dissipated=float(i_b @ dv))


def _reference_eliminate(blocks, b, start, off, p, q, entry) -> np.ndarray:
    """Solve a symmetric system of row groups by block elimination.

    Group j holds positions start[j]:start[j + 1] of the right-hand side b
    and its diagonal block flat at blocks[off[j]:off[j + 1]]. Outside the
    blocks the system has only ``entry`` at (p, q) and (q, p), each p in an
    earlier group than q, and each group couples to at most one later group,
    its target. Each group is solved for its coupling columns and b, and its
    Schur complement updates its target; the last group is solved whole,
    then every group back-substitutes. blocks and b are overwritten.
    """
    n_groups, n = start.size - 1, b.size
    size = np.diff(start)
    group = np.searchsorted(start, p, side="right") - 1
    # group j's coupling C_j has a column for each unknown iface[j] it touches
    key, col = np.unique(group * n + q, return_inverse=True)
    first = np.searchsorted(key // n, np.arange(n_groups + 1))
    width = np.diff(first)
    coff = np.concatenate([[0], np.cumsum(size * width)])
    C = np.bincount(coff[group] + (p - start[group]) * width[group] + col - first[group],
                    entry, minlength=coff[-1])
    iface = [key[first[j]:first[j + 1]] % n for j in range(n_groups)]

    def block(j):
        return blocks[off[j]:off[j + 1]].reshape(size[j], size[j])

    sweep = []
    for j in range(n_groups - 1):
        cj = C[coff[j]:coff[j + 1]].reshape(size[j], width[j])
        sol = np.linalg.solve(block(j), np.column_stack([cj, b[start[j]:start[j + 1]]]))
        sweep.append(sol)
        if width[j]:
            t = np.searchsorted(start, iface[j][0], side="right") - 1
            local = iface[j] - start[t]
            block(t)[np.ix_(local, local)] -= cj.T @ sol[:, :-1]
            b[iface[j]] -= cj.T @ sol[:, -1]
    x = np.empty(n)
    x[start[-2]:] = np.linalg.solve(block(n_groups - 1), b[start[-2]:])
    for j in reversed(range(n_groups - 1)):
        x[start[j]:start[j + 1]] = sweep[j][:, -1] - sweep[j][:, :-1] @ x[iface[j]]
    return x


def reference_block_solve(G: ConductanceMatrix, x: Excitation,
                          spec: NonIdealSpec) -> NodalSolution:
    """The row-group block elimination that stamped every group's block and
    coupling up front, each set in one ``np.bincount``, before the sweep
    ``crossbar._solve_network`` now streams; kept verbatim."""
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

    # row groups: runs of consecutive rows holding at least MIN_GROUP_UNKNOWNS
    # unknowns (every row holds as many), the leftover rows and the neuron
    # terminals joining the last group. Unknowns are ordered by group, then by
    # node id, so a single group is the whole system in node-id order.
    per_row = (not voltage_mode) + cols * ((spec.r_wire_row > 0.0) + (spec.r_wire_col > 0.0))
    span = -(-MIN_GROUP_UNKNOWNS // per_row) if per_row else rows
    n_groups = max(rows // span, 1)
    size = np.array([unknown.size])  # unknowns per group
    if n_groups > 1:
        row_of = np.full(n_nodes, rows - 1)
        row_of[src] = np.arange(rows)
        row_of[rnode] = row_of[cnode] = np.arange(rows)[:, None]
        group = np.minimum(row_of[unknown] // span, n_groups - 1)
        unknown = unknown[np.argsort(group, kind="stable")]
        size = np.bincount(group, minlength=n_groups)
    n = unknown.size
    k = np.full(n_nodes, -1)
    k[unknown] = np.arange(n)
    start = np.concatenate([[0], np.cumsum(size)])
    gid = np.repeat(np.arange(n_groups), size)  # group of each position
    # each group's block is stored flat from off[j]; entry (p, q) of a group
    # is at base[p] + q
    off = np.concatenate([[0], np.cumsum(size * size)])
    base = off[gid] + (np.arange(n) - start[gid]) * size[gid] - start[gid]

    # stamp each branch from its near end p; v so far holds only fixed
    # potentials. A branch between two groups couples the earlier one to
    # its next group (a column wire) or to the last one (merged columns).
    p, q, gpq = np.concatenate([a, c]), np.concatenate([c, a]), np.concatenate([g, g])
    kp, kq = k[p], k[q]
    near, both = kp >= 0, (kp >= 0) & (kq >= 0)
    kn, kb, qb, gb = kp[near], kp[both], kq[both], gpq[both]
    inside = gid[kb] == gid[qb]
    blocks = np.bincount(np.concatenate([base[kn] + kn, base[kb[inside]] + qb[inside]]),
                         np.concatenate([gpq[near], -gb[inside]]), minlength=off[-1])
    b = np.bincount(kn, gpq[near] * v[q[near]], minlength=n)
    if not voltage_mode:
        b[k[src]] += x.values

    is_floating = blocks[base + np.arange(n)] == 0.0
    if np.any(is_floating):
        node = int(unknown[is_floating].min())
        raise SingularNetworkError(
            f"floating node (supernode {node}) has no conductance to the rest "
            "of the network", node=node)
    try:
        if n_groups == 1:
            v[unknown] = np.linalg.solve(blocks.reshape(n, n), b)
        else:
            fwd = gid[kb] < gid[qb]
            v[unknown] = _reference_eliminate(blocks, b, start, off, kb[fwd], qb[fwd], -gb[fwd])
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

    # power bookkeeping (Tellegen): source power vs sum over resistive branches
    p_src = -x.values @ inflow[src] if voltage_mode else x.values @ v[src]
    return NodalSolution(neuron_currents=currents, p_source=float(p_src),
                         p_dissipated=float(i_b @ dv))


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


# ---- the array-based neuron solve ---------------------------------------
# The numpy-array Newton solve that ``neuron.solve_dc`` and
# ``neuron.rout_numeric`` replaced with Python-float residuals, with the
# MosEval-building device evaluation it called. Kept unchanged so that the
# tests can check the two bit for bit: same operating point, iterations and
# residual, or the same SolverError text.


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
