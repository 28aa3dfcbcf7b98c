"""Crossbar arrays: the bounded conductance matrix, ideal dot products and
full resistive nodal analysis.

The non-ideal solve assembles the complete resistive network (row wire
segments, cross-point conductances, column wire segments, finite neuron
input resistances). A tile too small to fill two groups of consecutive
rows is one dense solve. A larger one is solved in two layers. First,
each crossbar row's chain (its driver node in current mode, then its row
wire) is tridiagonal and touches only that row's column-side nodes, so one
Thomas sweep over chain positions, across all rows, condenses it to a
dense cols x cols block on them. Then the column side alone is solved by
block elimination over the row groups: the column wires couple only
neighbouring groups, and the neuron terminals border the last. Live in
memory are one chunk of condensed rows (a few MB at most) and the sweep
solutions kept for back-substitution, rows x cols x (cols + 1) doubles.

Zero-ohm wires are handled structurally by node merging: with zero
row-wire resistance each whole row merges into its driver node, and with
zero column-wire resistance each whole column merges into its neuron
terminal. So the all-ideal case has no unknowns and reduces to the
matrix-vector product.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class ExcitationMode(Enum):
    VOLTAGE = "voltage"
    CURRENT = "current"


class SingularNetworkError(RuntimeError):
    """The assembled nodal system is singular."""

    def __init__(self, message: str, node: int | None = None):
        super().__init__(message)
        self.node = node


@dataclass
class ConductanceMatrix:
    """rows x cols memristor conductances (Siemens); the stored weights.

    Every entry must lie in the programmable window [g_min, g_max].
    """

    g: np.ndarray
    g_min: float = 1e-6
    g_max: float = 1e-3

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=float)
        if self.g.ndim != 2 or self.g.shape[0] < 1 or self.g.shape[1] < 1:
            raise ValueError(f"conductance matrix must be 2-D, got shape {self.g.shape}")
        if not (0.0 < self.g_min <= self.g_max):
            raise ValueError(f"need 0 < g_min <= g_max, got {self.g_min}, {self.g_max}")
        # written so that NaN fails
        if not (np.all(self.g >= self.g_min) and np.all(self.g <= self.g_max)):
            raise ValueError("conductance entries outside [g_min, g_max]")

    @property
    def n_rows(self) -> int:
        return self.g.shape[0]

    @property
    def n_cols(self) -> int:
        return self.g.shape[1]


@dataclass
class Excitation:
    """Per-row drive: voltages (volts) or source currents (amps)."""

    mode: ExcitationMode
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise ValueError("excitation values must be a 1-D vector")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("excitation values must be finite")


def voltage_excitation(values) -> Excitation:
    return Excitation(ExcitationMode.VOLTAGE, np.asarray(values, dtype=float))


def current_excitation(values) -> Excitation:
    return Excitation(ExcitationMode.CURRENT, np.asarray(values, dtype=float))


@dataclass
class NonIdealSpec:
    """Wire and termination non-idealities of the array.

    r_wire_row / r_wire_col are the lumped per-segment resistances between
    adjacent cross-points (the feed segment from the driver / to the neuron
    terminal is included). r_neuron_in is the finite input resistance of each
    column's neuron; scalar values broadcast over columns.
    """

    r_wire_row: float = 0.0
    r_wire_col: float = 0.0
    r_neuron_in: np.ndarray | float = 0.0

    def neuron_resistances(self, n_cols: int) -> np.ndarray:
        r = np.asarray(self.r_neuron_in, dtype=float)
        if r.ndim == 0:
            r = np.full(n_cols, float(r))
        if r.shape != (n_cols,):
            raise ValueError(f"r_neuron_in must be scalar or length {n_cols}")
        # written so that NaN fails; +inf (an open circuit) passes
        if not (self.r_wire_row >= 0 and self.r_wire_col >= 0 and np.all(r >= 0)):
            raise ValueError("non-ideality resistances must be >= 0")
        return r


@dataclass
class NodalSolution:
    """Result of a full resistive-network solve."""

    neuron_currents: np.ndarray
    p_source: float
    p_dissipated: float


def output_currents_ideal(G: ConductanceMatrix, x: Excitation) -> np.ndarray:
    """Column currents with ideal wires and ideal virtual-ground neurons.

    Voltage mode: I_j = sum_i G[i][j] * V_i (exact matrix-vector product).
    Current mode: each row's source current splits among its columns in
    proportion to the cross-point conductances.
    """
    if x.values.shape[0] != G.n_rows:
        raise ValueError(f"excitation length {x.values.shape[0]} != rows {G.n_rows}")
    if x.mode is ExcitationMode.VOLTAGE:
        return G.g.T @ x.values
    row_sums = G.g.sum(axis=1)
    v_rows = x.values / row_sums
    return G.g.T @ v_rows


# Fewest unknowns in one row group, counting both wire layers; a tile whose
# rows cannot fill two groups is one dense solve, which there ran 1.8-2.4x
# faster than the two-layer solve (8x4 network tile). From a sweep of the
# solve time over tile shapes (CHANGES.md): 48 and 64 were ~20% faster on
# the bench's tiles, but they speed up the 16x8 network tile too, and
# bench/run.py keeps every pass, so infer_nonideal's peak memory reached its
# +10% bound. At 96 the two-layer solve spends ~8% of it (CHANGES.md).
MIN_GROUP_UNKNOWNS = 96


def _chain_solve(m, piv, w, x):
    """Solve Thomas-factored tridiagonal chains (multipliers m, pivots piv,
    links -w) in place for the right-hand sides x[t] at each position t."""
    for t in range(1, len(x)):
        x[t] += m[t, :, None] * x[t - 1]
    x[-1] /= piv[-1, :, None]
    for t in range(len(x) - 2, -1, -1):
        x[t] += w * x[t + 1]
        x[t] /= piv[t, :, None]
    return x


def _two_layer(g, drive, voltage_mode, r_row, r_col, r_neuron, span, n_groups):
    """Solve a tile of several row groups in two layers (module docstring).

    Chain position pos[j] ties to column j through g[i, j]. Condensing row
    i's chain T_i leaves diag(g_i) - g_i T_i^-1 g_i on its column side, fed
    by g_i T_i^-1 e_0 per unit of drive. That block's diagonal is summed
    from its row sums (the conductance to a voltage driver, or 0), which has
    no cancellation, so charge is conserved to rounding. With ideal column
    wires the column side is the free terminals alone. Returns the chain
    voltages (L x rows), the column-side voltages (rows x cols) and the
    terminal voltages (0 where grounded).
    """
    rows, cols = g.shape
    if r_row > 0.0:
        w_r, L = 1.0 / r_row, cols + (not voltage_mode)
        pos = np.arange(cols) + (not voltage_mode)
        d = np.full((L, rows), 2 * w_r)
        d[-1] = w_r  # the row wire's far end, and a driver, link one way only
        if not voltage_mode:
            d[0] = w_r
        d[pos] += g.T
    else:  # a driver with its ideal row wire, unless the driver is fixed
        w_r, L, pos, d = 0.0, int(not voltage_mode), np.zeros(cols, int), g.sum(1)[None]
    m, piv = np.zeros_like(d), d.copy()  # Thomas factors; each diagonal exceeds
    for t in range(1, L):                 # its links, so every pivot is positive
        m[t] = w_r / piv[t - 1]
        piv[t] -= m[t] * w_r
    unit = w_r if voltage_mode and L else 1.0  # what a unit drive sends into position 0
    bounds = np.append(np.arange(n_groups) * span, rows)  # group j: rows bounds[j]:bounds[j + 1]
    per_chunk = max(1, (1 << 18) // (span * (cols + 1)) ** 2)
    diag = np.arange(cols)

    def condensed():  # each group's row blocks (n x cols x cols) and drives (n x cols)
        for j in range(n_groups):
            if j % per_chunk == 0:
                r0, r1 = bounds[j], bounds[min(j + per_chunk, n_groups)]
                if L:
                    y = np.zeros((L, r1 - r0, cols + 1))
                    y[pos, :, diag] = g[r0:r1].T
                    y[0, :, -1] = unit
                    _chain_solve(m[:, r0:r1], piv[:, r0:r1], w_r, y)
                    y = g[r0:r1, :, None] * y[pos].transpose(1, 0, 2)
                else:  # fixed drivers feed the column side directly
                    y = np.zeros((r1 - r0, cols, cols + 1))
                    y[:, :, -1] = g[r0:r1]
                y[:, diag, diag] = 0.0
                block = -y[:, :, :-1]
                block[:, diag, diag] = y[:, :, :-1].sum(2) + (y[:, :, -1] if voltage_mode else 0.0)
                fed = y[:, :, -1] * drive[r0:r1, None]
            yield block[bounds[j] - r0:bounds[j + 1] - r0], fed[bounds[j] - r0:bounds[j + 1] - r0]

    ends = np.flatnonzero(r_neuron > 0.0)  # the free terminals
    g_term = 1.0 / r_neuron[ends]
    v_term = np.zeros(cols)
    if r_col == 0.0:
        a, b = np.zeros((cols, cols)), np.zeros(cols)
        for block, fed in condensed():
            a += block.sum(0)
            b += fed.sum(0)
        a[ends, ends] += g_term
        v_term[ends] = np.linalg.solve(a[np.ix_(ends, ends)], b[ends])
        v_col = np.broadcast_to(v_term, (rows, cols))
    else:
        w_c = 1.0 / r_col
        sweep = []
        for j, (block, fed) in enumerate(condensed()):
            n, last = block.size // cols, j == n_groups - 1
            a = np.zeros((n + ends.size * last,) * 2)
            b = np.zeros((len(a), 1 if last else cols + 1))
            at = np.arange(len(block))[:, None, None] * cols + diag[:, None]
            a[at, at.transpose(0, 2, 1)] = block
            at = np.arange(n)  # the top row's column wires link down only
            a[at, at] += np.where(bounds[j] * cols + at < cols, w_c, 2 * w_c)
            a[at[:-cols], at[cols:]] = a[at[cols:], at[:-cols]] = -w_c
            b[:n, -1] = fed.ravel()
            if j:  # Schur update from the group above
                a[:cols, :cols] -= w_c * sweep[-1][-cols:, :-1]
                b[:cols, -1] += w_c * sweep[-1][-cols:, -1]
            if last:  # the free terminals border the last row
                at = n + np.arange(ends.size)
                a[at, at] = w_c + g_term
                a[at, n - cols + ends] = a[n - cols + ends, at] = -w_c
            else:  # solved for the coupling w_c to the next group's first row
                b[n - cols + diag, diag] = w_c
            sweep.append(np.linalg.solve(a, b))
        out = np.empty(rows * cols + ends.size)
        out[bounds[-2] * cols:] = sweep.pop()[:, 0]
        for j in reversed(range(n_groups - 1)):
            s = sweep.pop()
            out[bounds[j] * cols:bounds[j + 1] * cols] = \
                s[:, -1] + s[:, :-1] @ out[bounds[j + 1] * cols:][:cols]
        v_col = out[:rows * cols].reshape(rows, cols)
        v_term[ends] = out[rows * cols:]
    if not L:
        return np.zeros((0, rows)), v_col, v_term
    x = np.zeros((L, rows, 1))
    x[0, :, 0] = unit * drive
    np.add.at(x[:, :, 0], pos, (g * v_col).T)
    return _chain_solve(m, piv, w_r, x)[:, :, 0], v_col, v_term


def output_currents_nonideal(G: ConductanceMatrix, x: Excitation,
                             spec: NonIdealSpec) -> NodalSolution:
    """Solve the full resistive network and return the per-neuron currents.

    With an all-zero spec every node merges into a driver or a neuron terminal,
    so this reproduces the ideal dot product to rounding (no tiny resistors).
    """
    if x.values.shape[0] != G.n_rows:
        raise ValueError(f"excitation length {x.values.shape[0]} != rows {G.n_rows}")
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
    # unknowns (every row holds as many), the leftover rows joining the last
    per_row = (not voltage_mode) + cols * ((spec.r_wire_row > 0.0) + (spec.r_wire_col > 0.0))
    span = -(-MIN_GROUP_UNKNOWNS // per_row) if per_row else rows
    n_groups = max(rows // span, 1)
    n = unknown.size
    k = np.full(n_nodes, -1)
    k[unknown] = np.arange(n)

    # stamp each branch from its near end p, an unknown; v so far holds only
    # fixed potentials. The stamps then hold positions, q = -1 marking a
    # known far end.
    p, q, gpq = np.concatenate([a, c]), np.concatenate([c, a]), np.concatenate([g, g])
    near = k[p] >= 0
    b = np.bincount(k[p[near]], gpq[near] * v[q[near]], minlength=n)
    if not voltage_mode:
        b[k[src]] += x.values
    p, q, gpq = k[p[near]], k[q[near]], gpq[near]

    diag = np.bincount(p, gpq, minlength=n)
    is_floating = diag == 0.0
    if np.any(is_floating):
        node = int(unknown[is_floating].min())
        raise SingularNetworkError(
            f"floating node (supernode {node}) has no conductance to the rest "
            "of the network", node=node)
    try:
        if n_groups == 1:  # the diagonal, then every off-diagonal stamp
            off = q >= 0
            v[unknown] = np.linalg.solve(
                np.bincount(np.concatenate([np.arange(n) * (n + 1), p[off] * n + q[off]]),
                            np.concatenate([diag, -gpq[off]]), minlength=n * n).reshape(n, n), b)
        else:
            v_chain, v_col, v_term = _two_layer(G.g, x.values, voltage_mode, spec.r_wire_row,
                                                spec.r_wire_col, r_neuron, span, n_groups)
            # a chain is the driver node (current mode), then the row wire
            v[np.column_stack([src, rnode])[:, voltage_mode:][:, :len(v_chain)]] = v_chain.T
            v[cnode], v[term] = v_col, v_term
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


def dot_product_error(G: ConductanceMatrix, x: Excitation,
                      spec: NonIdealSpec) -> np.ndarray:
    """Per-column relative deviation of the non-ideal currents from ideal."""
    ideal = output_currents_ideal(G, x)
    actual = output_currents_nonideal(G, x, spec).neuron_currents
    err = np.zeros_like(ideal)
    nz = ideal != 0.0
    err[nz] = np.abs(actual[nz] - ideal[nz]) / np.abs(ideal[nz])
    err[~nz] = np.abs(actual[~nz])
    return err
