"""Crossbar arrays: the bounded conductance matrix, ideal dot products and
full resistive nodal analysis.

The non-ideal solve assembles the complete resistive network (row wire
segments, cross-point conductances, column wire segments, finite neuron
input resistances) and solves it by block elimination over groups of
consecutive crossbar rows: column wires couple only neighbouring groups,
and the neuron terminals form a border coupled to the last group (or to
every group when the column wires are ideal), so one forward sweep of
small dense solves and one solve of the last group with the border cover
the whole network without forming its n x n matrix. The sweep holds one
group's block at a time, so memory grows with the solutions it keeps for
back-substitution, about n x (coupling width + 1) doubles, and not with the
sum of squared group sizes. A tile too small to fill two groups is one
dense solve.

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


# Fewest unknowns in one row group of the nodal block solve: a tile whose
# rows cannot fill two groups is solved as one dense system. Set from a
# sweep of the solve time over tile shapes (CHANGES.md). 48 and 64 solve
# the bench's nodal tiles ~20% faster, but they also speed up the 16x8
# network tile enough that bench/run.py, which keeps every pass, reports
# infer_nonideal's peak memory at its +10% bound; 96 stays well inside it.
MIN_GROUP_UNKNOWNS = 96


def _eliminate(p, q, entry, b, start) -> np.ndarray:
    """Solve a symmetric system of row groups by block elimination.

    Group j holds positions start[j]:start[j + 1] of the right-hand side b.
    The stamps (p, q, entry) sum, in their order, to the entries of the
    groups' diagonal blocks and to those at (p, q) with p in an earlier group
    than q; the rest is their transpose. Each group couples to at most one
    later group, its target, through its coupling C_j. The sweep stamps a
    group's block and C_j when it first needs them, as the current group or
    as a target, solves the group for C_j and b, updates its target with the
    Schur complement and drops both, keeping only the size_j x (width of C_j
    + 1) solution that back-substitution reads. The last group is solved
    whole, then every group back-substitutes. b is overwritten.
    """
    n_groups, n = start.size - 1, b.size
    size = np.diff(start)
    group = np.searchsorted(start, p, side="right") - 1
    row = p - start[group]
    ahead = q >= start[group + 1]
    # group j's coupling C_j has a column for each unknown iface[j] it touches
    key, col = np.unique(group[ahead] * n + q[ahead], return_inverse=True)
    first = np.searchsorted(key // n, np.arange(n_groups + 1))
    width = np.diff(first)
    iface = [key[first[j]:first[j + 1]] % n for j in range(n_groups)]
    # group j is stamped flat, its block then C_j; a stable sort by group
    # keeps each entry's stamps in their order
    at = row * size[group] + q - start[group]
    ga = group[ahead]
    at[ahead] = size[ga] ** 2 + row[ahead] * width[ga] + col - first[ga]
    order = np.argsort(group, kind="stable")
    at, entry = at[order], entry[order]
    cut = np.searchsorted(group[order], np.arange(n_groups + 1))
    del group, row, ahead, ga, order  # only the sorted stamps outlive this
    flat = [None] * n_groups

    def stamped(j):  # group j's block and C_j, stamped when first needed
        if flat[j] is None:
            flat[j] = np.bincount(at[cut[j]:cut[j + 1]], entry[cut[j]:cut[j + 1]],
                                  minlength=size[j] * (size[j] + width[j]))
        return (flat[j][:size[j] ** 2].reshape(size[j], size[j]),
                flat[j][size[j] ** 2:].reshape(size[j], width[j]))

    sweep = []
    for j in range(n_groups - 1):
        block, cj = stamped(j)
        flat[j] = None
        sol = np.linalg.solve(block, np.column_stack([cj, b[start[j]:start[j + 1]]]))
        sweep.append(sol)
        if width[j]:
            t = np.searchsorted(start, iface[j][0], side="right") - 1
            local = iface[j] - start[t]
            stamped(t)[0][np.ix_(local, local)] -= cj.T @ sol[:, :-1]
            b[iface[j]] -= cj.T @ sol[:, -1]
    x = np.empty(n)
    x[start[-2]:] = np.linalg.solve(stamped(n_groups - 1)[0], b[start[-2]:])
    for j in reversed(range(n_groups - 1)):
        x[start[j]:start[j + 1]] = sweep[j][:, -1] - sweep[j][:, :-1] @ x[iface[j]]
    return x


def _solve_network(G: ConductanceMatrix, x: Excitation, spec: NonIdealSpec) -> NodalSolution:
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

    # stamp each branch from its near end p, an unknown; v so far holds only
    # fixed potentials. The stamps then hold positions, q = -1 marking a
    # known far end. A branch between two groups couples the earlier one to
    # its next group (a column wire) or to the last one (merged columns).
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
    # the diagonal, then every off-diagonal entry not below the group blocks
    upper = (q >= 0) & (gid[p] <= gid[q])
    p, q, gpq = (np.concatenate([np.arange(n), p[upper]]),
                 np.concatenate([np.arange(n), q[upper]]), np.concatenate([diag, -gpq[upper]]))
    try:
        if n_groups == 1:
            v[unknown] = np.linalg.solve(np.bincount(p * n + q, gpq, minlength=n * n)
                                         .reshape(n, n), b)
        else:
            v[unknown] = _eliminate(p, q, gpq, b, start)
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


def output_currents_nonideal(G: ConductanceMatrix, x: Excitation,
                             spec: NonIdealSpec) -> NodalSolution:
    """Solve the full resistive network and return the per-neuron currents.

    With an all-zero spec every node merges into a driver or a neuron terminal,
    so this reproduces the ideal dot product to rounding (no tiny resistors).
    """
    if x.values.shape[0] != G.n_rows:
        raise ValueError(f"excitation length {x.values.shape[0]} != rows {G.n_rows}")
    return _solve_network(G, x, spec)


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
