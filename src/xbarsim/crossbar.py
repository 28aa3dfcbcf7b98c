"""Crossbar array solves: ideal dot products and full resistive nodal analysis.

The non-ideal solve assembles the complete resistive network (row wire
segments, cross-point conductances, column wire segments, finite neuron
input resistances) and solves it by dense direct factorization. Zero-ohm
wires are handled structurally by node merging: with zero row-wire
resistance each whole row merges into its driver node, and with zero
column-wire resistance each whole column merges into its neuron terminal.
So the all-ideal case has no unknowns and reduces to the matrix-vector
product.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path

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
    """rows x cols memristor conductances (Siemens); the stored weights."""

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

    @classmethod
    def from_csv(cls, path: str | Path, g_min: float = 1e-6, g_max: float = 1e-3
                 ) -> "ConductanceMatrix":
        """Load a row-major CSV of conductances in Siemens (header optional)."""
        rows = []
        with open(path, "r", encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                cells = [c.strip() for c in line.split(",")]
                try:
                    rows.append([float(c) for c in cells])
                except ValueError:
                    if not rows:  # header line
                        continue
                    raise
        return cls(np.array(rows, dtype=float), g_min=g_min, g_max=g_max)

    def to_csv(self, path: str | Path) -> None:
        np.savetxt(path, self.g, delimiter=",")


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

    def scaled(self, factor: float) -> "NonIdealSpec":
        r = np.asarray(self.r_neuron_in, dtype=float) * factor
        return NonIdealSpec(self.r_wire_row * factor, self.r_wire_col * factor, r)


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
