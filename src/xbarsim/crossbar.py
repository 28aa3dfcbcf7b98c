"""Crossbar arrays: the bounded conductance matrix, ideal dot products and
full resistive nodal analysis.

The non-ideal solve works on the tile's structure. Each crossbar row is a
chain (its driver node in current mode, then its row wire's nodes), each
cross-point ties the chain to the column side (the column wires' nodes),
and each column wire ends at a neuron terminal with its finite input
resistance. A zero-ohm row wire merges its row into the driver, and a
zero-ohm column wire its column into the terminal, so the all-ideal case has
no unknowns and reduces to the matrix-vector product.

A tile of fewer than MIN_SWEPT_UNKNOWNS unknowns is one dense solve. A
larger one is solved in two layers: one Thomas sweep over chain positions
condenses every row's chain to a dense cols x cols block on its column-side
nodes; then, as column wires couple only neighbouring rows, one sweep down
the rows solves the column side with each row's block as a pivot, each
row's solve overwriting its block, and back-substitutes up from the last
row. The chain voltages follow from the column side's through the
condensation. Both solves return the chain, column-side and terminal
voltages, from which the neuron currents and both Tellegen powers follow.
Live in memory are two arrays: the chains' solutions, L x rows x (cols + 1)
doubles for a chain of L nodes, and the sweep's, rows x cols x (cols + 1).

A ConductanceMatrix may also be a stack of k same-shape tiles, such as a
layer's differential pair, solved under one drive and one spec. The set-up,
the checks and the post-processing run once over the stack, with a leading
tile axis. A swept stack is solved together: one chain condensation covers
every tile's rows, and one LAPACK call covers the stack per row of the
column-side sweep, its two live arrays k times as large. A stack of
one-group tiles makes one dense solve per tile. Each tile's answer equals,
bit for bit, its answer when solved alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.linalg._umath_linalg import solve as _solve


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

    A k x rows x cols array is a stack of k same-shape tiles, which
    output_currents_nonideal solves together; n_rows and n_cols are per tile.
    Every entry must lie in the programmable window [g_min, g_max], which
    must be finite: an infinite conductance leaves the nodal solve NaN.
    """

    g: np.ndarray
    g_min: float = 1e-6
    g_max: float = 1e-3

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=float)
        if self.g.ndim not in (2, 3) or 0 in self.g.shape:
            raise ValueError("conductance matrix must be 2-D, or a 3-D stack of tiles, "
                             f"got shape {self.g.shape}")
        # written so that NaN fails
        if not (0.0 < self.g_min <= self.g_max < np.inf):
            raise ValueError(f"need 0 < g_min <= g_max < inf, got {self.g_min}, {self.g_max}")
        if not (np.all(self.g >= self.g_min) and np.all(self.g <= self.g_max)):
            raise ValueError("conductance entries outside [g_min, g_max]")

    @property
    def n_rows(self) -> int:
        return self.g.shape[-2]

    @property
    def n_cols(self) -> int:
        return self.g.shape[-1]


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
        if not (self.r_wire_row >= 0 and self.r_wire_col >= 0 and (r >= 0).all()):
            raise ValueError("non-ideality resistances must be >= 0")
        return r


@dataclass
class NodalSolution:
    """Result of a full resistive-network solve; for a stack of k tiles,
    currents of shape k x cols and powers of shape k."""

    neuron_currents: np.ndarray
    p_source: float | np.ndarray
    p_dissipated: float | np.ndarray


def output_currents_ideal(G: ConductanceMatrix, x: Excitation) -> np.ndarray:
    """Column currents with ideal wires and ideal virtual-ground neurons.

    Voltage mode: I_j = sum_i G[i][j] * V_i (exact matrix-vector product).
    Current mode: each row's source current splits among its columns in
    proportion to the cross-point conductances.
    """
    if G.g.ndim != 2:
        raise ValueError(f"the ideal product takes one tile, got a stack of {G.g.shape[0]}")
    if x.values.shape[0] != G.n_rows:
        raise ValueError(f"excitation length {x.values.shape[0]} != rows {G.n_rows}")
    if x.mode is ExcitationMode.VOLTAGE:
        return G.g.T @ x.values
    row_sums = G.g.sum(axis=1)
    v_rows = x.values / row_sums
    return G.g.T @ v_rows


# A tile of fewer unknowns is one dense solve. First quartiles of 300 calls,
# dense vs swept (CHANGES.md): up to 128 unknowns one LAPACK call wins (8x4
# network tile: 85 vs 122 us), from 144 the row sweep does (6x12: 194 vs
# 168 us; 5x16: 232 vs 187 us; 11x8: 339 vs 172 us; 16x8 network tile: 725
# vs 208 us).
MIN_SWEPT_UNKNOWNS = 144


def _dense(g, drive, voltage_mode, chain, r_col, ends, diag):
    """Solve one tile too small for _two_layer as one dense system, its
    unknowns the drivers in current mode, the row wires' and then the column
    wires' nodes row by row, then the free terminals. Returns the tile's
    chain (L x rows), column-wire (rows x cols, or 0 x cols when the columns
    merge into their terminals) and terminal voltages (cols, 0 where
    grounded)."""
    rows, cols = g.shape
    d, w_r, pos, unit = chain
    L, lead = len(d), int(not voltage_mode)
    at = np.empty((L, rows), int)  # each chain position's unknown
    at[:lead] = np.arange(rows)
    at[lead:] = lead * rows + np.arange(rows * (L - lead)).reshape(rows, L - lead).T
    col = at.size + np.arange(rows * cols if r_col > 0.0 else 0).reshape(-1, cols)
    term = at.size + col.size + np.arange(ends.size)
    a, b = np.diag(diag), np.zeros(diag.size)
    a[at[:-1], at[1:]] = a[at[1:], at[:-1]] = -w_r
    to = col  # each cross-point's column-side unknown, -1 for ground
    if r_col > 0.0:
        a[col[:-1], col[1:]] = a[col[1:], col[:-1]] = -1.0 / r_col
        a[col[-1, ends], term] = a[term, col[-1, ends]] = -1.0 / r_col
    else:
        to = np.full((rows, cols), -1)
        to[:, ends] = term
    tied = to >= 0
    if L:
        frm = at[pos].T  # and its row-side one
        a[frm[tied], to[tied]] = a[to[tied], frm[tied]] = -g[tied]
        b[at[0]] = unit * drive
    else:  # fixed drivers feed the column side, a merged column in sequence
        np.add.at(b, to[tied], (g * drive[:, None])[tied])
    v = np.linalg.solve(a, b)
    v_term = np.zeros(cols)
    v_term[ends] = v[term]
    return v[at], v[col], v_term


def _two_layer(g, drive, voltage_mode, chain, r_col, ends, g_term):
    """Solve a stack of tiles too large for _dense in two layers (module
    docstring), every tile at once.

    g is rows x k x cols, each row's k tiles in turn, and so are the chains:
    chain i*k + t is tile t's row i. Chain position pos[j] ties to column j
    through g[i, t, j]. One Thomas sweep solves every chain T for
    y = T^-1 [g_row | unit e_0], which condenses it to diag(g_row) - g_row y
    on its column side, fed by g_row T^-1 e_0 per unit of drive, and later
    gives its voltages from the column side's. That block's diagonal is
    summed from its row sums (the conductance to a voltage driver, or 0),
    which has no cancellation, so charge is conserved to rounding. With
    ideal column wires the column side is the free terminals alone.
    Otherwise row i's pivot is its block plus its column-wire links, less
    w_c^2 times the row above's pivot inverse; a free terminal is eliminated
    in closed form, its feed and termination in series. Returns the chain
    voltages (k x L x rows), the column-side voltages (k x rows x cols) and
    the terminal voltages (k x cols, 0 where grounded).
    """
    rows, k, cols = g.shape
    d, w_r, pos, unit = chain
    L = len(d)
    diag = np.arange(cols)
    if L:
        y = np.zeros((L, rows * k, cols + 1))
        y[pos, :, diag] = g.reshape(-1, cols).T
        y[0, :, -1] = unit
        piv = d.copy()  # each diagonal exceeds its links, so every pivot is positive
        for t in range(1, L):
            m = w_r / piv[t - 1]
            piv[t] -= m * w_r
            y[t] += m[:, None] * y[t - 1]
        y[-1] /= piv[-1, :, None]
        for t in range(L - 2, -1, -1):
            y[t] += w_r * y[t + 1]
            y[t] /= piv[t, :, None]
        y = y.reshape(L, rows, k, cols + 1)
        # pos is a run of positions, or one position that every column ties to
        c = g[..., None] * y[pos[0]:pos[-1] + 1].transpose(1, 2, 0, 3)
    else:  # fixed drivers feed the column side directly
        c = np.zeros((rows, k, cols, cols + 1))
        c[..., -1] = g
    c[..., diag, diag] = 0.0
    block, fed = c[..., :-1], c[..., -1]  # each row's blocks and what they are fed
    link = np.zeros((rows, cols))  # each column-side node's column-wire links
    if r_col > 0.0:
        w_c = 1.0 / r_col
        link[0], link[1:] = w_c, 2 * w_c
        # a free terminal's feed and termination in series, below its link up
        link[-1, ends] = (w_c if rows > 1 else 0.0) + w_c * g_term / (w_c + g_term)
    ground = block.sum(3) + (fed if voltage_mode else 0.0) + link[:, None]
    np.negative(block, out=block)
    block[..., diag, diag] = ground
    fed *= drive[:, None, None]

    v_term = np.zeros((k, cols))
    if r_col == 0.0:  # each tile's row sums alone: numpy sums one column's rows pairwise
        a, b = (np.array([x[:, t].sum(0) for t in range(k)]) for x in (block, fed))
        a[:, ends, ends] += g_term
        v_term[:, ends] = np.linalg.solve(a[:, ends[:, None], ends], b[:, ends, None])[..., 0]
        v_col = np.broadcast_to(v_term, (rows, k, cols))
    else:  # row i's solves [w_c I | fed'] overwrite its blocks and feeds
        b, up = np.zeros((k, cols, cols + 1)), np.empty((k, cols, cols + 1))
        b[:, diag, diag] = w_c
        b_fed, up_block, up_fed = b[..., -1], up[..., :-1], up[..., -1]
        with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
            try:
                for i in range(rows):
                    a = block[i]
                    b_fed[...] = fed[i]
                    if i:  # Schur update from the row above
                        np.multiply(w_c, c[i - 1], out=up)
                        a -= up_block
                        b_fed += up_fed
                    _solve(a, b, out=c[i], signature="dd->d")
            except FloatingPointError as e:  # LAPACK met a singular pivot
                raise np.linalg.LinAlgError("Singular matrix") from e
        v = c[..., -1:]  # the feeds as columns, back-substituted in place up from the last row
        for i in range(rows - 2, -1, -1):
            v[i] += block[i] @ v[i + 1]
        v_col = fed
        v_term[:, ends] = w_c * v_col[-1][:, ends] / (w_c + g_term)
    if not L:
        return np.zeros((k, 0, rows)), v_col.transpose(1, 0, 2), v_term
    # T^-1 (unit drive e_0 + g_row v_col_row), read off the condensation
    v_chain = y[..., -1] * drive[:, None] + (y[..., None, :-1] @ v_col[..., None])[..., 0, 0]
    return v_chain.transpose(2, 0, 1), v_col.transpose(1, 0, 2), v_term


def output_currents_nonideal(G: ConductanceMatrix, x: Excitation,
                             spec: NonIdealSpec) -> NodalSolution:
    """Solve the full resistive network and return the per-neuron currents.

    With an all-zero spec every node merges into a driver or a neuron terminal,
    so this reproduces the ideal dot product to rounding (no tiny resistors).
    A stack of k tiles is solved under the one drive and spec, in one pass
    of set-up and post-processing (module docstring), and returns k rows of
    currents and k of each power, each equal to that tile's solution alone;
    a singular tile raises its own error.
    """
    if x.values.shape[0] != G.n_rows:
        raise ValueError(f"excitation length {x.values.shape[0]} != rows {G.n_rows}")
    g, drive = G.g if G.g.ndim == 3 else G.g[None], x.values  # a tile is a stack of one
    k, rows, cols = g.shape
    r_row, r_col = spec.r_wire_row, spec.r_wire_col
    r_neuron = spec.neuron_resistances(cols)
    voltage_mode = x.mode is ExcitationMode.VOLTAGE
    lead = int(not voltage_mode)  # a current driver heads its row's chain
    # one dense solve per tile unless it has MIN_SWEPT_UNKNOWNS unknowns
    per_row = lead + cols * ((r_row > 0.0) + (r_col > 0.0))
    swept = per_row and rows * per_row >= MIN_SWEPT_UNKNOWNS
    # current sources fix no potential: only a termination at the end of a
    # column wire ties the array to ground
    if not voltage_mode and (np.isinf(r_col) or np.all(np.isinf(r_neuron))):
        raise SingularNetworkError("current-mode network has no path to ground: the "
                                   "column wires or all neuron terminations are open")

    # each node's diagonal; the chains are every row's tiles in turn: chain
    # i*k + t is tile t's row i
    g_rows = g.transpose(1, 0, 2).reshape(rows * k, cols)
    if r_row > 0.0:
        w_r, L, pos = 1.0 / r_row, cols + lead, np.arange(lead, cols + lead)
        d = np.concatenate([np.full((lead, rows * k), w_r), g_rows.T + w_r])
        d[lead:-1] += w_r  # the row wire's far end links one way only
    else:  # a driver with its ideal row wire, unless the driver is fixed
        w_r, L, pos = 0.0, lead, np.zeros(cols, int)
        d = g_rows.sum(1)[None] if L else np.empty((0, rows * k))
    # the chain's diagonals, link, positions and what a unit drive feeds into position 0
    chain = (d, w_r, pos, w_r if voltage_mode else 1.0)
    ends = (r_neuron > 0.0).nonzero()[0]  # the free terminals
    g_term = 1.0 / r_neuron[ends]
    if r_col > 0.0:
        w_c = 1.0 / r_col
        d_col = np.concatenate([w_c + g[:, :1], w_c + g[:, 1:] + w_c], 1)
        d_term = (g_term + w_c)[None].repeat(k, 0)
    else:  # a column merged into its terminal
        d_col = g[:, :0]
        d_term = g_term + g[:, :, ends].sum(1)
    d_tile = d.reshape(L, rows, k)
    diag = np.concatenate([d_tile[:lead].transpose(2, 0, 1).reshape(k, -1),
                           d_tile[lead:].transpose(2, 1, 0).reshape(k, -1),
                           d_col.reshape(k, -1), d_term], 1)  # each tile's, in node order
    if not diag.all():  # node ids count ground, drivers, both wire layers, terminals
        t = np.argmin(diag.all(1))  # the first tile with a floating node
        unknown = np.repeat([lead, r_row > 0.0, r_col > 0.0], [rows, rows * cols, rows * cols])
        node = 1 + int(np.flatnonzero(np.append(unknown, r_neuron > 0.0))[np.argmin(diag[t])])
        raise SingularNetworkError(f"floating node (supernode {node}) has no conductance "
                                   "to the rest of the network", node=node)
    # open row wires leave an open-terminated column no path to a fixed potential
    if voltage_mode and np.isinf(r_row) and r_col < np.inf and np.any(np.isinf(r_neuron)):
        j = int(np.argmax(np.isinf(r_neuron)))
        node = 1 + rows + 2 * rows * cols + j  # its terminal
        raise SingularNetworkError(f"floating column {j} (supernode {node}): its termination "
                                   "and the row wires are open", node=node)

    try:
        if swept:
            v_chain, v_col, v_term = _two_layer(g_rows.reshape(rows, k, cols), drive,
                                                voltage_mode, chain, r_col, ends, g_term)
        else:  # one dense solve per tile
            v_chain, v_col, v_term = map(np.stack, zip(*(
                _dense(g[t], drive, voltage_mode, chain, r_col, ends, diag[t])
                for t in range(k))))
            if r_col == 0.0:  # a merged column is at its terminal's voltage
                v_col = np.broadcast_to(v_term[:, None], (k, rows, cols))
    except np.linalg.LinAlgError as e:
        raise SingularNetworkError(f"nodal system is singular: {e}") from e

    # branch voltages and currents: cross-points, terminations, row wires (the
    # driver's feed, then between cross-points) and column wires (between
    # cross-points, then the terminal's feed)
    v_src = drive if voltage_mode else v_chain[:, 0]
    v_row = v_chain[:, pos].transpose(0, 2, 1) if L else drive[:, None]
    v_free = v_term[:, ends]
    dv, gb = [v_row - v_col, v_free], [g, g_term]
    if r_row > 0.0:
        v = np.empty((k, rows, cols + 1))
        v[..., 0], v[..., 1:] = v_src, v_row
        dv, gb = dv + [v[..., :-1] - v[..., 1:]], gb + [w_r]
    if r_col > 0.0:
        v = np.concatenate([v_col, v_term[:, None]], 1)
        dv, gb = dv + [v[:, :-1] - v[:, 1:]], gb + [w_c]
    i_b = [c * u for c, u in zip(gb, dv)]
    # a neuron's current flows through its termination, or into its grounded
    # terminal from the column wire's feed or from its merged column
    currents = i_b[-1][:, -1].copy() if r_col > 0.0 else i_b[0].sum(1)
    currents[:, ends] = v_free / r_neuron[ends]

    # Tellegen's powers, per tile one dot product of contiguous operands (BLAS sums
    # a strided one in another order). By KCL a voltage driver sends its row's
    # cross-point currents summed; its feed segment's drop would lose digits
    dual = i_b[0].sum(2) if voltage_mode else v_src
    p_source = [float(drive @ np.ascontiguousarray(dual[t])) for t in range(k)]
    p_dissipated = [float(np.concatenate([a[t] for a in i_b], None)
                          @ np.concatenate([u[t] for u in dv], None)) for t in range(k)]
    if G.g.ndim == 2:  # the currents as an array of their own, not a view of the stack's
        return NodalSolution(currents[0].copy(), p_source[0], p_dissipated[0])
    return NodalSolution(currents, np.array(p_source), np.array(p_dissipated))

