"""Regulated-cascode transimpedance neuron: DC solver, small-signal report
and transfer-curve sweeps.

Topology (all NMOS, square-law):

  * M1 - common-gate input device; source at the input node X, gate driven
    by the feedback amplifier output G, drain at the cascode mid node Y.
  * M2 - common-source feedback amplifier; gate at X, drain at G, loaded by
    the I_B2 current source (Norton: ideal current in parallel with its
    incremental resistance ro_b2 to VDD) plus the binary-weighted PMOS
    calibration DAC current.
  * M3 - cascode/output device; gate at the fixed bias vb3, source at Y,
    drain at the output node O, which is pulled up by r_load to VDD.
  * M5 - single-transistor RGC gain device; not part of the solved network,
    used only for the tuned-transconductance report.

  An ideal current sink draws the main bias ib from X; the signal current
  i_in from the crossbar column enters X. A second, structurally identical
  DAC can inject current into O to trim the output DC point.

The loop M1/M2 divides the input impedance by the feedback gain, which is
what lets the crossbar column sit near virtual ground. The square law's one
copy is devices.mos_current_signed; OperatingPoint and MosEval are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.linalg._umath_linalg import solve1 as _solve1

from .devices import MosEval, MosParams, Region, mos_current_signed, mos_eval

KCL_TOL = 1e-12  # 1 pA
MAX_ITER = 200
MAX_HALVINGS = 20


class SolverError(RuntimeError):
    """DC solve failed (non-convergence or infeasible bias)."""


@dataclass(frozen=True)
class DacSpec:
    """Binary-weighted current DAC: i = code * i_unit."""

    i_unit: float
    nbits: int

    def __post_init__(self):
        if not 0.0 < self.i_unit < math.inf:
            raise ValueError(f"i_unit must be finite and > 0, got {self.i_unit}")
        if not (1 <= self.nbits <= 24):
            raise ValueError(f"nbits must be in [1, 24], got {self.nbits}")


def dac_current(dac: DacSpec, code: int) -> float:
    """Ideal binary-weighted DAC output current; strictly monotone in code."""
    if not (0 <= code < (1 << dac.nbits)):
        raise ValueError(f"code {code} out of range for {dac.nbits} bits")
    return code * dac.i_unit


@dataclass(frozen=True)
class RgcParams:
    """Complete parameter set of one neuron."""

    m1: MosParams
    m2: MosParams
    m3: MosParams
    m5: MosParams
    ib: float = 5e-6          # main bias current (measured-prototype nominal)
    ib2: float = 4e-6         # feedback-branch bias current
    ro_b2: float = math.inf   # incremental resistance of the I_B2 source
    vc: float = 0.2           # RGC control voltage
    vdd: float = 1.0          # supply (measured-prototype nominal)
    vb3: float = 1.15         # cascode gate bias
    r_load: float = 20e3      # output pull-up
    dac: DacSpec = DacSpec(i_unit=0.125e-6, nbits=6)
    dac_out: DacSpec = DacSpec(i_unit=0.125e-6, nbits=6)

    def __post_init__(self):
        # the config's bounds, each written so that NaN fails it
        for name in ("ib", "ib2", "vdd", "r_load"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if not self.ro_b2 > 0.0:
            raise ValueError(f"ro_b2 must be > 0 (inf for an ideal source), got {self.ro_b2}")
        for name in ("vc", "vb3"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    def with_devices(self, m1=None, m2=None, m3=None, m5=None) -> "RgcParams":
        return RgcParams(m1 or self.m1, m2 or self.m2, m3 or self.m3, m5 or self.m5, self.ib,
                         self.ib2, self.ro_b2, self.vc, self.vdd, self.vb3, self.r_load,
                         self.dac, self.dac_out)  # in field order: half replace()'s cost


def reference_params() -> RgcParams:
    """Documented nominal neuron (vdd and ib from the measured prototype;
    device betas/thresholds are fitted defaults, not published values)."""
    return RgcParams(
        m1=MosParams(beta=1e-3, vt=0.3, lam=0.05),
        m2=MosParams(beta=200e-6, vt=0.4, lam=0.05),
        m3=MosParams(beta=1e-3, vt=0.3, lam=0.05),
        m5=MosParams(beta=200e-6, vt=0.4, lam=0.0),
        ib=5e-6, ib2=4e-6, ro_b2=2e6, vc=0.2, vdd=1.0,
        vb3=1.15, r_load=20e3,
    )


class OperatingPoint(NamedTuple):
    """Solved DC state, immutable and equal by value; KCL residual <= 1 pA at every node."""

    v_in: float
    v_gate1: float
    v_mid: float
    v_out: float
    i_stack: float     # current through M1/M3
    i_fb: float        # feedback-branch current ib2 + i_dac
    i_dac_out: float
    m1: MosEval
    m2: MosEval
    m3: MosEval
    iterations: int
    residual: float
    code: int = 0
    out_code: int = 0

    def as_dict(self) -> dict:
        return {
            "v_in": self.v_in, "v_gate1": self.v_gate1, "v_mid": self.v_mid,
            "v_out": self.v_out, "i_stack": self.i_stack, "i_fb": self.i_fb,
            "i_dac_out": self.i_dac_out, "iterations": self.iterations,
            "residual": self.residual, "code": self.code, "out_code": self.out_code,
            "regions": {"m1": self.m1.region.value, "m2": self.m2.region.value,
                        "m3": self.m3.region.value},
        }


@dataclass(frozen=True)
class SmallSignalReport:
    """Hand-analysis small-signal quantities at a solved operating point."""

    a: float          # feedback-amplifier voltage gain
    zin: float        # input impedance
    rout: float       # cascode output impedance
    gm_tuned: float   # tuned effective transconductance of the RGC transconductor


def check_input_current(p: RgcParams, i_in: float) -> None:
    """Raise SolverError if i_in is not finite, or if it leaves M1, which
    carries ib - i_in, no current."""
    if not math.isfinite(i_in):
        raise SolverError(f"input current {i_in} is not finite")
    if p.ib - i_in <= 0.0:
        raise SolverError(f"input current {i_in:.6g} exceeds main bias {p.ib:.6g}: M1 forced "
                          "into cutoff (infeasible bias)")


def solve_dc(p: RgcParams, i_in: float = 0.0, code: int = 0,
             out_code: int = 0) -> OperatingPoint:
    """Solve the neuron's DC operating point by damped Newton iteration,
    halving the step while the residual norm does not fall.

    Unknowns are (v_in, v_gate1, v_mid, v_out), held as Python floats. With
    lambda = 0 and an ideal I_B2 source the input node has the closed form
    v_in = vt2 + sqrt(2*(ib2 + i_dac)/beta2), which external oracles use.

    The iterates must stay bit-identical to np.linalg.solve's. The step
    calls the gufunc that solve dispatches to for a 1-D right-hand side
    (LAPACK dgesv) on float64 arrays, under the FP-error policy that solve
    sets on every call, set once per call here, so a singular matrix raises
    instead of calling a handler. TestArrayReferenceSolve checks that
    against the array oracle, so a numpy upgrade that changes the kernel or
    the policy fails there. The step solves J d = f and subtracts t*d: the
    pivoting never looks at the right-hand side and round-to-nearest is
    symmetric under negation, so this is the v + t*dv of J dv = -f to the bit.
    """
    i_dac = dac_current(p.dac, code)
    i_daco = dac_current(p.dac_out, out_code)
    i_fb = p.ib2 + i_dac
    check_input_current(p, i_in)
    g_b2 = 0.0 if math.isinf(p.ro_b2) else 1.0 / p.ro_b2
    g_l = 1.0 / p.r_load
    m1, m2, m3, ib, vdd, vb3 = p.m1, p.m2, p.m3, p.ib, p.vdd, p.vb3

    def kcl(vin, vg, vy, vo):
        """KCL residuals at X, G, Y and O, the six device partials, the norm."""
        i1, d1g, d1d = mos_current_signed(m1, vg - vin, vy - vin)
        i2, d2g, d2d = mos_current_signed(m2, vin, vg)
        i3, d3g, d3d = mos_current_signed(m3, vb3 - vy, vo - vy)
        r0 = i_in + i1 - ib
        r1 = i_fb + (vdd - vg) * g_b2 - i2
        r2 = i3 - i1
        r3 = (vdd - vo) * g_l + i_daco - i3
        return ((r0, r1, r2, r3), (d1g, d1d, d2g, d2d, d3g, d3d),
                max(abs(r0), abs(r1), abs(r2), abs(r3)))

    # closed-form-flavored initial guess
    vin0 = m2.vt + math.sqrt(2.0 * i_fb / m2.beta)
    vg0 = vin0 + m1.vt + math.sqrt(2.0 * max(ib - i_in, 1e-12) / m1.beta)
    vy0 = max(vb3 - m3.vt - math.sqrt(2.0 * max(ib - i_in, 1e-12) / m3.beta), vin0 + 0.05)
    vo0 = vdd - p.r_load * (ib - i_in - i_daco)
    v = (vin0, vg0, vy0, vo0)
    f, dev, norm = kcl(*v)
    # per call, not shared: the gufunc releases the GIL
    jac, res = np.zeros((4, 4)), np.empty(4)
    jm, rm = memoryview(jac), memoryview(res)
    with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
        for it in range(1, MAX_ITER + 1):
            if norm <= KCL_TOL * 1e-3:
                iters = it - 1
                break
            d1g, d1d, d2g, d2d, d3g, d3d = dev
            jm[0, 0], jm[0, 1], jm[0, 2] = -(d1g + d1d), d1g, d1d
            jm[1, 0], jm[1, 1] = -d2g, -g_b2 - d2d
            jm[2, 0], jm[2, 1], jm[2, 2], jm[2, 3] = d1g + d1d, -d1g, -(d3g + d3d) - d1d, d3d
            jm[3, 2], jm[3, 3] = d3g + d3d, -g_l - d3d
            rm[0], rm[1], rm[2], rm[3] = f
            try:
                s0, s1, s2, s3 = _solve1(jac, res, signature="dd->d").tolist()
            except FloatingPointError as e:
                raise SolverError(f"singular Jacobian at iteration {it}") from e
            vin, vg, vy, vo = v
            t = 1.0
            for _ in range(MAX_HALVINGS + 1):
                v_new = (vin - t * s0, vg - t * s1, vy - t * s2, vo - t * s3)
                f_new, dev_new, norm_new = kcl(*v_new)
                if norm_new < norm or norm_new <= KCL_TOL * 1e-3:
                    break
                t *= 0.5
            if norm_new >= norm:
                if norm > KCL_TOL:
                    raise SolverError(f"Newton stalled at iteration {it}: residual {norm:.3e} A")
                iters = it  # converged; damping makes no further progress
                break
            v, f, dev, norm = v_new, f_new, dev_new, norm_new
        else:
            if norm > KCL_TOL:
                raise SolverError(f"Newton did not converge: last residual {norm:.3e} A")
            iters = MAX_ITER
    vin, vg, vy, vo = v
    e1 = mos_eval(m1, vg - vin, vy - vin) if vy >= vin else None
    e2 = mos_eval(m2, vin, vg) if vg >= 0 else None
    e3 = mos_eval(m3, vb3 - vy, vo - vy) if vo >= vy else None
    if e1 is None or e2 is None or e3 is None:
        raise SolverError("converged to a reversed drain-source pair; bias infeasible")
    for name, e in (("m1", e1), ("m2", e2), ("m3", e3)):
        if e.region is Region.CUTOFF:
            raise SolverError(f"{name} is in cutoff at the solution (infeasible bias)")
    # in field order: keywords would cost more than twice as much
    return OperatingPoint(vin, vg, vy, vo, e1.current, i_fb, i_daco, e1, e2, e3, iters, norm,
                          code, out_code)


def gm_tuned(p: RgcParams, i_c: float) -> float:
    """Tuned transconductance of the single-transistor RGC transconductor.

    The drain-source voltage of the bottom device settles at
    vc + sqrt(2*i_c/beta5) + vt5, so the effective transconductance
    beta1 * vds1 is adjustable through vc (preferred) or i_c.
    """
    if i_c <= 0.0:
        raise ValueError("i_c must be > 0")
    v_ds1 = p.vc + math.sqrt(2.0 * i_c / p.m5.beta) + p.m5.vt
    return p.m1.beta * v_ds1


def small_signal(p: RgcParams, op: OperatingPoint) -> SmallSignalReport:
    """First-order small-signal report at a solved operating point.

    a    = gm2 * (ro2 || ro_b2)
    zin  = 1 / (a * gm1)
    rout = gm3 * ro3 * ro1      (cascode looking into M3's drain)

    Requires M2 and M3 in saturation (M1 may legitimately sit in triode).
    """
    for name, e in (("m2", op.m2), ("m3", op.m3)):
        if e.region is not Region.SATURATION:
            raise ValueError(f"small-signal formulas need {name} in saturation, "
                             f"found {e.region.value}")
    ro2, rb = op.m2.ro, p.ro_b2
    r_par = rb if math.isinf(ro2) else ro2 if math.isinf(rb) else ro2 * rb / (ro2 + rb)
    a = op.m2.gm * r_par
    zin = 0.0 if math.isinf(a) else 1.0 / (a * op.m1.gm)
    rout = op.m3.gm * op.m3.ro * op.m1.ro
    return SmallSignalReport(a=a, zin=zin, rout=rout, gm_tuned=gm_tuned(p, op.i_fb))


@dataclass
class TransferCurve:
    """Sampled i_in -> v_out characteristic. KCL at a solved point gives
    v_out = vdd - r_load*(ib - i_in - i_dac_out), so every feasible point
    lies on one line of slope r_load."""

    i_in: np.ndarray
    v_out: np.ndarray
    infeasible: list = field(default_factory=list)


def transfer_curve(p: RgcParams, code: int, i_values) -> TransferCurve:
    """Sweep the input current and report v_out at each feasible point;
    infeasible points are flagged with their reason, not fatal."""
    outs, feasible, infeasible = [], [], []
    for i in np.asarray(i_values, dtype=float):
        try:
            outs.append(solve_dc(p, float(i), code).v_out)
            feasible.append(float(i))
        except SolverError as e:
            infeasible.append((float(i), str(e)))
    if not feasible:
        raise SolverError("no feasible sweep points")
    return TransferCurve(i_in=np.array(feasible), v_out=np.array(outs),
                         infeasible=infeasible)
