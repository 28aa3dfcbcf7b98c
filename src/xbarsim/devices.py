"""Square-law NMOS primitives.

All quantities are SI. Every modelled transistor is NMOS, as in the
regulated-cascode neuron, so no polarity is modelled. Memristive
conductances live in crossbar.ConductanceMatrix.
The square law has one copy, in mos_current_signed, which the neuron's
Newton calls; mos_eval adds the region and returns an immutable MosEval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple


class Region(Enum):
    CUTOFF = "cutoff"
    TRIODE = "triode"
    SATURATION = "saturation"


@dataclass(frozen=True)
class MosParams:
    """Square-law NMOS parameters.

    beta is the full transconductance parameter (A/V^2), i.e. the drain
    current in saturation is (beta/2)*(vgs-vt)^2*(1+lam*vds).
    """

    beta: float
    vt: float
    lam: float = 0.0

    def __post_init__(self):
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if self.lam < 0.0 or not math.isfinite(self.lam):
            raise ValueError(f"lambda must be >= 0 and finite, got {self.lam}")
        if not math.isfinite(self.vt):
            raise ValueError(f"vt must be finite, got {self.vt}")

    def perturbed(self, dvt: float, dbeta_rel: float) -> "MosParams":
        """Return a copy with vt shifted and beta scaled (beta kept > 0)."""
        beta = max(self.beta * (1.0 + dbeta_rel), 1e-15)
        return MosParams(beta, self.vt + dvt, self.lam)


class MosEval(NamedTuple):
    """Operating-region evaluation of a square-law device; immutable, equal by value."""

    current: float
    region: Region
    gm: float
    gds: float

    @property
    def ro(self) -> float:
        return math.inf if self.gds == 0.0 else 1.0 / self.gds


def mos_eval(p: MosParams, vgs: float, vds: float) -> MosEval:
    """Evaluate drain current and its analytic partial derivatives.

    Requires vds >= 0. Subthreshold conduction is zero. The (1+lam*vds)
    factor applies in saturation only, so with lam > 0 there is a small
    documented discontinuity at the triode/saturation boundary.
    """
    if vds < 0.0:
        raise ValueError(f"vds must be >= 0, got {vds}")
    i, gm, gds = mos_current_signed(p, vgs, vds)
    vov = vgs - p.vt
    region = Region.CUTOFF if vov <= 0.0 else Region.TRIODE if vds < vov else Region.SATURATION
    return MosEval(i, region, gm, gds)


def mos_current_signed(p: MosParams, vgs: float, vds: float) -> tuple[float, float, float]:
    """Drain current and partials (di/dvgs, di/dvds) valid for either vds sign.

    Used by nonlinear solvers whose Newton iterates may transiently reverse a
    drain-source pair. Negative vds is handled by the usual source/drain
    swap: i(vgs, vds) = -i(vgs - vds, -vds).
    """
    if vds >= 0.0:
        beta, vov = p.beta, vgs - p.vt
        if vov <= 0.0:
            return 0.0, 0.0, 0.0
        if vds < vov:
            return beta * (vov * vds - 0.5 * vds * vds), beta * vds, beta * (vov - vds)
        half, clm = 0.5 * beta * vov * vov, 1.0 + p.lam * vds
        return half * clm, beta * vov * clm, half * p.lam
    if vds != vds:  # NaN, on which the swap would recurse without end
        return math.nan, math.nan, math.nan
    i, gm, gds = mos_current_signed(p, vgs - vds, -vds)
    # chain rule through the swap
    return -i, -gm, gm + gds
