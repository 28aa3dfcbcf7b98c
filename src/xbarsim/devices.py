"""Square-law NMOS primitives.

All quantities are SI. Every modelled transistor is NMOS, as in the
regulated-cascode neuron, so no polarity is modelled. Memristive
conductances live in crossbar.ConductanceMatrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


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


@dataclass(frozen=True)
class MosEval:
    """Operating-region evaluation of a square-law device."""

    current: float
    region: Region
    gm: float
    gds: float

    @property
    def ro(self) -> float:
        return math.inf if self.gds == 0.0 else 1.0 / self.gds


def _square_law(p: MosParams, vgs: float, vds: float) -> tuple[float, Region, float, float]:
    """(current, region, gm, gds) for vds >= 0; the one copy of the formulas."""
    vov = vgs - p.vt
    if vov <= 0.0:
        return 0.0, Region.CUTOFF, 0.0, 0.0
    if vds < vov:
        return (p.beta * (vov * vds - 0.5 * vds * vds), Region.TRIODE,
                p.beta * vds, p.beta * (vov - vds))
    return (0.5 * p.beta * vov * vov * (1.0 + p.lam * vds), Region.SATURATION,
            p.beta * vov * (1.0 + p.lam * vds), 0.5 * p.beta * vov * vov * p.lam)


def mos_eval(p: MosParams, vgs: float, vds: float) -> MosEval:
    """Evaluate drain current and its analytic partial derivatives.

    Requires vds >= 0. Subthreshold conduction is zero. The (1+lam*vds)
    factor applies in saturation only, so with lam > 0 there is a small
    documented discontinuity at the triode/saturation boundary.
    """
    if vds < 0.0:
        raise ValueError(f"vds must be >= 0, got {vds}")
    return MosEval(*_square_law(p, vgs, vds))


def mos_current_signed(p: MosParams, vgs: float, vds: float) -> tuple[float, float, float]:
    """Drain current and partials (di/dvgs, di/dvds) valid for either vds sign.

    Used by nonlinear solvers whose Newton iterates may transiently reverse a
    drain-source pair. Negative vds is handled by the usual source/drain
    swap: i(vgs, vds) = -i(vgs - vds, -vds).
    """
    if vds >= 0.0:
        i, _, gm, gds = _square_law(p, vgs, vds)
        return i, gm, gds
    i, _, gm, gds = _square_law(p, vgs - vds, -vds)
    # chain rule through the swap
    return -i, -gm, gm + gds
