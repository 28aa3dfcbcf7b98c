"""Seeded Monte Carlo mismatch engine for the neuron's DC operating point.

Determinism contract: every run r derives its own generator from
np.random.default_rng([seed, r]), so results are bit-identical regardless
of evaluation order or worker count. A chip's neuron (li, j) draws from
np.random.default_rng([seed, li, j]) alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .neuron import RgcParams, SolverError, solve_dc
from .sar import sar_calibrate


@dataclass(frozen=True)
class MismatchSpec:
    """Independent per-device Gaussian perturbations.

    sigma_vt = 10 mV and sigma_beta_rel = 2% are fitted defaults chosen so
    the uncalibrated input-node spread lands near the measured prototype's
    10.35 mV, not published process data.
    """

    sigma_vt: float = 10e-3
    sigma_beta_rel: float = 0.02

    def __post_init__(self):
        if self.sigma_vt < 0 or self.sigma_beta_rel < 0:
            raise ValueError("mismatch sigmas must be >= 0")


def run_rng(seed: int, *keys: int) -> np.random.Generator:
    """The documented splitting function: the stream of (seed, *keys), such
    as (seed, run_index) for a Monte Carlo run."""
    return np.random.default_rng([seed, *keys])


def sample_params(nominal: RgcParams, spec: MismatchSpec,
                  rng: np.random.Generator) -> RgcParams:
    """Perturb every device's vt (additive) and beta (relative), clamped > 0.

    Draw order is fixed: m1, m2, m3, m5, each (vt, beta).
    """
    devs = []
    for name in ("m1", "m2", "m3", "m5"):
        dvt = rng.normal(0.0, spec.sigma_vt)
        dbeta = rng.normal(0.0, spec.sigma_beta_rel)
        devs.append(getattr(nominal, name).perturbed(dvt, dbeta))
    return nominal.with_devices(*devs)


@dataclass
class McResult:
    n_runs: int
    seed: int
    calibrated: bool
    vref: float
    nbits: int
    v_in_pre: np.ndarray
    v_in_post: np.ndarray
    codes: np.ndarray
    run_index: np.ndarray  # the run r of each successful sample
    mean_pre: float
    std_pre: float
    mean_post: float
    std_post: float
    excluded: int = 0
    out_of_range: int = 0
    failures: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "n_runs": self.n_runs, "seed": self.seed, "calibrated": self.calibrated,
            "vref": self.vref, "nbits": self.nbits,
            "mean_pre": self.mean_pre, "std_pre": self.std_pre,
            "mean_post": self.mean_post, "std_post": self.std_post,
            "excluded": self.excluded, "out_of_range": self.out_of_range,
            "failures": [[r, reason] for r, reason in self.failures],
        }

    def samples_table(self) -> tuple[list[str], list[list]]:
        """Per-run samples as (header, rows), each row labelled by its run."""
        rows = [[int(r), float(pre), float(post), int(code)] for r, pre, post, code
                in zip(self.run_index, self.v_in_pre, self.v_in_post, self.codes)]
        return ["run_index", "v_in_pre", "v_in_post", "code"], rows


def run_mc(nominal: RgcParams, spec: MismatchSpec, n_runs: int, seed: int,
           calibrate: bool = True, vref: float = 0.65,
           nbits: int | None = None) -> McResult:
    """Per run: perturb, solve at code 0, then (optionally) SAR-calibrate to
    vref and re-solve at the returned code. Unbiased (n-1) std estimator.

    Solver failures are excluded from statistics and counted; runs whose
    target falls outside the DAC range are retained but flagged.
    """
    if n_runs < 2:
        raise ValueError(f"n_runs must be >= 2, got {n_runs}")
    n = nbits if nbits is not None else nominal.dac.nbits

    pre, post, codes, runs = [], [], [], []
    excluded = 0
    out_of_range = 0
    failures = []
    for r in range(n_runs):
        rng = run_rng(seed, r)
        p = sample_params(nominal, spec, rng)
        try:
            op0 = solve_dc(p, 0.0, 0)
            if calibrate:
                res = sar_calibrate(lambda c: solve_dc(p, 0.0, c).v_in, vref, n)
                opc = solve_dc(p, 0.0, res.code)
                if not res.in_range:
                    out_of_range += 1
                code = res.code
            else:
                opc, code = op0, 0
        except SolverError as e:
            excluded += 1
            failures.append((r, str(e)))
            continue
        pre.append(op0.v_in)
        post.append(opc.v_in)
        codes.append(code)
        runs.append(r)

    pre = np.array(pre)
    post = np.array(post)
    if len(pre) < 2:
        raise SolverError(f"fewer than two successful runs ({excluded} excluded)")
    return McResult(
        n_runs=n_runs, seed=seed, calibrated=calibrate, vref=vref, nbits=n,
        v_in_pre=pre, v_in_post=post,
        codes=np.array(codes, dtype=int), run_index=np.array(runs, dtype=int),
        mean_pre=float(np.mean(pre)), std_pre=float(np.std(pre, ddof=1)),
        mean_post=float(np.mean(post)), std_post=float(np.std(post, ddof=1)),
        excluded=excluded, out_of_range=out_of_range, failures=failures,
    )
