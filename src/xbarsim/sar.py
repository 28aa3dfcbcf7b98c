"""Successive-approximation binary search: the normalized recurrence and
the circuit-facing calibration of an increasing code->voltage plant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable


def sar_normalized_converge(x: float, n: int) -> tuple[float, list[float]]:
    """Iterate x_i = x_{i-1} - s(x_{i-1} - x)/2^i from x_0 = 0 for n steps,
    where s is the signum with s(0) = +1; |x_n - x| <= 1/2^n is guaranteed.

    Returns (x_n, [x_0 .. x_n]).
    """
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"normalized value must lie in [-1, 1], got {x}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    xi = 0.0
    traj = [xi]
    for i in range(1, n + 1):
        xi -= (1.0 if xi - x >= 0.0 else -1.0) / (2.0 ** i)
        traj.append(xi)
    return xi, traj


@dataclass
class SarResult:
    code: int
    value: float            # plant output at the returned code
    comparisons: int
    in_range: bool
    transcript: list = field(default_factory=list)  # (bit, trial_code, plant_value, kept)


def sar_calibrate(plant: Callable[[int], float], vref: float, nbits: int) -> SarResult:
    """Binary-search an increasing code->voltage plant toward vref.

    MSB-first: each trial bit is cleared exactly when the plant output at
    the trial code exceeds vref. Exactly nbits comparator decisions are
    made; whenever vref lies inside the plant's range the returned code is
    within one local LSB step of the exhaustive-search optimum.

    A comparator offset is the same search toward vref + offset, and a
    decreasing plant is the negated plant searched toward -vref.
    """
    if not math.isfinite(vref):
        raise ValueError("vref must be finite")
    if nbits < 1:
        raise ValueError(f"need nbits >= 1, got {nbits}")
    code = 0
    transcript = []
    for bit in range(nbits):
        trial = code | (1 << (nbits - 1 - bit))
        v = plant(trial)
        keep = not (v > vref)
        transcript.append((bit, trial, v, keep))
        if keep:
            code, value = trial, v
    if code == 0:
        # every bit was cleared, so code 0 itself was never probed
        value = plant(0)
    full = (1 << nbits) - 1
    in_range = not (code == 0 and value > vref) and not (code == full and value < vref)
    return SarResult(code=code, value=value, comparisons=nbits,
                     in_range=in_range, transcript=transcript)
