"""Layer-wise pruning-ratio schedules and retention-budget calibration.

The pruning ratio ramps from p_init to p_final across decoder layers along a
sigmoid (or, as an ablation variant, an exponential) in normalized depth
l/(L-2); the final layer never prunes. Retention entering each layer follows
the geometric recurrence r_{l+1} = r_l * (1 - p_l), and calibration inverts
the mean of that recurrence to hit a target average retained ratio.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from statistics import fmean

from .errors import Infeasible, InvalidInput

# Bisection stops once the achieved mean is this close to the target, or after this many halvings.
_BISECTION_TOL = 1e-6
_BISECTION_MAX_ITER = 100


class ScheduleKind(enum.Enum):
    SIGMOID = "sigmoid"
    EXPONENTIAL = "exponential"


@dataclass(frozen=True)
class PruneScheduleConfig:
    """Parameters of the layer-wise pruning schedule."""

    p_init: float
    p_final: float
    t_mid: float
    beta: float
    layers: int
    kind: ScheduleKind = ScheduleKind.SIGMOID

    def __post_init__(self):
        # Negated ranges, so that NaN fails every check.
        if not (0.0 <= self.p_init < 1.0):
            raise InvalidInput("p_init: must lie in [0, 1)")
        if not (0.0 <= self.p_final < 1.0):
            raise InvalidInput("p_final: must lie in [0, 1)")
        if not (self.p_init <= self.p_final):
            raise InvalidInput("p_init: must not exceed p_final")
        if not (0.0 < self.t_mid < 1.0):
            raise InvalidInput("t_mid: must lie in (0, 1)")
        if not (0.0 < self.beta < math.inf):
            raise InvalidInput("beta: must be positive and finite")
        if not (self.layers >= 3):
            raise InvalidInput("layers: must be >= 3")
        if self.kind is ScheduleKind.EXPONENTIAL and not (self.p_init > 0.0):
            raise InvalidInput("p_init: the exponential kind needs p_init > 0")


def prune_ratio(l: int, cfg: PruneScheduleConfig) -> float:
    """Pruning ratio p_l for layer l; always 0 at the final layer."""
    if not 0 <= l <= cfg.layers - 1:
        raise InvalidInput(f"layer {l} outside [0, {cfg.layers - 1}]")
    if l == cfg.layers - 1:
        return 0.0
    if cfg.kind is ScheduleKind.EXPONENTIAL:
        return cfg.p_init * (cfg.p_final / cfg.p_init) ** (l / (cfg.layers - 2))
    t = cfg.beta * (l / (cfg.layers - 2) - cfg.t_mid)
    # Stable in both tails.
    if t >= 0:
        ramp = 1.0 / (1.0 + math.exp(-t))
    else:
        e = math.exp(t)
        ramp = e / (1.0 + e)
    return cfg.p_init + (cfg.p_final - cfg.p_init) * ramp


def retention_trace(cfg: PruneScheduleConfig, r0: float) -> tuple[float, ...]:
    """Retention entering each of the L layers, r_{l+1} = r_l * (1 - p_l) from r0."""
    if not (0.0 < r0 <= 1.0):
        raise InvalidInput("r0 must lie in (0, 1]")
    values = [r0]
    for l in range(cfg.layers - 1):
        values.append(values[-1] * (1.0 - prune_ratio(l, cfg)))
    return tuple(values)


def mean_retention(cfg: PruneScheduleConfig, r0: float) -> float:
    """Unweighted per-layer mean of the retention trace."""
    return fmean(retention_trace(cfg, r0))


def calibrate_p_final(target_mean: float, r0: float, layers: int, beta: float) -> tuple[float, float]:
    """(closed form, bisection) p_final of the sigmoid schedule p_init=0, t_mid=0.5 for a target mean.

    The closed form treats the schedule as a quasi-step: the first half of the
    layers keep r0, the second half decays geometrically, and the phase-2 mean
    is matched at its midpoint layer, giving p_final = 1 - (r2 / r0)^(1 / ((L//2)//2))
    with r2 = 2*target - r0. The mean falls as p_final grows, so bisection over
    [0, 0.999] refines it. A target must lie strictly between 0 and r0; one at or
    above the zero-schedule mean (which can round just below r0) gets 0.
    """
    if not (0.0 < target_mean < r0):
        raise InvalidInput("target must lie strictly between 0 and r0")
    cfg = PruneScheduleConfig(p_init=0.0, p_final=0.0, t_mid=0.5, beta=beta, layers=layers)
    if not (0.0 < r0 <= 1.0):
        raise InvalidInput("r0 must lie in (0, 1]")
    half_mid = (layers // 2) // 2
    if half_mid < 1:
        raise Infeasible(f"closed form needs at least 4 layers, got {layers}")
    r2 = 2.0 * target_mean - r0
    if r2 <= 0.0:
        raise Infeasible("target too far below r0 for the two-phase approximation")
    closed = 1.0 - (r2 / r0) ** (1.0 / half_mid)

    def achieved(p: float) -> float:
        return mean_retention(replace(cfg, p_final=p), r0)

    lo, hi = 0.0, 0.999
    if achieved(lo) <= target_mean:
        return closed, lo
    if achieved(hi) > target_mean:
        raise Infeasible(f"mean at p_final={hi} still above target {target_mean}")
    for _ in range(_BISECTION_MAX_ITER):
        mid = 0.5 * (lo + hi)
        gap = achieved(mid) - target_mean
        if abs(gap) < _BISECTION_TOL:
            return closed, mid
        if gap > 0:
            lo = mid
        else:
            hi = mid
    return closed, 0.5 * (lo + hi)
