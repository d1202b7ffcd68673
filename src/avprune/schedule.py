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


@dataclass(frozen=True)
class RetentionTrace:
    """Retention ratio entering each layer, r_{l+1} = r_l * (1 - p_l)."""

    values: tuple[float, ...]

    def __post_init__(self):
        if any(b > a for a, b in zip(self.values, self.values[1:])):
            raise InvalidInput("retention trace must be non-increasing")

    @property
    def r0(self) -> float:
        return self.values[0]

    @property
    def mean(self) -> float:
        return fmean(self.values)


def sigmoid_value(l: int, t_mid: float, beta: float, layers: int) -> float:
    """Sigmoid ramp at normalized depth l/(layers-2)."""
    if not 0 <= l <= layers - 2:
        raise InvalidInput(f"layer {l} outside sigmoid domain [0, {layers - 2}]")
    t = beta * (l / (layers - 2) - t_mid)
    # Stable in both tails.
    if t >= 0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def prune_ratio(l: int, cfg: PruneScheduleConfig) -> float:
    """Pruning ratio p_l for layer l; always 0 at the final layer."""
    if not 0 <= l <= cfg.layers - 1:
        raise InvalidInput(f"layer {l} outside [0, {cfg.layers - 1}]")
    if l == cfg.layers - 1:
        return 0.0
    if cfg.kind is ScheduleKind.SIGMOID:
        return cfg.p_init + (cfg.p_final - cfg.p_init) * sigmoid_value(l, cfg.t_mid, cfg.beta, cfg.layers)
    return cfg.p_init * (cfg.p_final / cfg.p_init) ** (l / (cfg.layers - 2))


def retention_trace(cfg: PruneScheduleConfig, r0: float) -> RetentionTrace:
    """Retention entering each of the L layers, starting from r0."""
    if not (0.0 < r0 <= 1.0):
        raise InvalidInput("r0 must lie in (0, 1]")
    values = [r0]
    for l in range(cfg.layers - 1):
        values.append(values[-1] * (1.0 - prune_ratio(l, cfg)))
    return RetentionTrace(values=tuple(values))


def mean_retention(cfg: PruneScheduleConfig, r0: float) -> float:
    """Unweighted per-layer mean of the retention trace."""
    return retention_trace(cfg, r0).mean


def calibrate_p_final_closed_form(target_mean: float, r0: float, layers: int) -> float:
    """Closed-form p_final for a sigmoid schedule with p_init=0, t_mid=0.5.

    Treats the schedule as a quasi-step: the first half of the layers keep r0,
    the second half decays geometrically, and the phase-2 mean is matched at
    its midpoint layer, giving p_final = 1 - (r2 / r0)^(1 / ((L//2)//2)) with
    r2 = 2*target - r0.
    """
    _check_calibration_args(target_mean, r0)
    half_mid = (layers // 2) // 2
    if half_mid < 1:
        raise Infeasible(f"closed form needs at least 4 layers, got {layers}")
    r2 = 2.0 * target_mean - r0
    if r2 <= 0.0:
        raise Infeasible("target too far below r0 for the two-phase approximation")
    return 1.0 - (r2 / r0) ** (1.0 / half_mid)


def calibrate_p_final_bisection(
    target_mean: float,
    r0: float,
    cfg_partial: PruneScheduleConfig,
    *,
    tolerance: float = 1e-6,
    max_iter: int = 100,
) -> float:
    """p_final whose simulated mean retention matches the target.

    ``cfg_partial.p_final`` is ignored; the mean is monotone decreasing in
    p_final, so plain bisection over [p_init, 0.999] suffices. A target at or
    above the lower-bracket mean returns the bracket itself.
    """
    _check_calibration_args(target_mean, r0)

    def achieved(p: float) -> float:
        return mean_retention(replace(cfg_partial, p_final=p), r0)

    lo, hi = cfg_partial.p_init, 0.999
    if achieved(lo) <= target_mean:
        return lo
    if achieved(hi) > target_mean:
        raise Infeasible(f"mean at p_final={hi} still above target {target_mean}")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        gap = achieved(mid) - target_mean
        if abs(gap) < tolerance:
            return mid
        if gap > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def calibrate_p_final(
    target_mean: float,
    r0: float,
    cfg_partial: PruneScheduleConfig,
) -> tuple[float, float]:
    """Both calibration routes: (closed form, bisection refinement).

    The closed form is only defined for the sigmoid kind with p_init = 0 and
    t_mid = 0.5; the bisection route accepts any valid partial config.
    """
    if cfg_partial.kind is not ScheduleKind.SIGMOID:
        raise InvalidInput("closed-form calibration requires the sigmoid kind")
    if cfg_partial.p_init != 0.0 or cfg_partial.t_mid != 0.5:
        raise InvalidInput("closed-form calibration requires p_init=0 and t_mid=0.5")
    closed = calibrate_p_final_closed_form(target_mean, r0, cfg_partial.layers)
    refined = calibrate_p_final_bisection(target_mean, r0, cfg_partial)
    return closed, refined


def _check_calibration_args(target_mean: float, r0: float):
    if not (0.0 < r0 <= 1.0):
        raise InvalidInput("r0 must lie in (0, 1]")
    if not (0.0 < target_mean <= r0):
        raise InvalidInput("target mean must lie in (0, r0]")
