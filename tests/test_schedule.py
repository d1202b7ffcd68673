import math
from dataclasses import replace
from statistics import fmean

import pytest
from hypothesis import given, strategies as st

from avprune import (
    Infeasible,
    InvalidInput,
    PruneScheduleConfig,
    ScheduleKind,
    calibrate_p_final,
    mean_retention,
    prune_ratio,
    retention_trace,
)
from avprune.schedule import _BISECTION_TOL


def sigmoid_oracle(l, t_mid, beta, layers):
    # Direct evaluation, independent of the library's stabilized form.
    return 1.0 / (1.0 + math.exp(-beta * (l / (layers - 2) - t_mid)))


def recurrence_oracle(cfg: PruneScheduleConfig, r0: float) -> list[float]:
    values = [r0]
    for l in range(cfg.layers - 1):
        if cfg.kind is ScheduleKind.SIGMOID:
            p = cfg.p_init + (cfg.p_final - cfg.p_init) * sigmoid_oracle(l, cfg.t_mid, cfg.beta, cfg.layers)
        else:
            p = cfg.p_init * (cfg.p_final / cfg.p_init) ** (l / (cfg.layers - 2))
        values.append(values[-1] * (1.0 - p))
    return values


DEFAULT_28 = PruneScheduleConfig(p_init=0.0, p_final=0.2, t_mid=0.5, beta=20.0, layers=28)


class TestSigmoidRamp:
    # With p_init = 0, p_l is p_final times the sigmoid ramp.
    def test_midpoint_is_exact_half(self):
        assert prune_ratio(13, DEFAULT_28) == 0.5 * DEFAULT_28.p_final

    def test_first_layer(self):
        assert prune_ratio(0, DEFAULT_28) == pytest.approx(0.2 * 4.5398e-5, abs=1e-9)
        assert prune_ratio(0, DEFAULT_28) == pytest.approx(0.2 * sigmoid_oracle(0, 0.5, 20.0, 28))

    def test_penultimate_layer(self):
        assert prune_ratio(26, DEFAULT_28) == pytest.approx(0.2 * 0.9999546, abs=1e-7)
        assert prune_ratio(26, DEFAULT_28) == pytest.approx(0.2 * sigmoid_oracle(26, 0.5, 20.0, 28))

    def test_out_of_domain(self):
        with pytest.raises(InvalidInput):
            prune_ratio(28, DEFAULT_28)
        with pytest.raises(InvalidInput):
            prune_ratio(-1, DEFAULT_28)


class TestPruneRatio:
    def test_midpoint_sigmoid(self):
        assert prune_ratio(13, DEFAULT_28) == pytest.approx(0.1)

    def test_final_layer_never_prunes(self):
        for cfg in (DEFAULT_28, PruneScheduleConfig(0.02, 0.5, 0.5, 20.0, 28, ScheduleKind.EXPONENTIAL)):
            assert prune_ratio(cfg.layers - 1, cfg) == 0.0

    def test_exponential_endpoints(self):
        cfg = PruneScheduleConfig(0.02, 0.5, 0.5, 20.0, 28, ScheduleKind.EXPONENTIAL)
        assert prune_ratio(0, cfg) == pytest.approx(0.02)
        assert prune_ratio(26, cfg) == pytest.approx(0.5)

    def test_exponential_requires_positive_p_init(self):
        with pytest.raises(InvalidInput):
            PruneScheduleConfig(0.0, 0.5, 0.5, 20.0, 28, ScheduleKind.EXPONENTIAL)

    @given(st.integers(min_value=3, max_value=40), st.floats(min_value=0.0, max_value=0.9), st.floats(min_value=0.0, max_value=0.09))
    def test_non_decreasing_in_depth(self, layers, p_final, p_init):
        if p_init > p_final:
            p_init, p_final = p_final, p_init
        for kind in ScheduleKind:
            if kind is ScheduleKind.EXPONENTIAL and p_init <= 0.0:
                continue
            cfg = PruneScheduleConfig(p_init, p_final, 0.5, 20.0, layers, kind)
            ratios = [prune_ratio(l, cfg) for l in range(layers - 1)]
            assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))


class TestRetentionTrace:
    def test_zero_schedule_is_constant(self):
        cfg = PruneScheduleConfig(0.0, 0.0, 0.5, 20.0, 6)
        assert retention_trace(cfg, 0.37) == (0.37,) * 6
        assert mean_retention(cfg, 1.0) == 1.0

    def test_constant_ratio_hand_recurrence(self):
        # p == 0.1 at every layer: a sigmoid with p_init == p_final == 0.1.
        cfg = PruneScheduleConfig(0.1, 0.1, 0.5, 20.0, 5)
        assert mean_retention(cfg, 1.0) == pytest.approx(0.81902)

    def test_default_config_against_oracle(self):
        trace = retention_trace(DEFAULT_28, 0.45)
        oracle = recurrence_oracle(DEFAULT_28, 0.45)
        assert list(trace) == pytest.approx(oracle, abs=1e-12)
        assert 0.27 <= fmean(trace) == mean_retention(DEFAULT_28, 0.45) <= 0.31

    def test_non_increasing_and_bounded(self):
        trace = retention_trace(DEFAULT_28, 0.45)
        assert type(trace) is tuple
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        assert all(0.0 < v <= 0.45 for v in trace)

    def test_r0_validation(self):
        with pytest.raises(InvalidInput):
            retention_trace(DEFAULT_28, 0.0)
        with pytest.raises(InvalidInput):
            retention_trace(DEFAULT_28, 1.2)

    @given(st.floats(min_value=0.05, max_value=0.9))
    def test_mean_strictly_decreasing_in_p_final(self, p_final):
        lower = mean_retention(replace(DEFAULT_28, p_final=p_final), 0.45)
        higher = mean_retention(replace(DEFAULT_28, p_final=min(p_final + 0.05, 0.99)), 0.45)
        assert higher < lower


# Calibrate grid inputs (target, r0, layers, beta) that the bisection solves
# though the closed form is undefined: 3 layers, or a target at or below r0 / 2.
SOLVED_WITHOUT_A_CLOSED_FORM = [
    (0.44, 0.45, 3, 20.0),
    (0.44, 0.45, 3, 8.0),
    (0.44, 1.0, 28, 8.0),
    (0.45, 1.0, 28, 8.0),
    (0.45, 1.0, 12, 8.0),
    (0.2, 0.45, 28, 8.0),
]


class TestCalibration:
    # DEFAULT_28 is the calibrated shape: sigmoid, p_init=0, t_mid=0.5, beta=20, 28 layers.
    def test_closed_form_known_value(self):
        closed, _ = calibrate_p_final(0.30, 0.45, 28, 20.0)
        assert closed == pytest.approx(1.0 - (1.0 / 3.0) ** (1.0 / 7.0), abs=1e-12)
        assert abs(closed - 0.1452) <= 0.0005

    def test_bisection_round_trip(self):
        _, refined = calibrate_p_final(0.30, 0.45, 28, 20.0)
        achieved = mean_retention(replace(DEFAULT_28, p_final=refined), 0.45)
        assert abs(achieved - 0.30) < 1e-4

    def test_combined_returns_both(self):
        closed, refined = calibrate_p_final(0.30, 0.45, 28, 20.0)
        assert closed == pytest.approx(0.14525, abs=5e-4)
        achieved = mean_retention(replace(DEFAULT_28, p_final=refined), 0.45)
        assert achieved == pytest.approx(0.30, abs=1e-4)

    @pytest.mark.parametrize("target", [0.45, 0.46, 0.0, -0.1, float("nan")])
    def test_target_outside_zero_to_r0_is_refused_as_on_the_cli(self, target):
        # The CLI's rule and message: target == r0 is refused, not solved as p_final = 0.
        with pytest.raises(InvalidInput, match="^target must lie strictly between 0 and r0$"):
            calibrate_p_final(target, 0.45, 28, 20.0)

    def test_target_is_checked_before_the_schedule(self):
        with pytest.raises(InvalidInput, match="^target must lie"):
            calibrate_p_final(0.5, 0.45, 2, 0.0)  # layers and beta are bad too

    def test_target_at_the_rounded_zero_schedule_mean_returns_lower_bracket(self):
        # fmean of nine copies of 0.45 rounds below 0.45, so this target passes
        # the target rule and is already met by p_final = 0.
        target = fmean([0.45] * 9)
        assert target < 0.45
        assert calibrate_p_final(target, 0.45, 9, 20.0)[1] == 0.0

    @pytest.mark.parametrize("target, r0, layers, beta", SOLVED_WITHOUT_A_CLOSED_FORM)
    def test_bisection_solves_where_the_closed_form_is_undefined(self, target, r0, layers, beta):
        closed, refined = calibrate_p_final(target, r0, layers, beta)
        assert closed is None
        cfg = PruneScheduleConfig(0.0, refined, 0.5, beta, layers)
        assert abs(mean_retention(cfg, r0) - target) < _BISECTION_TOL

    def test_closed_form_is_undefined_at_half_of_r0(self):
        assert calibrate_p_final(0.225, 0.45, 28, 20.0)[0] is None
        assert calibrate_p_final(0.2251, 0.45, 28, 20.0)[0] is not None

    def test_near_r0_target(self):
        _, refined = calibrate_p_final(0.44, 0.45, 28, 20.0)
        achieved = mean_retention(replace(DEFAULT_28, p_final=refined), 0.45)
        assert abs(achieved - 0.44) < 1e-4

    def test_infeasible_target(self):
        with pytest.raises(Infeasible):
            calibrate_p_final(0.001, 0.45, 28, 20.0)
        # The closed form solves this one, but p_final = 0.999 still keeps a mean above it.
        with pytest.raises(Infeasible, match="still above target"):
            calibrate_p_final(0.51, 1.0, 12, 20.0)

    def test_argument_validation(self):
        with pytest.raises(InvalidInput):
            calibrate_p_final(0.5, 0.45, 28, 20.0)  # target above r0
        with pytest.raises(InvalidInput):
            calibrate_p_final(0.0, 0.45, 28, 20.0)
