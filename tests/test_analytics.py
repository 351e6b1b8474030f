"""Closed-form predictions: hand checks, recursion oracles, summaries."""
import numpy as np
import pytest

from conftest import variance_recursion
from driftcal.analytics import (
    TrajectoryRecord,
    autocorrelation_sum,
    duty_cycle,
    exact_gain_schedule,
    optimal_gain,
    predict_mean,
    predict_variance,
    stationary_variance,
    summarize,
    summarize_scalar,
)
from driftcal.rng import ensemble_generator


# =============================================================================
# mean dynamics
# =============================================================================

def test_predict_mean_zero_gain_is_constant():
    assert predict_mean(0.3, 0.0, 1000) == pytest.approx(0.3)


def test_predict_mean_hand_value():
    assert predict_mean(0.3, 0.25, 2) == pytest.approx(0.075)


def test_predict_mean_rejects_bad_gain():
    with pytest.raises(ValueError):
        predict_mean(0.3, 0.5, 1)


# =============================================================================
# variance dynamics
# =============================================================================

def test_stationary_limits():
    assert stationary_variance(0.1, 0.5) == pytest.approx(0.1)
    assert stationary_variance(0.1, 0.5, step=0.0) == pytest.approx(0.1 / (4 * 0.25))
    g, s, step = 0.004, 0.5, 0.008
    assert stationary_variance(g, s, step) == pytest.approx(g / (4 * s * s) + step * step / (4 * g))
    assert stationary_variance(optimal_gain(step, s), s, step) == pytest.approx(step / (2 * s))


def test_variance_one_step_hand_value():
    """From sigma0=0, mu0=0: one step gives g^2/s^2."""
    assert predict_variance(0.0, 0.0, 0.1, 0.5, 0.0, 1) == pytest.approx(0.04, abs=1e-15)
    assert variance_recursion(0.0, 0.0, 0.1, 0.5, 0.0, 1) == pytest.approx(0.04, abs=1e-15)


def test_variance_closed_form_matches_recursion():
    g, s, step, mu0, s0 = 0.03, 0.5, 0.005, 0.25, 0.02
    for t in (1, 2, 5, 17, 100, 800):
        assert predict_variance(s0, mu0, g, s, step, t) == pytest.approx(
            variance_recursion(s0, mu0, g, s, step, t), rel=1e-10
        )


def test_variance_closed_forms_reject_bad_gain():
    """Outside [0, 1/2) |1 - 4g| >= 1, so the loop has no stationary state."""
    for bad in (0.6, 0.5, -0.1):
        with pytest.raises(ValueError, match="gain"):
            stationary_variance(bad, 0.5)
        with pytest.raises(ValueError, match="gain"):
            predict_variance(0.01, 0.0, bad, 0.5, 0.0, 40)


def test_variance_zero_gain_accumulates_drift():
    assert predict_variance(0.01, 0.0, 0.0, 0.5, 0.002, 100) == pytest.approx(0.01 + 100 * 4e-6)


def test_variance_limits_to_stationary():
    g, s, step = 0.05, 0.5, 0.004
    assert predict_variance(0.03, 0.0, g, s, step, 5000) == pytest.approx(
        stationary_variance(g, s, step), rel=1e-9
    )


# =============================================================================
# gain selection
# =============================================================================

def test_optimal_gain_values():
    assert optimal_gain(0.001, 6.5) == pytest.approx(0.0065)
    assert optimal_gain(0.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        optimal_gain(0.001, 0.0)


def test_exact_gain_schedule_values():
    assert exact_gain_schedule(0.0, 0.1, 0.5) == 0.0
    s, step = 0.5, 0.004
    # at the stationary point (mu=0, var=step/(2s)) the schedule returns step*s
    assert exact_gain_schedule(step / (2 * s), 0.0, s) == pytest.approx(step * s)
    with pytest.raises(ValueError):
        exact_gain_schedule(0.01, 1.0, 0.5)


# =============================================================================
# record helpers
# =============================================================================

def test_autocorrelation_constant_and_alternating():
    const = np.ones(100)
    assert autocorrelation_sum(const, 100) == 99
    alt = np.array([(-1) ** i for i in range(100)])
    assert autocorrelation_sum(alt, 100) == -99
    with pytest.raises(ValueError):
        autocorrelation_sum(np.ones(5), 10)


def test_autocorrelation_iid_statistics():
    """Fair i.i.d. record: mean ~0, sd ~sqrt(h-1) over many draws."""
    h, n = 100, 10_000
    gen = ensemble_generator(17)
    z = gen.integers(0, 2, size=(n, h)) * 2 - 1
    sums = np.sum(z[:, 1:] * z[:, :-1], axis=1)
    assert abs(sums.mean()) < 4 * np.sqrt(h - 1) / np.sqrt(n)
    assert abs(sums.std() / np.sqrt(h - 1) - 1.0) < 0.05


def test_duty_cycle_values():
    assert duty_cycle(1.0, 0.0) == 1.0
    assert duty_cycle(1.0, 99.0) == pytest.approx(0.01)
    assert duty_cycle(0.0, 10.0) == 0.0
    with pytest.raises(ValueError):
        duty_cycle(0.0, 0.0)


# =============================================================================
# summaries
# =============================================================================

def test_summarize_constant_trajectory():
    out = summarize(np.full((1, 10), 0.7))
    assert out["per_shot_sd"] == [0.0] * 10
    assert out["median_trajectory_mean"] == pytest.approx(0.7)


def test_summarize_symmetric_pair():
    x = 0.4
    vals = np.vstack([np.full(5, x), np.full(5, -x)])
    out = summarize(vals)
    assert np.allclose(out["per_shot_mean"], 0.0)
    assert np.allclose(out["per_shot_sd"], x)


def test_summarize_scalar():
    out = summarize_scalar(np.array([1.0, 2.0, 3.0, 4.0]))
    assert out["median"] == pytest.approx(2.5)
    assert out["n"] == 4


def test_trajectory_record_rows_and_ordering():
    rec = TrajectoryRecord(index=3)
    rec.append(0, [0.1], [0.0], "1", 0.05, 1, 1e-4)
    rec.append(1, [0.2, ], [0.0], "0", 0.05, 1, 2e-4, "update")
    rows = list(rec.rows())
    assert rows[0][0] == 3 and rows[1][-1] == "update"
    assert rows[1][4] == "0.2"  # delta field
    with pytest.raises(ValueError):
        rec.append(1, [0.2], [0.0], "0", 0.05, 1, 0.0)
