"""Closed-form predictions: hand checks, recursion oracles, summaries."""
import sys

import numpy as np
import pytest

from conftest import variance_recursion
from driftcal.analytics import (
    EVENT_ABORT,
    EVENT_GAIN,
    EVENT_REPS,
    EVENT_SKIP,
    EVENT_UPDATE,
    RECORD_COLUMNS,
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


def test_closed_forms_reject_a_start_or_time_with_no_meaning():
    """t counts whole steps from 0; mu0 and the start variance are finite,
    the variance >= 0.  Whole steps in any dtype, alone or in an array, pass."""
    for bad_t in (-1, 2.5, np.array([1, -2]), np.array([0.0, 0.5]), float("nan"), float("inf")):
        with pytest.raises(ValueError, match="t must"):
            predict_mean(0.3, 0.1, bad_t)
        with pytest.raises(ValueError, match="t must"):
            predict_variance(0.01, 0.0, 0.1, 0.5, 0.0, bad_t)
    for bad_mu0 in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="mu0 must"):
            predict_mean(bad_mu0, 0.1, 3)
        with pytest.raises(ValueError, match="mu0 must"):
            predict_variance(0.01, bad_mu0, 0.1, 0.5, 0.0, 3)
    for bad_var in (-1.0, -1e-300, float("nan"), float("inf")):
        for gain in (0.0, 0.1):
            with pytest.raises(ValueError, match="sigma0_sq must"):
                predict_variance(bad_var, 0.0, gain, 0.5, 0.0, 1)
    assert np.array_equal(predict_mean(0.3, 0.25, np.array([0, 2])), [0.3, 0.075])
    assert predict_mean(0.3, 0.25, 2.0) == predict_mean(0.3, 0.25, np.int64(2))
    assert predict_variance(0.0, 0.0, 0.1, 0.5, 0.0, np.arange(2)).tolist() == pytest.approx([0.0, 0.04])


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
    for bad_s in (0.0, -0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="s must"):
            stationary_variance(0.1, bad_s)
        for gain in (0.0, 0.1):
            with pytest.raises(ValueError, match="s must"):
                predict_variance(0.01, 0.0, gain, bad_s, 0.0, 40)
    for bad_step in (-0.01, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="step must"):
            stationary_variance(0.1, 0.5, bad_step)
        for gain in (0.0, 0.1):
            with pytest.raises(ValueError, match="step must"):
                predict_variance(0.01, 0.0, gain, 0.5, bad_step, 40)


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
    with pytest.raises(ValueError):
        optimal_gain(0.1, 10.0)


def test_exact_gain_schedule_values():
    assert exact_gain_schedule(0.0, 0.1, 0.5) == 0.0
    s, step = 0.5, 0.004
    # at the stationary point (mu=0, var=step/(2s)) the schedule returns step*s
    assert exact_gain_schedule(step / (2 * s), 0.0, s) == pytest.approx(step * s)
    with pytest.raises(ValueError):
        exact_gain_schedule(0.01, 1.0, 0.5)


def test_exact_gain_schedule_rejects_gains_outside_the_closed_forms():
    """A large variance asks for a gain the closed forms cannot use."""
    for var_t, mean_t, s in ((1.0, 0.0, 0.5), (0.3, 0.0, 1.0), (-0.1, 0.0, 0.5)):
        with pytest.raises(ValueError, match="gain"):
            exact_gain_schedule(var_t, mean_t, s)
    for bad_s in (0.0, -0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="s must"):
            exact_gain_schedule(0.01, 0.0, bad_s)


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
    with pytest.raises(ValueError):
        autocorrelation_sum([1, 1, 1, 1], 0)
    with pytest.raises(ValueError):
        autocorrelation_sum([1] * 5, -2)


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
    inf, nan = float("inf"), float("nan")
    for bad in ((0.0, 0.0), (-1.0, 2.0), (1.0, -1.0), (nan, 1.0), (1.0, nan), (inf, 1.0), (1.0, inf)):
        with pytest.raises(ValueError):
            duty_cycle(*bad)


# =============================================================================
# summaries
# =============================================================================

def test_summarize_constant_trajectory():
    out = summarize(np.full((1, 10), 0.7))
    assert out["per_shot_sd"] == [0.0] * 10
    assert out["median_trajectory_mean"] == pytest.approx(0.7)
    for empty in (np.zeros((2, 0)), np.zeros((0, 3)), np.zeros(3)):
        with pytest.raises(ValueError):
            summarize(empty)


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
    with pytest.raises(ValueError):
        summarize_scalar(np.array([]))


def test_trajectory_record_rows_and_ordering():
    rec = TrajectoryRecord(index=3)
    rec.append(0, [0.1], [0.0], "1", 0.05, 1, 1e-4)
    rec.append(1, [0.2, ], [0.0], "0", 0.05, 1, 2e-4, "update")
    rows = list(rec.rows())
    assert rows[0][0] == 3 and rows[1][-1] == "update"
    assert rows[1][4] == "0.2"  # delta field
    with pytest.raises(ValueError):
        rec.append(1, [0.2], [0.0], "0", 0.05, 1, 0.0)


def test_trajectory_record_keeps_copies_of_its_parameter_vectors():
    rec = TrajectoryRecord(index=0)
    eta, eta_opt = np.array([0.1, 0.2]), np.array([0.3, 0.4])
    rec.append(0, eta, eta_opt, "0", 0.05, 1, 0.0)
    eta[0] = 9.0
    assert rec.eta[0].tolist() == [0.1, 0.2] and rec.eta_opt[0].tolist() == [0.3, 0.4]


def test_trajectory_record_rejects_vectors_of_other_lengths():
    """m is fixed by the first append; eta and eta_opt must both be length-m vectors."""
    for eta, eta_opt in (([0.1, 0.2], 0.3), ([0.1, 0.2], [0.3]), (0.1, 0.3), ([], []), ([[0.1]], [[0.3]])):
        with pytest.raises(ValueError):
            TrajectoryRecord(index=0).append(0, eta, eta_opt, "0", 0.05, 1, 0.0)
    rec = TrajectoryRecord(index=0)
    rec.append(0, [0.1, 0.2], [0.3, 0.4], "0", 0.05, 1, 0.0)
    for eta, eta_opt in (([0.1], [0.3]), ([0.1, 0.2, 0.3], [0.1, 0.2, 0.3]), ([0.1, 0.2], [0.3])):
        with pytest.raises(ValueError):
            rec.append(1, eta, eta_opt, "0", 0.05, 1, 0.0)
    assert rec.eta.shape == (1, 2) and len(list(rec.rows())) == 1
    # a first append that fails leaves m open
    rec = TrajectoryRecord(index=0)
    with pytest.raises(TypeError):
        rec.append(0, [0.1], [0.0], 5, 0.05, 1, 0.0)
    with pytest.raises(ValueError, match="unknown event"):
        rec.append(0, [0.1, 0.2], [0.0, 0.0], "0", 0.05, 1, 0.0, "bogus")
    rec.append(0, [0.1, 0.2, 0.3], [0.0, 0.0, 0.0], "01", 0.05, 1, 0.0)
    assert rec.eta.shape == (1, 3)


def test_trajectory_record_drops_a_shot_its_columns_cannot_hold():
    """A value a typed column rejects leaves no partial row behind."""
    rec = TrajectoryRecord(index=0)
    rec.append(0, [0.1], [0.0], "0", 0.05, 1, 0.0)
    for bad in ({"reps": 1.5}, {"gain": None}, {"infidelity": "x"}, {"reps": 2**63}):
        kwargs = {"gain": 0.05, "reps": 1, "infidelity": 0.0, **bad}
        with pytest.raises((TypeError, OverflowError)):
            rec.append(1, [0.2], [0.0], "1", **kwargs)
    for event in (7, "bogus", None, "UPDATE"):
        with pytest.raises(ValueError, match="unknown event"):
            rec.append(1, [0.2], [0.0], "1", 0.05, 1, 0.0, event)
    rec.append(1, [0.2], [0.0], "1", 0.05, 2, 0.5)
    for t, event in enumerate((EVENT_GAIN, EVENT_REPS, EVENT_SKIP), start=2):
        rec.append(t, [0.2], [0.0], "1", 0.05, 2, 0.5, event)
    assert [row[1:] for row in rec.rows()] == [
        (0, "0.1", "0", "0.1", "0", "0.05", 1, "0", ""),
        (1, "0.2", "0", "0.2", "1", "0.05", 2, "0.5", ""),
        (2, "0.2", "0", "0.2", "1", "0.05", 2, "0.5", "gain_change"),
        (3, "0.2", "0", "0.2", "1", "0.05", 2, "0.5", "reps_change"),
        (4, "0.2", "0", "0.2", "1", "0.05", 2, "0.5", "skip_update"),
    ]


def test_trajectory_record_rows_round_trip():
    """Two-bit outcomes, an aborted shot and negative deltas at m = 3."""
    rec = TrajectoryRecord(index=7)
    rec.append(0, [0.5, -0.25, 0.0], [0.75, 0.25, -0.125], "01", 0.05, 1, 0.03125, EVENT_UPDATE)
    rec.append(2, np.array([0.125, 0.5, 1.0]), np.zeros(3), "", 0.1, 3, 0.5, EVENT_ABORT)
    rec.append(5, [-1.5, 0.0, 0.25], [-1.0, 0.0, 0.5], "11", 0.1, 3, 0.0)
    assert list(rec.rows()) == [
        (7, 0, "0.5;-0.25;0", "0.75;0.25;-0.125", "-0.25;-0.5;0.125", "01", "0.05", 1, "0.03125",
         "update"),
        (7, 2, "0.125;0.5;1", "0;0;0", "0.125;0.5;1", "", "0.1", 3, "0.5", "abort"),
        (7, 5, "-1.5;0;0.25", "-1;0;0.5", "-0.5;0;-0.25", "11", "0.1", 3, "0", ""),
    ]
    assert all(len(row) == len(RECORD_COLUMNS) for row in rec.rows())


def test_trajectory_record_matrices_are_copies():
    """eta and eta_opt read as (T, m) float64 copies; reading one does not block the next append."""
    rec = TrajectoryRecord(index=0)
    assert rec.eta.shape == (0, 0)
    for t in range(4):
        rec.append(t, [0.1 * t, 0.2, 0.3], [0.0, 0.1, 0.2 * t], "0", 0.05, 1, 0.0)
        eta, eta_opt = rec.eta, rec.eta_opt
        assert eta.shape == eta_opt.shape == (t + 1, 3) and eta.dtype == eta_opt.dtype == np.float64
    eta[0, 0] = 9.0
    rec.append(4, [0.4, 0.2, 0.3], [0.0, 0.1, 0.8], "1", 0.05, 1, 0.0)
    assert rec.eta[:, 0].tolist() == [0.0, 0.1, 0.2, 0.30000000000000004, 0.4]
    assert rec.eta_opt[:, 2].tolist() == [0.0, 0.2, 0.4, 0.6000000000000001, 0.8]


def _retained_bytes(obj) -> int:
    """sys.getsizeof of obj and everything it reaches through lists, dicts and
    attributes, each object counted once."""
    seen, total, stack = set(), 0, [obj]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif hasattr(obj, "__dict__"):
            stack.append(vars(obj))
    return total


def test_trajectory_record_holds_under_90_bytes_per_shot():
    """A logged m = 1 shot, fed rows of an ensemble array as the loop feeds
    them, retains at most 90 bytes."""
    n = 1000
    eta = ensemble_generator(3).standard_normal((n, 1))
    eta_opt = np.zeros((n, 1))
    gain = 0.02
    rec = TrajectoryRecord(index=0)
    for t in range(n):
        rec.append(t, eta[t], eta_opt[t], "01"[t % 2], gain, 1, float(eta[t, 0]) ** 2, EVENT_UPDATE)
    assert _retained_bytes(rec) <= 90 * n
