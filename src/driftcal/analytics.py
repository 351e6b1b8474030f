"""Closed-form predictions and trajectory statistics.

These are the independent references Monte Carlo runs of the feedback loop
are checked against: mean/variance dynamics of the single-parameter loop
under the linearized outcome model, its stationary values, the optimal gain
under random-walk drift, and the exact gain schedule that maximizes the
variance contraction rate.

Summary helpers reduce ensembles of trajectories to tables (per-shot
mean/sd, per-trajectory experiment means, medians, IQRs).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _check_gain(gain: float) -> None:
    """The closed forms hold for a gain in [0, 1/2), where 1 - 4 gain lies in (-1, 1]."""
    if not 0 <= gain < 0.5:
        raise ValueError("gain must lie in [0, 1/2)")


def predict_mean(mu0: float, gain: float, t: int | np.ndarray):
    """Mean parameter error after t feedback steps (no or unbiased drift)."""
    _check_gain(gain)
    return mu0 * (1.0 - 2.0 * gain) ** np.asarray(t)


def stationary_variance(gain: float, s: float, step: float = 0.0) -> float:
    """Late-time variance: gain/(4 s^2) plus step^2/(4 gain) under drift."""
    _check_gain(gain)
    if s <= 0:
        raise ValueError("s must be > 0")
    base = gain / (4.0 * s * s)
    if step == 0.0:
        return base
    if gain == 0.0:
        raise ValueError("stationary variance diverges at zero gain under drift")
    return base + step * step / (4.0 * gain)


def predict_variance(sigma0_sq: float, mu0: float, gain: float, s: float,
                     step: float, t: int | np.ndarray):
    """Variance of the parameter error after t steps (closed form).

    Exact solution of the one-step difference equation, including the
    transient carried by a nonzero initial mean:

        var_t = (var_0 - var_inf)(1-4g)^t + var_inf
                - mu_0^2 [(1-2g)^(2t) - (1-4g)^t]

    ``step`` is the random-walk magnitude of the drifting optimum (0 for no
    drift).
    """
    _check_gain(gain)
    if s <= 0:
        raise ValueError("s must be > 0")
    t = np.asarray(t)
    if gain == 0.0:
        return sigma0_sq + step * step * t
    sinf = stationary_variance(gain, s, step)
    decay = (1.0 - 4.0 * gain) ** t
    mean_term = mu0**2 * ((1.0 - 2.0 * gain) ** (2 * t) - decay)
    return (sigma0_sq - sinf) * decay + sinf - mean_term


def optimal_gain(step: float, s: float) -> float:
    """Gain minimizing the drifted stationary variance: step * s."""
    if step < 0 or s <= 0:
        raise ValueError("step must be >= 0 and s > 0")
    _check_gain(step * s)
    return step * s


def exact_gain_schedule(var_t: float, mean_t: float, s: float) -> float:
    """Gain maximizing the variance contraction rate: 2 var s^2 / (1 - 4 s^2 mean^2)."""
    denom = 1.0 - 4.0 * s * s * mean_t * mean_t
    if denom <= 0:
        raise ValueError("gain schedule undefined: 1 - 4 s^2 mu^2 <= 0")
    gain = 2.0 * var_t * s * s / denom
    _check_gain(gain)
    return gain


def autocorrelation_sum(record, window: int) -> int:
    """Lag-1 autocorrelation sum over the last ``window`` entries of a +/-1 record."""
    rec = np.asarray(record)
    if not 1 <= window <= len(rec):
        raise ValueError("window must lie in [1, len(record)]")
    rec = rec[-window:]
    return int(np.sum(rec[1:] * rec[:-1]))


def duty_cycle(t_cal: float, t_idle: float) -> float:
    """Fraction of shots spent calibrating: t_cal / (t_cal + t_idle)."""
    if t_cal < 0 or t_idle < 0 or (t_cal == 0 and t_idle == 0):
        raise ValueError("shot counts must be nonnegative and not both zero")
    return t_cal / (t_cal + t_idle)


# ---------------------------------------------------------------------------
# trajectory records and ensemble summaries
# ---------------------------------------------------------------------------

EVENT_NONE = ""
EVENT_UPDATE = "update"
EVENT_ABORT = "abort"
EVENT_GAIN = "gain_change"
EVENT_REPS = "reps_change"
EVENT_SKIP = "skip_update"

RECORD_COLUMNS = ("trajectory", "t", "eta", "eta_opt", "delta_eta", "outcome",
                  "gain", "reps", "infidelity", "event")


@dataclass
class TrajectoryRecord:
    """Per-shot log of one trajectory; the unit of analysis and CSV output."""

    index: int
    t: list[int] = field(default_factory=list)
    eta: list[np.ndarray] = field(default_factory=list)
    eta_opt: list[np.ndarray] = field(default_factory=list)
    outcome: list[str] = field(default_factory=list)
    gain: list[float] = field(default_factory=list)
    reps: list[int] = field(default_factory=list)
    infidelity: list[float] = field(default_factory=list)
    event: list[str] = field(default_factory=list)

    def append(self, t: int, eta, eta_opt, outcome: str, gain: float, reps: int,
               infidelity: float, event: str = EVENT_NONE) -> None:
        if self.t and t <= self.t[-1]:
            raise ValueError("shot index must be strictly increasing")
        self.t.append(t)
        self.eta.append(np.array(eta, dtype=float, ndmin=1))
        self.eta_opt.append(np.array(eta_opt, dtype=float, ndmin=1))
        self.outcome.append(outcome)
        self.gain.append(gain)
        self.reps.append(reps)
        self.infidelity.append(infidelity)
        self.event.append(event)

    def rows(self):
        """CSV rows; vector parameters are ';'-joined in one field."""
        fmt = lambda x: format(float(x), ".12g")
        for i in range(len(self.t)):
            eta = ";".join(fmt(v) for v in self.eta[i])
            opt = ";".join(fmt(v) for v in self.eta_opt[i])
            delta = ";".join(fmt(a - b) for a, b in zip(self.eta[i], self.eta_opt[i]))
            yield (self.index, self.t[i], eta, opt, delta, self.outcome[i],
                   fmt(self.gain[i]), self.reps[i], fmt(self.infidelity[i]), self.event[i])


def summarize(values: np.ndarray) -> dict:
    """Ensemble statistics for an (n_traj, n_steps) array of a per-shot quantity."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 2 or vals.size == 0:
        raise ValueError("need an (n_traj, n_steps) array with at least one trajectory and one step")
    traj_means = vals.mean(axis=1)
    scalar = summarize_scalar(traj_means)
    return {
        "per_shot_mean": vals.mean(axis=0).tolist(),
        "per_shot_sd": vals.std(axis=0, ddof=0).tolist(),
        "trajectory_means": traj_means.tolist(),
        "median_trajectory_mean": scalar["median"],
        "iqr_trajectory_mean": scalar["iqr"],
    }


def summarize_scalar(values: np.ndarray) -> dict:
    """Median/IQR/mean/sd of a per-trajectory scalar (e.g. experiment means)."""
    vals = np.asarray(values, dtype=float)
    if vals.size == 0:
        raise ValueError("need at least one value")
    q1, q3 = np.percentile(vals, [25, 75])
    return {
        "median": float(np.median(vals)),
        "iqr": float(q3 - q1),
        "mean": float(vals.mean()),
        "sd": float(vals.std(ddof=0)),
        "n": int(len(vals)),
    }
