"""Closed-form predictions and trajectory statistics.

These are the independent references Monte Carlo runs of the feedback loop
are checked against: mean/variance dynamics of the single-parameter loop
under the linearized outcome model, its stationary values, the optimal gain
under random-walk drift, and the exact gain schedule that maximizes the
variance contraction rate.

``TrajectoryRecord`` logs one trajectory, a row per shot, in typed column
buffers that grow in place, so a shot adds raw values, not Python objects:

- ``t`` and ``reps``: ``array("q")``; ``gain`` and ``infidelity``:
  ``array("d")``;
- ``eta`` and ``eta_opt``: one ``array("d")`` each, holding the (T, m)
  matrix row-major; m is fixed by the first append, and every append must
  give two vectors of that length;
- ``outcome`` and ``event``: lists of shared strings (outcomes are
  interned, so a two-bit outcome is not a new object per shot; an event
  must be one of the ``EVENT_*`` codes).

Reading ``eta`` or ``eta_opt`` returns a (T, m) copy, never a view: an
array that still exports its buffer cannot grow, so a view would make the
next append raise ``BufferError``.

Summary helpers reduce ensembles of trajectories to tables (per-shot
mean/sd, per-trajectory experiment means, medians, IQRs).
"""
from __future__ import annotations

import sys
from array import array

import numpy as np


def _check_gain(gain: float) -> None:
    """The closed forms hold for a gain in [0, 1/2), where 1 - 4 gain lies in (-1, 1]."""
    if not 0 <= gain < 0.5:
        raise ValueError("gain must lie in [0, 1/2)")


def _check_sensitivity(s: float, step: float) -> None:
    """The closed forms need a finite s > 0 and a finite drift step >= 0; NaN fails both."""
    if not 0 < s < np.inf:
        raise ValueError("s must be finite and > 0")
    if not 0 <= step < np.inf:
        raise ValueError("step must be finite and >= 0")


def _check_start(mu0: float, t: int | np.ndarray, sigma0_sq: float = 0.0) -> np.ndarray:
    """The closed forms start from a finite mean and a finite variance >= 0 and
    count whole steps t >= 0; NaN fails each.  Returns t as an array."""
    t = np.asarray(t)
    if not (np.isfinite(t).all() and (t >= 0).all() and (t == np.floor(t)).all()):
        raise ValueError("t must be a whole number of steps >= 0")
    if not -np.inf < mu0 < np.inf:
        raise ValueError("mu0 must be finite")
    if not 0 <= sigma0_sq < np.inf:
        raise ValueError("sigma0_sq must be finite and >= 0")
    return t


def predict_mean(mu0: float, gain: float, t: int | np.ndarray):
    """Mean parameter error after t feedback steps (no or unbiased drift)."""
    _check_gain(gain)
    return mu0 * (1.0 - 2.0 * gain) ** _check_start(mu0, t)


def stationary_variance(gain: float, s: float, step: float = 0.0) -> float:
    """Late-time variance: gain/(4 s^2) plus step^2/(4 gain) under drift."""
    _check_gain(gain)
    _check_sensitivity(s, step)
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
    _check_sensitivity(s, step)
    t = _check_start(mu0, t, sigma0_sq)
    if gain == 0.0:
        return sigma0_sq + step * step * t
    sinf = stationary_variance(gain, s, step)
    decay = (1.0 - 4.0 * gain) ** t
    mean_term = mu0**2 * ((1.0 - 2.0 * gain) ** (2 * t) - decay)
    return (sigma0_sq - sinf) * decay + sinf - mean_term


def optimal_gain(step: float, s: float) -> float:
    """Gain minimizing the drifted stationary variance: step * s."""
    _check_sensitivity(s, step)
    _check_gain(step * s)
    return step * s


def exact_gain_schedule(var_t: float, mean_t: float, s: float) -> float:
    """Gain maximizing the variance contraction rate: 2 var s^2 / (1 - 4 s^2 mean^2)."""
    _check_sensitivity(s, 0.0)
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
    if not (0 <= t_cal < np.inf and 0 <= t_idle < np.inf) or t_cal == t_idle == 0:
        raise ValueError("shot counts must be finite, nonnegative and not both zero")
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
_EVENTS = frozenset((EVENT_NONE, EVENT_UPDATE, EVENT_ABORT, EVENT_GAIN, EVENT_REPS, EVENT_SKIP))

# A dtype object, not ``float``, so that ``np.asarray`` on the logging path skips parsing it.
_FLOAT64 = np.dtype(np.float64)

RECORD_COLUMNS = ("trajectory", "t", "eta", "eta_opt", "delta_eta", "outcome",
                  "gain", "reps", "infidelity", "event")


class TrajectoryRecord:
    """Per-shot log of one trajectory; the unit of analysis and CSV output.

    Each column is one typed buffer that grows by a row per shot; see the
    module docstring for the layout and the copy-on-read rule.
    """

    def __init__(self, index: int):
        self.index = index
        self.t = array("q")
        self.reps = array("q")
        self.gain = array("d")
        self.infidelity = array("d")
        self.outcome: list[str] = []
        self.event: list[str] = []
        self._shape: tuple[int] | None = None    # (m,), fixed by the first append
        self._eta = array("d")                    # (T, m), row-major
        self._eta_opt = array("d")

    def append(self, t: int, eta, eta_opt, outcome: str, gain: float, reps: int,
               infidelity: float, event: str = EVENT_NONE) -> None:
        if self.t and t <= self.t[-1]:
            raise ValueError("shot index must be strictly increasing")
        if event not in _EVENTS:
            raise ValueError(f"unknown event {event!r}")
        outcome = sys.intern(outcome)  # before the first append fixes m, so a bad outcome leaves m open
        eta = np.asarray(eta, _FLOAT64)
        eta_opt = np.asarray(eta_opt, _FLOAT64)
        if eta.shape != self._shape or eta_opt.shape != self._shape:
            self._fix_shape(eta.shape, eta_opt.shape)
        try:
            self.t.append(t)
            self.reps.append(reps)
            self.gain.append(gain)
            self.infidelity.append(infidelity)
        except (TypeError, OverflowError):
            # a value the typed columns cannot hold: drop this shot's partial row
            for column in (self.t, self.reps, self.gain, self.infidelity):
                del column[len(self.event):]
            raise
        self._eta.frombytes(eta.tobytes())
        self._eta_opt.frombytes(eta_opt.tobytes())
        self.outcome.append(outcome)
        self.event.append(event)

    def _fix_shape(self, eta_shape: tuple, eta_opt_shape: tuple) -> None:
        """Fix m at the first append from two vectors of one length m >= 1; reject anything else."""
        if self._shape is not None or eta_shape != eta_opt_shape or len(eta_shape) != 1 or not eta_shape[0]:
            raise ValueError(f"eta and eta_opt must both have shape {self._shape or '(m,)'}, "
                             f"got {eta_shape} and {eta_opt_shape}")
        self._shape = eta_shape

    @property
    def eta(self) -> np.ndarray:
        """(T, m) copy of the control values, one row per shot."""
        return self._matrix(self._eta)

    @property
    def eta_opt(self) -> np.ndarray:
        """(T, m) copy of the hidden optima, one row per shot."""
        return self._matrix(self._eta_opt)

    def _matrix(self, column: array) -> np.ndarray:
        return np.array(column).reshape(len(self.t), *(self._shape or (0,)))

    def rows(self):
        """CSV rows; vector parameters are ';'-joined in one field."""
        fmt = lambda x: format(float(x), ".12g")
        join = lambda v: ";".join(fmt(x) for x in v)
        for i, (eta, opt) in enumerate(zip(self.eta, self.eta_opt)):
            yield (self.index, self.t[i], join(eta), join(opt), join(eta - opt), self.outcome[i],
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
