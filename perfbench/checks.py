"""Correctness checks on a finished FeedbackLoop, as z-scores against references.

Each check returns named z values; a run is correct when every |z| is at
most ``Z_BOUND``.  The references are computed another way than the loop:
closed forms from ``driftcal.analytics``, ``exact_distribution``, and the
linearized update map.
"""
from __future__ import annotations

import numpy as np

from driftcal import analytics, circuits

# A run checks up to two dozen statistics and a baseline runs hundreds of seeds;
# at 5 sigma a false alarm over all of them stays near 1e-3.
Z_BOUND = 5.0


def _checkpoints(n_steps: int) -> list[int]:
    return sorted({max(1, n_steps // 10), max(1, n_steps // 4), max(1, n_steps // 2), n_steps})


def _moment_z(x: np.ndarray, mean: float, var: float) -> tuple[float, float]:
    """z of the sample mean and variance of ``x`` against predicted ones.

    The standard errors are the ones the prediction implies (kurtosis taken
    from the sample), so a run far from theory cannot hide behind its own
    inflated spread.
    """
    n, xv = len(x), x.var()
    kurtosis = ((x - x.mean()) ** 4).mean() / xv**2
    return (float((x.mean() - mean) / np.sqrt(var / n)),
            float((xv - var) / (var * np.sqrt((kurtosis - 1.0) / n))))


def outcome_law(loop, deltas) -> dict[str, float]:
    """Outcome counts against exact per-shot probabilities at the shot's delta.

    gx: one z for sum(z - E[z]) with E[z] = k cos(r (pi/2 + delta)).
    cz: one z per (circuit, outcome) count against ``exact_distribution``;
    the largest in magnitude is reported.
    """
    wl, fam = loop.wl, loop.family
    ok = loop.outcomes >= 0
    if wl.family == "gx":
        expect = wl.contrast * np.cos(wl.reps * (np.pi / 2 + loop.deltas[:, :, 0]))[ok]
        z = 1.0 - 2.0 * loop.outcomes[ok]
        return {"outcome_law": float((z - expect).sum() / np.sqrt((1.0 - expect**2).sum()))}
    n_circ = len(fam.circuits)
    worst = 0.0
    for ci, circuit in enumerate(fam.circuits):
        ts = np.arange(ci, loop.t, n_circ)
        probs = np.array([[circuits.exact_distribution(circuit, fam, loop.deltas[t, i])
                           for i in range(wl.n_traj)] for t in ts])     # (T_c, N, dim)
        outs = loop.outcomes[ts]
        mask = ok[ts]
        for o in range(probs.shape[2]):
            p = probs[:, :, o][mask]
            hits = (outs[mask] == o).astype(float)
            z = float((hits - p).sum() / np.sqrt((p * (1.0 - p)).sum()))
            worst = z if abs(z) > abs(worst) else worst
    return {"outcome_law": worst}


def ensemble_theory(loop, deltas) -> dict[str, float]:
    """Ensemble mean and variance of delta against predict_mean / predict_variance.

    The drift steps before each shot, so the delta seen at shot t has had
    t-1 updates and started from variance sigma0^2 + step^2.
    """
    wl = loop.wl
    if wl.drift.kind not in ("none", "random_walk"):
        raise ValueError("ensemble_theory needs random-walk drift or none")
    step = wl.drift.step if wl.drift.kind == "random_walk" else 0.0
    out = {}
    for t in _checkpoints(loop.t):
        pm = analytics.predict_mean(wl.mu0, wl.gain, t - 1)
        pv = analytics.predict_variance(wl.sigma0**2 + step**2, wl.mu0, wl.gain, loop.s, step, t - 1)
        out[f"mean@{t}"], out[f"var@{t}"] = _moment_z(loop.deltas[t - 1, :, 0], pm, pv)
    return out


def stationary_variance(loop, deltas) -> dict[str, float]:
    """Late-time mean of delta^2 on one long trajectory against stationary_variance.

    Uses s_eff = (r/2) k.  The first fifth is burn-in; the standard error
    comes from 20 batch means, each far longer than the 1/(4 gain) memory.
    """
    wl = loop.wl
    x = loop.deltas[loop.t // 5:loop.t, :, 0].ravel() ** 2
    batches = np.array([b.mean() for b in np.array_split(x, 20)])
    se = batches.std(ddof=1) / np.sqrt(len(batches))
    ref = analytics.stationary_variance(wl.gain, loop.s)
    return {"stationary_var": float((x.mean() - ref) / se)}


def linear_theory(loop, deltas) -> dict[str, float]:
    """Ensemble mean and variance of delta against the linearized pinv update.

    Per shot on circuit c, delta' = A_c delta - gain P_c (e - E[e]) - drift,
    with A_c = I - gain P_c J_c, J_c circuit c's block of the Jacobian, P_c the
    matching columns of pinv(J) and e the outcome one-hot, whose covariance is
    taken at delta = 0.  The Ornstein-Uhlenbeck drift is a random walk of
    size ``volatility`` at its reversion rate.
    """
    wl, fam = loop.wl, loop.family
    if wl.drift.kind not in ("none", "ornstein_uhlenbeck"):
        raise ValueError("linear_theory needs Ornstein-Uhlenbeck drift or none")
    vol2 = wl.drift.volatility**2 if wl.drift.kind == "ornstein_uhlenbeck" else 0.0
    m, dim = fam.n_params, 2**fam.n_qubits
    jmat = loop.jac.matrix
    pinv = np.linalg.pinv(jmat)
    maps, noise = [], []
    for c, ideal in enumerate(loop.ideal):
        block = slice(c * dim, (c + 1) * dim)
        maps.append(np.eye(m) - wl.gain * pinv[:, block] @ jmat[block])
        noise.append(wl.gain**2 * pinv[:, block] @ (np.diag(ideal) - np.outer(ideal, ideal))
                     @ pinv[:, block].T + vol2 * np.eye(m))
    mean = np.full(m, wl.mu0)
    cov = (wl.sigma0**2 + vol2) * np.eye(m)
    checkpoints = set(_checkpoints(loop.t))
    out = {}
    for t in range(1, loop.t + 1):
        if t in checkpoints:
            for j in range(m):
                out[f"mean[{j}]@{t}"], out[f"var[{j}]@{t}"] = _moment_z(
                    loop.deltas[t - 1, :, j], mean[j], cov[j, j])
        c = (t - 1) % len(maps)
        mean = maps[c] @ mean
        cov = maps[c] @ cov @ maps[c].T + noise[c]
    return out


def records_match(loop, deltas) -> dict[str, float]:
    """Deltas read back from the records must equal the loop's own, bit for bit.

    Reported as a z of 0 (equal) or infinity (different).
    """
    same = np.array_equal(deltas, loop.deltas[:loop.t].transpose(1, 0, 2))
    return {"records_match": 0.0 if same else float("inf")}


def run(loop, deltas) -> tuple[bool, dict[str, float]]:
    """Run the workload's checks; returns (passed, z values by name)."""
    z = {}
    for name in loop.wl.checks:
        z.update(globals()[name](loop, deltas))
    return all(abs(v) <= Z_BOUND for v in z.values()), z
