"""The feedback loop the benchmark times, assembled from driftcal's public functions.

driftcal has no engine yet, so this module is the one place the loop lives.
One lockstep step advances all N trajectories by one shot:

1. one ``DriftBatch.step`` for the ensemble;
2. one ``circuits.run_circuit`` per trajectory; multi-circuit families
   alternate circuits by step parity;
3. the update: ``eta += (gain/s) z`` with ``z = bit_to_z(outcome)`` for one
   parameter, or ``eta -= gain * pseudoinverse_estimate(jac, F)`` for ``cz``,
   where F is the (rows, N) matrix of outcome one-hots minus the ideal
   distribution and ``jac`` is built once in set-up;
4. logging, where the workload asks for it: ``TrajectoryRecord.append`` per
   shot; ``finish`` then runs ``summarize``.

Every driftcal call goes through its module or class attribute at call time,
never through a name bound at import, so the traced run can wrap them.
"""
from __future__ import annotations

import sys
import traceback
from dataclasses import dataclass

import numpy as np

from driftcal import analytics, circuits, drift, gates, rng, simcore
from driftcal.drift import DriftSpec


@dataclass(frozen=True)
class Workload:
    """Inputs of one benchmark workload; ``run.py --workload`` picks one by name."""

    name: str
    family: str                  # "gx" or "cz"
    reps: int
    n_traj: int
    n_steps: int
    gain: float
    mu0: float                   # mean initial offset eta - eta_opt, every parameter
    sigma0: float                # spread of the initial offsets
    drift: DriftSpec
    checks: tuple[str, ...]      # names of functions in checks.py
    p: float = 0.0
    p_spam: float = 0.0
    log_records: bool = False

    @property
    def contrast(self) -> float:
        """k = (1-p)^r (1-p_spam): how far depolarization shrinks E[z] for gx."""
        return (1.0 - self.p) ** self.reps * (1.0 - self.p_spam)


WORKLOADS = {wl.name: wl for wl in (
    Workload(
        name="gx1_wide", family="gx", reps=1, n_traj=1000, n_steps=100,
        gain=0.02, mu0=0.1, sigma0=0.05,
        drift=DriftSpec("random_walk", step=0.02), log_records=True,
        checks=("outcome_law", "ensemble_theory", "records_match"),
    ),
    # The 1/f scale keeps the drift's share of the late-time variance
    # below 1%, so stationary_variance alone predicts it.
    Workload(
        name="gx21_noisy_long", family="gx", reps=21, n_traj=1, n_steps=6000,
        gain=0.05, mu0=0.02, sigma0=0.01, p=0.01, p_spam=0.02,
        drift=DriftSpec("one_over_f", scale=1e-4),
        checks=("outcome_law", "stationary_variance"),
    ),
    Workload(
        name="cz_pinv", family="cz", reps=1, n_traj=100, n_steps=100,
        gain=0.05, mu0=0.05, sigma0=0.02,
        drift=DriftSpec("ornstein_uhlenbeck"), log_records=True,
        checks=("outcome_law", "linear_theory", "records_match"),
    ),
)}

# Basis-index eigenvalues of Z on qubit 0 and qubit 1 (qubit 0 leftmost).
_Z0 = np.array([1.0, 1.0, -1.0, -1.0])
_Z1 = np.array([1.0, -1.0, 1.0, -1.0])
# cz(zi, iz, zz) differs from cz() by the diagonal phases 0.5 * d @ _CZ_PHASE.
_CZ_PHASE = 0.5 * np.stack([-_Z0, -_Z1, _Z0 * _Z1])


class FeedbackLoop:
    """Set-up, lockstep steps and summary of one workload's ensemble.

    ``wrap_rng`` lets the traced run put a counting proxy around each
    Generator; it must pass every draw through unchanged.
    """

    def __init__(self, wl: Workload, seed: int, wrap_rng=lambda gen: gen):
        if wl.family == "gx":
            self.family = circuits.gx_family(wl.reps)
        elif wl.family == "cz":
            self.family = circuits.cz_family(wl.reps)
        else:
            raise ValueError(f"unknown family {wl.family!r}")
        self.wl = wl
        self.gain = wl.gain
        n, m = wl.n_traj, self.family.n_params
        self.noise = circuits.NoiseParams(wl.p, wl.p_spam)
        self.eta = wl.mu0 + wl.sigma0 * rng.ensemble_generator(seed, 0).standard_normal((n, m))
        self.drift = drift.DriftBatch.init(wl.drift, n, m)
        self.drift_rng = wrap_rng(rng.ensemble_generator(seed, 1))
        self.shot_rng = wrap_rng(rng.ensemble_generator(seed, 2))
        self.params = []
        for i in range(n):
            params = gates.ControlParameterSet(self.eta[i], self.drift.eta_opt[i], np.ones(m))
            # rows of the ensemble arrays, so updates and drift show without copying
            params.eta, params.eta_opt = self.eta[i], self.drift.eta_opt[i]
            self.params.append(params)
        if wl.family == "gx":
            self.s = 0.5 * wl.reps * wl.contrast
        else:
            self.jac = circuits.build_jacobian(self.family.circuits, self.family)
            self.ideal = [circuits.exact_distribution(c, self.family, np.zeros(m))
                          for c in self.family.circuits]
        self.deltas = np.empty((wl.n_steps, n, m))
        self.outcomes = np.empty((wl.n_steps, n), dtype=np.int8)   # -1: the shot raised
        self.z = np.empty(n)
        self.records = ([analytics.TrajectoryRecord(i) for i in range(n)]
                        if wl.log_records else None)
        self.failed = 0
        self.t = 0

    def step(self) -> None:
        """Advance every trajectory by one shot."""
        fam, t = self.family, self.t
        self.drift.step(self.drift_rng)
        ci = t % len(fam.circuits)
        circuit = fam.circuits[ci]
        deltas = np.subtract(self.eta, self.drift.eta_opt, out=self.deltas[t])
        outcomes = self.outcomes[t]
        if self.records is not None:
            infidelity = self._infidelity(deltas).tolist()
        for i, params in enumerate(self.params):
            event = analytics.EVENT_UPDATE
            try:
                bits = circuits.run_circuit(circuit, fam, params, self.noise, self.shot_rng)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                self.failed += 1
                bits, event = "", analytics.EVENT_ABORT
                outcomes[i], self.z[i] = -1, 0.0
            else:
                outcomes[i] = int(bits, 2)
                if fam.n_params == 1:
                    self.z[i] = simcore.bit_to_z(bits)
            if self.records is not None:
                self.records[i].append(t, params.eta, params.eta_opt, bits, self.gain,
                                       circuit.reps, infidelity[i], event)
        if fam.n_params == 1:
            self.eta[:, 0] += (self.gain / self.s) * self.z
        else:
            self.eta -= self.gain * circuits.pseudoinverse_estimate(
                self.jac, self._frequencies(ci, outcomes)).T
        self.t += 1

    def _frequencies(self, ci: int, outcomes: np.ndarray) -> np.ndarray:
        """(rows, N): one-hot outcome minus the ideal distribution, in circuit ci's rows."""
        dim = len(self.ideal[ci])
        ok = np.flatnonzero(outcomes >= 0)
        freqs = np.zeros((self.jac.matrix.shape[0], len(outcomes)))
        freqs[ci * dim:(ci + 1) * dim, ok] = -self.ideal[ci][:, None]
        freqs[ci * dim + outcomes[ok], ok] += 1.0
        return freqs

    def _infidelity(self, deltas: np.ndarray) -> np.ndarray:
        if self.wl.family == "gx":
            return gates.gx_process_infidelity(deltas[:, 0], self.wl.p)
        # entanglement infidelity of a diagonal gate against cz()
        return 1.0 - np.abs(np.exp(1j * deltas @ _CZ_PHASE).mean(axis=1)) ** 2

    def finish(self) -> tuple[list[dict], np.ndarray]:
        """Summarize delta per parameter, read back from the records when logged.

        Returns the summaries and the (N, T, m) deltas they were computed from.
        """
        if self.records is not None:
            deltas = (np.array([r.eta for r in self.records])
                      - np.array([r.eta_opt for r in self.records]))
        else:
            deltas = self.deltas[:self.t].transpose(1, 0, 2)
        return [analytics.summarize(deltas[:, :, j]) for j in range(deltas.shape[2])], deltas
