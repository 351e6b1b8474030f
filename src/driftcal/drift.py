"""Stochastic processes that move the hidden optimal control values between shots.

The optimum stays fixed during a shot and advances once per shot.  Each
control parameter drifts independently.  ``DriftBatch`` holds the optima of
an (n_traj, m) ensemble and advances them in lockstep, in place, drawing
from one ensemble stream; a single trajectory is the ensemble with
n_traj = 1.

Supported processes:

- ``random_walk``: eta_opt += q * step with q = +/-1 equiprobable.
- ``ornstein_uhlenbeck``: eta_opt <- eta_opt * exp(-reversion) +
  volatility * eps, eps ~ N(0, 1).  Stationary variance is
  volatility^2 / (1 - exp(-2 * reversion)).
- ``jump``: the Ornstein-Uhlenbeck process plus a one-time shift of
  ``jump_size`` at shot ``jump_at``.
- ``one_over_f``: the start plus scale * sum of ``n_components``
  independent OU components with reversion[i] = 10 * (1/4)**i and
  volatility[i] = 2**i * (1 - exp(-2 * reversion[i])), i = 1..n;
  octave-spaced correlation times give an approximately 1/f spectrum.
- ``composite``: the start plus the sum of independent sub-processes.
- ``none``: frozen optimum.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator

KINDS = ("none", "random_walk", "ornstein_uhlenbeck", "jump", "one_over_f", "composite")


@dataclass(frozen=True)
class DriftSpec:
    kind: str = "none"
    step: float = 0.0           # random-walk step magnitude
    reversion: float = 1e-4     # OU mean-reversion rate
    volatility: float = 1e-3    # OU per-step noise scale
    jump_at: int = 1000         # shot index of the jump (1-based: fires on that step)
    jump_size: float = 0.15
    scale: float = 1e-3         # 1/f overall scale
    n_components: int = 7
    parts: tuple["DriftSpec", ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown drift kind {self.kind!r}")
        if self.step < 0 or self.volatility < 0 or self.reversion < 0:
            raise ValueError("drift magnitudes must be nonnegative")
        if self.jump_at < 1:
            raise ValueError("jump_at must be >= 1")
        if self.n_components < 1:
            raise ValueError("n_components must be >= 1")
        if self.kind == "composite" and not self.parts:
            raise ValueError("composite drift needs at least one part")


def one_over_f_coefficients(n_components: int = 7) -> tuple[np.ndarray, np.ndarray]:
    """Per-component (reversion, volatility) arrays for the 1/f construction."""
    i = np.arange(1, n_components + 1, dtype=float)
    reversion = 10.0 * 0.25**i
    volatility = 2.0**i * (1.0 - np.exp(-2.0 * reversion))
    return reversion, volatility


@dataclass
class DriftBatch:
    """Drift state for an (n_traj, m) ensemble advanced in lockstep."""

    spec: DriftSpec
    eta_opt: np.ndarray                        # (n_traj, m)
    start: np.ndarray                          # (n_traj, m), eta_opt at init
    t: int = 0
    components: np.ndarray | None = None       # (n_traj, m, n_components)
    decay: np.ndarray | None = None            # (n_components,), exp(-reversion)
    volatility: np.ndarray | None = None       # (n_components,)
    sub: list["DriftBatch"] = field(default_factory=list)

    @classmethod
    def init(cls, spec: DriftSpec, n_traj: int, m: int, eta_opt0: float | np.ndarray = 0.0) -> "DriftBatch":
        eta = np.broadcast_to(eta_opt0, (n_traj, m)).astype(float)
        batch = cls(spec=spec, eta_opt=eta, start=eta.copy())
        if spec.kind == "one_over_f":
            batch.components = np.zeros((n_traj, m, spec.n_components))
            reversion, batch.volatility = one_over_f_coefficients(spec.n_components)
            batch.decay = np.exp(-reversion)
        elif spec.kind == "composite":
            batch.sub = [cls.init(p, n_traj, m, 0.0) for p in spec.parts]
        return batch

    def step(self, rng: Generator) -> None:
        spec = self.spec
        self.t += 1
        if spec.kind == "none":
            return
        shape = self.eta_opt.shape
        if spec.kind == "random_walk":
            self.eta_opt += spec.step * (rng.integers(0, 2, size=shape) * 2 - 1)
        elif spec.kind in ("ornstein_uhlenbeck", "jump"):
            self.eta_opt *= np.exp(-spec.reversion)
            self.eta_opt += spec.volatility * rng.standard_normal(shape)
            if spec.kind == "jump" and self.t == spec.jump_at:
                self.eta_opt += spec.jump_size
        elif spec.kind == "one_over_f":
            self.components *= self.decay
            self.components += self.volatility * rng.standard_normal(self.components.shape)
            self.eta_opt[:] = self.start + spec.scale * self.components.sum(axis=2)
        else:  # composite
            self.eta_opt[:] = self.start
            for sb in self.sub:
                sb.step(rng)
                self.eta_opt += sb.eta_opt
