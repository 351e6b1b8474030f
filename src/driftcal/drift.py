"""Stochastic processes that move the hidden optimal control values between shots.

The optimum stays fixed during a shot and advances once per shot.  Each
control parameter drifts independently.  ``DriftBatch`` holds the optima of
an (n_traj, m) ensemble and advances them in lockstep, in place, drawing
from one ensemble stream; a single trajectory is the ensemble with
n_traj = 1.  Every process moves eta_opt = start + offset, the offset zero
at init, so it drifts about its own start, alone or in a composite:

- ``random_walk``: offset += q * step with q = +/-1 equiprobable.
- ``one_over_f``: offset = scale * the sum of seven independent
  Ornstein-Uhlenbeck components, c <- c * exp(-reversion[i]) + volatility[i]
  * eps with eps ~ N(0, 1), reversion[i] = 10 * (1/4)**i and volatility[i] =
  2**i * (1 - exp(-2 * reversion[i])), i = 1..7; octave-spaced correlation
  times give an approximately 1/f spectrum.
- ``ornstein_uhlenbeck``: one component with the spec's coefficients, scale
  1; stationary variance volatility^2 / (1 - exp(-2 * reversion)).
- ``jump``: the OU process with ``jump_size`` added to its component at
  shot ``jump_at``, an integer, so the jump decays at the OU rate.
- ``composite``: the start plus the sum of independent sub-processes.
- ``none``: the bank with no components; a frozen optimum.
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
    parts: tuple["DriftSpec", ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown drift kind {self.kind!r}")
        if not all(0 <= x < np.inf for x in (self.step, self.volatility, self.reversion, self.scale)):
            raise ValueError("drift magnitudes and scale must be finite nonnegative numbers")
        if not np.isfinite(self.jump_size):
            raise ValueError("jump_size must be finite")
        if not (isinstance(self.jump_at, (int, np.integer)) and self.jump_at >= 1):
            raise ValueError("jump_at must be an integer >= 1")
        if (self.kind == "composite") != bool(self.parts):
            raise ValueError("composite drift needs at least one part, and only composite drift has parts")


def one_over_f_coefficients() -> tuple[np.ndarray, np.ndarray]:
    """Per-component (reversion, volatility) arrays of the seven 1/f components."""
    i = np.arange(1, 8, dtype=float)
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
    components: np.ndarray | None = None       # (n_traj, m, k), the k OU components
    decay: np.ndarray | None = None            # (k,), exp(-reversion)
    volatility: np.ndarray | None = None       # (k,)
    sub: list["DriftBatch"] = field(default_factory=list)

    @classmethod
    def init(cls, spec: DriftSpec, n_traj: int, m: int, eta_opt0: float | np.ndarray = 0.0) -> "DriftBatch":
        if not all(isinstance(x, (int, np.integer)) and x >= 1 for x in (n_traj, m)):
            raise ValueError("n_traj and m must be integers >= 1")
        eta = np.broadcast_to(eta_opt0, (n_traj, m)).astype(float)
        if not np.isfinite(eta).all():
            raise ValueError("eta_opt0 must be finite")
        batch = cls(spec=spec, eta_opt=eta, start=eta.copy())
        if spec.kind == "composite":
            batch.sub = [cls.init(p, n_traj, m, 0.0) for p in spec.parts]
        elif spec.kind != "random_walk":  # the OU bank: one component for OU and jump, none for none
            k = int(spec.kind != "none")
            reversion, batch.volatility = np.full(k, spec.reversion), np.full(k, spec.volatility)
            if spec.kind == "one_over_f":
                reversion, batch.volatility = one_over_f_coefficients()
            batch.components = np.zeros((n_traj, m, len(reversion)))
            batch.decay = np.exp(-reversion)
        return batch

    def step(self, rng: Generator) -> None:
        spec = self.spec
        self.t += 1
        if spec.kind == "random_walk":
            self.eta_opt += spec.step * (rng.integers(0, 2, size=self.eta_opt.shape) * 2 - 1)
        elif spec.kind == "composite":
            self.eta_opt[:] = self.start
            for sb in self.sub:
                sb.step(rng)
                self.eta_opt += sb.eta_opt
        else:  # the OU component bank
            self.components *= self.decay
            self.components += self.volatility * rng.standard_normal(self.components.shape)
            if spec.kind == "jump" and self.t == spec.jump_at:
                self.components += spec.jump_size
            scale = spec.scale if spec.kind == "one_over_f" else 1.0
            self.eta_opt[:] = self.start + scale * self.components.sum(axis=2)
