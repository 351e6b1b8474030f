"""Stochastic processes that move the hidden optimal control values between shots.

The optimum stays fixed during a shot and advances once per shot.  Each
control parameter drifts independently.  ``DriftBatch`` holds the optima of
an (n_traj, m) ensemble and advances them in lockstep, in place, drawing
from one ensemble stream; a single trajectory is the ensemble with
n_traj = 1.  eta_opt starts at zero: outcomes depend only on eta - eta_opt.
Every kind is a bank of independent components, zero at init, that all step
by one rule, c <- decay * c + kick * draw, then any jump; each step writes
eta_opt = sum over banks of scale * (sum of components) once, in place:

- ``random_walk``: one component with no reversion (decay 1), kick step,
  draw q = +/-1 equiprobable.
- ``one_over_f``: scale times seven components with draw eps ~ N(0, 1),
  decay exp(-reversion[i]), kick volatility[i], reversion[i] = 10 * (1/4)**i
  and volatility[i] = 2**i * (1 - exp(-2 * reversion[i])), i = 1..7;
  octave-spaced correlation times give an approximately 1/f spectrum.
- ``ornstein_uhlenbeck``: one such component with the spec's coefficients;
  stationary variance volatility^2 / (1 - exp(-2 * reversion)).
- ``jump``: the OU process with ``jump_size`` added to its component at
  shot ``jump_at``, an integer, so the jump decays at the OU rate.
- ``composite``: its leaves' banks, flattened depth first and stepped in order.
- ``none``: the bank with no components; a frozen optimum.
"""
from __future__ import annotations

from dataclasses import dataclass

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
        jump_at = self.jump_at
        if not (isinstance(jump_at, (int, np.integer)) and type(jump_at) is not bool and jump_at >= 1):
            raise ValueError("jump_at must be an integer >= 1")
        if (self.kind == "composite") != bool(self.parts):
            raise ValueError("composite drift needs at least one part, and only composite drift has parts")
        if not all(isinstance(part, DriftSpec) for part in self.parts):
            raise ValueError("every composite part must be a DriftSpec")


def one_over_f_coefficients() -> tuple[np.ndarray, np.ndarray]:
    """Per-component (reversion, volatility) arrays of the seven 1/f components."""
    i = np.arange(1, 8, dtype=float)
    reversion = 10.0 * 0.25**i
    volatility = 2.0**i * (1.0 - np.exp(-2.0 * reversion))
    return reversion, volatility


@dataclass
class DriftBatch:
    """An (n_traj, m) ensemble's optima: eta_opt starts at zero; each step writes its banks' sum in place."""

    eta_opt: np.ndarray                        # (n_traj, m)
    banks: list[tuple]                         # one per leaf, depth first; see _banks
    t: int = 0

    @classmethod
    def init(cls, spec: DriftSpec, n_traj: int, m: int) -> "DriftBatch":
        if not isinstance(spec, DriftSpec):
            raise ValueError("spec must be a DriftSpec")
        if not all(isinstance(x, (int, np.integer)) and type(x) is not bool and x >= 1 for x in (n_traj, m)):
            raise ValueError("n_traj and m must be integers >= 1")
        return cls(eta_opt=np.zeros((n_traj, m)), banks=_banks(spec, (n_traj, m)))

    def step(self, rng: Generator) -> None:
        self.t += 1
        eta_opt = 0.0
        for leaf, components, decay, kick, scale in self.banks:
            components *= decay
            if leaf.kind == "random_walk":
                components += kick * (rng.integers(0, 2, size=components.shape) * 2 - 1)
            else:
                components += kick * rng.standard_normal(components.shape)
            if leaf.kind == "jump" and self.t == leaf.jump_at:
                components += leaf.jump_size
            eta_opt = eta_opt + scale * components.sum(axis=2)
        self.eta_opt[:] = eta_opt  # one write, in place: callers hold views of eta_opt's rows


def _banks(spec: DriftSpec, shape: tuple[int, int]) -> list[tuple]:
    """(leaf, components (n_traj, m, k), decay (k,), kick (k,), scale) for
    each leaf of ``spec``, depth first, so a composite draws in part order."""
    if spec.kind == "composite":
        return [bank for part in spec.parts for bank in _banks(part, shape)]
    k = int(spec.kind != "none")
    reversion, kick, scale = np.full(k, spec.reversion), np.full(k, spec.volatility), 1.0
    if spec.kind == "random_walk":
        reversion, kick = np.zeros(1), np.full(1, spec.step)
    elif spec.kind == "one_over_f":
        (reversion, kick), scale = one_over_f_coefficients(), spec.scale
    return [(spec, np.zeros(shape + (len(kick),)), np.exp(-reversion), kick, scale)]
