"""Parametrized gate constructors and gate-quality metrics.

Angle conventions:

- ``gx(delta)`` implements exp(+i/2 (pi/2 + delta) sigma_x): a pi/2 rotation
  about x with over/under-rotation ``delta``.
- ``gy(theta, phi)`` implements
  exp(+i/2 (pi/2 + theta) (sin(phi) sigma_x + cos(phi) sigma_y)): rotation
  error ``theta`` plus an axis tilt ``phi`` away from y toward x.
- ``cz(zi, iz, zz)`` is the diagonal two-qubit phase gate
  exp(i/2 [pi/2 I + (pi/2 + zz) Z(x)Z - (pi/2 + iz) I(x)Z - (pi/2 + zi) Z(x)I]);
  all three angles zero gives diag(1, 1, 1, -1) up to global phase.  It
  returns its length-4 diagonal, not the 4x4 matrix.  Qubit 0 is the left
  tensor factor.  Note the phase errors use the same half-angle
  convention as the single-qubit gates: every gate here is
  exp(i/2 (ideal + error) * generator).
- ``HADAMARD`` is the one fixed gate, a read-only module constant.

Rotation-angle error ``delta`` relates to a control parameter ``eta`` via
delta = alpha * (eta - eta_opt); alpha defaults to 1 everywhere, making
delta and the control offset interchangeable.

Infidelities are entanglement infidelities; with depolarization they are
process infidelities in the normalized-Pauli-basis transfer-matrix
convention, in which one-qubit depolarization is diag(1, 1-p, 1-p, 1-p).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import cos, pi, sin, sqrt

import numpy as np

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / sqrt(2.0)
HADAMARD.flags.writeable = False


@dataclass
class ControlParameterSet:
    """Tunable parameters, their hidden optima, and coupling constants."""

    eta: np.ndarray
    eta_opt: np.ndarray
    alpha: np.ndarray

    def __post_init__(self) -> None:
        self.eta = np.array(self.eta, dtype=float, ndmin=1)
        self.eta_opt = np.array(self.eta_opt, dtype=float, ndmin=1)
        self.alpha = np.array(self.alpha, dtype=float, ndmin=1)
        if not (len(self.eta) == len(self.eta_opt) == len(self.alpha)):
            raise ValueError("eta, eta_opt, alpha must have equal lengths")
        if not (np.isfinite((self.eta, self.eta_opt, self.alpha)).all() and self.alpha.all()):
            raise ValueError("eta, eta_opt, alpha must be finite, and alpha entries nonzero")

    @property
    def deltas(self) -> np.ndarray:
        """Rotation-angle errors alpha * (eta - eta_opt)."""
        return self.alpha * (self.eta - self.eta_opt)


def gx(delta: float) -> np.ndarray:
    half = 0.5 * (pi / 2 + delta)
    return np.array(
        [[cos(half), 1j * sin(half)], [1j * sin(half), cos(half)]], dtype=complex
    )


def gy(theta: float, phi: float = 0.0) -> np.ndarray:
    half = 0.5 * (pi / 2 + theta)
    c, s, tilt = cos(half), sin(half), complex(cos(phi), sin(phi))
    return np.array([[c, s * tilt], [-s * tilt.conjugate(), c]], dtype=complex)


def cz(zi: float = 0.0, iz: float = 0.0, zz: float = 0.0) -> np.ndarray:
    """Diagonal controlled-phase gate with three tunable phase errors, as its diagonal."""
    a, b, c = pi / 2 + zi, pi / 2 + iz, pi / 2 + zz
    # pi/2 + c Z0Z1 - b Z1 - a Z0 at basis indices 00, 01, 10, 11
    phase = np.array([pi / 2 + c - b - a, pi / 2 - c + b - a, pi / 2 - c - b + a, pi / 2 + c + b + a])
    return np.exp(0.5j * phase)


def entanglement_infidelity(w: np.ndarray, v: np.ndarray) -> float:
    """1 - |Tr(W^dag V)|^2 / d^2 for two unitaries of equal dimension."""
    if w.shape != v.shape or w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("dimension mismatch: need two square matrices of one shape")
    d = w.shape[0]
    val = 1.0 - abs(np.trace(w.conj().T @ v)) ** 2 / d**2
    return float(min(max(val, 0.0), 1.0))


def gx_process_infidelity(delta: float | np.ndarray, p: float = 0.0) -> float | np.ndarray:
    """Closed form for gx(delta) vs gx(0) with trailing depolarization ``p``.

    Equals process_infidelity(depolarizing_ptm(p) @ ptm(gx(delta)), gx(0)),
    which the tests verify: 3p/4 + (1-p) sin^2(delta/2).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    return 0.75 * p + (1.0 - p) * np.sin(np.asarray(delta) / 2.0) ** 2
