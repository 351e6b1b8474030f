"""Minimal statevector kernel: unitaries, stochastic Pauli noise, measurement.

Conventions, fixed once here and relied on everywhere else:

- A state on ``n`` qubits is a complex vector of length ``2**n``.  Basis
  index ``i`` corresponds to the bitstring ``format(i, f"0{n}b")`` with
  qubit 0 leftmost (most significant).
- Measured bit values map to sigma-z eigenvalues as bit 0 <-> z = +1,
  bit 1 <-> z = -1.
- Depolarization is simulated by stochastic unraveling: with probability
  ``p`` a uniformly random Pauli (identity included) is applied to the
  target qubits.  Averaged over shots this reproduces the channel
  rho -> p * I/d + (1 - p) * rho exactly on the targets; a single shot
  remains a pure state.  One draw ``which`` in [0, 4**k) picks the Pauli:
  its base-4 digits, most significant first, give I, X, Y or Z on the k
  targets in order.  The density-matrix form is a test oracle only.
- Global phase is ignored; state equality is tested via |<psi|phi>|.

All operations are pure functions of (state, rng); callers own their states
and rng streams, so trajectories can run fully in parallel.  Every public call
but one checks its input (state length, targets, gate dimension, norm).  The
kernel makes no LAPACK call and composes no gates.

A gate on k targets is a square (2**k, 2**k) matrix or, for a diagonal gate,
its 1-D diagonal of length 2**k.  ``apply_unitary`` is the checked wrapper: it
checks the state, targets and gate.  A diagonal on the whole register, targets
in order, multiplies the state elementwise; on other targets it goes through
``np.diag`` to the square path.  That multiplies a gate on one ascending block
of qubits t0..t0+k-1 into the state as ``apply_block``, the unchecked core,
does: through a reshaped (2**t0, 2**k, rest) view, with no transposed copy.
Other target orders go through a transpose.  ``apply_block`` checks nothing:
its caller vouches for the gate and the view dims once, as ``circuits`` does
for the steps it plans when a family is built.
"""
from __future__ import annotations

import numpy as np
from numpy.random import Generator

# I, X, Y, Z, indexed by a target's base-4 digit of a depolarization draw
_PAULIS = tuple(np.array(m, dtype=complex)
                for m in ([[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]))


def zero_state(n_qubits: int) -> np.ndarray:
    """|0...0> on ``n_qubits``."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be positive")
    state = np.zeros(2**n_qubits, dtype=complex)
    state[0] = 1.0
    return state


def num_qubits(state: np.ndarray) -> int:
    n = len(state).bit_length() - 1
    if n < 0 or 1 << n != len(state):
        raise ValueError("state length is not a power of two")
    return n


def apply_unitary(state: np.ndarray, u: np.ndarray, targets: list[int] | tuple[int, ...]) -> np.ndarray:
    """Apply ``u`` to ``targets`` (identity elsewhere); returns a new state."""
    n = num_qubits(state)
    targets = tuple(targets)
    k = len(targets)
    if len(set(targets)) != k:
        raise ValueError("targets must be distinct")
    if k and not (0 <= min(targets) and max(targets) < n):
        raise IndexError(f"target out of range for {n} qubits: {targets}")
    if u.shape != (1 << k, 1 << k):
        if u.shape != (1 << k,):
            raise ValueError(f"unitary dim {u.shape} does not match {k} targets")
        if targets == tuple(range(n)):  # a diagonal on the whole register, in order
            return u * state
        u = np.diag(u)
    t0 = targets[0] if k else 0
    if targets == tuple(range(t0, t0 + k)):  # apply_block's product, inline: one call less per gate
        return (u @ state.reshape(1 << t0, 1 << k, -1)).reshape(-1)
    shape = (2,) * n
    order = targets + tuple(ax for ax in range(n) if ax not in targets)
    psi = u @ state.reshape(shape).transpose(order).reshape(1 << k, -1)
    out = np.empty(len(state), psi.dtype)  # psi's dtype: a real state times a complex u is complex
    out.reshape(shape).transpose(order)[...] = psi.reshape(shape)
    return out


def apply_block(state: np.ndarray, u: np.ndarray, dims: tuple[int, int, int]) -> np.ndarray:
    """The unchecked core of ``apply_unitary``: ``u`` on qubits t0..t0+k-1, where
    ``dims`` = (2**t0, 2**k, rest) splits the state into (qubits before,
    block, after); returns a new state."""
    return (u @ state.reshape(dims)).reshape(-1)


def apply_depolarizing(state: np.ndarray, p: float, targets: list[int] | tuple[int, ...], rng: Generator) -> np.ndarray:
    """Stochastic unraveling of the depolarizing channel on ``targets``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")
    if p == 0.0 or rng.random() >= p:
        return state
    k = len(targets)
    which = int(rng.integers(4**k))
    if which == 0:
        return state
    pauli = _PAULIS[which >> 2 * (k - 1)]  # the first target's digit
    for j in range(k - 2, -1, -1):
        pauli = np.kron(pauli, _PAULIS[(which >> 2 * j) & 3])
    return apply_unitary(state, pauli, targets)


def outcome_distribution(state: np.ndarray) -> np.ndarray:
    """Exact Born probabilities over all ``2**n`` outcomes."""
    probs = np.abs(state) ** 2
    norm2 = probs.sum()
    if not abs(norm2 - 1.0) <= 1e-9:  # NaN fails too
        raise ValueError(f"state is not normalized: |psi|^2 = {norm2}")
    return probs / norm2


def measure_computational(state: np.ndarray, rng: Generator) -> str:
    """Sample one terminal computational-basis measurement outcome."""
    n = num_qubits(state)
    cum = (np.abs(state) ** 2).cumsum()
    norm2 = cum[-1]
    if not abs(norm2 - 1.0) <= 1e-9:  # NaN fails too
        raise ValueError(f"state is not normalized: |psi|^2 = {norm2}")
    idx = int(cum.searchsorted(rng.random() * norm2, side="right"))
    return format(min(idx, len(cum) - 1), f"0{n}b")


def bit_to_z(bit: int | str) -> int:
    """Measured bit -> sigma-z eigenvalue (0 -> +1, 1 -> -1)."""
    if bit not in (0, 1, "0", "1"):
        raise ValueError(f"not a single bit: {bit!r}")
    return 1 - 2 * int(bit)
