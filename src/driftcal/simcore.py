"""Minimal statevector kernel: unitaries, stochastic Pauli noise, measurement.

Conventions, fixed once here and relied on everywhere else:

- A state on ``n`` qubits is a complex vector of length ``2**n``.  Basis
  index ``i`` corresponds to the bitstring ``format(i, f"0{n}b")`` with
  qubit 0 leftmost (most significant).  ``apply_unitary`` and
  ``apply_block`` also act on each state of a (..., 2**n) stack as alone.
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
its 1-D diagonal of length 2**k.  ``apply_unitary`` is the checked wrapper; of
targets in one ascending block, distinct by construction, it range-checks only
the ends.  A diagonal on the whole register, targets in order, multiplies the
state elementwise; on other targets it goes through ``np.diag`` to the square
path.  That hands a gate on one ascending block of qubits t0..t0+k-1 to
``apply_block``, the unchecked core: through a reshaped (-1, 2**k, rest) view,
stack axes and qubits before the block in the -1, with no transposed copy, or,
for a lone state under a gate on the whole register, one cheaper ``dot``.
Other orders go through a transpose.  ``apply_block`` checks nothing: its
caller vouches for the gate and the (2**k, rest) dims once, as ``circuits``
does when it plans a family.
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
    if not state.ndim:
        raise ValueError("a state needs at least one axis")
    size = state.shape[-1]
    n = size.bit_length() - 1
    if n < 0 or 1 << n != size:
        raise ValueError("state length is not a power of two")
    return n


def apply_unitary(state: np.ndarray, u: np.ndarray, targets: list[int] | tuple[int, ...]) -> np.ndarray:
    """Apply ``u`` to ``targets`` (identity elsewhere); returns a new state."""
    n = num_qubits(state)
    targets = tuple(targets)
    k = len(targets)
    t0 = targets[0] if k else 0
    ascending = targets == tuple(range(t0, t0 + k))  # one ascending block: distinct by construction
    if ascending:
        if not (0 <= t0 and t0 + k <= n):
            raise IndexError(f"target out of range for {n} qubits: {targets}")
    elif len(set(targets)) != k:
        raise ValueError("targets must be distinct")
    elif not (0 <= min(targets) and max(targets) < n):
        raise IndexError(f"target out of range for {n} qubits: {targets}")
    if u.shape != (1 << k, 1 << k):
        if u.shape != (1 << k,):
            raise ValueError(f"unitary dim {u.shape} does not match {k} targets")
        if ascending and k == n:  # a diagonal on the whole register, in order
            return u * state
        u = np.diag(u)
    if ascending:
        return apply_block(state, u, (1 << k, 1 << (n - t0 - k)))
    shape = (-1,) + (2,) * n  # the leading axes folded into one
    order = (0,) + tuple(1 + ax for ax in targets + tuple(ax for ax in range(n) if ax not in targets))
    psi = u @ state.reshape(shape).transpose(order).reshape(-1, 1 << k, 1 << (n - k))
    out = np.empty(state.shape, psi.dtype)  # psi's dtype: a real state times a complex u is complex
    out.reshape(shape).transpose(order)[...] = psi.reshape(shape)
    return out


def apply_block(state: np.ndarray, u: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """The unchecked core of ``apply_unitary``: ``u`` on qubits t0..t0+k-1, where
    ``dims`` = (2**k, rest) splits each state's last axis into (block, qubits
    after), the qubits before folding into the leading axis; returns a new state.
    A lone 1-D state whose block is the whole register takes ``u.dot(state)``: the
    same BLAS zgemv, bit for bit, at 0.35 us a call against the view's ~1 us matmul.
    A 1x1 gate's block is shorter than any state, so it never takes the scalar dot."""
    block, rest = dims  # unpacked: a starred reshape(-1, *dims) is measurably slower per call
    if state.ndim == 1 and block == len(state):
        return u.dot(state)
    return (u @ state.reshape(-1, block, rest)).reshape(state.shape)


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
