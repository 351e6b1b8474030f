"""Shared test helpers: independent oracles kept out of the package.

The density-matrix channel, the Pauli-transfer-matrix algebra, the
matrix-exponential gate constructions and the variance recursion here are
deliberately separate implementations from the package's
statevector/closed-form paths, so every comparison is a genuine dual-route
check; ``op_by_op_state`` is the dense reference for a circuit's planned
steps, and ``noisy_op_by_op_state`` the Pauli-unraveling reference for a
noisy shot, draw for draw.  The Pauli table and label parser are the tests'
own too: X and Z are written out and Y is built as iXZ, so a wrong Pauli in
the package's depolarization cannot cancel out of a comparison.  The state
overlap, the unitarity check and the per-id random streams are helpers only
the tests use.

Transfer matrices use the normalized Pauli basis (they are real); one-qubit
depolarization is diag(1, 1-p, 1-p, 1-p), which keeps unitary transfer
matrices invertible.
"""
from itertools import product
from math import sqrt

import numpy as np
import pytest
from numpy.random import Generator, PCG64, SeedSequence
from scipy.linalg import expm

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULIS = {"I": np.eye(2, dtype=complex), "X": _X, "Y": 1j * _X @ _Z, "Z": _Z}


def pauli_matrix(label: str) -> np.ndarray:
    """Dense matrix of a Pauli string, qubit 0 = leftmost letter."""
    if not label or set(label) - set(_PAULIS):
        raise ValueError(f"invalid Pauli label {label!r}")
    out = np.ones((1, 1), dtype=complex)
    for c in label:
        out = np.kron(out, _PAULIS[c])
    return out


def expm_gate(generator: np.ndarray) -> np.ndarray:
    """Matrix-exponential gate oracle: exp(i * generator)."""
    return expm(1j * generator)


def density_from_state(state: np.ndarray) -> np.ndarray:
    return np.outer(state, state.conj())


def depolarize_density(rho: np.ndarray, p: float, targets: list[int], n: int) -> np.ndarray:
    """Exact depolarizing channel on ``targets`` of an n-qubit density matrix."""
    twirl = np.zeros_like(rho)
    for which in range(4 ** len(targets)):
        pmat = _pauli_on(which, targets, n)
        twirl += pmat @ rho @ pmat.conj().T
    twirl /= 4 ** len(targets)
    return (1.0 - p) * rho + p * twirl


def _pauli_on(which: int, targets, n: int) -> np.ndarray:
    """The n-qubit Pauli whose base-4 digits of ``which``, most significant
    first, give I, X, Y or Z on ``targets`` in order."""
    k = len(targets)
    label = ["I"] * n
    for j, t in enumerate(targets):
        label[t] = "IXYZ"[(which >> (2 * (k - 1 - j))) & 3]
    return pauli_matrix("".join(label))


def embed_unitary(u: np.ndarray, targets: list[int], n: int) -> np.ndarray:
    """Dense n-qubit embedding of ``u`` acting on ``targets``; a 1-D ``u`` is a
    diagonal gate's diagonal."""
    if u.ndim == 1:
        u = np.diag(u)
    dim = 2**n
    full = np.zeros((dim, dim), dtype=complex)
    k = len(targets)
    rest = [q for q in range(n) if q not in targets]
    for col in range(dim):
        bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        tidx = sum(bits[t] << (k - 1 - j) for j, t in enumerate(targets))
        for row_t in range(2**k):
            amp = u[row_t, tidx]
            if amp == 0:
                continue
            new_bits = list(bits)
            for j, t in enumerate(targets):
                new_bits[t] = (row_t >> (k - 1 - j)) & 1
            row = sum(b << (n - 1 - q) for q, b in enumerate(new_bits))
            full[row, col] += amp
    return full


def op_by_op_state(ops, reps: int, n_qubits: int, unitary) -> np.ndarray:
    """|0...0> through each op's dense embedding in turn, ``reps`` times over;
    ``unitary(name)`` gives an op's matrix and ``ops`` holds (name, targets) pairs."""
    return noisy_op_by_op_state(ops, reps, n_qubits, unitary, 0.0, 0.0, None)


def noisy_op_by_op_state(ops, reps: int, n_qubits: int, unitary, p: float, p_spam: float,
                         rng: Generator | None) -> np.ndarray:
    """``op_by_op_state`` with depolarization unraveled as simcore documents
    it: after each op with probability ``p`` on its targets, then once with
    probability ``p_spam`` on all qubits.  A nonzero probability draws one
    ``rng.random()``; below it, one ``rng.integers(4**k)`` picks the Pauli on
    the k targets, its base-4 digits taken most significant first."""
    state = np.zeros(2**n_qubits, dtype=complex)
    state[0] = 1.0
    for _ in range(reps):
        for name, targets in ops:
            state = embed_unitary(unitary(name), list(targets), n_qubits) @ state
            state = _unravel(state, p, list(targets), n_qubits, rng)
    return _unravel(state, p_spam, list(range(n_qubits)), n_qubits, rng)


def _unravel(state: np.ndarray, p: float, targets: list[int], n: int, rng: Generator | None) -> np.ndarray:
    if p == 0 or rng.random() >= p:
        return state
    return _pauli_on(int(rng.integers(4 ** len(targets))), targets, n) @ state


def _pauli_basis(n_qubits: int) -> list[np.ndarray]:
    labels = ["".join(s) for s in product("IXYZ", repeat=n_qubits)]
    norm = sqrt(2.0**n_qubits)
    return [pauli_matrix(lbl) / norm for lbl in labels]


def ptm(u: np.ndarray) -> np.ndarray:
    """Pauli transfer matrix of a unitary in the normalized Pauli basis."""
    d = u.shape[0]
    n = int(np.log2(d))
    basis = _pauli_basis(n)
    out = np.empty((d * d, d * d))
    for j, pj in enumerate(basis):
        conj = u @ pj @ u.conj().T
        for i, pi_ in enumerate(basis):
            out[i, j] = np.trace(pi_.conj().T @ conj).real
    return out


def depolarizing_ptm(p: float, n_qubits: int = 1) -> np.ndarray:
    """Transfer matrix of full depolarization with probability ``p``."""
    d2 = 4**n_qubits
    diag = np.full(d2, 1.0 - p)
    diag[0] = 1.0
    return np.diag(diag)


def process_infidelity(channel_ptm: np.ndarray, target: np.ndarray) -> float:
    """1 - Tr(L_channel L_target^-1) / d^2.

    Reduces to ``entanglement_infidelity`` when the channel is unitary.
    """
    d2 = channel_ptm.shape[0]
    lam_u = ptm(target)
    if abs(np.linalg.det(lam_u)) < 1e-12:
        raise ValueError("target transfer matrix is singular")
    return float(1.0 - np.trace(channel_ptm @ np.linalg.inv(lam_u)) / d2)


def overlap(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|, the global-phase-insensitive state overlap."""
    return float(abs(np.vdot(a, b)))


def is_unitary(u: np.ndarray, atol: float = 1e-10) -> bool:
    return bool(np.allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=atol))


def stream(seed: int, stream_id: int = 0) -> Generator:
    """A per-(seed, stream_id) PCG64 stream for tests that need several independent ones."""
    return Generator(PCG64(SeedSequence(seed, spawn_key=(stream_id,))))


def variance_recursion(sigma0_sq: float, mu0: float, gain: float, s: float,
                       step: float, t: int) -> float:
    """Iterate the one-step difference equations; oracle for predict_variance."""
    mu = mu0
    var = sigma0_sq
    for _ in range(t):
        var = var + gain**2 / s**2 + step**2 - 4.0 * gain * var - 4.0 * gain**2 * mu**2
        mu = (1.0 - 2.0 * gain) * mu
    return var


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
