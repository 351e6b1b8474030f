"""Circuit representation, noisy execution, and the finite-difference Jacobian.

A ``Circuit`` stores its gate sequence in execution order (first-applied
first) and a whole-sequence repetition count.  Circuits start from |0...0>
and end with a computational-basis measurement.

A ``CircuitFamily`` binds a vector of control-parameter errors to concrete
gate unitaries.  Built-in families:

- ``gx_family``: one parameter; every ``gx`` op gets rotation error d[0].
  Repetition parity decides the character of the circuit: odd powers
  (1 mod 4) give a uniform ideal outcome distribution, even powers a
  deterministic one.
- ``gxgy_family``: two parameters (rotation error, axis tilt); ``gx`` ops
  get gx(d[0]) and ``gy`` ops get gy(d[0], -d[1]).  The tilt sign is fixed
  so that a positive tilt parameter biases outcome "0" upward in the first
  probe circuit.
- ``cz_family``: three parameters feeding the diagonal phase gate; the
  interleaved single-qubit gates and Hadamards are taken as perfect.

Noisy execution applies depolarization with probability ``p`` after each
gate, then a single depolarization with probability ``p_spam`` on all qubits
immediately before measurement.

Each Jacobian row is the sensitivity of one (circuit, outcome) probability:
central finite differences of the noiseless outcome distribution at the
zero-error point, taken with respect to the control parameters (step
``FD_STEP`` = 1e-5: small enough that printed 3-decimal references are
reproduced, large enough to stay clear of roundoff).  The Jacobian's
pseudoinverse is computed once, when the Jacobian is built.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator

from . import gates
from .gates import ControlParameterSet
from .simcore import apply_depolarizing, apply_unitary, measure_computational, outcome_distribution, zero_state

FD_STEP = 1e-5


@dataclass(frozen=True)
class GateOp:
    name: str
    targets: tuple[int, ...]


@dataclass(frozen=True)
class Circuit:
    ops: tuple[GateOp, ...]
    n_qubits: int
    reps: int = 1
    label: str = ""

    def __post_init__(self) -> None:
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        for op in self.ops:
            if any(t < 0 or t >= self.n_qubits for t in op.targets):
                raise ValueError(f"gate {op.name} targets out of range")

    def with_reps(self, reps: int) -> "Circuit":
        return Circuit(self.ops, self.n_qubits, reps, self.label)


@dataclass(frozen=True)
class NoiseParams:
    p: float = 0.0
    p_spam: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.p <= 1.0 and 0.0 <= self.p_spam <= 1.0):
            raise ValueError("noise probabilities must lie in [0, 1]")


class CircuitFamily:
    """Maps parameter errors to gate unitaries for a set of probe circuits."""

    def __init__(self, name: str, n_params: int, circuits: list[Circuit],
                 gate_map, n_qubits: int):
        self.name = name
        self.n_params = n_params
        self.circuits = circuits
        self._gate_map = gate_map
        self.n_qubits = n_qubits

    def gate_unitary(self, op: GateOp, deltas: np.ndarray) -> np.ndarray:
        return self._gate_map(op, deltas)


def _gx_map(op: GateOp, d: np.ndarray) -> np.ndarray:
    if op.name == "gx":
        return gates.gx(d[0])
    raise KeyError(op.name)


def _gxgy_map(op: GateOp, d: np.ndarray) -> np.ndarray:
    if op.name == "gx":
        return gates.gx(d[0])
    if op.name == "gy":
        return gates.gy(d[0], -d[1])  # tilt sign convention, see module docstring
    raise KeyError(op.name)


def _cz_map(op: GateOp, d: np.ndarray) -> np.ndarray:
    if op.name == "cz":
        return gates.cz(d[0], d[1], d[2])
    if op.name == "gx0":
        return gates.gx(0.0)
    if op.name == "h":
        return gates.hadamard()
    raise KeyError(op.name)


def gx_power(reps: int = 1) -> Circuit:
    """(gx)^reps on one qubit; reps odd -> indefinite, even -> definite."""
    return Circuit((GateOp("gx", (0,)),), n_qubits=1, reps=reps, label=f"gx_power_{reps}")


def gx_family(reps: int = 1) -> CircuitFamily:
    return CircuitFamily("gx", 1, [gx_power(reps)], _gx_map, n_qubits=1)


def gxgy_circuits(reps: int = 1) -> list[Circuit]:
    # written right-to-left in the usual circuit notation; stored in execution order
    c1 = tuple(GateOp(n, (0,)) for n in ("gx", "gy", "gx", "gy", "gx"))
    c2 = tuple(GateOp(n, (0,)) for n in ("gy", "gx", "gy", "gx", "gy", "gx", "gx"))
    return [Circuit(c1, 1, reps, "gxgy_c1"), Circuit(c2, 1, reps, "gxgy_c2")]


def gxgy_family(reps: int = 1) -> CircuitFamily:
    return CircuitFamily("gxgy", 2, gxgy_circuits(reps), _gxgy_map, n_qubits=1)


def cz_circuits(reps: int = 1) -> list[Circuit]:
    def seq(gx_target: int) -> tuple[GateOp, ...]:
        ops = [GateOp("h", (0,)), GateOp("h", (1,))]
        for _ in range(3):
            ops.append(GateOp("gx0", (gx_target,)))
            ops.append(GateOp("cz", (0, 1)))
        return tuple(ops)

    return [Circuit(seq(1), 2, reps, "cz_c1"), Circuit(seq(0), 2, reps, "cz_c2")]


def cz_family(reps: int = 1) -> CircuitFamily:
    return CircuitFamily("cz", 3, cz_circuits(reps), _cz_map, n_qubits=2)


BUILTIN_CIRCUITS = {
    "gx_power": lambda reps=1: gx_power(reps),
    "gxgy_c1": lambda reps=1: gxgy_circuits(reps)[0],
    "gxgy_c2": lambda reps=1: gxgy_circuits(reps)[1],
    "cz_c1": lambda reps=1: cz_circuits(reps)[0],
    "cz_c2": lambda reps=1: cz_circuits(reps)[1],
}


def circuit_from_names(names: list[str | list], n_qubits: int, reps: int = 1,
                       label: str = "custom") -> Circuit:
    """Build a circuit from [name, targets] pairs (or bare names on qubit 0)."""
    ops = []
    for entry in names:
        if isinstance(entry, str):
            ops.append(GateOp(entry, (0,)))
        else:
            name, targets = entry
            ops.append(GateOp(name, tuple(targets)))
    return Circuit(tuple(ops), n_qubits=n_qubits, reps=reps, label=label)


def final_state(circuit: Circuit, family: CircuitFamily, deltas: np.ndarray) -> np.ndarray:
    state = zero_state(circuit.n_qubits)
    for _ in range(circuit.reps):
        for op in circuit.ops:
            state = apply_unitary(state, family.gate_unitary(op, deltas), op.targets)
    return state


def exact_distribution(circuit: Circuit, family: CircuitFamily, deltas: np.ndarray) -> np.ndarray:
    """Noiseless Born distribution over all outcomes of ``circuit``."""
    return outcome_distribution(final_state(circuit, family, deltas))


def run_circuit(circuit: Circuit, family: CircuitFamily, params: ControlParameterSet,
                noise: NoiseParams, rng: Generator) -> str:
    """One sampled shot with per-gate and pre-measurement depolarization."""
    deltas = params.deltas
    if len(deltas) != family.n_params:
        raise ValueError("parameter count does not match circuit family")
    state = zero_state(circuit.n_qubits)
    for _ in range(circuit.reps):
        for op in circuit.ops:
            state = apply_unitary(state, family.gate_unitary(op, deltas), op.targets)
            if noise.p > 0:
                state = apply_depolarizing(state, noise.p, op.targets, rng)
    if noise.p_spam > 0:
        state = apply_depolarizing(state, noise.p_spam, tuple(range(circuit.n_qubits)), rng)
    return measure_computational(state, rng)


@dataclass
class Jacobian:
    matrix: np.ndarray                       # (n_rows, n_params)
    row_labels: list[tuple[int, str]]        # (circuit index, outcome)
    rank: int
    condition_number: float
    n_params: int
    pinv: np.ndarray                         # (n_params, n_rows), pinv(matrix)

    @property
    def informationally_complete(self) -> bool:
        return self.rank == self.n_params

    def row(self, circuit_index: int, outcome: str) -> np.ndarray:
        return self.matrix[self.row_labels.index((circuit_index, outcome))]


def build_jacobian(circuits: list[Circuit], family: CircuitFamily) -> Jacobian:
    """Stack sensitivity rows for every (circuit, outcome) pair.

    Rows are grouped by circuit, outcomes in increasing binary order.
    Columns over a circuit's full outcome set sum to zero (probability
    conservation), so rank deficits signal an incomplete circuit set.
    """
    if not circuits:
        raise ValueError("need at least one circuit")
    rows, labels = [], []
    m = family.n_params
    for ci, circuit in enumerate(circuits):
        dim = 2**circuit.n_qubits
        block = np.zeros((dim, m))
        for j in range(m):
            e = np.zeros(m)
            e[j] = FD_STEP
            hi = exact_distribution(circuit, family, e)
            lo = exact_distribution(circuit, family, -e)
            block[:, j] = (hi - lo) / (2 * FD_STEP)
        for idx in range(dim):
            rows.append(block[idx])
            labels.append((ci, format(idx, f"0{circuit.n_qubits}b")))
    matrix = np.vstack(rows)
    svals = np.linalg.svd(matrix, compute_uv=False)
    tol = max(matrix.shape) * np.finfo(float).eps * (svals[0] if len(svals) else 0.0)
    rank = int(np.sum(svals > max(tol, 1e-9)))
    smallest = svals[m - 1] if len(svals) >= m and svals[m - 1] > 0 else 0.0
    cond = float(svals[0] / smallest) if smallest > 0 else float("inf")
    return Jacobian(matrix, labels, rank, cond, m, np.linalg.pinv(matrix))


def pseudoinverse_estimate(jac: Jacobian, frequencies: np.ndarray) -> np.ndarray:
    """Least-squares parameter-error estimate from outcome frequencies."""
    if not jac.informationally_complete:
        raise ValueError("Jacobian is rank-deficient; circuit set is not informationally complete")
    freqs = np.asarray(frequencies, dtype=float)
    if len(freqs) != jac.matrix.shape[0]:
        raise ValueError("frequency vector length does not match Jacobian rows")
    return jac.pinv @ freqs
