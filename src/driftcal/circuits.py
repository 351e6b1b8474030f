"""Circuit representation, noisy execution, and the finite-difference Jacobian.

A ``Circuit`` stores its gate sequence in execution order (first-applied
first) and a whole-sequence repetition count.  Circuits start from |0...0>
and end with a computational-basis measurement.

A ``CircuitFamily`` is a gate table (gate name -> builder of the gate's
unitary from the parameter errors) and the probe circuits it runs.  The
table is checked against the circuits when the family is built: an op that
names a gate outside the table, or whose target count does not match the
gate's dimension, and a gate that reads more errors than the family has
parameters raise ``ValueError`` then, not mid-run.  A gate depends
only on its name and the shot's errors, so each shot builds every distinct
gate of its circuit once and applies the built gates op by op.  Built-in
families:

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

A ``Jacobian`` is its matrix, its rank and its pseudoinverse.  Each row is
the sensitivity of one (circuit, outcome) probability: central finite
differences of the noiseless outcome distribution at the zero-error point,
taken with respect to the control parameters (step ``FD_STEP`` = 1e-5: small
enough that printed 3-decimal references are reproduced, large enough to
stay clear of roundoff).  Rows are grouped by circuit, in the order the
circuits are given, with each circuit's outcomes in increasing binary order.
Rank and pseudoinverse come from one SVD of the matrix, taken once when it
is built, with one cutoff: singular values at or below
max(max(shape) * eps * s[0], 1e-9) count as zero, so the pseudoinverse is
the one truncated at the rank.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

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

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        for op in self.ops:
            if len(set(op.targets)) != len(op.targets):
                raise ValueError(f"gate {op.name} repeats a target")
            if any(t < 0 or t >= self.n_qubits for t in op.targets):
                raise ValueError(f"gate {op.name} targets out of range")

    @cached_property
    def gate_names(self) -> tuple[str, ...]:
        """Distinct gate names in first-use order."""
        return tuple(dict.fromkeys(op.name for op in self.ops))


@dataclass(frozen=True)
class NoiseParams:
    p: float = 0.0
    p_spam: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.p <= 1.0 and 0.0 <= self.p_spam <= 1.0):
            raise ValueError("noise probabilities must lie in [0, 1]")


class CircuitFamily:
    """A gate table (name -> builder(deltas)) and the probe circuits it runs."""

    def __init__(self, name: str, n_params: int, circuits: list[Circuit],
                 gates: dict[str, Callable[[np.ndarray], np.ndarray]]):
        qubits = {c.n_qubits for c in circuits}
        if len(qubits) != 1:
            raise ValueError("a family needs circuits that share one qubit count")
        self.name = name
        self.n_params = n_params
        self.circuits = circuits
        self.n_qubits = qubits.pop()
        self._gates = gates
        try:
            dims = {g: len(self.gate_unitary(g, np.zeros(n_params))) for g in gates}
        except IndexError as exc:
            raise ValueError(f"family {name!r}: a gate reads more than {n_params} error(s)") from exc
        for circuit in circuits:
            for op in circuit.ops:
                if op.name not in dims:
                    raise ValueError(f"family {name!r} has no gate {op.name!r}")
                if dims[op.name] != 2**len(op.targets):
                    raise ValueError(f"gate {op.name!r} does not act on {len(op.targets)} qubit(s)")

    def gate_unitary(self, name: str, deltas: np.ndarray) -> np.ndarray:
        return self._gates[name](deltas)


GX_GATES = {"gx": lambda d: gates.gx(d[0])}

GXGY_GATES = {
    "gx": lambda d: gates.gx(d[0]),
    "gy": lambda d: gates.gy(d[0], -d[1]),  # tilt sign convention, see module docstring
}

CZ_GATES = {
    "cz": lambda d: gates.cz(d[0], d[1], d[2]),
    "gx0": lambda d: gates.gx(0.0),
    "h": lambda d: gates.hadamard(),
}


def gx_power(reps: int = 1) -> Circuit:
    """(gx)^reps on one qubit; reps odd -> indefinite, even -> definite."""
    return Circuit((GateOp("gx", (0,)),), n_qubits=1, reps=reps)


def gx_family(reps: int = 1) -> CircuitFamily:
    return CircuitFamily("gx", 1, [gx_power(reps)], GX_GATES)


def gxgy_circuits(reps: int = 1) -> list[Circuit]:
    # written right-to-left in the usual circuit notation; stored in execution order
    c1 = tuple(GateOp(n, (0,)) for n in ("gx", "gy", "gx", "gy", "gx"))
    c2 = tuple(GateOp(n, (0,)) for n in ("gy", "gx", "gy", "gx", "gy", "gx", "gx"))
    return [Circuit(c1, 1, reps), Circuit(c2, 1, reps)]


def gxgy_family(reps: int = 1) -> CircuitFamily:
    return CircuitFamily("gxgy", 2, gxgy_circuits(reps), GXGY_GATES)


def cz_circuits(reps: int = 1) -> list[Circuit]:
    def seq(gx_target: int) -> tuple[GateOp, ...]:
        ops = [GateOp("h", (0,)), GateOp("h", (1,))]
        for _ in range(3):
            ops.append(GateOp("gx0", (gx_target,)))
            ops.append(GateOp("cz", (0, 1)))
        return tuple(ops)

    return [Circuit(seq(1), 2, reps), Circuit(seq(0), 2, reps)]


def cz_family(reps: int = 1) -> CircuitFamily:
    return CircuitFamily("cz", 3, cz_circuits(reps), CZ_GATES)


def final_state(circuit: Circuit, family: CircuitFamily, deltas: np.ndarray,
                noise: NoiseParams = NoiseParams(), rng: Generator | None = None) -> np.ndarray:
    """The state before measurement, depolarized after each gate and before
    measurement as ``noise`` says; each distinct gate is built once."""
    built = {name: family.gate_unitary(name, deltas) for name in circuit.gate_names}
    state = zero_state(circuit.n_qubits)
    for _ in range(circuit.reps):
        for op in circuit.ops:
            state = apply_unitary(state, built[op.name], op.targets)
            if noise.p > 0:
                state = apply_depolarizing(state, noise.p, op.targets, rng)
    if noise.p_spam > 0:
        state = apply_depolarizing(state, noise.p_spam, tuple(range(circuit.n_qubits)), rng)
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
    return measure_computational(final_state(circuit, family, deltas, noise, rng), rng)


@dataclass
class Jacobian:
    matrix: np.ndarray                       # (n_rows, n_params)
    rank: int
    pinv: np.ndarray                         # (n_params, n_rows), truncated at rank

    @property
    def informationally_complete(self) -> bool:
        return self.rank == self.matrix.shape[1]


def build_jacobian(circuits: list[Circuit], family: CircuitFamily) -> Jacobian:
    """Stack sensitivity rows for every (circuit, outcome) pair.

    Rows are grouped by circuit, outcomes in increasing binary order.
    Columns over a circuit's full outcome set sum to zero (probability
    conservation), so rank deficits signal an incomplete circuit set.
    """
    if not circuits:
        raise ValueError("need at least one circuit")
    blocks = []
    m = family.n_params
    for circuit in circuits:
        block = np.zeros((2**circuit.n_qubits, m))
        for j in range(m):
            e = np.zeros(m)
            e[j] = FD_STEP
            hi = exact_distribution(circuit, family, e)
            lo = exact_distribution(circuit, family, -e)
            block[:, j] = (hi - lo) / (2 * FD_STEP)
        blocks.append(block)
    matrix = np.vstack(blocks)
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    kept = s > max(max(matrix.shape) * np.finfo(float).eps * s[0], 1e-9)
    inv = np.zeros_like(s)
    inv[kept] = 1.0 / s[kept]
    return Jacobian(matrix, int(kept.sum()), vt.T @ (inv[:, None] * u.T))


def pseudoinverse_estimate(jac: Jacobian, frequencies: np.ndarray) -> np.ndarray:
    """Least-squares parameter-error estimate from outcome frequencies."""
    if not jac.informationally_complete:
        raise ValueError("Jacobian is rank-deficient; circuit set is not informationally complete")
    freqs = np.asarray(frequencies, dtype=float)
    if len(freqs) != jac.matrix.shape[0]:
        raise ValueError("frequency vector length does not match Jacobian rows")
    return jac.pinv @ freqs
