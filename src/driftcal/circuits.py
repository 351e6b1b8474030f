"""Circuit representation, noisy execution, and the exact Jacobian.

A ``Circuit`` stores its gate sequence in execution order (first-applied
first) and a whole-sequence repetition count.  Circuits start from |0...0>
and end with a computational-basis measurement.

A ``CircuitFamily`` is a gate table and the probe circuits it runs.  The
table maps a gate name to a builder of the gate's unitary (a diagonal gate's
1-D diagonal, as ``simcore`` takes it) from the parameter errors, or, for a
fixed gate that reads no error, to its read-only matrix.
The table is checked against the circuits when the family is built: an op
that names a gate outside the table, or whose target count does not match the
gate's dimension, a gate that reads more errors than the family has
parameters, and a fixed matrix that is writable raise ``ValueError`` then, not
mid-run.

The family also plans each circuit once, at build, into a step list for
noiseless shots.  Consecutive fixed ops whose qubits span a contiguous block
t0..t0+k-1 no wider than the family's widest gate become one step: their
product, composed on basis states with the checked ``apply_unitary`` (so any
target order works), kept read-only with its (2**t0, 2**k, rest) view dims.
Every other op stays a (name, targets) step.  The plan's targets and
matrices are checked once, when it is made, so its precomposed steps skip the
per-call check and go through ``apply_block``, the unchecked core; only the
(name, targets) steps go through the checked ``apply_unitary``.  A gate
depends only on its name and the shot's errors, so a noiseless shot builds
each gate that a (name, targets) step names once: a ``cz`` shot builds one
``cz`` diagonal and runs three precomposed steps and three diagonal
multiplies.  A shot with per-gate noise keeps one step per op, because
depolarization follows every op: it builds every distinct gate of its circuit
once and applies them op by op.  Built-in families:

- ``gx_family``: one parameter; every ``gx`` op gets rotation error d[0].
  Repetition parity decides the character of the circuit: odd powers
  (1 mod 4) give a uniform ideal outcome distribution, even powers a
  deterministic one.
- ``gxgy_family``: two parameters (rotation error, axis tilt); ``gx`` ops
  get gx(d[0]) and ``gy`` ops get gy(d[0], -d[1]).  The tilt sign is fixed
  so that a positive tilt parameter biases outcome "0" upward in the first
  probe circuit.
- ``cz_family``: three parameters feeding the diagonal phase gate; the
  interleaved gx(0) and Hadamard gates are fixed, read-only matrices built
  once at import, so a shot builds only its ``cz`` gate.

Noisy execution applies depolarization with probability ``p`` after each
gate, then a single depolarization with probability ``p_spam`` on all qubits
immediately before measurement.

A ``Jacobian`` is its matrix, its rank and its pseudoinverse.  Each row is
the exact sensitivity of one (circuit, outcome) probability to the control
parameters at zero error, from one noiseless pass per circuit that carries
psi and its tangents dpsi_j: per op, dpsi_j <- U dpsi_j + dU_j psi, then
psi <- U psi, with the dU_j psi term skipped where dU_j is exactly zero, as
for a gate that does not read d_j; the row entries are 2 Re(conj(psi)
dpsi_j).  Each gate's dU_j comes from its own builder by the two-shift
parameter-shift rule
dU_j = [U(pi/2 e_j) - U(-pi/2 e_j)]/2 + (1 - sqrt 2)/4 [U(pi e_j) - U(-pi e_j)],
exact for entries with only frequencies 0, 1/2 and 1 in each error, as in
every gate above.  Rows are grouped by circuit, in the order given, outcomes
in increasing binary order.  Rank and pseudoinverse come from one SVD, taken
once, with one cutoff: singular values at or below
max(max(shape) * eps * s[0], 1e-9) count as zero, so the pseudoinverse is
truncated at the rank.  The 1e-9 floor serves definite-outcome sets, whose
Jacobian is exactly zero and whose singular values are all roundoff.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.random import Generator

from . import gates, simcore
from .gates import ControlParameterSet
from .simcore import (apply_block, apply_depolarizing, apply_unitary, measure_computational,
                      outcome_distribution, zero_state)


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
        for name, value in (("n_qubits", self.n_qubits), ("reps", self.reps)):
            if not (isinstance(value, (int, np.integer)) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1")
        for op in self.ops:
            if not all(isinstance(t, (int, np.integer)) for t in op.targets):
                raise ValueError(f"gate {op.name} has a target that is not an integer")
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
    """A gate table (name -> builder(deltas) or fixed read-only matrix) and
    the probe circuits it runs, each planned once into noiseless steps."""

    def __init__(self, name: str, n_params: int, circuits: list[Circuit],
                 gates: dict[str, Callable[[np.ndarray], np.ndarray] | np.ndarray]):
        qubits = {c.n_qubits for c in circuits}
        if len(qubits) != 1:
            raise ValueError("a family needs circuits that share one qubit count")
        self.name = name
        self.n_params = n_params
        self.circuits = circuits
        self.n_qubits = qubits.pop()
        self._gates = gates
        for gate, u in gates.items():
            if isinstance(u, np.ndarray) and u.flags.writeable:
                raise ValueError(f"fixed gate {gate!r} must be a read-only matrix")
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
        widest = max(dims.values(), default=1).bit_length() - 1
        # keyed by id for a cheap per-shot lookup; each entry holds its circuit, so the id stays its own
        self._plans = {id(c): (c, self._plan(c, widest)) for c in circuits}

    def gate_unitary(self, name: str, deltas: np.ndarray) -> np.ndarray:
        gate = self._gates[name]
        return gate if isinstance(gate, np.ndarray) else gate(deltas)

    def plan(self, circuit: Circuit) -> tuple[tuple[str, ...], tuple[tuple, ...]]:
        """The gate names a noiseless shot of ``circuit`` builds, and the steps
        of one repetition: (read-only matrix, view dims) for a precomposed
        run of fixed ops, (name, targets) for every other op."""
        entry = self._plans.get(id(circuit))
        if entry is None:
            entry = next((e for e in self._plans.values() if e[0] == circuit), None)
            if entry is None:
                raise ValueError(f"circuit is not one of family {self.name!r}'s circuits")
        return entry[1]

    def _plan(self, circuit: Circuit, widest: int) -> tuple[tuple[str, ...], tuple[tuple, ...]]:
        steps, run = [], []
        for op in circuit.ops:
            if isinstance(self._gates[op.name], np.ndarray):
                if run and _span(run + [op])[1] > widest:
                    steps.append(self._compose(run))
                    run = []
                if _span([op])[1] <= widest:
                    run.append(op)
                    continue
            if run:
                steps.append(self._compose(run))
                run = []
            steps.append((op.name, op.targets))
        if run:
            steps.append(self._compose(run))
        names = tuple(dict.fromkeys(key for key, _ in steps if isinstance(key, str)))
        return names, tuple(steps)

    def _compose(self, run: list[GateOp]) -> tuple[np.ndarray, tuple[int, int, int]]:
        """The product of fixed ops on the block they span, as a read-only
        matrix with its (2**t0, 2**k, rest) view dims."""
        t0, k = _span(run)
        columns = []
        for j in range(1 << k):
            state = np.zeros(1 << k, dtype=complex)
            state[j] = 1.0
            for op in run:  # simcore's own name, so a wrapped circuits.apply_unitary sees shots only
                state = simcore.apply_unitary(state, self._gates[op.name], [t - t0 for t in op.targets])
            columns.append(state)
        u = np.array(columns).T.copy()
        u.flags.writeable = False
        return u, (1 << t0, 1 << k, 1 << (self.n_qubits - t0 - k))


def _span(ops: list[GateOp]) -> tuple[int, int]:
    """(first qubit, width) of the contiguous block the targets of ``ops`` span."""
    qubits = [t for op in ops for t in op.targets]
    if not qubits:
        return 0, 0
    return min(qubits), max(qubits) - min(qubits) + 1


GX_GATES = {"gx": lambda d: gates.gx(d[0])}

GXGY_GATES = {
    "gx": lambda d: gates.gx(d[0]),
    "gy": lambda d: gates.gy(d[0], -d[1]),  # tilt sign convention, see module docstring
}

_GX0 = gates.gx(0.0)
_GX0.flags.writeable = False

CZ_GATES = {
    "cz": lambda d: gates.cz(d[0], d[1], d[2]),
    "gx0": _GX0,
    "h": gates.HADAMARD,
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
    measurement as ``noise`` says; each gate a shot applies by name is built once."""
    if rng is None and (noise.p > 0 or noise.p_spam > 0):
        raise ValueError("a noisy shot needs an rng")
    names, steps = family.plan(circuit)
    if noise.p > 0:
        built = {name: family.gate_unitary(name, deltas) for name in circuit.gate_names}
        state = zero_state(circuit.n_qubits)
        for _ in range(circuit.reps):
            for op in circuit.ops:
                state = apply_unitary(state, built[op.name], op.targets)
                state = apply_depolarizing(state, noise.p, op.targets, rng)
    else:
        built = {name: family.gate_unitary(name, deltas) for name in names}
        state = zero_state(circuit.n_qubits)
        for _ in range(circuit.reps):
            for key, where in steps:
                if type(key) is str:
                    state = apply_unitary(state, built[key], where)
                else:
                    state = apply_block(state, key, where)
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
    m = family.n_params
    built = {}  # gate name -> (U, [dU_j]) at zero error, dU_j by the two-shift rule
    for name in dict.fromkeys(n for c in circuits for n in c.gate_names):
        shifted = [[family.gate_unitary(name, a * e) for a in (np.pi / 2, -np.pi / 2, np.pi, -np.pi)]
                   for e in np.eye(m)]
        built[name] = (family.gate_unitary(name, np.zeros(m)),
                       [(u1 - u2) / 2 + (1 - np.sqrt(2)) / 4 * (u3 - u4) for u1, u2, u3, u4 in shifted])
    blocks = []
    for circuit in circuits:
        psi = zero_state(circuit.n_qubits)
        dpsi = [np.zeros_like(psi)] * m
        for op in circuit.ops * circuit.reps:
            u, du = built[op.name]
            dpsi = [apply_unitary(d, u, op.targets) for d in dpsi]
            dpsi = [d + apply_unitary(psi, dj, op.targets) if dj.any() else d for d, dj in zip(dpsi, du)]
            psi = apply_unitary(psi, u, op.targets)
        blocks.append(2 * (psi.conj() * np.array(dpsi)).real.T)
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
