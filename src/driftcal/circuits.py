"""Circuit representation, noisy execution, and the exact Jacobian.

A ``Circuit`` stores its gate sequence in execution order (first-applied
first), ``ops``, as a tuple of (name, targets) pairs, each name a ``str``,
and a whole-sequence repetition count.  Circuits start from |0...0> and end
in a measurement.

A ``CircuitFamily`` is a gate table and the probe circuits it runs, kept as
its own tuple of circuits and copy of the table.  The table maps a gate name
to a builder of the gate's unitary (a diagonal gate's 1-D diagonal, as
``simcore`` takes it) from the parameter errors, or, for a fixed gate that
reads no error, to its read-only matrix.
The table is checked against the circuits when the family is built: an op
that names a gate outside the table, or whose target count does not match the
gate's dimension, a gate that reads more errors than the family has
parameters, a fixed matrix that is writable and a table entry that is neither
a builder nor a matrix raise ``ValueError`` then, not mid-run.

The family also plans each circuit once, at build, into two flat lists of
plain (key, where) steps over the whole shot, all ``reps`` included, each
with the gate names its steps build.  The per-op list is the circuit's
``ops`` repeated ``reps`` times.  The noiseless list repeats one
repetition's steps: consecutive fixed ops whose qubits span a contiguous
block t0..t0+k-1 no wider than the family's widest gate become one step,
their product (composed on a stack of basis states with the checked
``apply_unitary``, so any target order works) kept read-only with its
(2**k, rest) view dims; every other op is a (name, targets) step.  Plans are
checked once, when made, so precomposed steps go through ``apply_block``,
the unchecked core, and only named steps through ``apply_unitary``.

``final_state`` runs every shot through one loop over one list; the lookup
rejects a circuit that is not one of the family's.  A gate depends only on
its name and the shot's errors, so a shot builds each gate its steps name
once: a noiseless ``cz`` shot builds one ``cz`` diagonal and runs three
precomposed steps and three diagonal multiplies.  A shot with per-gate noise
walks the per-op list: each step applies its gate, then depolarizes its
targets with probability ``p``.  A single depolarization with probability
``p_spam`` on all qubits follows, immediately before measurement.
Built-in families:

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

A ``Jacobian`` is its matrix, its rank and its pseudoinverse.  Each row is
the exact sensitivity of one (circuit, outcome) probability to the control
parameters at zero error, from one noiseless pass per circuit that carries
psi and its tangents dpsi_j as one (m + 1, 2**n) stack: per op, one call
maps it to U psi, U dpsi_j, then one call per j adds dU_j psi to dpsi_j,
skipped where dU_j is exactly zero, as for a gate that does not read d_j;
the row entries are 2 Re(conj(psi) dpsi_j).  Each gate's dU_j comes from its
own builder by the two-shift parameter-shift rule
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

import numpy as np
from numpy.random import Generator

from . import gates, simcore
from .gates import ControlParameterSet
from .simcore import (apply_block, apply_depolarizing, apply_unitary, measure_computational,
                      outcome_distribution, zero_state)


@dataclass(frozen=True)
class Circuit:
    ops: tuple[tuple[str, tuple[int, ...]], ...]
    n_qubits: int
    reps: int = 1

    def __post_init__(self) -> None:
        # tuples all the way down, so a circuit hashes and no caller's list can change it
        try:
            object.__setattr__(self, "ops", tuple((name, tuple(targets)) for name, targets in self.ops))
        except (TypeError, ValueError):
            raise ValueError("every op must be a (gate name, targets) pair") from None
        for name, value in (("n_qubits", self.n_qubits), ("reps", self.reps)):
            if not (isinstance(value, (int, np.integer)) and type(value) is not bool and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1")
        for name, targets in self.ops:
            if not isinstance(name, str):
                raise ValueError(f"gate name {name!r} is not a string")
            if not all(isinstance(t, (int, np.integer)) and type(t) is not bool for t in targets):
                raise ValueError(f"gate {name} has a target that is not an integer")
            if len(set(targets)) != len(targets):
                raise ValueError(f"gate {name} repeats a target")
            if any(t < 0 or t >= self.n_qubits for t in targets):
                raise ValueError(f"gate {name} targets out of range")


@dataclass(frozen=True)
class NoiseParams:
    p: float = 0.0
    p_spam: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.p <= 1.0 and 0.0 <= self.p_spam <= 1.0):
            raise ValueError("noise probabilities must lie in [0, 1]")


class CircuitFamily:
    """A gate table (name -> builder(deltas) or fixed read-only matrix) and
    the probe circuits it runs, each planned once into noiseless and per-op
    steps.  The family keeps a tuple of the circuits and a copy of the table."""

    def __init__(self, name: str, n_params: int, circuits: list[Circuit],
                 gates: dict[str, Callable[[np.ndarray], np.ndarray] | np.ndarray]):
        if not (isinstance(n_params, (int, np.integer)) and type(n_params) is not bool and n_params >= 1):
            raise ValueError("n_params must be an integer >= 1")
        circuits, gates = tuple(circuits), dict(gates)  # what the plans are built from stays put
        if not all(isinstance(c, Circuit) for c in circuits):
            raise ValueError("every circuit of a family must be a Circuit")
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
            if not (callable(u) or isinstance(u, np.ndarray)):
                raise ValueError(f"gate {gate!r} is neither a builder nor a read-only matrix")
        try:
            dims = {g: len(self.gate_unitary(g, np.zeros(n_params))) for g in gates}
        except IndexError as exc:
            raise ValueError(f"family {name!r}: a gate reads more than {n_params} error(s)") from exc
        for circuit in circuits:
            for gate, targets in circuit.ops:
                if gate not in dims:
                    raise ValueError(f"family {name!r} has no gate {gate!r}")
                if dims[gate] != 2**len(targets):
                    raise ValueError(f"gate {gate!r} does not act on {len(targets)} qubit(s)")
        widest = max(dims.values(), default=1).bit_length() - 1
        self._plans = {c: (self._plan(c, widest), (tuple(dict.fromkeys(n for n, _ in c.ops)), c.ops * c.reps))
                       for c in circuits}

    def gate_unitary(self, name: str, deltas: np.ndarray) -> np.ndarray:
        gate = self._gates[name]
        return gate if isinstance(gate, np.ndarray) else gate(deltas)

    def plan(self, circuit: Circuit) -> tuple[tuple[tuple[str, ...], tuple[tuple, ...]], ...]:
        """The noiseless and the per-op plan of ``circuit``: each the gate names
        its steps build and its steps over all ``reps`` repetitions.  The per-op
        steps are ``circuit.ops``, the (name, targets) pairs, repeated ``reps``
        times; the noiseless ones hold (read-only matrix, view dims) for a
        precomposed run of fixed ops and (name, targets) for every other op.  A
        foreign circuit raises ``ValueError``."""
        try:
            return self._plans[circuit]
        except (KeyError, TypeError):  # TypeError: an unhashable argument
            raise ValueError(f"circuit is not one of family {self.name!r}'s circuits") from None

    def _plan(self, circuit: Circuit, widest: int) -> tuple[tuple[str, ...], tuple[tuple, ...]]:
        steps, run = [], []
        for op in circuit.ops:  # a (name, targets) pair, kept whole as a step
            if isinstance(self._gates[op[0]], np.ndarray):
                if run and _span(run + [op])[1] > widest:
                    steps.append(self._compose(run))
                    run = []
                if _span([op])[1] <= widest:
                    run.append(op)
                    continue
            if run:
                steps.append(self._compose(run))
                run = []
            steps.append(op)
        if run:
            steps.append(self._compose(run))
        names = tuple(dict.fromkeys(key for key, _ in steps if isinstance(key, str)))
        return names, tuple(steps) * circuit.reps

    def _compose(self, run: list[tuple]) -> tuple[np.ndarray, tuple[int, int]]:
        """The product of fixed ops on the block they span, as a read-only matrix
        with its (2**k, rest) view dims; a stack of basis states makes one call per op."""
        t0, k = _span(run)
        rows = np.eye(1 << k, dtype=complex)
        for name, targets in run:  # simcore's own name, so a wrapped circuits.apply_unitary sees shots only
            rows = simcore.apply_unitary(rows, self._gates[name], [t - t0 for t in targets])
        u = rows.T.copy()
        u.flags.writeable = False
        return u, (1 << k, 1 << (self.n_qubits - t0 - k))


def _span(ops: list[tuple]) -> tuple[int, int]:
    """(first qubit, width) of the contiguous block the targets of ``ops`` span."""
    qubits = [t for _, targets in ops for t in targets]
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
    "cz": lambda d: gates.cz(float(d[0]), float(d[1]), float(d[2])),  # floats: numpy-scalar phases cost more
    "gx0": _GX0,
    "h": gates.HADAMARD,
}


def gx_power(reps: int = 1) -> Circuit:
    """(gx)^reps on one qubit; reps odd -> indefinite, even -> definite."""
    return Circuit((("gx", (0,)),), n_qubits=1, reps=reps)


def gx_family(reps: int = 1) -> CircuitFamily:
    return CircuitFamily("gx", 1, [gx_power(reps)], GX_GATES)


def gxgy_circuits(reps: int = 1) -> list[Circuit]:
    # written right-to-left in the usual circuit notation; stored in execution order
    c1 = tuple((n, (0,)) for n in ("gx", "gy", "gx", "gy", "gx"))
    c2 = tuple((n, (0,)) for n in ("gy", "gx", "gy", "gx", "gy", "gx", "gx"))
    return [Circuit(c1, 1, reps), Circuit(c2, 1, reps)]


def gxgy_family(reps: int = 1) -> CircuitFamily:
    return CircuitFamily("gxgy", 2, gxgy_circuits(reps), GXGY_GATES)


def cz_circuits(reps: int = 1) -> list[Circuit]:
    def seq(gx_target: int) -> tuple[tuple, ...]:
        return (("h", (0,)), ("h", (1,))) + (("gx0", (gx_target,)), ("cz", (0, 1))) * 3

    return [Circuit(seq(1), 2, reps), Circuit(seq(0), 2, reps)]


def cz_family(reps: int = 1) -> CircuitFamily:
    return CircuitFamily("cz", 3, cz_circuits(reps), CZ_GATES)


def final_state(circuit: Circuit, family: CircuitFamily, deltas: np.ndarray,
                noise: NoiseParams = NoiseParams(), rng: Generator | None = None) -> np.ndarray:
    """The state before measurement, depolarized after each gate and before
    measurement as ``noise`` says; each gate a shot applies by name is built once."""
    if len(deltas) != family.n_params:
        raise ValueError("parameter count does not match circuit family")
    p = noise.p
    if rng is None and (p > 0 or noise.p_spam > 0):
        raise ValueError("a noisy shot needs an rng")
    names, steps = family.plan(circuit)[bool(p > 0)]  # per-op steps when each op depolarizes
    built = {name: family.gate_unitary(name, deltas) for name in names}
    state = zero_state(circuit.n_qubits)
    for key, where in steps:
        if type(key) is str:
            state = apply_unitary(state, built[key], where)
            if p > 0:
                state = apply_depolarizing(state, p, where, rng)
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
    return measure_computational(final_state(circuit, family, params.deltas, noise, rng), rng)


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
    conservation), so rank deficits signal an incomplete circuit set.  A
    circuit that is not one of the family's raises ``ValueError``.
    """
    if not circuits:
        raise ValueError("need at least one circuit")
    plans = [family.plan(circuit)[1] for circuit in circuits]  # the per-op plans
    m, n = family.n_params, family.n_qubits
    built = {}  # gate name -> (U, [(j, dU_j) if dU_j is nonzero]) at zero error, by the two-shift rule
    for name in dict.fromkeys(name for names, _ in plans for name in names):
        shifted = [[family.gate_unitary(name, a * e) for a in (np.pi / 2, -np.pi / 2, np.pi, -np.pi)]
                   for e in np.eye(m)]
        du = [(u1 - u2) / 2 + (1 - np.sqrt(2)) / 4 * (u3 - u4) for u1, u2, u3, u4 in shifted]
        built[name] = (family.gate_unitary(name, np.zeros(m)), [(j, d) for j, d in enumerate(du, 1) if d.any()])
    blocks = []
    for _, steps in plans:
        stack = np.zeros((m + 1, 2**n), dtype=complex)  # row 0 psi, row j dpsi_j
        stack[0] = zero_state(n)
        for name, targets in steps:
            u, du = built[name]
            out = apply_unitary(stack, u, targets)
            for j, dj in du:
                out[j] += apply_unitary(stack[0], dj, targets)
            stack = out
        blocks.append(2 * (stack[0].conj() * stack[1:]).real.T)
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
