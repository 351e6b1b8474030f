"""Circuit execution, Jacobian rows, and the pseudoinverse estimate."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import stream
from driftcal.circuits import (
    CZ_GATES,
    GX_GATES,
    Circuit,
    CircuitFamily,
    GateOp,
    NoiseParams,
    build_jacobian,
    cz_circuits,
    cz_family,
    exact_distribution,
    final_state,
    gx_family,
    gxgy_family,
    pseudoinverse_estimate,
    run_circuit,
)
from driftcal.gates import ControlParameterSet

# Published reference matrices, reproduced to 3 decimals by the
# finite-difference Jacobian: rows grouped by circuit, outcomes in increasing
# binary order; CZ_RAW_X4 is four times the cz Jacobian.
GXGY_RAW = np.array([[0.5, -1.0], [-0.5, 1.0], [-1.5, 1.0], [1.5, -1.0]])
CZ_RAW_X4 = np.array([
    [0, -1, 1], [0, 1, -1], [0, -1, -1], [0, 1, 1],
    [-1, 0, 1], [-1, 0, -1], [1, 0, -1], [1, 0, 1],
])


# =============================================================================
# execution
# =============================================================================

def test_single_gx_uniform_outcomes():
    fam = gx_family(1)
    params = ControlParameterSet(0.0, 0.0, 1.0)
    gen = stream(1, 0)
    shots = 50_000
    ones = sum(
        int(run_circuit(fam.circuits[0], fam, params, NoiseParams(), gen))
        for _ in range(shots)
    )
    assert abs(ones / shots - 0.5) < 3 * np.sqrt(0.25 / shots)


def test_gx_power_six_is_deterministic():
    fam = gx_family(6)
    params = ControlParameterSet(0.0, 0.0, 1.0)
    gen = stream(1, 1)
    for _ in range(50):
        assert run_circuit(fam.circuits[0], fam, params, NoiseParams(), gen) == "1"


def test_cz_probe_uniform_over_four_outcomes():
    fam = cz_family(1)
    params = ControlParameterSet([0.0] * 3, [0.0] * 3, [1.0] * 3)
    probs = exact_distribution(fam.circuits[0], fam, params.deltas)
    assert np.allclose(probs, 0.25, atol=1e-12)
    gen = stream(1, 2)
    shots = 20_000
    counts = np.zeros(4)
    for _ in range(shots):
        counts[int(run_circuit(fam.circuits[0], fam, params, NoiseParams(), gen), 2)] += 1
    se = np.sqrt(0.25 * 0.75 / shots)
    assert np.all(np.abs(counts / shots - 0.25) < 3.5 * se)


def test_run_circuit_rejects_mismatched_params():
    fam = cz_family(1)
    gen = stream(1, 3)
    with pytest.raises(ValueError):
        run_circuit(fam.circuits[0], fam, ControlParameterSet(0.0, 0.0, 1.0), NoiseParams(), gen)


def test_noise_placement_options_run():
    """A noisy run (depolarization after each gate and before measurement)."""
    fam = gx_family(5)
    params = ControlParameterSet(0.1, 0.0, 1.0)
    gen = stream(2, 0)
    noise = NoiseParams(p=0.01, p_spam=0.02)
    out = run_circuit(fam.circuits[0], fam, params, noise, gen)
    assert out in ("0", "1")
    with pytest.raises(ValueError):
        NoiseParams(p=1.5)


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit((GateOp("gx", (0,)),), n_qubits=1, reps=0)
    with pytest.raises(ValueError):
        Circuit((GateOp("gx", (1,)),), n_qubits=1)
    with pytest.raises(ValueError, match="repeats a target"):
        Circuit((GateOp("cz", (0, 0)),), n_qubits=2)
    with pytest.raises(ValueError, match="n_qubits"):
        CircuitFamily("gx", 1, [Circuit((), 0)], GX_GATES)


# =============================================================================
# gate tables
# =============================================================================

def test_family_rejects_circuits_that_do_not_fit_its_gate_table():
    with pytest.raises(ValueError, match="no gate 'gz'"):
        CircuitFamily("gx", 1, [Circuit((GateOp("gz", (0,)),), 1)], GX_GATES)
    with pytest.raises(ValueError, match="'cz' does not act on 1 qubit"):
        CircuitFamily("cz", 3, [Circuit((GateOp("cz", (0,)),), 2)], CZ_GATES)
    with pytest.raises(ValueError, match="'h' does not act on 2 qubit"):
        CircuitFamily("cz", 3, [Circuit((GateOp("h", (0, 1)),), 2)], CZ_GATES)
    mixed = [Circuit((GateOp("h", (0,)),), 1), Circuit((GateOp("cz", (0, 1)),), 2)]
    with pytest.raises(ValueError, match="one qubit count"):
        CircuitFamily("cz", 3, mixed, CZ_GATES)
    with pytest.raises(ValueError, match="reads more than 1 error"):
        CircuitFamily("cz", 1, cz_circuits(), CZ_GATES)
    with pytest.raises(ValueError, match="one qubit count"):
        CircuitFamily("gx", 1, [], GX_GATES)
    assert cz_family(1).n_qubits == 2 and gx_family(1).n_qubits == 1


def test_each_gate_is_built_once_per_shot(monkeypatch):
    """One noisy shot builds each distinct gate of its circuit once."""
    cases = ((gx_family(21), 0, 1), (gxgy_family(1), 1, 2), (cz_family(1), 0, 3))
    built = []
    real = CircuitFamily.gate_unitary

    def counting(self, name, deltas):
        built.append(name)
        return real(self, name, deltas)

    monkeypatch.setattr(CircuitFamily, "gate_unitary", counting)
    for fam, ci, n_gates in cases:
        built.clear()
        params = ControlParameterSet(np.full(fam.n_params, 0.01), np.zeros(fam.n_params),
                                     np.ones(fam.n_params))
        run_circuit(fam.circuits[ci], fam, params, NoiseParams(p=0.01, p_spam=0.02),
                    stream(4, ci))
        assert len(built) == len(set(built)) == n_gates


@settings(derandomize=True, max_examples=60, deadline=None)
@given(deltas=st.lists(st.floats(-np.pi, np.pi), min_size=3, max_size=3),
       reps=st.integers(1, 21))
def test_table_gates_are_unitary_and_states_normalized(deltas, reps):
    noise = NoiseParams(p=0.3, p_spam=0.3)
    for fam in (gx_family(reps), gxgy_family(reps), cz_family(reps)):
        d = np.array(deltas[:fam.n_params])
        for ci, circuit in enumerate(fam.circuits):
            for op in circuit.ops:
                u = fam.gate_unitary(op.name, d)
                assert u.shape == (2**len(op.targets),) * 2
                assert np.allclose(u.conj().T @ u, np.eye(len(u)), atol=1e-12)
            for state in (final_state(circuit, fam, d),
                          final_state(circuit, fam, d, noise, stream(5, ci))):
                assert np.vdot(state, state).real == pytest.approx(1.0, abs=1e-12)


# =============================================================================
# Jacobians
# =============================================================================

def test_single_parameter_sensitivity_closed_form():
    """s_z = -z * alpha * r / 2; outcome "0" (z=+1) at r=1 gives -0.5."""
    fam = gx_family(1)
    row = build_jacobian(fam.circuits, fam).matrix[0]
    assert row[0] == pytest.approx(-0.5, abs=1e-6)
    for reps in (5, 13):
        fam_r = gx_family(reps)
        row = build_jacobian(fam_r.circuits, fam_r).matrix[0]
        assert row[0] == pytest.approx(-reps / 2, rel=1e-6)


def test_gxgy_jacobian_values():
    fam = gxgy_family(1)
    jac = build_jacobian(fam.circuits, fam)
    assert np.allclose(jac.matrix, GXGY_RAW, atol=5e-6)
    assert jac.rank == 2
    assert jac.informationally_complete


def test_cz_jacobian_values():
    fam = cz_family(1)
    jac = build_jacobian(fam.circuits, fam)
    assert np.allclose(4 * jac.matrix, CZ_RAW_X4, atol=2e-5)
    assert jac.rank == 3
    assert np.linalg.cond(jac.matrix) == pytest.approx(np.sqrt(2), rel=1e-6)


def test_jacobian_columns_sum_to_zero_per_circuit():
    for fam in (gxgy_family(1), cz_family(1), gx_family(5)):
        jac = build_jacobian(fam.circuits, fam)
        start = 0
        for circuit in fam.circuits:
            dim = 2**circuit.n_qubits
            block = jac.matrix[start:start + dim]
            assert np.all(np.abs(block.sum(axis=0)) < 1e-8)
            start += dim


def test_duplicated_circuit_does_not_change_rank():
    fam = gxgy_family(1)
    jac = build_jacobian(fam.circuits + fam.circuits, fam)
    assert jac.rank == 2


def test_rank_deficiency_flagged():
    fam = gxgy_family(1)
    solo = build_jacobian(fam.circuits[:1], fam)
    assert solo.rank == 1
    assert not solo.informationally_complete
    cz = cz_family(1)
    cz_solo = build_jacobian(cz.circuits[:1], cz)
    assert cz_solo.rank == 2
    for jac in (solo, cz_solo):
        # the pseudoinverse is truncated at the rank, not at finite-difference noise
        proj = jac.pinv @ jac.matrix
        assert np.allclose(proj @ proj, proj, atol=1e-9)
        assert np.allclose(proj, proj.T, atol=1e-9)
        assert np.trace(proj) == pytest.approx(jac.rank, abs=1e-9)
        assert np.abs(jac.pinv).max() < 2
    with pytest.raises(ValueError):
        pseudoinverse_estimate(solo, np.array([0.5, 0.5]))


# =============================================================================
# pseudoinverse diagnostics
# =============================================================================

def _stacked_probs(fam, deltas):
    return np.concatenate([exact_distribution(c, fam, np.asarray(deltas)) for c in fam.circuits])


def test_pseudoinverse_recovers_small_offsets():
    fam = gxgy_family(1)
    jac = build_jacobian(fam.circuits, fam)
    for deltas in ([0.01, -0.02], [0.002, 0.001]):
        est = pseudoinverse_estimate(jac, _stacked_probs(fam, deltas))
        err = np.abs(est - np.asarray(deltas)).max()
        assert err < 3.0 * float(np.max(np.abs(deltas))) ** 2


def test_pseudoinverse_zero_at_optimum():
    fam = cz_family(1)
    jac = build_jacobian(fam.circuits, fam)
    est = pseudoinverse_estimate(jac, _stacked_probs(fam, [0.0, 0.0, 0.0]))
    assert np.all(np.abs(est) < 1e-8)


def test_pseudoinverse_one_hot_regression():
    fam = gxgy_family(1)
    jac = build_jacobian(fam.circuits, fam)
    onehot = np.zeros(4)
    onehot[0] = 1.0
    assert np.allclose(pseudoinverse_estimate(jac, onehot), [-0.5, -0.75], atol=1e-5)


def test_pseudoinverse_length_check():
    fam = gxgy_family(1)
    jac = build_jacobian(fam.circuits, fam)
    with pytest.raises(ValueError):
        pseudoinverse_estimate(jac, np.zeros(3))


def test_pseudoinverse_is_computed_once(monkeypatch):
    """On (rows, N) cz frequencies the estimate is pinv(J) @ F bit for bit,
    using the pseudoinverse built from the Jacobian's one SVD."""
    calls = []
    real_svd, real_pinv = np.linalg.svd, np.linalg.pinv

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "svd", counting("svd", real_svd))
    monkeypatch.setattr(np.linalg, "pinv", counting("pinv", real_pinv))
    fam = cz_family(1)
    jac = build_jacobian(fam.circuits, fam)
    cached = jac.pinv
    freqs = np.random.default_rng(17).random((jac.matrix.shape[0], 5))
    first = pseudoinverse_estimate(jac, freqs)
    second = pseudoinverse_estimate(jac, freqs)
    assert calls == ["svd"]
    assert jac.pinv is cached
    assert first.shape == (3, 5)
    assert np.array_equal(first, real_pinv(jac.matrix) @ freqs)
    assert np.array_equal(second, first)


def test_pseudoinverse_checks_on_cz_columns():
    fam = cz_family(1)
    jac = build_jacobian(fam.circuits, fam)
    with pytest.raises(ValueError):
        pseudoinverse_estimate(jac, np.zeros((jac.matrix.shape[0] - 1, 5)))
    solo = build_jacobian(fam.circuits[:1], fam)
    assert not solo.informationally_complete
    with pytest.raises(ValueError):
        pseudoinverse_estimate(solo, np.zeros((solo.matrix.shape[0], 5)))
