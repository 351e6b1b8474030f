"""Gate constructors vs matrix-exponential oracles; infidelity metrics."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import depolarizing_ptm, expm_gate, is_unitary, pauli_matrix, process_infidelity, ptm
from driftcal.gates import (
    ControlParameterSet,
    cz,
    entanglement_infidelity,
    gx,
    gx_process_infidelity,
    gy,
)
from driftcal.simcore import apply_unitary, outcome_distribution, zero_state


# =============================================================================
# constructors vs expm
# =============================================================================

@pytest.mark.parametrize("delta", [0.0, 0.2, -0.7, 3.1])
def test_gx_matches_expm(delta):
    ref = expm_gate(0.5 * (np.pi / 2 + delta) * pauli_matrix("X"))
    assert np.allclose(gx(delta), ref, atol=1e-12)


def test_gx_pi_flip_is_deterministic():
    """Two ideal gates give a pi rotation: |0> -> "1" with certainty."""
    state = apply_unitary(apply_unitary(zero_state(1), gx(0.0), [0]), gx(0.0), [0])
    assert outcome_distribution(state)[1] == pytest.approx(1.0, abs=1e-12)


def test_gx_minus_half_pi_is_identity():
    assert entanglement_infidelity(gx(-np.pi / 2), np.eye(2)) == pytest.approx(0.0, abs=1e-12)


def test_gx_single_application_probabilities():
    probs = outcome_distribution(apply_unitary(zero_state(1), gx(0.2), [0]))
    assert probs[1] == pytest.approx((1 + np.sin(0.2)) / 2, abs=1e-12)


@pytest.mark.parametrize("theta,phi", [(0.0, 0.0), (0.1, 0.05), (-0.4, 1.2)])
def test_gy_matches_expm(theta, phi):
    axis = np.sin(phi) * pauli_matrix("X") + np.cos(phi) * pauli_matrix("Y")
    ref = expm_gate(0.5 * (np.pi / 2 + theta) * axis)
    assert np.allclose(gy(theta, phi), ref, atol=1e-12)
    assert is_unitary(gy(theta, phi), atol=1e-12)


def test_gy_ideal_gives_balanced_outcomes():
    probs = outcome_distribution(apply_unitary(zero_state(1), gy(0.0, 0.0), [0]))
    assert np.allclose(probs, [0.5, 0.5], atol=1e-12)


def test_gy_quarter_tilt_equals_gx():
    assert np.allclose(gy(0.0, np.pi / 2), gx(0.0), atol=1e-12)


@pytest.mark.parametrize("angles", [(0, 0, 0), (0.03, -0.05, 0.07), (0.0, 0.0, np.pi / 4)])
def test_cz_matches_expm(angles):
    zi, iz, zz = angles
    gen = 0.5 * (
        (np.pi / 2) * np.eye(4)
        + (np.pi / 2 + zz) * pauli_matrix("ZZ")
        - (np.pi / 2 + iz) * pauli_matrix("IZ")
        - (np.pi / 2 + zi) * pauli_matrix("ZI")
    )
    u = cz(zi, iz, zz)
    assert u.shape == (4,)  # the diagonal
    assert np.allclose(np.diag(u), expm_gate(gen), atol=1e-12)
    assert is_unitary(np.diag(u))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(angles=st.tuples(*[st.floats(-np.pi, np.pi)] * 3))
def test_cz_diagonal_pins_the_phase_convention(angles):
    """cz is exp(i/2 [pi/2 + (pi/2+zz) Z0Z1 - (pi/2+iz) Z1 - (pi/2+zi) Z0]), a
    diagonal gate, so it is the exponential of its diagonal, returned as that
    1-D diagonal of unit-modulus entries; each call returns a fresh, writable array."""
    zi, iz, zz = angles
    z0, z1 = np.array([1.0, 1.0, -1.0, -1.0]), np.array([1.0, -1.0, 1.0, -1.0])
    phase = 0.5 * (np.pi / 2 + (np.pi / 2 + zz) * z0 * z1 - (np.pi / 2 + iz) * z1 - (np.pi / 2 + zi) * z0)
    u = cz(zi, iz, zz)
    assert u.shape == (4,) and u.dtype == complex
    assert np.allclose(u, np.exp(1j * phase), rtol=0, atol=1e-15)
    assert np.allclose(np.abs(u), 1.0, rtol=0, atol=1e-15)
    again = cz(zi, iz, zz)
    assert u.flags.writeable and not np.shares_memory(u, again)
    u[:] = 0.0
    assert np.array_equal(again, cz(zi, iz, zz))


def test_cz_ideal_is_standard_cz():
    u = cz()
    assert np.allclose(u / u[0], [1, 1, 1, -1], atol=1e-12)
    assert entanglement_infidelity(np.diag(u), np.diag(cz())) == pytest.approx(0.0, abs=1e-12)


def test_constructors_are_unitary_on_grid():
    for val in np.linspace(-2.5, 2.5, 9):
        assert is_unitary(gx(val))
        assert is_unitary(gy(val, 0.3 * val))
        assert is_unitary(np.diag(cz(val, -val, 0.5 * val)))


# =============================================================================
# infidelity metrics
# =============================================================================

def test_infidelity_trivial_cases():
    assert entanglement_infidelity(gx(0.3), gx(0.3)) == pytest.approx(0.0, abs=1e-12)
    assert entanglement_infidelity(gx(np.pi), gx(0.0)) == pytest.approx(1.0, abs=1e-12)
    assert entanglement_infidelity(gx(0.1), gx(0.0)) == pytest.approx(np.sin(0.05) ** 2, abs=1e-12)


def test_infidelity_identity_on_grid():
    for delta in np.linspace(-3, 3, 13):
        expected = np.sin(delta / 2) ** 2
        assert entanglement_infidelity(gx(delta), gx(0.0)) == pytest.approx(expected, abs=1e-10)


def test_infidelity_symmetric_and_phase_invariant(rng):
    for _ in range(20):
        h1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        w = expm_gate(h1 + h1.conj().T)
        v = expm_gate(h2 + h2.conj().T)
        iwv = entanglement_infidelity(w, v)
        assert iwv == pytest.approx(entanglement_infidelity(v, w), abs=1e-12)
        assert iwv == pytest.approx(
            entanglement_infidelity(np.exp(1j * 0.7) * w, v), abs=1e-12
        )
        assert 0.0 <= iwv <= 1.0


def test_infidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        entanglement_infidelity(gx(0.0), np.diag(cz()))


def test_process_infidelity_reduces_to_unitary_form():
    for delta in (0.0, 0.1, 0.6):
        chan = ptm(gx(delta))
        assert process_infidelity(chan, gx(0.0)) == pytest.approx(
            entanglement_infidelity(gx(delta), gx(0.0)), abs=1e-10
        )


def test_process_infidelity_with_depolarization_vs_superoperator_oracle():
    """Transfer-matrix route vs an explicit channel-on-basis oracle."""
    p, delta = 0.001, 0.13
    u = gx(delta)
    # oracle: apply rho -> (1-p) U rho U^dag + p I/2 to the normalized Pauli basis
    basis = [pauli_matrix(c) / np.sqrt(2) for c in "IXYZ"]
    lam = np.zeros((4, 4))
    for j, pj in enumerate(basis):
        out = (1 - p) * (u @ pj @ u.conj().T) + p * np.trace(pj) * np.eye(2) / 2
        for i, pi_ in enumerate(basis):
            lam[i, j] = np.trace(pi_.conj().T @ out).real
    channel = depolarizing_ptm(p) @ ptm(u)
    assert np.allclose(channel, lam, atol=1e-12)
    val = process_infidelity(channel, gx(0.0))
    assert val == pytest.approx(process_infidelity(lam, gx(0.0)), abs=1e-12)
    assert val == pytest.approx(gx_process_infidelity(delta, p), abs=1e-12)


def test_gx_process_infidelity_depolarizing_floor():
    assert gx_process_infidelity(0.0, 0.001) == pytest.approx(0.75 * 0.001, abs=1e-15)


# =============================================================================
# control parameter sets
# =============================================================================

def test_control_parameter_set_deltas():
    params = ControlParameterSet(eta=[0.5, 0.1], eta_opt=[0.2, 0.1], alpha=[1.0, 2.0])
    assert np.allclose(params.deltas, [0.3, 0.0])


def test_control_parameter_set_validation():
    with pytest.raises(ValueError):
        ControlParameterSet(eta=[1.0], eta_opt=[0.0, 0.0], alpha=[1.0])
    with pytest.raises(ValueError):
        ControlParameterSet(eta=[1.0], eta_opt=[0.0], alpha=[0.0])
