"""Statevector kernel tests: gate application, noise unraveling, measurement."""
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import density_from_state, depolarize_density, embed_unitary, expm_gate, overlap, pauli_matrix, stream
from driftcal.gates import cz, gx
from driftcal.rng import ensemble_generator
from driftcal.simcore import (
    apply_depolarizing,
    apply_unitary,
    bit_to_z,
    measure_computational,
    num_qubits,
    outcome_distribution,
    zero_state,
)


# =============================================================================
# apply_unitary
# =============================================================================

def test_identity_leaves_state_unchanged(rng):
    state = rng.normal(size=8) + 1j * rng.normal(size=8)
    state /= np.linalg.norm(state)
    for targets in ([0], [2], [0, 1], [1, 2]):
        out = apply_unitary(state, np.eye(2 ** len(targets)), targets)
        assert np.allclose(out, state, atol=1e-14)


def test_two_half_pi_x_rotations_give_flip():
    """gx(0) applied twice maps |0> to |1> up to global phase."""
    state = zero_state(1)
    state = apply_unitary(state, gx(0.0), [0])
    state = apply_unitary(state, gx(0.0), [0])
    assert overlap(state, np.array([0, 1], dtype=complex)) == pytest.approx(1.0, abs=1e-12)
    assert outcome_distribution(state)[1] == pytest.approx(1.0, abs=1e-12)


def test_cz_flips_bell_phase():
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    target = np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2)
    out = apply_unitary(bell, cz(0, 0, 0), [0, 1])
    assert overlap(out, target) == pytest.approx(1.0, abs=1e-12)


def test_apply_unitary_matches_dense_embedding(rng):
    """Axis bookkeeping vs a dense embedded-matrix oracle on 3 qubits."""
    state = rng.normal(size=8) + 1j * rng.normal(size=8)
    state /= np.linalg.norm(state)
    for targets in ([1], [2, 0], [0, 2], [1, 2]):
        h = rng.normal(size=(2 ** len(targets),) * 2)
        h = h + h.T
        u = expm_gate(h)
        expected = embed_unitary(u, targets, 3) @ state
        assert np.allclose(apply_unitary(state, u, targets), expected, atol=1e-12)


def test_apply_unitary_rejects_bad_inputs():
    state = zero_state(2)
    with pytest.raises(ValueError):
        apply_unitary(state, np.eye(2), [0, 1])
    with pytest.raises(IndexError):
        apply_unitary(state, np.eye(2), [2])
    with pytest.raises(IndexError):
        apply_unitary(state, np.eye(2), [-1])
    with pytest.raises(ValueError):
        apply_unitary(state, np.eye(4), [0, 0])
    for diag, targets in ((np.ones(2), [0, 1]), (np.ones(4), [0]), (np.ones(8), [0, 1]), (np.ones(1), [0])):
        with pytest.raises(ValueError, match="does not match"):  # a diagonal of the wrong length
            apply_unitary(state, diag.astype(complex), targets)


def test_apply_unitary_with_no_targets_scales_by_the_1x1_u(rng):
    state = rng.normal(size=4) + 1j * rng.normal(size=4)
    for phase in (-1.0, 1j):
        assert np.array_equal(apply_unitary(state, np.array([[phase]]), ()), phase * state)


def test_apply_unitary_result_takes_the_dtype_of_u_times_state():
    """A real state under a complex gate keeps its imaginary part."""
    out = apply_unitary(np.array([1.0, 0.0]), gx(0.2), [0])
    assert np.array_equal(out, gx(0.2)[:, 0])


@settings(derandomize=True, max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), seed=st.integers(min_value=0))
def test_apply_unitary_matches_dense_embedding_for_any_target_order(data, n, seed):
    targets = data.draw(st.permutations(range(n)).flatmap(
        lambda perm: st.integers(1, n).map(lambda k: list(perm[:k]))))
    gen = np.random.default_rng(seed)
    state = gen.normal(size=2**n) + 1j * gen.normal(size=2**n)
    state /= np.linalg.norm(state)
    dim = 2 ** len(targets)
    u = expm_gate(gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim)))
    expected = embed_unitary(u, targets, n) @ state
    assert np.allclose(apply_unitary(state, u, targets), expected, rtol=0, atol=1e-12)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0))
def test_apply_unitary_on_every_contiguous_block_matches_dense_embedding(seed):
    """Every ascending block t0..t0+k-1 of 1..5 qubits, the reshaped-view path;
    the result is a new array, so writing into it leaves the input as it was."""
    gen = np.random.default_rng(seed)
    for n in range(1, 6):
        state = gen.normal(size=2**n) + 1j * gen.normal(size=2**n)
        state /= np.linalg.norm(state)
        before = state.copy()
        for k in range(1, n + 1):
            dim = 2**k
            u = expm_gate(gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim)))
            for t0 in range(n - k + 1):
                targets = tuple(range(t0, t0 + k))
                out = apply_unitary(state, u, targets)
                expected = embed_unitary(u, list(targets), n) @ state
                assert np.allclose(out, expected, rtol=0, atol=1e-12), (n, targets)
                out[:] = 0.0
                assert np.array_equal(state, before)


def test_apply_unitary_real_state_under_complex_two_qubit_gate():
    """A real 2-qubit state under a complex gate on the block (0, 1) comes back
    complex, as it does under a diagonal gate on any targets."""
    state = np.array([0.5, -0.5, 0.5, 0.5])
    u = np.diag(cz(0.1, -0.2, 0.3)) @ np.kron(gx(0.2), gx(-0.4))
    out = apply_unitary(state, u, (0, 1))
    assert out.dtype == complex
    assert np.allclose(out, u @ state, rtol=0, atol=1e-15)
    assert np.abs(out.imag).max() > 0.1
    for diag, targets in ((cz(0.1, -0.2, 0.3), (0, 1)), (cz(0.1, -0.2, 0.3), (1, 0)),
                          (np.exp([0.3j, -0.4j]), (1,))):
        out = apply_unitary(state, diag, targets)
        assert out.dtype == complex and np.abs(out.imag).max() > 0.1


@settings(derandomize=True, max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0))
def test_diagonal_gate_matches_dense_embedding_of_its_diagonal(seed):
    """A 1-D gate is a diagonal gate's diagonal: on every target order, each
    contiguous block included, of 1..3 qubits it matches the dense embedding
    of np.diag(u); on the whole register, in order, it is u * state bit for bit."""
    gen = np.random.default_rng(seed)
    for n in range(1, 4):
        state = gen.normal(size=2**n) + 1j * gen.normal(size=2**n)
        state /= np.linalg.norm(state)
        for k in range(1, n + 1):
            u = np.exp(1j * gen.uniform(-np.pi, np.pi, 2**k))
            for targets in permutations(range(n), k):
                out = apply_unitary(state, u, targets)
                expected = embed_unitary(np.diag(u), list(targets), n) @ state
                assert np.allclose(out, expected, rtol=0, atol=1e-15), (n, targets)
                if targets == tuple(range(n)):
                    assert np.array_equal(out, u * state)


@pytest.mark.parametrize("length", [0, 3, 6])
def test_num_qubits_rejects_lengths_that_are_not_powers_of_two(length):
    with pytest.raises(ValueError, match="power of two"):
        num_qubits(np.zeros(length, dtype=complex))


def test_norm_preserved_over_many_ops(rng):
    state = zero_state(3)
    for _ in range(10_000):
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u = expm_gate(h + h.conj().T)
        state = apply_unitary(state, u, [int(rng.integers(3))])
    assert abs(np.vdot(state, state).real - 1.0) < 1e-9


# =============================================================================
# depolarizing unraveling
# =============================================================================

def test_depolarizing_zero_probability_is_identity(rng):
    state = apply_unitary(zero_state(1), gx(0.3), [0])
    out = apply_depolarizing(state, 0.0, [0], rng)
    assert np.array_equal(out, state)


class _IdentityDraw:
    """An rng whose first draw fires the channel and whose second picks the identity."""

    def random(self):
        return 0.0

    def integers(self, high):
        return 0


def test_depolarizing_returns_the_input_object_when_nothing_is_applied(rng):
    state = apply_unitary(zero_state(2), gx(0.3), [1])
    assert apply_depolarizing(state, 0.0, [0], rng) is state
    assert apply_depolarizing(state, 1.0, [0, 1], _IdentityDraw()) is state


def test_depolarizing_rejects_bad_probability(rng):
    with pytest.raises(ValueError):
        apply_depolarizing(zero_state(1), 1.5, [0], rng)


class _PauliDraw:
    """An rng whose first draw fires the channel and whose second is ``which``."""

    def __init__(self, which):
        self.which = which

    def random(self):
        return 0.0

    def integers(self, high):
        assert self.which < high
        return self.which


@pytest.mark.parametrize("targets", [(0,), (2,), (0, 1), (2, 0)])
def test_depolarizing_applies_the_pauli_of_each_base4_digit(rng, targets):
    """Draw ``which`` applies the ``which``-th label of product("IXYZ", repeat=k):
    the first target's letter is its most significant base-4 digit."""
    state = rng.normal(size=8) + 1j * rng.normal(size=8)
    state /= np.linalg.norm(state)
    labels = list(product("IXYZ", repeat=len(targets)))
    for which in range(1, len(labels)):
        label = ["I"] * 3
        for t, letter in zip(targets, labels[which]):
            label[t] = letter
        out = apply_depolarizing(state, 0.5, targets, _PauliDraw(which))
        assert np.allclose(out, pauli_matrix("".join(label)) @ state, atol=1e-12), (which, label)


def test_full_depolarization_gives_uniform_outcomes():
    """p=1 on one qubit: shot-averaged z-measurement is 50/50 within 3 sigma."""
    gen = stream(7, 0)
    shots = 100_000
    ones = 0
    for _ in range(shots):
        state = apply_depolarizing(zero_state(1), 1.0, [0], gen)
        ones += int(measure_computational(state, gen))
    se = np.sqrt(0.25 / shots)
    assert abs(ones / shots - 0.5) < 3 * se


@pytest.mark.parametrize("p,targets,n", [(0.01, [0], 1), (0.05, [0, 1], 2), (0.03, [1], 2)])
def test_unraveling_matches_density_matrix_channel(p, targets, n):
    """Shot-averaged outcome distribution equals the exact channel output."""
    gen = stream(11, n)
    base = zero_state(n)
    base = apply_unitary(base, gx(0.4), [0])
    if n == 2:
        base = apply_unitary(base, cz(0.1, -0.2, 0.3), [0, 1])
    rho = depolarize_density(density_from_state(base), p, targets, n)
    exact = np.diag(rho).real
    shots = 200_000
    counts = np.zeros(2**n)
    for _ in range(shots):
        state = apply_depolarizing(base, p, targets, gen)
        counts[int(measure_computational(state, gen), 2)] += 1
    emp = counts / shots
    se = np.sqrt(np.maximum(exact * (1 - exact), 1e-12) / shots)
    assert np.all(np.abs(emp - exact) < np.maximum(4 * se, 2e-3))


def test_depolarizing_norm_preserved(rng):
    state = apply_unitary(zero_state(2), cz(0.2, 0.1, -0.3), [0, 1])
    for _ in range(1000):
        state = apply_depolarizing(state, 0.5, [0, 1], rng)
    assert abs(np.vdot(state, state).real - 1.0) < 1e-10


# =============================================================================
# measurement and distributions
# =============================================================================

def test_zero_state_measures_zero(rng):
    assert measure_computational(zero_state(3), rng) == "000"
    assert np.allclose(outcome_distribution(zero_state(1)), [1, 0])


def test_single_ideal_gx_is_unbiased():
    """One gx(0) on |0>: outcomes 0/1 each 0.5 within 3 sigma."""
    gen = stream(3, 1)
    state = apply_unitary(zero_state(1), gx(0.0), [0])
    shots = 100_000
    ones = sum(int(measure_computational(state, gen)) for _ in range(shots))
    assert abs(ones / shots - 0.5) < 3 * np.sqrt(0.25 / shots)


def test_distribution_values_for_biased_gx():
    state = apply_unitary(zero_state(1), gx(0.2), [0])
    probs = outcome_distribution(state)
    assert probs[1] == pytest.approx((1 + np.sin(0.2)) / 2, abs=1e-10)


def test_deterministic_outcome_for_even_power():
    state = zero_state(1)
    for _ in range(6):
        state = apply_unitary(state, gx(0.0), [0])
    probs = outcome_distribution(state)
    assert probs[0] == pytest.approx(0.0, abs=1e-12)   # unintended outcome
    assert probs[1] == pytest.approx(1.0, abs=1e-12)


def test_sampling_matches_distribution_self_consistency():
    """Monte Carlo frequencies track outcome_distribution within 4 SE."""
    gen = stream(5, 2)
    state = apply_unitary(zero_state(2), np.diag(cz(0.0, 0.0, 0.0)) @ np.kron(gx(0.3), gx(-0.1)), [0, 1])
    probs = outcome_distribution(state)
    shots = 200_000
    counts = np.zeros(4)
    for _ in range(shots):
        counts[int(measure_computational(state, gen), 2)] += 1
    se = np.sqrt(probs * (1 - probs) / shots)
    assert np.all(np.abs(counts / shots - probs) < np.maximum(4 * se, 1e-4))


def test_measurement_requires_normalized_state(rng):
    with pytest.raises(ValueError):
        measure_computational(2.0 * zero_state(1), rng)


class _LastDraw:
    """A generator stub whose every uniform draw is the largest double below 1."""

    def __init__(self):
        self.calls = 0

    def random(self):
        self.calls += 1
        return 1.0 - 2.0**-53


@pytest.mark.parametrize("norm2", [1.0, 1.0 + 5e-10])
def test_measurement_with_the_largest_draw_samples_the_last_outcome(norm2):
    """Within the norm tolerance the top draw lands on the last outcome, from one draw."""
    gen = _LastDraw()
    state = np.sqrt(norm2) * np.full(4, 0.5, dtype=complex)
    assert measure_computational(state, gen) == "11"
    assert gen.calls == 1
    gen = _LastDraw()
    assert measure_computational(np.sqrt(norm2) * zero_state(2), gen) == "00"
    assert gen.calls == 1


def test_measurement_rejects_norm_beyond_tolerance():
    with pytest.raises(ValueError, match="not normalized"):
        measure_computational(np.sqrt(1 + 2e-9) * np.full(4, 0.5, dtype=complex), _LastDraw())
    with pytest.raises(ValueError, match="not normalized"):
        measure_computational(np.array([np.nan, 0.0], dtype=complex), _LastDraw())


def test_outcome_distribution_rejects_unnormalized_state():
    with pytest.raises(ValueError, match="not normalized"):
        outcome_distribution(2 * zero_state(1))
    with pytest.raises(ValueError, match="not normalized"):
        outcome_distribution(np.sqrt(1 + 2e-9) * zero_state(1))
    with pytest.raises(ValueError, match="not normalized"):
        outcome_distribution(np.array([np.nan, 0.0], dtype=complex))
    assert np.array_equal(outcome_distribution(np.sqrt(1 + 5e-10) * zero_state(1)), [1.0, 0.0])


def test_bit_to_z_convention():
    assert bit_to_z(0) == 1
    assert bit_to_z("1") == -1
    assert bit_to_z("0") == 1 and bit_to_z(1) == -1
    for bad in ("10", 2, -1, "", "01"):
        with pytest.raises(ValueError):
            bit_to_z(bad)


# =============================================================================
# rng streams and misc
# =============================================================================

def test_identical_streams_reproduce_bit_exact():
    a = ensemble_generator(123, 4)
    b = ensemble_generator(123, 4)
    assert np.array_equal(a.random(1000), b.random(1000))
    c = ensemble_generator(123, 5)
    assert not np.array_equal(ensemble_generator(123, 4).random(1000), c.random(1000))


def test_pauli_matrix_and_apply_pauli(rng):
    state = rng.normal(size=4) + 1j * rng.normal(size=4)
    state /= np.linalg.norm(state)
    x_then_z = apply_unitary(apply_unitary(state, pauli_matrix("X"), [0]), pauli_matrix("Z"), [1])
    assert np.allclose(pauli_matrix("XZ") @ state, x_then_z, atol=1e-12)
    with pytest.raises(ValueError):
        pauli_matrix("XQ")
