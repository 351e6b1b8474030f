"""Circuit execution, Jacobian rows, and the pseudoinverse estimate."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import noisy_op_by_op_state, op_by_op_state, stream
from driftcal import gates
from driftcal.circuits import (
    CZ_GATES,
    GX_GATES,
    GXGY_GATES,
    Circuit,
    CircuitFamily,
    NoiseParams,
    apply_unitary,
    build_jacobian,
    cz_circuits,
    cz_family,
    exact_distribution,
    final_state,
    gx_family,
    gx_power,
    gxgy_circuits,
    gxgy_family,
    pseudoinverse_estimate,
    run_circuit,
)
from driftcal.gates import ControlParameterSet

# Published reference matrices, which the exact Jacobian reproduces to
# roundoff: rows grouped by circuit, outcomes in increasing binary order;
# CZ_RAW_X4 is four times the cz Jacobian.
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
    for fam, deltas in ((gx_family(1), np.full(2, 0.1)), (cz_family(1), np.full(1, 0.1))):
        with pytest.raises(ValueError, match="parameter count"):
            final_state(fam.circuits[0], fam, deltas)
        with pytest.raises(ValueError, match="parameter count"):
            exact_distribution(fam.circuits[0], fam, deltas)


def test_noisy_run_gives_one_bit_and_noise_is_checked():
    """A noisy run (depolarization after each gate and before measurement)."""
    fam = gx_family(5)
    params = ControlParameterSet(0.1, 0.0, 1.0)
    gen = stream(2, 0)
    noise = NoiseParams(p=0.01, p_spam=0.02)
    out = run_circuit(fam.circuits[0], fam, params, noise, gen)
    assert out in ("0", "1")
    with pytest.raises(ValueError):
        NoiseParams(p=1.5)
    # numpy noise probabilities pick the same plan, draw for draw, as Python floats
    states = [final_state(fam.circuits[0], fam, params.deltas, NoiseParams(p, p), stream(2, 1))
              for p in (0.3, np.float64(0.3))]
    assert np.array_equal(*states)


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit((("gx", (0,)),), n_qubits=1, reps=0)
    with pytest.raises(ValueError):
        Circuit((("gx", (1,)),), n_qubits=1)
    with pytest.raises(ValueError, match="repeats a target"):
        Circuit((("cz", (0, 0)),), n_qubits=2)
    with pytest.raises(ValueError, match="n_qubits"):
        CircuitFamily("gx", 1, [Circuit((), 0)], GX_GATES)
    for reps in (1.5, True):
        with pytest.raises(ValueError, match="reps"):
            Circuit((("gx", (0,)),), 1, reps=reps)
    for n_qubits in (1.5, True):
        with pytest.raises(ValueError, match="n_qubits"):
            Circuit((("gx", (0,)),), n_qubits)
    with pytest.raises(ValueError, match="not an integer"):
        Circuit((("gx", (0.0,)),), 1)
    with pytest.raises(ValueError, match="not an integer"):
        Circuit((("cz", (0, True)),), 2)
    for ops in ((5,), (("gx", 0),), (("gx", (0,), "extra"),)):
        with pytest.raises(ValueError, match=r"\(gate name, targets\) pair"):
            Circuit(ops, 1)
    for name in (["gx"], None, 5):
        with pytest.raises(ValueError, match="is not a string"):
            Circuit(((name, (0,)),), 1)
    assert Circuit((("gx", (0,)),), np.int64(1), reps=np.int64(3)).reps == 3
    assert Circuit((("gx", (np.int64(0),)),), 1).ops == (("gx", (0,)),)


def test_a_planned_circuit_ignores_later_changes_to_the_lists_it_was_built_from():
    """A circuit stores tuples all the way down, so appending to the caller's
    op list or target list after the family planned it changes neither
    ``c.ops``, nor the plan, nor the state, which all match the op-by-op oracle."""
    targets = [0]
    ops = [("gx", targets)]
    c = Circuit(ops, 1, 2)
    fam = CircuitFamily("gx", 1, [c], GX_GATES)
    ops.append(("gx", [0]))
    targets.append(1)
    assert c.ops == (("gx", (0,)),) and type(c.ops[0][1]) is tuple
    assert fam.plan(c)[1][1] == (("gx", (0,)),) * 2
    d = np.array([0.1])
    want = op_by_op_state([("gx", (0,))], 2, 1, lambda name: fam.gate_unitary(name, d))
    assert np.allclose(final_state(c, fam, d), want, rtol=0, atol=1e-15)


def test_a_family_ignores_later_changes_to_its_circuit_list():
    """The family keeps its own tuple of circuits, so appending to the caller's
    list leaves ``fam.circuits`` and the Jacobian over it as they were."""
    cs = gxgy_circuits(1)
    fam = CircuitFamily("gxgy", 2, cs, GXGY_GATES)
    want = build_jacobian(fam.circuits, fam).matrix
    cs.append(gxgy_circuits(2)[0])
    assert fam.circuits == tuple(cs[:2])
    assert np.array_equal(build_jacobian(fam.circuits, fam).matrix, want)


def test_a_family_ignores_later_changes_to_its_gate_table():
    """The family keeps its own copy of the table, so replacing a fixed gate in
    the caller's dict after the build reaches neither plan: the noiseless walk
    (fixed ops precomposed at build) and the per-op walk (each gate looked up
    per shot, here with a noise level that never fires) both match the
    op-by-op oracle over the table as it was; no built-in family shares the
    module's table."""
    table = dict(CZ_GATES)
    fam = CircuitFamily("cz", 3, cz_circuits(), table)
    table["gx0"] = gates.HADAMARD
    d, ref = np.array([0.1, -0.2, 0.05]), cz_family(1)
    for ci, c in enumerate(fam.circuits):
        want = op_by_op_state(c.ops, 1, 2, lambda name: ref.gate_unitary(name, d))
        for state in (final_state(c, fam, d), final_state(c, fam, d, NoiseParams(1e-300, 0), stream(13, ci))):
            assert np.allclose(state, want, rtol=0, atol=1e-12)
    assert cz_family(1)._gates is not CZ_GATES


def test_noisy_shot_without_an_rng_raises_before_any_work(monkeypatch):
    fam = gx_family(1)
    built = []
    monkeypatch.setattr(CircuitFamily, "gate_unitary", lambda self, name, d: built.append(name))
    params = ControlParameterSet(0.0, 0.0, 1.0)
    for noise in (NoiseParams(0.5, 0.0), NoiseParams(0.0, 0.5)):
        with pytest.raises(ValueError, match="needs an rng"):
            final_state(fam.circuits[0], fam, np.zeros(1), noise)
        with pytest.raises(ValueError, match="needs an rng"):
            run_circuit(fam.circuits[0], fam, params, noise, None)
    assert built == []


# =============================================================================
# gate tables
# =============================================================================

def test_family_rejects_circuits_that_do_not_fit_its_gate_table():
    with pytest.raises(ValueError, match="no gate 'gz'"):
        CircuitFamily("gx", 1, [Circuit((("gz", (0,)),), 1)], GX_GATES)
    with pytest.raises(ValueError, match="'cz' does not act on 1 qubit"):
        CircuitFamily("cz", 3, [Circuit((("cz", (0,)),), 2)], CZ_GATES)
    with pytest.raises(ValueError, match="'h' does not act on 2 qubit"):
        CircuitFamily("cz", 3, [Circuit((("h", (0, 1)),), 2)], CZ_GATES)
    mixed = [Circuit((("h", (0,)),), 1), Circuit((("cz", (0, 1)),), 2)]
    with pytest.raises(ValueError, match="one qubit count"):
        CircuitFamily("cz", 3, mixed, CZ_GATES)
    with pytest.raises(ValueError, match="reads more than 1 error"):
        CircuitFamily("cz", 1, cz_circuits(), CZ_GATES)
    with pytest.raises(ValueError, match="one qubit count"):
        CircuitFamily("gx", 1, [], GX_GATES)
    for entries in (["x"], [gx_power(1), None], [(("gx", (0,)),)]):
        with pytest.raises(ValueError, match="must be a Circuit"):
            CircuitFamily("gx", 1, entries, GX_GATES)
    with pytest.raises(ValueError, match="'h' must be a read-only matrix"):
        CircuitFamily("cz", 3, cz_circuits(), {**CZ_GATES, "h": np.array(gates.HADAMARD)})
    for entry in (5, None, [[1, 0], [0, 1]]):
        with pytest.raises(ValueError, match="'gx' is neither a builder nor a read-only matrix"):
            CircuitFamily("gx", 1, [gx_power(1)], {"gx": entry})
    for n_params in (0, -1, 1.5, 3.0, "3", None, True, False):
        with pytest.raises(ValueError, match="n_params must be an integer >= 1"):
            CircuitFamily("cz", n_params, cz_circuits(), CZ_GATES)
    assert CircuitFamily("cz", np.int64(3), cz_circuits(), CZ_GATES).n_params == 3
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


def test_noisy_cz_shot_builds_only_its_cz_gate(monkeypatch):
    """The cz probe's gx(0) and Hadamard are fixed, read-only matrices: a shot calls no gx."""
    fam = cz_family(1)
    zero = np.zeros(3)
    assert np.array_equal(fam.gate_unitary("gx0", zero), gates.gx(0.0))
    assert not any(fam.gate_unitary(name, zero).flags.writeable for name in ("gx0", "h"))
    calls = []
    real = gates.gx
    monkeypatch.setattr(gates, "gx", lambda delta: calls.append(delta) or real(delta))
    params = ControlParameterSet(np.full(3, 0.01), zero, np.ones(3))
    for ci, circuit in enumerate(fam.circuits):
        run_circuit(circuit, fam, params, NoiseParams(p=0.01, p_spam=0.02), stream(6, ci))
    assert calls == []


def test_noiseless_cz_shot_applies_three_gates_and_builds_one(monkeypatch):
    """A noiseless cz shot multiplies its three precomposed fixed runs through
    the unchecked core: the checked apply_unitary sees only the three cz ops,
    each an elementwise multiply by the one cz diagonal the shot builds."""
    fam = cz_family(1)
    applied, built = [], []
    real_build = CircuitFamily.gate_unitary
    monkeypatch.setattr("driftcal.circuits.apply_unitary",
                        lambda *args: applied.append((args[1].shape, args[2])) or apply_unitary(*args))
    monkeypatch.setattr(CircuitFamily, "gate_unitary",
                        lambda self, name, d: built.append(name) or real_build(self, name, d))
    params = ControlParameterSet(np.full(3, 0.01), np.zeros(3), np.ones(3))
    for ci, circuit in enumerate(fam.circuits):
        noiseless_steps = fam.plan(circuit)[0][1]
        fixed = [key for key, _ in noiseless_steps if not isinstance(key, str)]
        assert len(fixed) == 3 and not any(u.flags.writeable for u in fixed)
        applied.clear()
        built.clear()
        run_circuit(circuit, fam, params, NoiseParams(), stream(7, ci))
        assert applied == [((4,), (0, 1))] * 3
        assert built == ["cz"]


@pytest.mark.parametrize("reps", [1, 2, 5, 21])
def test_dense_and_diagonal_cz_agree(reps):
    """A family whose cz entry is the dense np.diag of the diagonal runs the
    square kernel path; its states, distributions and Jacobian agree with
    cz_family's elementwise path.  The two paths round each cz multiply
    differently, so away from zero error the states part by roundoff that
    grows with the repetitions (at most 2.1e-15 over 500 draws at r=21),
    bounded here by 1e-15 per repetition; the zero-error Jacobian is exact."""
    table = {**CZ_GATES, "cz": lambda d: np.diag(gates.cz(d[0], d[1], d[2]))}
    dense, diag = CircuitFamily("cz", 3, cz_circuits(reps), table), cz_family(reps)
    gen = stream(12, reps)
    for _ in range(5):
        d = gen.uniform(-0.3, 0.3, 3)
        for c_dense, c_diag in zip(dense.circuits, diag.circuits):
            assert np.allclose(final_state(c_dense, dense, d), final_state(c_diag, diag, d),
                               rtol=0, atol=1e-15 * reps)
            assert np.allclose(exact_distribution(c_dense, dense, d), exact_distribution(c_diag, diag, d),
                               rtol=0, atol=1e-15 * reps)
    jd, jg = build_jacobian(dense.circuits, dense), build_jacobian(diag.circuits, diag)
    assert jd.rank == jg.rank
    assert np.allclose(jd.matrix, jg.matrix, rtol=0, atol=1e-15)
    assert np.allclose(jd.pinv, jg.pinv, rtol=0, atol=1e-15)


@pytest.mark.parametrize("reps", [1, 2, 5])
@pytest.mark.parametrize("make", [gx_family, gxgy_family, cz_family])
def test_planned_state_matches_op_by_op_product(make, reps):
    fam = make(reps)
    gen = stream(8, reps)
    for _ in range(5):
        d = gen.uniform(-0.3, 0.3, fam.n_params)
        for circuit in fam.circuits:
            want = op_by_op_state(circuit.ops, reps, fam.n_qubits, lambda name: fam.gate_unitary(name, d))
            assert np.allclose(final_state(circuit, fam, d), want, rtol=0, atol=1e-12)


_CX = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
_CX.flags.writeable = False
HAND_TABLE = {"h": gates.HADAMARD, "cx": _CX, "gx": GX_GATES["gx"]}
HAND_OPS = (("h", (0,)), ("cx", (1, 0)), ("h", (2,)), ("gx", (1,)), ("cx", (0, 2)), ("h", (1,)))


def hand_family(reps: int = 1) -> CircuitFamily:
    """One 3-qubit circuit of fixed h and cx ops around a gx, widest gate 2 qubits."""
    return CircuitFamily("hand", 1, [Circuit(HAND_OPS, 3, reps)], HAND_TABLE)


def test_plan_falls_back_for_wide_runs_and_far_gates():
    """On 3 qubits with a widest gate of 2: h(0), cx(1, 0) merge into one 4x4
    step (cx's reversed targets composed in), h(2) would widen that run to 3
    qubits so it starts its own, gx is not fixed, and cx(0, 2) alone spans 3
    qubits, so both stay (name, targets) steps; h(1) ends as a 2x2 step.
    The noiseless list repeats those five steps for each of the 2 repetitions."""
    fam = hand_family(2)
    circuit = fam.circuits[0]
    (names, steps), _ = fam.plan(circuit)
    assert names == ("gx", "cx")
    assert [where for _, where in steps] == [(4, 2), (2, 1), (1,), (0, 2), (2, 2)] * 2
    for key, _ in steps:
        assert isinstance(key, str) or not key.flags.writeable
    gen = stream(9, 0)
    for _ in range(5):
        d = gen.uniform(-0.3, 0.3, 1)
        want = op_by_op_state(HAND_OPS, 2, 3, lambda name: fam.gate_unitary(name, d))
        assert np.allclose(final_state(circuit, fam, d), want, rtol=0, atol=1e-12)


def test_plan_of_an_equal_circuit_and_of_a_foreign_one():
    fam = gx_family(1)
    equal, own = fam.plan(gx_power(1)), fam.plan(fam.circuits[0])
    assert len(own) == 2 and all(a is b for a, b in zip(equal, own))
    with pytest.raises(ValueError, match="not one of family 'gx'"):
        final_state(gx_power(2), fam, np.zeros(1))
    with pytest.raises(ValueError, match="not one of family 'gx'"):
        final_state(gx_power(2), fam, np.zeros(1), NoiseParams(p=0.1), stream(9, 1))
    with pytest.raises(ValueError, match="not one of family 'gx'"):
        build_jacobian([gx_power(2)], fam)
    with pytest.raises(ValueError, match="not one of family 'gx'"):
        build_jacobian([fam.circuits[0], gx_power(2)], fam)
    for foreign in ([("gx", (0,))], "gx", None):
        with pytest.raises(ValueError, match="not one of family 'gx'"):
            fam.plan(foreign)
    assert np.array_equal(build_jacobian([gx_power(1)], fam).matrix, build_jacobian(fam.circuits, fam).matrix)


@pytest.mark.parametrize("reps", [1, 2, 5])
@pytest.mark.parametrize("make", [gx_family, gxgy_family, cz_family, hand_family])
def test_plan_lists_cover_every_repetition_as_plain_tuples(make, reps):
    """The per-op list is the circuit's own (name, targets) pairs, all
    repetitions included, naming the distinct op names in first-use order; the
    noiseless list is the one-repetition family's steps, repeated reps times."""
    fam, single = make(reps), make(1)
    for circuit, one in zip(fam.circuits, single.circuits):
        (names, steps), per_op = fam.plan(circuit)
        assert per_op == (tuple(dict.fromkeys(n for n, _ in circuit.ops)), circuit.ops * reps)
        (one_names, one_steps), _ = single.plan(one)
        k = len(one_steps)
        assert names == one_names and len(steps) == reps * k
        assert all(steps[i] is steps[i % k] for i in range(len(steps)))
        for (key, where), (one_key, one_where) in zip(steps, one_steps):
            assert where == one_where and np.array_equal(key, one_key)
        assert all(type(step) is tuple for step in steps + per_op[1])


@pytest.mark.parametrize("make, reps", [(gx_family, 21), (gxgy_family, 1), (cz_family, 1), (cz_family, 2)])
def test_noisy_shot_matches_the_unraveling_oracle_draw_for_draw(make, reps):
    """A noisy shot walks its circuit op by op, depolarizing after each op
    and before measurement with exactly the oracle's draws: the states agree
    and both streams stop at the same place."""
    fam = make(reps)
    noise = NoiseParams(p=0.3, p_spam=0.3)
    for seed in range(6):
        d = stream(14, seed).uniform(-0.3, 0.3, fam.n_params)
        for ci, circuit in enumerate(fam.circuits):
            got_rng, want_rng = stream(seed, ci), stream(seed, ci)
            got = final_state(circuit, fam, d, noise, got_rng)
            want = noisy_op_by_op_state(circuit.ops, reps, fam.n_qubits, lambda name: fam.gate_unitary(name, d),
                                        noise.p, noise.p_spam, want_rng)
            assert np.allclose(got, want, rtol=0, atol=1e-12)
            assert got_rng.random() == want_rng.random()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(deltas=st.lists(st.floats(-np.pi, np.pi), min_size=3, max_size=3),
       reps=st.integers(1, 21))
def test_table_gates_are_unitary_and_states_normalized(deltas, reps):
    noise = NoiseParams(p=0.3, p_spam=0.3)
    for fam in (gx_family(reps), gxgy_family(reps), cz_family(reps)):
        d = np.array(deltas[:fam.n_params])
        for ci, circuit in enumerate(fam.circuits):
            for name, targets in circuit.ops:
                u = fam.gate_unitary(name, d)
                if u.ndim == 1:  # a diagonal gate's diagonal: unit-modulus entries
                    assert u.shape == (2**len(targets),)
                    assert np.allclose(np.abs(u), 1.0, rtol=0, atol=1e-12)
                else:
                    assert u.shape == (2**len(targets),) * 2
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
    assert row[0] == pytest.approx(-0.5, abs=1e-12)
    for reps in (5, 13):
        fam_r = gx_family(reps)
        row = build_jacobian(fam_r.circuits, fam_r).matrix[0]
        assert row[0] == pytest.approx(-reps / 2, abs=1e-12)


def test_gxgy_jacobian_values():
    fam = gxgy_family(1)
    jac = build_jacobian(fam.circuits, fam)
    assert np.allclose(jac.matrix, GXGY_RAW, rtol=0, atol=1e-12)
    assert jac.rank == 2
    assert jac.informationally_complete


def test_cz_jacobian_values():
    fam = cz_family(1)
    jac = build_jacobian(fam.circuits, fam)
    assert np.allclose(4 * jac.matrix, CZ_RAW_X4, rtol=0, atol=1e-12)
    assert jac.rank == 3
    assert np.linalg.cond(jac.matrix) == pytest.approx(np.sqrt(2), rel=1e-12)


def _assert_columns_sum_to_zero(fam):
    jac = build_jacobian(fam.circuits, fam)
    start = 0
    for circuit in fam.circuits:
        dim = 2**circuit.n_qubits
        block = jac.matrix[start:start + dim]
        assert np.all(np.abs(block.sum(axis=0)) < 1e-12)
        start += dim


def test_jacobian_columns_sum_to_zero_per_circuit():
    for fam in (gxgy_family(1), cz_family(1), gx_family(5)):
        _assert_columns_sum_to_zero(fam)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(reps=st.integers(1, 21))
def test_jacobian_columns_sum_to_zero_at_any_reps(reps):
    """Probability conservation holds to roundoff for every built-in family."""
    for fam in (gx_family(reps), gxgy_family(reps), cz_family(reps)):
        _assert_columns_sum_to_zero(fam)


def test_probe_set_ranks_are_exact_over_reps():
    """Every built-in probe set at reps 1-21, whole and first circuit alone.

    Definite-outcome sets have an exactly zero Jacobian, and sets that lose
    a direction lose it exactly, so no spurious singular value survives the
    cutoff and every pseudoinverse entry stays small.
    """
    jacs = {}
    for make in (gx_family, gxgy_family, cz_family):
        for reps in range(1, 22):
            fam = make(reps)
            for label, circuits in (("all", fam.circuits), ("first", fam.circuits[:1])):
                jac = build_jacobian(circuits, fam)
                assert np.abs(jac.pinv).max() < 2
                jacs[fam.name, reps, label] = jac
    assert all(jacs["gx", r, "all"].rank == r % 2 for r in range(1, 22))
    for reps in (2, 4):
        assert jacs["gxgy", reps, "all"].rank == 0
        with pytest.raises(ValueError):
            pseudoinverse_estimate(jacs["gxgy", reps, "all"], np.full(4, 0.5))
    assert jacs["cz", 5, "all"].rank == 0
    assert jacs["cz", 8, "all"].rank == 2
    assert jacs["cz", 7, "first"].rank == 1
    assert jacs["cz", 1, "all"].rank == 3
    assert jacs["gxgy", 1, "all"].rank == 2


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
        # the pseudoinverse is truncated at the rank, not at roundoff
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
    assert np.allclose(pseudoinverse_estimate(jac, onehot), [-0.5, -0.75], rtol=0, atol=1e-12)


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


def test_jacobian_skips_exactly_zero_tangents(monkeypatch):
    """psi and its 3 tangents go through each op as one stack, one U call per
    op; cz's h and gx0 ops read no error, so each of their dU_j is exactly zero
    and adds no dU_j psi call.  A circuit's 2 h, 3 gx0 and 3 cz ops make
    8 + 3 * 3 = 17 calls, not 8 + 8 * 3 = 32; two circuits make 34."""
    calls = []

    def counting(*args):
        calls.append(args)
        return apply_unitary(*args)

    monkeypatch.setattr("driftcal.circuits.apply_unitary", counting)
    fam = cz_family(1)
    build_jacobian(fam.circuits, fam)
    assert len(calls) == 34


def test_pseudoinverse_checks_on_cz_columns():
    fam = cz_family(1)
    jac = build_jacobian(fam.circuits, fam)
    with pytest.raises(ValueError):
        pseudoinverse_estimate(jac, np.zeros((jac.matrix.shape[0] - 1, 5)))
    solo = build_jacobian(fam.circuits[:1], fam)
    assert not solo.informationally_complete
    with pytest.raises(ValueError):
        pseudoinverse_estimate(solo, np.zeros((solo.matrix.shape[0], 5)))
