"""A (seed, N, T) triple reproduces drift and shots bit for bit."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from driftcal.circuits import NoiseParams, cz_family, gx_family, run_circuit
from driftcal.drift import KINDS, DriftBatch, DriftSpec
from driftcal.gates import ControlParameterSet
from driftcal.rng import ensemble_generator

WALK = DriftSpec(kind="random_walk", step=0.01)
OU = DriftSpec(kind="ornstein_uhlenbeck", reversion=0.1, volatility=0.01)
SPECS = {
    "none": DriftSpec(),
    "random_walk": WALK,
    "ornstein_uhlenbeck": OU,
    "jump": DriftSpec(kind="jump", reversion=0.1, volatility=0.01, jump_at=3),
    "one_over_f": DriftSpec(kind="one_over_f"),
    "composite": DriftSpec(kind="composite", parts=(WALK, OU)),
}
SEEDS = st.integers(min_value=0)
STEPS = st.integers(1, 30)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(kind=st.sampled_from(KINDS), n=st.integers(1, 4), m=st.integers(1, 3),
       steps=STEPS, seed=SEEDS)
def test_drift_is_bit_reproducible(kind, n, m, steps, seed):
    a, b = (DriftBatch.init(SPECS[kind], n, m) for _ in range(2))
    gen_a, gen_b = ensemble_generator(seed, 1), ensemble_generator(seed, 1)
    for _ in range(steps):
        a.step(gen_a)
        b.step(gen_b)
        assert a.eta_opt.tobytes() == b.eta_opt.tobytes()


@settings(derandomize=True, max_examples=30, deadline=None)
@given(steps=STEPS, seed=SEEDS)
def test_noisy_shots_are_bit_reproducible(steps, seed):
    noise = NoiseParams(p=0.1, p_spam=0.05)
    runs = []
    for _ in range(2):
        gen = ensemble_generator(seed, 1)
        outcomes = []
        for fam in (gx_family(3), cz_family(1)):
            m = fam.n_params
            params = ControlParameterSet(np.full(m, 0.05), np.zeros(m), np.ones(m))
            outcomes += [run_circuit(c, fam, params, noise, gen)
                         for _ in range(steps) for c in fam.circuits]
        runs.append(outcomes)
    assert runs[0] == runs[1]
