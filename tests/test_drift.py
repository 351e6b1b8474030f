"""Drift process statistics vs i.i.d.-sum and AR(1) closed forms."""
import numpy as np
import pytest

from conftest import stream
from driftcal.drift import KINDS, DriftBatch, DriftSpec, one_over_f_coefficients
from driftcal.rng import ensemble_generator


def test_zero_step_random_walk_is_frozen(rng):
    spec = DriftSpec(kind="random_walk", step=0.0)
    state = DriftBatch.init(spec, 1, 2)
    for _ in range(100):
        state.step(rng)
    assert np.all(state.eta_opt == 0.0)


def test_none_kind_is_frozen(rng):
    spec = DriftSpec(kind="none")
    state = DriftBatch.init(spec, 1, 1)
    state.step(rng)
    assert state.eta_opt[0, 0] == 0.0 and state.t == 1


def test_every_kind_keeps_its_start_when_motionless(rng):
    """With zero motion every kind holds eta_opt exactly at its start, zero,
    even where it reverts: an OU process reverts to zero."""
    walk = DriftSpec(kind="random_walk", step=0.0)
    still = dict(reversion=0.5, volatility=0.0, jump_at=100)
    specs = (DriftSpec(kind="none"), walk, DriftSpec(kind="ornstein_uhlenbeck", **still),
             DriftSpec(kind="jump", **still), DriftSpec(kind="one_over_f", scale=0.0),
             DriftSpec(kind="composite", parts=(walk,)))
    assert {spec.kind for spec in specs} == set(KINDS)
    for spec in specs:
        state = DriftBatch.init(spec, 2, 1)
        for _ in range(5):
            state.step(rng)
        assert np.all(state.eta_opt == 0.0), spec.kind


def test_every_kind_drifts_about_its_own_start():
    """A spec alone and as the one part of a composite, on identical streams,
    move eta_opt bit for bit alike from zero: both step the same banks.
    A lone jump decays toward zero."""
    walk = DriftSpec(kind="random_walk", step=0.01)
    moving = dict(reversion=0.05, volatility=1e-3, jump_at=20)
    specs = (DriftSpec(kind="none"), walk, DriftSpec(kind="ornstein_uhlenbeck", **moving),
             DriftSpec(kind="jump", **moving), DriftSpec(kind="one_over_f"),
             DriftSpec(kind="composite", parts=(walk,)))
    assert {spec.kind for spec in specs} == set(KINDS)
    for spec in specs:
        alone = DriftBatch.init(spec, 3, 2)
        wrapped = DriftBatch.init(DriftSpec(kind="composite", parts=(spec,)), 3, 2)
        gen_alone, gen_wrapped = ensemble_generator(8), ensemble_generator(8)
        for _ in range(50):
            alone.step(gen_alone)
            wrapped.step(gen_wrapped)
        assert np.array_equal(alone.eta_opt, wrapped.eta_opt), spec.kind
    jump = DriftBatch.init(DriftSpec(kind="jump", reversion=0.5, volatility=0.0, jump_at=5), 1, 1)
    gen = ensemble_generator(9)
    for _ in range(10):
        jump.step(gen)
    assert jump.eta_opt[0, 0] == pytest.approx(0.15 * np.exp(-0.5 * 5), abs=1e-15)


def test_init_start_must_broadcast_to_ensemble_shape():
    """The ensemble starts at zero in its (n_traj, m) shape; an ensemble with
    no trajectory, no parameter or a count that is not an integer (a bool
    included) is rejected, and so is a spec that is not a DriftSpec; numpy
    integer counts build."""
    spec = DriftSpec(kind="random_walk", step=0.1)
    for n_traj, m in ((0, 1), (1, 0), (-1, 2), (1.5, 1), (1, 2.5), (float("nan"), 1),
                      (True, True), (True, 1), (2, False), (np.bool_(True), 1)):
        with pytest.raises(ValueError, match="n_traj and m"):
            DriftBatch.init(spec, n_traj, m)
    for bad in ("random_walk", None, {"kind": "random_walk"}):
        with pytest.raises(ValueError, match="DriftSpec"):
            DriftBatch.init(bad, 2, 1)
    batch = DriftBatch.init(spec, np.int64(2), np.int64(3))
    assert batch.eta_opt.shape == (2, 3) and np.all(batch.eta_opt == 0.0)


def test_steps_write_eta_opt_in_place():
    """Every kind, a composite included, writes each step into the array made
    at init: a row view taken then follows every step, as callers that alias
    the rows rely on."""
    walk = DriftSpec(kind="random_walk", step=0.01)
    moving = dict(reversion=0.05, volatility=1e-3, jump_at=3)
    specs = (DriftSpec(kind="none"), walk, DriftSpec(kind="ornstein_uhlenbeck", **moving),
             DriftSpec(kind="jump", **moving), DriftSpec(kind="one_over_f"),
             DriftSpec(kind="composite", parts=(walk, DriftSpec(kind="one_over_f"))))
    assert {spec.kind for spec in specs} == set(KINDS)
    for spec in specs:
        batch = DriftBatch.init(spec, 3, 2)
        array, rows = batch.eta_opt, [batch.eta_opt[i] for i in range(3)]
        gen = ensemble_generator(21)
        for _ in range(6):
            batch.step(gen)
            assert batch.eta_opt is array, spec.kind
            for i, row in enumerate(rows):
                assert np.array_equal(row, batch.eta_opt[i]), spec.kind
        assert spec.kind == "none" or batch.eta_opt.any()


def test_random_walk_variance_grows_linearly():
    """Var[eta_opt_t - eta_opt_0] = step^2 * t within 5% (1e5 walkers, t=1000)."""
    step, t, n = 0.001, 1000, 100_000
    batch = DriftBatch.init(DriftSpec(kind="random_walk", step=step), n, 1)
    gen = ensemble_generator(42)
    for _ in range(t):
        batch.step(gen)
    var = batch.eta_opt[:, 0].var()
    assert abs(var / (step**2 * t) - 1.0) < 0.05


def test_random_walk_is_unbiased():
    step, t, n = 0.01, 500, 50_000
    batch = DriftBatch.init(DriftSpec(kind="random_walk", step=step), n, 1)
    gen = ensemble_generator(7)
    for _ in range(t):
        batch.step(gen)
    se = step * np.sqrt(t / n)
    assert abs(batch.eta_opt.mean()) < 3 * se


def test_sequential_walk_matches_batch_statistics():
    """One-trajectory batches on per-trajectory streams agree with the batch law
    (3 sigma on mean/var)."""
    spec = DriftSpec(kind="random_walk", step=0.05)
    t, n = 200, 2000
    finals = np.empty(n)
    for i in range(n):
        state = DriftBatch.init(spec, 1, 1)
        gen = stream(99, i)
        for _ in range(t):
            state.step(gen)
        finals[i] = state.eta_opt[0, 0]
    expected_var = spec.step**2 * t
    assert abs(finals.mean()) < 3 * np.sqrt(expected_var / n)
    assert abs(finals.var() / expected_var - 1.0) < 3 * np.sqrt(2.0 / n)


def test_ou_stationary_variance():
    """AR(1) stationary variance volatility^2/(1-exp(-2 reversion)) within 10%."""
    spec = DriftSpec(kind="ornstein_uhlenbeck", reversion=1e-4, volatility=1e-3)
    n, t = 4000, 60_000
    batch = DriftBatch.init(spec, n, 1)
    gen = ensemble_generator(3)
    for _ in range(t):
        batch.step(gen)
    target = spec.volatility**2 / (1 - np.exp(-2 * spec.reversion))
    assert abs(batch.eta_opt.var() / target - 1.0) < 0.10


def test_jump_deterministic_component(rng):
    """With zero OU coefficients the jump is the only motion."""
    spec = DriftSpec(kind="jump", reversion=0.0, volatility=0.0, jump_at=5, jump_size=0.15)
    state = DriftBatch.init(spec, 1, 1)
    trace = []
    for _ in range(10):
        state.step(rng)
        trace.append(state.eta_opt[0, 0])
    assert trace[3] == 0.0 and trace[4] == pytest.approx(0.15) and trace[9] == pytest.approx(0.15)


def test_jump_rides_on_ou_base():
    spec = DriftSpec(kind="jump", reversion=1e-4, volatility=1e-3, jump_at=100, jump_size=0.15)
    n = 20_000
    batch = DriftBatch.init(spec, n, 1)
    gen = ensemble_generator(11)
    for _ in range(99):
        batch.step(gen)
    before = batch.eta_opt.mean()
    batch.step(gen)
    after = batch.eta_opt.mean()
    assert after - before == pytest.approx(0.15, abs=3 * spec.volatility / np.sqrt(n) + 1e-4)


def test_one_over_f_coefficients_exact():
    rev, vol = one_over_f_coefficients()
    i = np.arange(1, 8)
    assert np.allclose(rev, 10.0 * 0.25**i)
    assert np.allclose(vol, 2.0**i * (1 - np.exp(-2 * 10.0 * 0.25**i)))


def test_one_over_f_sums_components(rng):
    spec = DriftSpec(kind="one_over_f", scale=0.001)
    state = DriftBatch.init(spec, 1, 1)
    for _ in range(50):
        state.step(rng)
    (leaf, components, decay, kick, scale), = state.banks
    assert leaf is spec and scale == 0.001 and components.shape == (1, 1, 7)
    assert np.array_equal(decay, np.exp(-one_over_f_coefficients()[0]))
    assert np.array_equal(kick, one_over_f_coefficients()[1])
    assert state.eta_opt[0, 0] == pytest.approx(0.001 * components.sum(), abs=1e-15)


def test_composite_sums_parts(rng):
    part = DriftSpec(kind="jump", reversion=0.0, volatility=0.0, jump_at=1, jump_size=0.1)
    spec = DriftSpec(kind="composite", parts=(part, part))
    state = DriftBatch.init(spec, 1, 1)
    state.step(rng)
    assert state.eta_opt[0, 0] == pytest.approx(0.2)


def test_composite_is_its_start_plus_its_parts_stepped_in_order():
    """A composite of every moving leaf kind, from its start at zero, equals
    the sum of each part stepped alone, the parts in order on one stream, bit
    for bit."""
    moving = dict(reversion=0.05, volatility=1e-3, jump_at=7)
    leaves = (DriftSpec(kind="random_walk", step=0.01), DriftSpec(kind="ornstein_uhlenbeck", **moving),
              DriftSpec(kind="jump", **moving), DriftSpec(kind="one_over_f", scale=0.02))
    whole = DriftBatch.init(DriftSpec(kind="composite", parts=leaves), 3, 2)
    parts = [DriftBatch.init(leaf, 3, 2) for leaf in leaves]
    gen_whole, gen_parts = ensemble_generator(13), ensemble_generator(13)
    for _ in range(30):
        whole.step(gen_whole)
        expected = np.zeros((3, 2))
        for part in parts:
            part.step(gen_parts)
            expected += part.eta_opt
        assert np.array_equal(whole.eta_opt, expected)
    assert gen_whole.random() == gen_parts.random()


def test_multi_parameter_drift_is_independent():
    """Cross-parameter correlation of independent walks is ~0 (3 sigma)."""
    spec = DriftSpec(kind="random_walk", step=1.0)
    n, t = 50_000, 50
    batch = DriftBatch.init(spec, n, 2)
    gen = ensemble_generator(5)
    for _ in range(t):
        batch.step(gen)
    corr = np.corrcoef(batch.eta_opt[:, 0], batch.eta_opt[:, 1])[0, 1]
    assert abs(corr) < 3 / np.sqrt(n)


def test_spec_validation():
    with pytest.raises(ValueError):
        DriftSpec(kind="brownian")
    with pytest.raises(ValueError):
        DriftSpec(kind="random_walk", step=-1.0)
    with pytest.raises(ValueError):
        DriftSpec(kind="composite")
    with pytest.raises(ValueError):
        DriftSpec(kind="jump", jump_at=0)
    nan = float("nan")
    for name in ("step", "reversion", "volatility", "scale"):
        for bad in (nan, -1.0, float("inf")):
            with pytest.raises(ValueError):
                DriftSpec(kind="one_over_f", **{name: bad})
    for name, bad in (("jump_size", nan), ("jump_size", float("inf")), ("jump_at", nan),
                      ("jump_at", 2.5), ("jump_at", True)):
        with pytest.raises(ValueError):
            DriftSpec(kind="jump", **{name: bad})
    assert DriftSpec(kind="jump", jump_at=np.int64(3)).jump_at == 3
    DriftSpec(kind="jump", jump_size=-0.15)   # a jump may go either way
    part = DriftSpec("jump", jump_at=1, jump_size=5.0)
    for kind in KINDS:
        if kind != "composite":
            with pytest.raises(ValueError):
                DriftSpec(kind, parts=(part,))
    assert DriftSpec("composite", parts=(part,)).parts == (part,)
    for parts in ((1,), (part, "jump"), (None,)):
        with pytest.raises(ValueError, match="DriftSpec"):
            DriftSpec("composite", parts=parts)
