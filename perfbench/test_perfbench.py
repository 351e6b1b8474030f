"""Tests of the benchmark itself.

    python3 -m pytest perfbench

Workloads are shrunk here (fewer trajectories and steps) so the file runs in
seconds; the checks' statistics are still far from their bounds.
"""
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import checks
import feedback
import spans

SMALL = {
    "gx1_wide": {"n_traj": 200, "n_steps": 100},
    "gx21_noisy_long": {"n_steps": 2000},
    "cz_pinv": {"n_traj": 40, "n_steps": 100},
}


def small(name: str) -> feedback.Workload:
    return dataclasses.replace(feedback.WORKLOADS[name], **SMALL[name])


def run(wl: feedback.Workload, seed: int, wrap_rng=lambda gen: gen, flip: bool = False):
    loop = feedback.FeedbackLoop(wl, seed, wrap_rng)
    if flip:
        loop.gain = -loop.gain
    for _ in range(wl.n_steps):
        loop.step()
    return loop


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_gives_identical_outcomes_and_deltas(name):
    wl = small(name)
    a, b, c = run(wl, 7), run(wl, 7), run(wl, 8)
    assert np.array_equal(a.outcomes, b.outcomes)
    assert np.array_equal(a.deltas, b.deltas)
    assert not np.array_equal(a.deltas, c.deltas)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_matches_untraced_and_reports_every_layer(name):
    wl = small(name)
    plain = run(wl, 3)
    tracer = spans.Tracer()
    with tracer.instrument():
        tracer.phase("setup")
        loop = feedback.FeedbackLoop(wl, 3, tracer.counting_rng)
        tracer.phase("loop")
        for _ in range(wl.n_steps):
            loop.step()
        tracer.phase("finish")
        loop.finish()
    assert np.array_equal(plain.outcomes, loop.outcomes)
    assert np.array_equal(plain.deltas, loop.deltas)
    record_bytes = spans.retained_bytes(loop.records) if loop.records is not None else None
    values, missing = tracer.layer_metrics(wl, wl.n_traj * wl.n_steps, wl.n_steps, record_bytes)
    assert missing == []
    assert set(values) == set(spans.LAYER_METRICS) - {"trace.overhead_frac"}
    for span in spans.expected_spans(wl) - {"bench.driver", "analytics.summarize",
                                            "circuits.build_jacobian"}:
        assert any(values[m] > 0 for m in values if m.startswith(span + "."))


def test_instrument_restores_the_originals():
    from driftcal import circuits
    before = circuits.run_circuit, circuits.CircuitFamily.__dict__["gate_unitary"]
    with spans.Tracer().instrument():
        assert circuits.run_circuit is not before[0]
    assert (circuits.run_circuit, circuits.CircuitFamily.__dict__["gate_unitary"]) == before


def test_missing_layer_is_reported_not_zero():
    wl = small("gx1_wide")
    tracer = spans.Tracer()
    tracer.phase("loop")
    values, missing = tracer.layer_metrics(wl, 10, 1, None)
    assert "simcore.apply_unitary.self_us_per_shot" in missing
    assert "simcore.apply_unitary.self_us_per_shot" not in values
    assert values["simcore.apply_depolarizing.calls_per_shot"] == 0.0   # not expected: noiseless


@pytest.mark.parametrize("name", sorted(SMALL))
def test_checks_pass_and_fail_when_update_sign_is_flipped(name):
    wl = small(name)
    loop = run(wl, 11)
    passed, z = checks.run(loop, loop.finish()[1])
    assert passed, z
    flipped = run(wl, 11, flip=True)
    passed, z = checks.run(flipped, flipped.finish()[1])
    assert not passed, z


def test_benchmark_json_names_match_the_code():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(feedback.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(spans.LAYER_METRICS)
    assert [m["unit"] for m in spec["per_layer"]] == [u for u, _ in spans.LAYER_METRICS.values()]
