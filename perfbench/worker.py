"""One workload process: set up, run the timed lockstep loop, print one JSON line.

run.py launches this script once per repeat and times set-up from the
launch, so the imports below count towards ``setup_s``.

    python3 perfbench/worker.py --workload gx1_wide --seed 1 --trace 0 --check 1
"""
import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import feedback  # noqa: E402


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(feedback.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = feedback.WORKLOADS[args.workload]

    if args.trace:
        import spans
        tracer = spans.Tracer()
        with tracer.instrument():
            tracer.phase("setup")
            loop = feedback.FeedbackLoop(wl, args.seed, wrap_rng=tracer.counting_rng)
            tracer.phase("loop")
            first_shot, step_s, loop_s = timed_loop(loop)
            tracer.phase("finish")
            _, deltas = loop.finish()
        record_bytes = spans.retained_bytes(loop.records) if loop.records is not None else None
        layers, missing = tracer.layer_metrics(wl, wl.n_traj * loop.t, loop.t, record_bytes)
    else:
        loop = feedback.FeedbackLoop(wl, args.seed)
        first_shot, step_s, loop_s = timed_loop(loop)
        _, deltas = loop.finish()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digest = hashlib.sha256(loop.outcomes.tobytes() + loop.deltas.tobytes()).hexdigest()
    result = {
        "first_shot": first_shot,
        "loop_s": loop_s,
        "step_s": step_s.tolist(),
        "shots": wl.n_traj * loop.t,
        "failed": loop.failed,
        "peak_rss_mb": peak_rss_mb,
        "digest": digest,
    }
    if args.check:
        result["passed"], result["z"] = checks.run(loop, deltas)
    if args.trace:
        result["layers"], result["missing"] = layers, missing
    print(json.dumps(result))


def timed_loop(loop: feedback.FeedbackLoop) -> tuple[float, np.ndarray, float]:
    """Run every step; returns the launch-comparable time of the first shot,
    per-step seconds and the loop's wall seconds."""
    step_s = np.empty(loop.wl.n_steps)
    first_shot = time.monotonic()
    begin = time.perf_counter()
    for t in range(loop.wl.n_steps):
        a = time.perf_counter()
        loop.step()
        step_s[t] = time.perf_counter() - a
    return first_shot, step_s, time.perf_counter() - begin


if __name__ == "__main__":
    main()
