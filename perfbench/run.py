"""Feedback-shot benchmark: shots/s, step latency, set-up time and memory.

    python3 perfbench/run.py --workload gx1_wide --seed 1 --seconds 20 --trace 0

Runs the workload in fresh worker processes (perfbench/worker.py), one after
another, until ``--seconds`` is spent (at least MIN_WORKERS of them).  Every
worker repeats the same seeded run, so their outcomes must agree bit for bit;
the first one also runs the correctness checks.  ``--trace 0`` reports the
end-to-end metrics; with ``--trace 1`` untraced and traced workers alternate
and the traced ones give the per-layer metrics.  The last line of standard output
is the result as one JSON object; the lines before it are the report.
"""
import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import feedback  # noqa: E402
import spans  # noqa: E402

MIN_WORKERS = 3
DEADLINE_S = 170.0      # the whole run exits well inside 180 s


def launch(wl: feedback.Workload, seed: int, trace: int, check: int, started: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", wl.name,
           "--seed", str(seed), "--trace", str(trace), "--check", str(check)]
    launched = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, DEADLINE_S - (launched - started)))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["first_shot"] - launched
    out["wall_s"] = time.monotonic() - launched
    out["traced"] = trace
    out["step_ms_p50"] = 1e3 * float(np.median(out["step_s"]))
    return out


def run_workers(wl: feedback.Workload, seed: int, seconds: float, trace: int) -> list[dict]:
    """Launch workers while the next one, as long as the last, still ends within
    ``seconds``; with trace, alternate untraced and traced workers."""
    started = time.monotonic()
    workers = []
    while True:
        traced = int(bool(trace) and len(workers) % 2 == 1)
        workers.append(launch(wl, seed, traced, check=int(not workers), started=started))
        elapsed = time.monotonic() - started
        if len(workers) >= MIN_WORKERS + trace and elapsed + workers[-1]["wall_s"] > seconds:
            return workers


def rate(workers: list[dict]) -> float:
    """Shots per second over all the workers' timed loops."""
    return sum(w["shots"] for w in workers) / sum(w["loop_s"] for w in workers)


def end_to_end(workers: list[dict]) -> dict[str, tuple[float, str]]:
    """Host speed on a shared machine switches between phases up to ~1.8x apart
    that last seconds to minutes and hit every CPU at once.  The slow phase
    shows in nearly every run and the fast one does not, so a best, median or
    pooled figure jumps with the share of fast time in the run.  Throughput and
    the median step are therefore those of the slowest worker, and the p90
    pools every step, which puts it in the slow phase too (so it can read a
    little below the slowest worker's p50)."""
    steps_ms = 1e3 * np.concatenate([w["step_s"] for w in workers])
    return {
        "shots_per_s": (min(w["shots"] / w["loop_s"] for w in workers), "1/s"),
        "step_ms_p50": (max(w["step_ms_p50"] for w in workers), "ms"),
        "step_ms_p90": (float(np.percentile(steps_ms, 90)), "ms"),
        "setup_s": (statistics.median(w["setup_s"] for w in workers), "s"),
        "peak_rss_mb": (statistics.median(w["peak_rss_mb"] for w in workers), "MiB"),
    }


def per_layer(workers: list[dict]) -> tuple[dict[str, tuple[float, str]], list[str]]:
    traced = [w for w in workers if w["traced"]]
    plain = [w for w in workers if not w["traced"]]
    missing = sorted({m for w in traced for m in w["missing"]})
    values = {name: statistics.median(w["layers"][name] for w in traced)
              for name in spans.LAYER_METRICS if all(name in w["layers"] for w in traced)}
    values["trace.overhead_frac"] = rate(plain) / rate(traced) - 1.0
    return {name: (v, spans.LAYER_METRICS[name][0]) for name, v in values.items()}, missing


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(feedback.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = feedback.WORKLOADS[args.workload]

    workers = run_workers(wl, args.seed, args.seconds, args.trace)
    checked = workers[0]
    identical = len({w["digest"] for w in workers}) == 1
    correct = bool(checked["passed"]) and identical
    if args.trace:
        metrics, missing = per_layer(workers)
    else:
        metrics, missing = end_to_end(workers), []

    report = {
        "workload": dataclasses.asdict(wl),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "platform": platform.platform()},
        "workers": [{k: w[k] for k in ("traced", "shots", "loop_s", "step_ms_p50", "setup_s",
                                       "wall_s", "peak_rss_mb", "failed")} for w in workers],
        "step_samples": sum(len(w["step_s"]) for w in workers),
        "z": checked["z"],
        "z_bound": checks.Z_BOUND,
        "identical_outcomes": identical,
        "missing": missing,
    }
    print(json.dumps({"report": report}))
    for name, (value, unit) in metrics.items():
        print(f"{name:52s} {value:16.6g} {unit}")
    for name in missing:
        print(f"{name:52s} {'missing':>16s}")
    for name, z in checked["z"].items():
        print(f"z {name:50s} {z:16.3f} (|z| <= {checks.Z_BOUND})")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(w["shots"] for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
