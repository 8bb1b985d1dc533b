"""The ftop benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from anywhere inside a checkout; ``ftop`` is imported from its
``src/`` by a worker process per run (see ``worker.py``).

``--trace 0`` measures the end-to-end metrics: one worker runs the
closed loop for ``--seconds``, and set-up is sampled in fresh processes
before and after it and reported as the median.  ``--trace 1`` runs a fixed
number of cases twice, untraced and traced, and reports the per-layer
metrics of the traced run plus its overhead; ``--seconds`` does not
apply, so that counts repeat exactly for a seed.

Times are reported at the reference speed of ``calibration.py``: each
wall-clock case latency is scaled by the calibration task's reference
time over its measured time around the case, and each set-up time by
that over the calibration right after set-up.  The last line of stdout
is the result object; the line before it holds the run metadata, the
output digest, the failure ratio, the unscaled figures and the median
calibration time.
``--workload all`` prints a table of every end-to-end metric instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "cli", "pl")
SETUP_SAMPLES = 15  # set-up samples per run, the timed worker included
TRACE_CASES = {"sweep": 240, "cli": 320, "pl": 42}  # whole blocks
SMOKE_CASES = {"sweep": 12, "cli": 16, "pl": 3}
NEAR_CALIBRATIONS = 2  # calibrations taken on each side of a case
RUN_BUDGET_S = 170.0


class WorkerFailed(RuntimeError):
    pass


class Runner:
    """Starts worker processes within one overall time budget."""

    def __init__(self, workload: str, seed: str):
        self.workload = workload
        self.seed = seed
        self.deadline = perf_counter() + RUN_BUDGET_S

    def spawn(self, *extra: str) -> dict:
        command = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
                   "--seed", self.seed, *extra]
        spawned_at = perf_counter()
        proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise WorkerFailed(f"{self.workload} worker ran out of time") from None
        if proc.returncode != 0 or not out.strip():
            raise WorkerFailed(f"{self.workload} worker exited with {proc.returncode}")
        result = json.loads(out.splitlines()[-1])
        # Set-up runs from process start to the end of the warm-up, minus
        # the benchmark's own work: input generation and document writes.
        result["setup_s"] = result["setup_ended_at"] - spawned_at - result["own_s"]
        return result


def percentile(sorted_values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * share)) - 1]


def end_to_end(runner: Runner, seconds: float, smoke: bool) -> tuple[dict, dict]:
    # Half the set-up samples come before the timed run and half after it,
    # so that they do not all fall into one slow spell of a shared core.
    half = 1 if smoke else SETUP_SAMPLES // 2
    probes = [runner.spawn("--probe") for _ in range(half)]
    if smoke:
        main = runner.spawn("--cases", str(SMOKE_CASES[runner.workload]))
    else:
        main = runner.spawn("--seconds", str(seconds))
    probes += [runner.spawn("--probe") for _ in range(half)]
    metrics = latency_metrics(scaled_latencies(main))
    metrics["setup_s"] = (statistics.median(scaled_setup(p) for p in [*probes, main]), "s")
    metrics["peak_rss_mb"] = (main["peak_rss_mb"], "MB")
    main["unscaled_setup_s"] = statistics.median(p["setup_s"] for p in [*probes, main])
    return main, metrics


def scaled_latencies(worker: dict) -> list[float]:
    """Case latencies at the reference speed of ``calibration.py``.

    Each latency is multiplied by the calibration's reference time over
    the median of the calibrations around the case: the two taken last
    before it and the two taken first after it.
    """
    samples = worker["calibrations"]
    scaled = []
    for latency, before in zip(worker["latencies"], worker["calibrations_before"]):
        near = samples[max(0, before - NEAR_CALIBRATIONS):before + NEAR_CALIBRATIONS]
        scaled.append(latency * calibration.REFERENCE_S / statistics.median(near))
    return scaled


def scaled_setup(worker: dict) -> float:
    """Set-up time at the reference speed, by the calibration right after it."""
    return worker["setup_s"] * calibration.REFERENCE_S / worker["calibrations"][0]


def latency_metrics(latencies: list[float]) -> dict[str, tuple[float, str]]:
    latencies = sorted(latencies)
    return {
        "cases_per_s": (len(latencies) / sum(latencies), "1/s"),
        "case_p50_ms": (percentile(latencies, 0.50) * 1e3, "ms"),
        "case_p95_ms": (percentile(latencies, 0.95) * 1e3, "ms"),
    }


def traced(runner: Runner, smoke: bool) -> tuple[dict, dict]:
    cases = str((SMOKE_CASES if smoke else TRACE_CASES)[runner.workload])
    base = runner.spawn("--cases", cases)
    run = runner.spawn("--cases", cases, "--trace")
    if run["digest"] != base["digest"]:
        run["failed"] += 1
        run["first_failure"] = run["first_failure"] or "traced outputs differ from untraced ones"
    metrics = {name: tuple(metric) for name, metric in run["layers"].items()}
    metrics["trace.overhead_ratio"] = (sum(scaled_latencies(run)) / sum(scaled_latencies(base)), "1")
    run["attempted"] += base["attempted"]
    run["failed"] += base["failed"]
    run["first_failure"] = run["first_failure"] or base["first_failure"]
    return run, metrics


def metadata(worker: dict) -> dict:
    """What ran: interpreter, sources and machine."""
    sha = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ftop").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            sources.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha256": sources.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "ftop_imported_from": worker["ftop_file"],
    }


def run_one(workload: str, seed: str, seconds: float, trace: bool, smoke: bool) -> tuple[dict, dict]:
    runner = Runner(workload, seed)
    worker, metrics = traced(runner, smoke) if trace else end_to_end(runner, seconds, smoke)
    attempted, failed = worker["attempted"], worker["failed"]
    if worker["first_failure"]:
        print(f"{workload}: first failure: {worker['first_failure']}", file=sys.stderr)
    summary = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "fail_ratio": {"value": failed / attempted, "unit": "1"},
        "digest": worker["digest"],
        "digest_cases": worker["digest_cases"],
        "unscaled": {
            **{name: value for name, (value, _) in latency_metrics(worker["latencies"]).items()},
            "setup_s": worker.get("unscaled_setup_s"),
        },
        "calibration_ms": statistics.median(worker["calibrations"]) * 1e3,
        "meta": metadata(worker),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return summary, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ftop benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few fixed cases per worker, for the benchmark's own tests")
    args = parser.parse_args(argv)
    try:
        if args.workload != "all":
            summary, result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
            print(json.dumps(summary))
            print(json.dumps(result))
            return 0
        print(f"{'workload':<10}{'metric':<16}{'value':>14}  unit")
        ok = True
        for workload in WORKLOADS:
            summary, result = run_one(workload, args.seed, args.seconds, False, args.smoke)
            ok = ok and result["correct"]
            rows = {**result["metrics"], "fail_ratio": summary["fail_ratio"]}
            for name, metric in rows.items():
                print(f"{workload:<10}{name:<16}{metric['value']:>14.6g}  {metric['unit']}")
        return 0 if ok else 1
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
