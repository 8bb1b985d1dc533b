"""One workload in its own process: set up, run cases, report one JSON line.

Started by ``run.py``; not meant to be run by hand.  The process imports
``ftop`` from the checkout's ``src/`` (the package is not installed),
warms up on a few small fixed cases, then runs a closed loop with one
client: each case starts only after the previous one has finished and
been checked.  Input generation and output checks stay outside the
timed region of each case.

With ``--seconds`` the loop stops at the first block boundary after that
many seconds once it has run ``MIN_CASES`` cases, and in any case at
twice that many seconds.  With ``--cases`` it runs exactly that many
cases, so that counts repeat exactly for a given seed.  ``--probe`` stops
right after set-up, which lets the parent sample set-up time in fresh
processes.

Right after set-up, between cases at least every ``CALIBRATE_EVERY_S``
seconds, and after the last case, the worker times the fixed task of
``calibration.py``; each case records how many calibrations came
before it, so that ``run.py`` can take the ones around it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# 200 cases leave ten beyond p95.
MIN_CASES = 200
# The digest covers this prefix of the case sequence, which every full
# run completes, so runs of one seed can be compared byte for byte.
DIGEST_CASES = 200
CALIBRATE_EVERY_S = 0.25


def _import_ftop():
    sys.path.insert(0, str(SRC))
    import ftop

    origin = Path(ftop.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"ftop was imported from {origin}, not from {SRC}")
    return ftop


def write_files(case: dict, workdir: Path) -> None:
    for name, text in case.get("files", {}).items():
        (workdir / name).write_text(text, encoding="utf-8")


def run_loop(args, ftop, gen, cases, calibration, tracer, workdir: Path) -> dict:
    run, check = cases.RUNNERS[args.workload]
    # own_s is the benchmark's own time during set-up: input generation
    # and document writes.
    started = perf_counter()
    warmup = gen.warmup_cases(args.workload)
    own_s = perf_counter() - started
    for case in warmup:
        started = perf_counter()
        write_files(case, workdir)
        own_s += perf_counter() - started
        run(case)
    # Set-up ends here: what follows before the first timed case is the
    # benchmark's own work.
    result = {
        "ftop_file": str(Path(ftop.__file__).resolve().relative_to(ROOT)),
        "setup_ended_at": perf_counter(),
        "own_s": own_s,
        # The first calibration, which also scales the set-up time.
        "calibrations": [calibration.sample()],
    }
    if args.probe:
        return result
    if tracer is not None:
        tracer.release_spaces()
        tracer.reset()

    stream = gen.cases(args.workload, args.seed)
    block = gen.block_size(args.workload)
    first_case_at = None
    latencies: list[float] = []
    calibrations = result["calibrations"]
    calibrated_at = perf_counter()
    calibrations_before: list[int] = []
    problems: list[str] = []
    digest = hashlib.sha256()
    while True:
        index = len(latencies)
        if args.cases is not None and index >= args.cases:
            break
        if args.seconds is not None and index:
            elapsed = perf_counter() - first_case_at
            if elapsed >= 2 * args.seconds or (
                elapsed >= args.seconds and index >= MIN_CASES and index % block == 0
            ):
                break
        case = next(stream)
        write_files(case, workdir)
        calibrations_before.append(len(calibrations))
        begun = perf_counter()
        if first_case_at is None:
            first_case_at = begun
        try:
            output = run(case)
        except Exception as exc:  # a case that raises is a failed case
            latencies.append(perf_counter() - begun)
            problem, record = traceback.format_exc(), f"raised {type(exc).__name__}"
        else:
            latencies.append(perf_counter() - begun)
            problem, record = check(case, output)
        if tracer is not None:
            tracer.release_spaces()
        if index < DIGEST_CASES:
            digest.update(record.encode("utf-8") + b"\n")
        if problem is not None:
            problems.append(f"case {index} ({case.get('kind', args.workload)}): {problem}")
        if perf_counter() - calibrated_at >= CALIBRATE_EVERY_S:
            calibrations.append(calibration.sample())
            calibrated_at = perf_counter()
    calibrations.append(calibration.sample())

    result.update(
        latencies=latencies,
        calibrations_before=calibrations_before,
        attempted=len(latencies),
        failed=len(problems),
        first_failure=problems[0] if problems else None,
        digest=digest.hexdigest(),
        digest_cases=min(len(latencies), DIGEST_CASES),
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("sweep", "cli", "pl"))
    parser.add_argument("--seed", required=True)
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--seconds", type=float)
    group.add_argument("--cases", type=int)
    group.add_argument("--probe", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import gen

    ftop = _import_ftop()
    import calibration
    import cases

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(workdir)  # documents reach the CLI by bare file name
    try:
        result = run_loop(args, ftop, gen, cases, calibration, tracer, workdir)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another worker still uses it
            pass
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
