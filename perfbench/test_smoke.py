"""Smoke tests of the benchmark itself, on a few fixed cases per worker.

    python3 -m pytest -q perfbench/test_smoke.py
    python3 perfbench/test_smoke.py

They check that every metric named in BENCHMARK.json is emitted with its
unit, that two runs with one seed give the same output digest and the
same exact counts, which layers each workload leaves untouched, and that
the benchmark refuses to run without the ftop sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_COUNTS = ("oracle.grid_sets", "topology.operator.calls", "fset.leq.calls")


def run(workload: str, trace: int, seed: str = "7", cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / HERE.name / "run.py"), "--workload", workload,
               "--seed", seed, "--trace", str(trace), "--smoke"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def results(workload: str, trace: int) -> tuple[dict, dict]:
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    summary, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return summary, result


def declared(key: str) -> dict[str, str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in bench[key]}


def test_metrics_digests_and_counts():
    for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
        name = workload["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            first_summary, first = results(name, trace)
            second_summary, second = results(name, trace)
            for result in (first, second):
                assert result["correct"] and result["failed"] == 0, (name, trace)
                units = {metric: value["unit"] for metric, value in result["metrics"].items()}
                assert units == declared(key), (name, trace)
            assert first_summary["fail_ratio"]["value"] == 0
            assert first_summary["digest"] == second_summary["digest"], (name, trace)
            assert first_summary["meta"]["ftop_imported_from"] == "src/ftop/__init__.py"
            if trace:
                check_layers(name, first["metrics"], second["metrics"])


def check_layers(workload: str, first: dict, second: dict) -> None:
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], (workload, name)
    value = {name: metric["value"] for name, metric in first.items()}
    if workload != "pl":
        assert value["plin.calls"] == value["plin.points_in"] == value["plin.points_out_max"] == 0
    if workload == "sweep":
        assert value["degrees.calls"] == value["documents.calls"] == value["documents.bytes_in"] == 0
        assert value["oracle.grid_sets"] > 0 and value["fset.leq.calls"] > 0
    else:
        assert value["degrees.calls"] > 0 and value["documents.bytes_in"] > 0
        assert value["cli.calls"] > 0
    if workload == "pl":
        assert value["plin.points_in"] > 0 and value["fset.calls"] == 0


def test_refuses_to_run_without_sources():
    with tempfile.TemporaryDirectory(prefix="perfbench-bare-") as tmp:
        bare = Path(tmp)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run("sweep", 0, cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout == ""


if __name__ == "__main__":
    test_metrics_digests_and_counts()
    test_refuses_to_run_without_sources()
    print("ok")
