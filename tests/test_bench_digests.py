"""The benchmark's smoke digests, pinned.

``perfbench/run.py --smoke`` runs a few fixed cases of a workload and
prints the sha256 digest of their canonical output records, the line
before its result line.  A change that keeps every output byte-identical
keeps these digests; a change to what ftop outputs, or to the
benchmark's record format, must update them here, with the reason.

The benchmark runs in a subprocess on the sources of this checkout; the
test only reads ``perfbench/``, and writes no bytecode there.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SMOKE_DIGESTS = {
    "sweep": "368cd15dfd02cbbeac64846f0854c2ee17b4fba13d90cece34db5c6ae87af268",
    "cli": "7303dd7cff63f9403191a2ed318da0afa907ccc6fcd78da70063317d002ca71d",
    "pl": "c41bbd86c1b9e5e31cf84c710805441bf94ad6a973893451dd7e97dad80dbbb1",
}


@pytest.mark.parametrize("workload", sorted(SMOKE_DIGESTS))
def test_smoke_digest_is_unchanged(workload):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", "1", "--smoke"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    summary, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert result["correct"] and result["failed"] == 0, result
    assert summary["digest"] == SMOKE_DIGESTS[workload]
