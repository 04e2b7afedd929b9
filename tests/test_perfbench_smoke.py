"""The benchmark still runs against the library.

``perfbench/run.py`` calls ringmpc's public API (the protocols and their
manifests, ``MaterialStore.take_bte``, ``Need``) from its own process, so a
change there breaks the benchmark only when it runs. This test runs each
workload for one iteration as a subprocess and reads its last output line;
the benchmark files are only read.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["cmp32-b100k", "edit-L128", "mult9-z64-b100k"])
def test_workload_runs_one_correct_iteration(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.01"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] == 1
    assert result["failed"] == 0
