"""The benchmark harness runs against this checkout.

``perfbench/run.py`` calls medseq's public functions by name and, when
traced, wraps them.  A renamed or removed function, or an exception outside
a timed operation, makes it exit non-zero, and the whole benchmark run
counts as failed.  A short traced run of each workload catches that here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["model", "pipeline"])
def test_short_traced_run_completes(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "4", "--trace", "1"],
        cwd=ROOT, env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    if workload == "pipeline":
        # Every layer the pipeline trace expects is still wrapped and called.
        assert "missing layer:" not in proc.stderr, proc.stderr[-4000:]
