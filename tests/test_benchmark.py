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

MISSING_LAYERS = {
    "model": {
        "missing layer: decoding.beam_search (wrapped, never called)",
        # Called only by the width-1 cross-check, which runs untraced.
        "missing layer: decoding.greedy_decode (wrapped, never called)",
        "missing layer: tensor.relu (not found in medseq)",
        "missing layer: tensor.softmax (not found in medseq)",
        "missing layer: transformer.decode_logits (not found in medseq)",
    },
    "pipeline": set(),
}


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
    # Every layer the trace expects is wrapped and called, except these stale
    # ones of the model workload; a refactor that strands another one fails.
    missing = {line for line in proc.stderr.splitlines() if line.startswith("missing layer:")}
    assert missing == MISSING_LAYERS[workload], proc.stderr[-4000:]
