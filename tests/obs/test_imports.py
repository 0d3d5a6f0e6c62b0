"""``repro.obs`` re-exports nothing, so ``import repro`` loads only the
tracer and the schema and metrics modules it needs, not the trace
replayers (``explain``, ``profile``) or the worker clock sync."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def test_import_repro_loads_only_the_tracer_and_its_schema():
    probe = ("import sys, repro; "
             "print(' '.join(sorted(m for m in sys.modules "
             "if m.startswith('repro.obs.'))))")
    done = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["repro.obs.events", "repro.obs.metrics",
                                   "repro.obs.tracer"]
