"""``repro.resilience`` re-exports nothing, so ``import repro`` (which
reaches the package through the engine's deadline and escalation
policy) does not load the run-state store, the journal codec or the
shard scheduler."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def test_import_repro_loads_only_deadline_and_escalate():
    probe = ("import sys, repro; "
             "print(' '.join(sorted(m for m in sys.modules "
             "if m.startswith('repro.resilience.'))))")
    done = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["repro.resilience.deadline",
                                   "repro.resilience.escalate"]
