"""``repro.audit`` re-exports nothing, so importing one of its modules
loads only that module's own dependencies: the adjoint benchmark ops
import :mod:`repro.audit.numcheck` inside the timed op."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def test_numcheck_does_not_load_the_campaign_stack():
    probe = ("import sys, repro, repro.experiments.specs, "
             "repro.audit.numcheck; "
             "print(' '.join(sorted(m for m in sys.modules "
             "if m.startswith('repro.audit.'))))")
    done = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["repro.audit.numcheck"]
