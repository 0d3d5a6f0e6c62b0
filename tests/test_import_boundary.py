"""The analysis path loads no numpy.

``import repro``, the CLI, the paper-kernel builders and a whole
``repro analyze`` run (inline, and in every ``--jobs`` worker) load only
the analysis core. numpy comes in with the interpreter
(``repro.runtime``), the audit and the experiment harness, and those
load only when something asks for them: the runtime names of the
package root resolve on first access.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
LBM = str(ROOT / "examples" / "lbm.f90")

#: Modules (with their submodules) the analysis path must not load.
FORBIDDEN = ("numpy", "repro.runtime", "repro.audit", "repro.experiments")

#: Installed as ``sitecustomize`` in every probed process, workers
#: included: at exit it writes the forbidden modules it loaded.
PROBE = f"""
import atexit, os, sys

def _dump():
    path = os.path.join(os.environ["PROBE_DIR"], f"{{os.getpid()}}.txt")
    with open(path, "w") as fh:
        fh.write(" ".join(sorted(
            m for m in sys.modules
            if any(m == f or m.startswith(f + ".") for f in {FORBIDDEN!r}))))

atexit.register(_dump)
"""


def _loaded(tmp_path, code):
    """Run *code* in a fresh interpreter; the forbidden modules each
    process it started loaded, one list per process."""
    site, out = tmp_path / "site", tmp_path / "out"
    site.mkdir()
    out.mkdir()
    (site / "sitecustomize.py").write_text(PROBE)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=os.pathsep.join((str(site), str(SRC))),
               PROBE_DIR=str(out))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return [p.read_text().split() for p in sorted(out.iterdir())]


ANALYZE = ["analyze", LBM, "-i", "srcgrid", "-o", "dstgrid", "--json"]


@pytest.mark.parametrize("code, processes", [
    ("import repro", 1),
    ("import repro.cli", 1),
    ("from repro.programs import build_lbm; build_lbm()", 1),
    (f"from repro.cli import main; raise SystemExit(main({ANALYZE!r}))", 1),
    (f"from repro.cli import main; "
     f"raise SystemExit(main({ANALYZE + ['--jobs', '1']!r}))", 2),
], ids=["import-repro", "import-cli", "build-lbm", "analyze",
        "analyze-jobs-1"])
def test_analysis_path_loads_no_numpy(tmp_path, code, processes):
    assert _loaded(tmp_path, code) == [[]] * processes


def test_runtime_name_loads_the_runtime(tmp_path):
    loaded = _loaded(tmp_path, "import repro; repro.profile_run")
    assert "repro.runtime" in loaded[0] and "numpy" in loaded[0]


def test_every_public_name_resolves():
    import repro.runtime
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
    assert set(repro.__all__) <= set(dir(repro))
    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["profile_run"] is repro.runtime.profile_run
    assert namespace["Memory"] is repro.runtime.Memory
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name
