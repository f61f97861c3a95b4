"""The bench tracer (``perfbench/tracer.py``) rebinds named functions of the
package; a deletion or rename of one of them must fail here, before a traced
bench run does."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_the_bench_tracer_installs_on_the_package():
    # a fresh interpreter, so that the wrappers never reach this test session
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install(tracer.Recorder())"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
