"""Run a script in a fresh interpreter that imports this checkout's irislam."""

import os
import subprocess
import sys
from pathlib import Path


def run_fresh(script: str, *args: str) -> str:
    """Run script in a fresh interpreter that imports this checkout's
    irislam; returns its standard output."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
