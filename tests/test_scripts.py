"""Smoke runs of the sweep scripts in scripts/, on a few samples."""

import subprocess
import sys

from conftest import ROOT


def _script(name, *args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_correspondence_sweep_runs():
    rc, out, err = _script("correspondence_sweep.py", "--n", "5", "--seed", "3")
    assert (rc, err) == (0, "")
    assert "modules:          5 " in out
    assert "violations:       0\n" in out


def test_encoding_sweep_runs():
    rc, out, err = _script("encoding_sweep.py", "--n", "20", "--seed", "3")
    assert (rc, err) == (0, "")
    assert "configurations:  20\n" in out
    assert "unsound:         0\n" in out
