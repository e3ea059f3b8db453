"""Demos 01-05 print exactly their golden output.

Each golden file under `tests/data/demos/` is the stdout of one demo. A
change that alters a printed value (a BER count, a frame, a digest) shows
here as a byte difference. To accept an intended change, rerun the demo and
overwrite its golden file.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tdmlink

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "demos"
# The child gets a minimal environment, so it must be told where the package
# under test lives, which matters when tdmlink is not pip-installed.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(tdmlink.__file__)))
DEMOS = (
    "01_line_coding",
    "02_scrambler_and_ber",
    "03_messages_and_bootstrap",
    "04_event_building",
    "05_throughput_sweep",
)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_output_matches_golden(demo, tmp_path):
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        capture_output=True,
        cwd=tmp_path,
        env={"PYTHONPATH": PACKAGE_ROOT, "PYTHONHASHSEED": "0", "PATH": "/usr/bin:/bin"},
        timeout=120,
    )
    assert out.returncode == 0, out.stderr.decode()
    assert out.stdout == (GOLDEN / f"{demo}.txt").read_bytes()
