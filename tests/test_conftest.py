"""The suite's conftest keeps a failing hypothesis property from ending a
run under `-W error`."""

import shutil
import subprocess
import sys
from pathlib import Path

PROPERTIES = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_failing_property_does_not_stop_the_run(tmp_path):
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "test_properties.py").write_text(PROPERTIES)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-W", "error", "-p", "no:cacheprovider"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
