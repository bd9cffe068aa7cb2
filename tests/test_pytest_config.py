"""The suite's pytest settings keep a failing property test reportable."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_AND_PASSING = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_failing_hypothesis_test_is_reported(tmp_path):
    # Hypothesis' plugin warns while it reports a failure; were that warning
    # an error, the session would end in INTERNALERROR (exit 3), with no
    # example printed and no later test run
    (tmp_path / "test_report.py").write_text(FAILING_AND_PASSING, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_report.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
