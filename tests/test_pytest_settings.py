"""The project's pytest settings, run on a test file of their own."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(n):
    assert n < 10


def test_a_later_test():
    pass
'''


def test_a_failing_property_does_not_end_the_run(tmp_path):
    # Reporting a failing property imports third-party modules whose
    # warnings the settings' "error" filter would otherwise turn into an
    # INTERNALERROR that hides every later test.
    (tmp_path / "test_property.py").write_text(_FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         str(tmp_path / "test_property.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert run.returncode == 1
