"""The repository's pytest settings keep a session running past a failure.

filterwarnings turns every warning into an error. When a hypothesis test
fails, the hypothesis plugin's report hook imports libcst, which imports
typing_inspect and so triggers a DeprecationWarning from mypy_extensions.
Unless that warning is ignored, pytest stops with an INTERNALERROR and no
later test runs.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_always_fails(x):
    assert x != x


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_end_session(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "-p", "no:cacheprovider", "-q", str(tmp_path / "test_probe.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
