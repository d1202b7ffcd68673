"""The suite's own pytest settings: one failing test must not hide the rest."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY_THEN_PASSING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True, max_examples=5)
@given(st.integers())
def test_a_failing_property(n):
    assert n != 0


def test_b_passing():
    pass
'''


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    # Under filterwarnings = ["error"], a DeprecationWarning raised while
    # hypothesis reports a failure used to abort the run with INTERNALERROR,
    # so no later test reported a result.
    (tmp_path / "test_probe.py").write_text(FAILING_PROPERTY_THEN_PASSING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), str(tmp_path / "test_probe.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
