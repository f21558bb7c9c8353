"""The suite's own pytest settings in ``pyproject.toml``, run on throwaway tests."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]

FAILING_PROPERTY_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    """Every warning is an error, and hypothesis's failure report imports a
    module that warns on import. Unignored, that warning ended the session
    with an INTERNALERROR before the next test ran."""
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_throwaway.py").write_text(FAILING_PROPERTY_THEN_PASSING)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
