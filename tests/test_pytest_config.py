"""The pytest settings in pyproject.toml, run on a small probe file in a child pytest.

A failing hypothesis example must count as one failed test and leave the
session running the tests after it, while every other DeprecationWarning,
such as one from the project's own code, still fails its test.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_example(x):
    assert x < 5


def test_a_deprecation_fails():
    warnings.warn("this call is deprecated", DeprecationWarning)


def test_runs_after():
    pass
'''


def test_a_failing_hypothesis_example_is_one_failed_test(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    argv = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "--rootdir", str(tmp_path)]
    proc = subprocess.run([sys.executable, *argv, "test_probe.py"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout
    assert proc.stdout.splitlines()[-1].startswith("2 failed, 1 passed"), proc.stdout
    assert "test_probe.py::test_a_deprecation_fails - DeprecationWarning" in proc.stdout
