"""The repository's pytest configuration reports a failing property by name."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_drawn_value_is_small(x):
    assert x < 10


def test_after_the_property():
    pass
'''


def test_failing_property_is_named_and_later_tests_run(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert "FAILED test_failing.py::test_drawn_value_is_small" in out, out
    assert "1 failed, 1 passed" in out, out
    assert run.returncode == 1, out
