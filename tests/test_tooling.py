"""The pytest settings in pyproject.toml report failures rather than abort on them."""

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_TESTS = textwrap.dedent(
    """
    from hypothesis import given, strategies as st


    @given(st.integers())
    def test_property_fails(n):
        assert n < 10


    def test_plain_fails():
        assert 1 == 2
    """
)


def test_failing_property_test_is_reported_and_later_tests_run(tmp_path):
    # Warnings are errors, so a warning raised while hypothesis reports its
    # falsifying example would end the session with an INTERNALERROR.
    (tmp_path / "test_failing.py").write_text(FAILING_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_failing.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "FAILED test_failing.py::test_property_fails" in output
    assert "FAILED test_failing.py::test_plain_fails" in output
    assert "Falsifying example" in output
