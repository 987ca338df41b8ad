"""The repository's pytest settings."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_hypothesis_test_fails_alone(tmp_path):
    # a failing @given test is reported and the run goes on to the next
    # test, under the same warning filters as this suite
    (tmp_path / "pyproject.toml").write_text(PYPROJECT.read_text())
    (tmp_path / "test_three.py").write_text(
        textwrap.dedent(
            """
            from hypothesis import given, settings, strategies as st

            def test_before():
                pass

            @settings(max_examples=5, database=None, derandomize=True)
            @given(st.integers())
            def test_fails(x):
                assert x > 10**9

            def test_after():
                pass
            """
        )
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_three.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 2 passed" in result.stdout
