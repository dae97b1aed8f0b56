"""The repository's pytest settings report every failing test by name."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PLANTED = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_given_fails(n):
    assert n != n


def test_plain_fails():
    assert False
'''


def test_a_failing_given_test_is_reported_by_name(tmp_path):
    """Under the repository's warning filters, a failing @given test and a
    failing plain test are both reported as FAILED, and nothing as an
    INTERNALERROR (which a warning raised inside hypothesis's report hook
    gives, naming no test)."""
    (tmp_path / "test_planted.py").write_text(PLANTED)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_planted.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "FAILED test_planted.py::test_given_fails" in out
    assert "FAILED test_planted.py::test_plain_fails" in out
    assert "2 failed" in out and proc.returncode == 1
