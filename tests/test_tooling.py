"""The test settings, and the start-up cost every mfk process pays."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import mfkappa

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SRC = os.path.dirname(os.path.dirname(mfkappa.__file__))


def test_a_failing_given_test_is_reported_and_the_session_goes_on(tmp_path):
    # filterwarnings = error turns every warning into an error; hypothesis
    # warns while it reports a failing example, and that must not end the
    # session before the tests after it run
    (tmp_path / "test_given.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 0

        def test_after():
            pass
    """))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), str(tmp_path / "test_given.py")],
        capture_output=True, text=True, cwd=tmp_path)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[-1].startswith("1 failed, 1 passed")


def test_cli_import_leaves_out_concurrent_futures():
    # the cascade sampler's threads use threading alone: concurrent.futures
    # would add its import to every mfk process
    proc = subprocess.run(
        [sys.executable, "-c", "import mfkappa.cli, sys; "
         "print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.stdout == "False\n"
