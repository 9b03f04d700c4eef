"""Outputs do not depend on Python's string hash seed.

The golden CLI test runs once more in a fresh interpreter with another
``PYTHONHASHSEED``, so set and dict orders that leak into any printed
or written byte show up as a digest mismatch.  The child writes no
cache files into the repository.
"""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def test_golden_cli_digest_holds_under_another_hash_seed():
    env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{TESTS / 'test_golden.py'}::test_cli_outputs_match_golden_digest"],
        cwd=TESTS.parent, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "1 passed" in proc.stdout
